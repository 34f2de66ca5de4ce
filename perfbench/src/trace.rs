//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out as JSONL when the run ends.
//!
//! Span 0 is the whole run (`bench.run`); engine calls and requests are
//! its children, and work inside a request (an IVF refresh) is a child
//! of the request's span and shares its request id.  A disabled
//! [`Tracer`] records nothing and costs one branch per call site; the
//! untraced runs that produce the end-to-end metrics use it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Id of the root span, `bench.run`.
const ROOT: u32 = 0;

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (index in the record).
    pub id: u32,
    /// `layer.operation`, e.g. `core.run` or `serve.top_k_approx`.
    pub name: &'static str,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Request id shared by the spans of one request (`0` = none).
    pub request: u64,
    /// For a request: when it was due to be sent (`start_ns` otherwise).
    pub due_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent inside the recording methods themselves.
    cost_ns: AtomicU64,
}

impl Tracer {
    /// A tracer whose root span starts now; `enabled = false` records
    /// nothing.
    pub fn new(enabled: bool) -> Self {
        let root = Span {
            id: ROOT,
            name: "bench.run",
            start_ns: 0,
            end_ns: 0,
            parent: None,
            request: 0,
            due_ns: 0,
        };
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(if enabled { vec![root] } else { Vec::new() }),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` on the span list, timing the bookkeeping as tracing cost.
    fn with_spans<T>(&self, f: impl FnOnce(&mut MutexGuard<'_, Vec<Span>>) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.spans.lock().expect("tracer lock is never poisoned"));
        self.cost_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn push(
        &self,
        name: &'static str,
        due: Instant,
        start: Instant,
        end: Instant,
        parent: u32,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let (due_ns, start_ns, end_ns) = (self.ns(due), self.ns(start), self.ns(end));
        self.with_spans(|spans| {
            let id = spans.len() as u32;
            let request = if parent == ROOT {
                0
            } else {
                spans[parent as usize].request
            };
            spans.push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                request,
                due_ns,
            });
            Some(id)
        })
    }

    /// Records a completed call into a layer (an engine call, a timed
    /// loop) as a child of the run.
    pub fn call(&self, name: &'static str, start: Instant, end: Instant) {
        self.push(name, start, start, end, ROOT);
    }

    /// Opens the span of one request, due at `due` and submitted now; its
    /// id is also its request id.  Close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, due: Instant) -> Option<u32> {
        let now = Instant::now();
        let id = self.push(name, due, now, now, ROOT)?;
        self.with_spans(|spans| spans[id as usize].request = u64::from(id));
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] at the current time.
    pub fn end(&self, id: Option<u32>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.with_spans(|spans| spans[id as usize].end_ns = now);
        }
    }

    /// Records work done inside the request span `parent`.
    pub fn child(&self, name: &'static str, start: Instant, end: Instant, parent: Option<u32>) {
        if let Some(parent) = parent {
            self.push(name, start, start, end, parent);
        }
    }

    /// Closes the root span and returns every span recorded.
    pub fn finish(&self) -> Vec<Span> {
        let now = self.ns(Instant::now());
        self.with_spans(|spans| {
            if let Some(root) = spans.first_mut() {
                root.end_ns = now;
            }
            spans.to_vec()
        })
    }

    /// Time spent recording, in seconds.
    pub fn cost_seconds(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its children cover (overlapping children count once),
/// summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children.entry(parent.id).or_default().push((lo, hi));
            }
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(iv) = children.get_mut(&s.id) {
            iv.sort_unstable();
            let mut reach = 0;
            for &(lo, hi) in iv.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// The spans as JSONL, one object per line, after a `header` line.
pub fn to_jsonl(header: &str, spans: &[Span]) -> String {
    let mut s = String::with_capacity(96 * (spans.len() + 1));
    s.push_str(header);
    s.push('\n');
    for sp in spans {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"id\":{},\"name\":\"{}\",\"due_ns\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            sp.id, sp.name, sp.due_ns, sp.start_ns, sp.end_ns, parent, sp.request
        );
    }
    s
}
