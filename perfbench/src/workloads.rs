//! The four workloads.  Each one times calls into the engines' public
//! entry points from outside and reads the counters those crates expose.
//!
//! Why these four (the layer each one stresses):
//! * `train-dense` — threaded engine, one worker, on an item-dense catalog
//!   (netflix-sim, ~1,400 ratings per item, k = 100): each hop carries
//!   ~1,400 updates, so the SGD kernel and the hop dominate; no wire, no
//!   snapshot.
//! * `train-sparse-procs` — two re-exec'd ranks over localhost TCP on an
//!   item-sparse catalog (yahoo-sim, ~200 ratings per item, k = 32): ~7×
//!   the bytes per update of netflix-sim, so `nomad-net` is on the
//!   critical path.
//! * `serve-procs` — two ranks train netflix-sim while `ServeRouter`
//!   answers an open-loop query stream: replica frames beside
//!   training frames on the wire.
//! * `serve-ivf-inproc` — threaded `run_serving` on yahoo-sim with one
//!   generator thread calling `QueryEngine::top_k_approx`: cooperative
//!   publish, per-epoch IVF patch, probe and rerank, without the wire.
//!
//! The training workloads end by answering the same kind of query
//! stream from the model they returned (a user who trains, then
//! serves), so every workload reports every end-to-end metric.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use nomad_cluster::ComputeModel;
use nomad_core::{NomadConfig, SerialNomad, StopCondition, ThreadedNomad};
use nomad_data::{
    generate, named_dataset, DatasetProfile, GeneratedDataset, SizeTier, SyntheticConfig,
};
use nomad_matrix::{RatingMatrix, SplitConfig};
use nomad_net::{Answer, DistributedNomad, NetConfig, RouterConfig, ServeRouter};
use nomad_perfbench::load::{
    run_open_loop, schedule, Outcome, Sample, SplitMix64, WeightedUsers, Window,
};
use nomad_perfbench::stats::{median, percentile_sorted, sorted};
use nomad_perfbench::trace::{self_time_by_layer, Tracer};
use nomad_serve::{IvfParams, QueryEngine, SnapshotPublisher};
use nomad_sgd::{FactorModel, HyperParams};
use nomad_telemetry::{names, Registry, TelemetrySnapshot};

/// Ratings per generated dataset (the `Medium` tier of the registry).
const DATA_NNZ: usize = 1_000_000;
/// Items per answer.
const TOP_K: usize = 10;
/// Share of a serving run's seconds spent in the query windows.
const SERVE_SHARE: f64 = 0.75;
/// A nominal window that ends at the service's close may run up to this
/// many times its planned length (a slower engine lasts longer).
const WINDOW_CAP: f64 = 2.0;
/// A nominal window shorter than this share of its planned length fails
/// a gate: too little of it was served to measure.
const MIN_WINDOW_SHARE: f64 = 0.25;
/// Minimal-budget calls whose median is `setup_s`.
const SETUP_REPS: usize = 7;
/// Users checked by the full-probe IVF == exact gate.
const IVF_GATE_USERS: u32 = 64;

/// Which engine entry point a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `ThreadedNomad::run`.
    Threaded,
    /// `DistributedNomad::run_processes`.
    Processes,
    /// `DistributedNomad::run_processes_serving` + `ServeRouter::query`.
    ProcessesServing,
    /// `ThreadedNomad::run_serving` + `QueryEngine::top_k_approx`.
    ThreadedServing,
}

/// The open-loop query stream of a workload: nominal rate, the fixed
/// ladder `serve_max_qps_slo` climbs, and the p99 latency limit.
#[derive(Debug, Clone, Copy)]
struct ServeSpec {
    /// Generator threads (the host has two cores).
    threads: usize,
    rate: f64,
    ladder: &'static [f64],
    limit_ms: f64,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    engine: Engine,
    dataset: fn() -> DatasetProfile,
    /// Table 1 hyper-parameters of the dataset, at latent dimension `k`.
    params: fn() -> HyperParams,
    k: usize,
    /// Worker threads (threaded) or ranks (processes).
    parallelism: usize,
    /// Updates per measured training call.
    call_budget: u64,
    /// Serving workloads: updates per second of query window in the
    /// measured call.  Calibrated once so that the call lasts about the
    /// window on the measurement host, and frozen, so that two builds
    /// train the same number of updates and `test_rmse` compares them.
    window_budget: u64,
    /// Updates per set-up call.
    setup_budget: u64,
    /// Serving workloads: a snapshot roughly every this many updates.
    publish_every: u64,
    serve: ServeSpec,
}

/// IVF probes per approximate query (`serve-ivf-inproc`).
const NPROBE: usize = 4;

const SPECS: &[Spec] = &[
    Spec {
        name: "train-dense",
        engine: Engine::Threaded,
        dataset: DatasetProfile::netflix,
        params: HyperParams::netflix,
        k: 100,
        // One worker: two workers on a two-vCPU host spread 0.23-0.25
        // (IQR / median over seeds) against 0.095 for one; see NOTES.md.
        parallelism: 1,
        call_budget: 8_000_000,
        window_budget: 0,
        setup_budget: 1,
        publish_every: 0,
        serve: ServeSpec {
            threads: 2,
            rate: 2_000.0,
            ladder: &[
                5_000.0, 10_000.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0, 120_000.0,
            ],
            limit_ms: 10.0,
        },
    },
    Spec {
        name: "train-sparse-procs",
        engine: Engine::Processes,
        dataset: DatasetProfile::yahoo_music,
        params: HyperParams::yahoo_music,
        k: 32,
        parallelism: 2,
        call_budget: 24_000_000,
        window_budget: 0,
        setup_budget: 1,
        publish_every: 0,
        serve: ServeSpec {
            threads: 2,
            rate: 2_000.0,
            ladder: &[5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 60_000.0],
            limit_ms: 10.0,
        },
    },
    Spec {
        name: "serve-procs",
        engine: Engine::ProcessesServing,
        dataset: DatasetProfile::netflix,
        params: HyperParams::netflix,
        k: 32,
        parallelism: 2,
        call_budget: 0,
        window_budget: 10_000_000,
        setup_budget: 8_000_000,
        publish_every: 1_000_000,
        serve: ServeSpec {
            threads: 2,
            rate: 50.0,
            ladder: &[100.0, 200.0, 400.0, 600.0, 800.0, 1_000.0, 1_200.0, 1_600.0],
            limit_ms: 200.0,
        },
    },
    Spec {
        name: "serve-ivf-inproc",
        engine: Engine::ThreadedServing,
        dataset: DatasetProfile::yahoo_music,
        params: HyperParams::yahoo_music,
        k: 32,
        parallelism: 1,
        call_budget: 0,
        window_budget: 11_000_000,
        setup_budget: 8_000_000,
        publish_every: 6_000_000,
        serve: ServeSpec {
            threads: 1,
            rate: 2_000.0,
            ladder: &[
                2_000.0, 4_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0, 48_000.0,
            ],
            limit_ms: 100.0,
        },
    },
];

/// The workload names, in the order `--all` runs them.
pub fn names() -> Vec<&'static str> {
    SPECS.iter().map(|s| s.name).collect()
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Engine calls and correctness gates attempted.
    pub calls: u64,
    /// Engine calls that returned `Err` or panicked, and failed gates.
    pub call_failures: u64,
    /// Queries attempted.
    pub queries: u64,
    /// Queries shed, timed out, failed or answered invalidly.
    pub query_failures: u64,
    /// `(name, value)` of every metric measured, end-to-end and per-layer.
    pub values: Vec<(&'static str, f64)>,
    /// Gate messages, for stderr.
    pub notes: Vec<String>,
    /// Spans as JSONL (traced runs only).
    pub spans_jsonl: Option<String>,
}

impl RunReport {
    fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A correctness gate: attempted, and failed unless `ok`.
    fn gate(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.calls += 1;
        if ok {
            self.notes.push(format!("gate passed: {what}"));
        } else {
            self.correct = false;
            self.call_failures += 1;
            self.notes.push(format!("GATE FAILED: {what}"));
        }
    }

    /// An engine call that returned `Err` or panicked.
    fn call_failed(&mut self, what: impl Into<String>) {
        self.call_failures += 1;
        self.notes.push(format!("CALL FAILED: {}", what.into()));
    }

    /// `run_fail_frac` and `serve_fail_frac`.
    fn set_fail_fracs(&mut self) {
        let run = self.call_failures as f64 / self.calls.max(1) as f64;
        let serve = self.query_failures as f64 / self.queries.max(1) as f64;
        self.set("run_fail_frac", run);
        self.set("serve_fail_frac", serve);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Runs workload `name` for about `seconds` of measurement.
///
/// # Errors
/// Unknown workload names.
pub fn run(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    host_json: &str,
) -> Result<RunReport, String> {
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (known: {})", names().join(", ")))?;
    let wall = Instant::now();
    let tracer = Tracer::new(trace);
    let mut report = RunReport {
        correct: true,
        ..RunReport::default()
    };

    // Inputs: generated from the seed, outside every timed region.
    let scaled = (spec.dataset)().scaled_to_nnz(DATA_NNZ, 0.02);
    let ds = generate(
        &SyntheticConfig::from_profile(&scaled, seed),
        SplitConfig::standard(seed ^ 0xDEAD),
    );
    // Query traffic follows the data: users are drawn in proportion to
    // their rating count.
    let rows = ds.matrix.by_rows();
    let users = WeightedUsers::new((0..ds.matrix.nrows()).map(|u| rows.row_nnz(u) as u64));

    anchor_gate(spec.engine, &mut report);

    let seconds = seconds.max(1) as f64;
    match spec.engine {
        Engine::Threaded | Engine::Processes => {
            train_workload(spec, &ds, &users, seed, seconds, &tracer, &mut report)
        }
        Engine::ProcessesServing => {
            serve_procs(spec, &ds, &users, seed, seconds, &tracer, &mut report)
        }
        Engine::ThreadedServing => {
            serve_ivf(spec, &ds, &users, seed, seconds, &tracer, &mut report)
        }
    }

    report.set("peak_rss_mb", peak_rss_mb());
    report.set_fail_fracs();
    if trace {
        report.set("sgd.ns_per_upd", sgd_ns_per_upd(spec, &ds, seed, &tracer));
        let spans = tracer.finish();
        let self_time = self_time_by_layer(&spans);
        for (layer, metric) in [
            ("core", "core.self_s"),
            ("net", "net.self_s"),
            ("serve", "serve.self_s"),
        ] {
            report.set(metric, self_time.get(layer).copied().unwrap_or(0.0));
        }
        let ns = report.get("sgd.ns_per_upd").unwrap_or(0.0);
        if let Some(worker) = report.get("core.worker_ns_per_upd") {
            report.set("core.hop_overhead_ns_per_upd", worker - ns);
        }
        report.set(
            "trace.overhead_frac",
            tracer.cost_seconds() / wall.elapsed().as_secs_f64(),
        );
        let header = format!(
            "{{\"schema\":\"perfbench-spans-v1\",\"workload\":\"{}\",\"seed\":{seed},\"host\":{host_json}}}",
            spec.name
        );
        report.spans_jsonl = Some(nomad_perfbench::trace::to_jsonl(&header, &spans));
    }
    Ok(report)
}

impl Spec {
    fn params(&self) -> HyperParams {
        (self.params)().with_k(self.k)
    }
}

fn config(spec: &Spec, budget: u64, seed: u64) -> NomadConfig {
    NomadConfig::new(spec.params())
        .with_stop(StopCondition::Updates(budget))
        .with_seed(seed)
        .with_schedule_recording(false)
}

/// The p = 1 anchors on a small fixed dataset: one worker thread (or one
/// rank process) must reproduce `SerialNomad` bit for bit.
fn anchor_gate(engine: Engine, report: &mut RunReport) {
    let ds = named_dataset("netflix-sim", SizeTier::Tiny)
        .expect("netflix-sim is always registered")
        .build();
    let cfg = NomadConfig::new(HyperParams::netflix().with_k(8))
        .with_stop(StopCondition::Updates(30_000))
        .with_seed(2024)
        .with_schedule_recording(false);
    let (serial, _) = SerialNomad::new(cfg).run(&ds.matrix, &ds.test, 1, &ComputeModel::hpc_core());
    match engine {
        Engine::Threaded | Engine::ThreadedServing => {
            let out = ThreadedNomad::new(cfg).run(&ds.matrix, &ds.test, 1, 1);
            report.gate(
                out.model == serial,
                "threaded(1) == SerialNomad, bit for bit",
            );
        }
        Engine::Processes | Engine::ProcessesServing => {
            match DistributedNomad::new(cfg, 1).run_processes(&ds.matrix) {
                Ok(out) => report.gate(
                    out.model == serial,
                    "1-rank processes == SerialNomad, bit for bit",
                ),
                Err(e) => report.gate(false, format!("1-rank processes anchor run failed: {e}")),
            }
        }
    }
}

/// What one training call returned.
struct Trained {
    model: FactorModel,
    updates: u64,
    seconds: f64,
    /// Process engines: the engine's own scatter → gather seconds.
    net: Option<nomad_net::NetStats>,
    /// Threaded engines in traced runs: the engine registry.
    telemetry: Option<TelemetrySnapshot>,
}

/// One training call through the workload's entry point, timed from the
/// call to the assembled model.
fn train_call(
    spec: &Spec,
    ds: &GeneratedDataset,
    budget: u64,
    seed: u64,
    tracer: &Tracer,
    span: &'static str,
) -> Result<Trained, String> {
    let cfg = config(spec, budget, seed);
    let start = Instant::now();
    let result = match spec.engine {
        Engine::Threaded => {
            let mut engine = ThreadedNomad::new(cfg);
            let registry = tracer.enabled().then(|| Arc::new(Registry::new()));
            if let Some(r) = &registry {
                engine = engine.with_telemetry(Arc::clone(r));
            }
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run(&ds.matrix, &ds.test, spec.parallelism, 1)
            }))
            .map(|out| Trained {
                model: out.model,
                updates: out.trace.metrics.updates,
                seconds: 0.0,
                net: None,
                telemetry: registry.map(|r| r.snapshot()),
            })
            .map_err(|_| "threaded engine panicked".to_string())
        }
        _ => DistributedNomad::new(cfg, spec.parallelism)
            .run_processes(&ds.matrix)
            .map(|out| Trained {
                model: out.model,
                updates: out.stats.updates,
                seconds: 0.0,
                net: Some(out.stats),
                telemetry: None,
            })
            .map_err(|e| format!("process engine failed: {e}")),
    };
    let end = Instant::now();
    tracer.call(span, start, end);
    result.map(|mut t| {
        t.seconds = (end - start).as_secs_f64();
        t
    })
}

/// `train-dense` and `train-sparse-procs`: measured training calls with
/// set-up calls between them until the time share is used, then the
/// query stream against the returned model.
fn train_workload(
    spec: &Spec,
    ds: &GeneratedDataset,
    users: &WeightedUsers,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    report: &mut RunReport,
) {
    let (setup_span, run_span) = match spec.engine {
        Engine::Threaded => ("core.setup_call", "core.run"),
        _ => ("net.setup_call", "net.run_processes"),
    };
    let mut setup = Vec::new();
    let mut setup_call = |report: &mut RunReport| {
        report.calls += 1;
        match train_call(spec, ds, spec.setup_budget, seed, tracer, setup_span) {
            Ok(t) => setup.push(t.seconds),
            Err(e) => report.call_failed(e),
        }
    };

    // Training calls: at least three, until 70% of the run is used, with
    // the set-up calls interleaved so that a short slow spell of the host
    // cannot decide `setup_s` alone.  Only the latest model is kept, so
    // peak memory does not grow with the number of calls a run fits in.
    let train_until = Instant::now() + Duration::from_secs_f64(0.7 * seconds);
    let (mut rates, mut rmses, mut call_s, mut launch) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Trained> = None;
    let mut setups = 0;
    while rates.len() < 3 || Instant::now() < train_until {
        if setups < SETUP_REPS {
            setups += 1;
            setup_call(report);
        }
        report.calls += 1;
        drop(last.take());
        match train_call(spec, ds, spec.call_budget, seed, tracer, run_span) {
            Ok(t) => {
                let rmse = nomad_sgd::rmse(&t.model, &ds.test);
                if !rmse.is_finite() {
                    report.gate(false, format!("test_rmse is not finite ({rmse})"));
                }
                rmses.push(rmse);
                rates.push(t.updates as f64 / t.seconds);
                call_s.push(t.seconds);
                if let Some(net) = &t.net {
                    launch.push(t.seconds - net.wall_seconds);
                }
                last = Some(t);
            }
            Err(e) => {
                report.call_failed(e);
                if rates.is_empty() && report.call_failures > 8 {
                    break;
                }
            }
        }
    }
    for _ in setups..SETUP_REPS {
        setup_call(report);
    }
    let setup_s = median(&setup).unwrap_or(f64::NAN);
    report.set("setup_s", setup_s);
    report.set("train_upd_per_s", median(&rates).unwrap_or(f64::NAN));
    report.set("test_rmse", median(&rmses).unwrap_or(f64::NAN));
    let Some(last) = last else { return };

    if tracer.enabled() {
        let steady_s = median(&call_s).unwrap_or(f64::NAN) - setup_s;
        let updates = last.updates as f64;
        report.set("core.steady_upd_per_s", updates / steady_s);
        report.set(
            "core.worker_ns_per_upd",
            spec.parallelism as f64 * steady_s * 1e9 / updates,
        );
        if let Some(stats) = &last.net {
            report.set("net.launch_s", median(&launch).unwrap_or(0.0));
            net_training_layers(stats, report);
        }
        if let Some(t) = &last.telemetry {
            core_layers(t, report);
        }
    }

    // The user of a training run serves from the model it returned.
    let publisher = SnapshotPublisher::new(1);
    publisher.begin_run(ds.matrix.nrows(), ds.matrix.ncols(), spec.k, 1);
    publisher.publish_model(&last.model, last.updates);
    let qe = QueryEngine::new(&publisher, 1);
    let rows = ds.matrix.by_rows();
    let service = |_: Instant, _: Option<u32>, user: u32| {
        let seen = rows.row_cols(user as usize);
        match qe.top_k(user, TOP_K, seen) {
            Ok(top) if valid_answer(top.recs.iter().map(|r| (r.item, r.score)), seen) => {
                Outcome::Fresh { staleness: 0 }
            }
            Ok(_) => Outcome::Invalid,
            Err(_) => Outcome::Failed,
        }
    };
    let window = 0.3 * seconds;
    let served = serve_phase(
        spec,
        users,
        seed,
        window,
        false,
        tracer,
        "serve.top_k",
        &service,
    );
    served.report(spec, report, false);
}

/// Outcome of the nominal window plus the ladder.
struct Served {
    nominal: Window,
    /// Planned length of the nominal window.
    planned_s: f64,
    max_qps: f64,
    ladder: Vec<Sample>,
    notes: Vec<String>,
}

impl Served {
    /// Records the serving end-to-end metrics and the generator and
    /// service-time layers; the service time is `router.service_ms_*`
    /// when `router` answered, `serve.query_us_*` otherwise.
    fn report(&self, spec: &Spec, report: &mut RunReport, router: bool) {
        let nominal = &self.nominal.samples;
        let answered = nominal.iter().filter(|s| s.outcome.answered()).count();
        let all = nominal.len() + self.ladder.len();
        let failed = all - answered - self.ladder.iter().filter(|s| s.outcome.answered()).count();
        let invalid = nominal
            .iter()
            .chain(&self.ladder)
            .filter(|s| s.outcome == Outcome::Invalid)
            .count();
        report.gate(
            invalid == 0,
            format!("{invalid} of {all} answers broke the top-k contract (≤ k items, descending, none seen)"),
        );
        let window_s = self.nominal.seconds();
        report.gate(
            window_s >= MIN_WINDOW_SHARE * self.planned_s,
            format!(
                "nominal window lasted {window_s:.2} s of {:.2} s planned (at least {:.0}% required)",
                self.planned_s,
                MIN_WINDOW_SHARE * 100.0
            ),
        );
        report.queries += all as u64;
        report.query_failures += failed as u64;
        report.set("serve_answered_qps", answered as f64 / window_s);
        let lat = sorted(&nominal.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        // A failed request is +inf; it is capped at the router deadline
        // only so the figure stays a JSON number.  No samples at all is
        // NaN, which makes the run not correct.
        let cap = RouterConfig::default().deadline.as_secs_f64() * 1e3;
        let pct = |p: f64| percentile_sorted(&lat, p).map_or(f64::NAN, |v| v.min(cap));
        report.set("serve_p50_ms", pct(50.0));
        report.set("serve_p99_ms", pct(99.0));
        report.set("serve_max_qps_slo", self.max_qps);
        let staleness: Vec<f64> = nominal
            .iter()
            .filter_map(|s| match s.outcome {
                Outcome::Fresh { staleness } | Outcome::Stale { staleness } => {
                    Some(staleness as f64)
                }
                _ => None,
            })
            .collect();
        report.set("serve_staleness_upd", median(&staleness).unwrap_or(0.0));
        let late = sorted(&nominal.iter().map(Sample::late_ms).collect::<Vec<_>>());
        report.set(
            "gen.late_ms_p99",
            percentile_sorted(&late, 99.0).unwrap_or(0.0),
        );
        let service = sorted(&nominal.iter().map(Sample::service_ms).collect::<Vec<_>>());
        let (p50, p99, scale) = if router {
            ("router.service_ms_p50", "router.service_ms_p99", 1.0)
        } else {
            ("serve.query_us_p50", "serve.query_us_p99", 1e3)
        };
        let p = |q: f64| percentile_sorted(&service, q).unwrap_or(0.0) * scale;
        report.set(p50, p(50.0));
        report.set(p99, p(99.0));
        report.notes.push(format!(
            "{}: {} requests due in the nominal window of {window_s:.2} s at {} q/s, {} \
             unanswered{} (p99 supported up to p{:.2}); latency from due p50 {:.3} / p90 {:.3} / \
             p99 {:.3} / max {:.3} ms",
            spec.name,
            lat.len(),
            spec.serve.rate,
            lat.len() - answered,
            if self.nominal.closed {
                ", ended when the run was over"
            } else {
                ""
            },
            nomad_perfbench::stats::supported_percentile(lat.len()).unwrap_or(0.0),
            pct(50.0),
            pct(90.0),
            pct(99.0),
            pct(100.0),
        ));
        report.notes.extend(self.notes.iter().cloned());
    }
}

/// The nominal window at the workload's rate, then (traced runs) the
/// ladder: each rung is a short window at a fixed higher rate.  The
/// highest rung that meets the latency limit without a growing backlog
/// is `serve_max_qps_slo`; the climb stops after two misses in a row, so
/// one transient stall does not end it.
///
/// `until_closed`: the service answers [`Outcome::Closed`] for requests
/// due after the engine call returned.  The untraced nominal window is then planned up
/// to [`WINDOW_CAP`] × `window_s` and ends at the close, so the query
/// load covers the whole measured call whatever its speed.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    spec: &Spec,
    users: &WeightedUsers,
    seed: u64,
    window_s: f64,
    until_closed: bool,
    tracer: &Tracer,
    span: &'static str,
    service: &(dyn Fn(Instant, Option<u32>, u32) -> Outcome + Sync),
) -> Served {
    // The ladder runs in traced runs only: its load varies with how far
    // it climbs, which would leak into the untraced end-to-end figures.
    let ladder_s = if tracer.enabled() {
        0.5 * window_s
    } else {
        0.0
    };
    let planned_s = window_s - ladder_s;
    let plan_s = if until_closed && !tracer.enabled() {
        WINDOW_CAP * planned_s
    } else {
        planned_s
    };
    let rung_s = ladder_s / spec.serve.ladder.len() as f64;
    // Each query is one request span: due → submit → return.
    let traced = |due: Instant, user: u32| {
        let id = tracer.begin(span, due);
        let out = service(due, id, user);
        tracer.end(id);
        out
    };
    let plan = schedule(
        users,
        spec.serve.rate,
        Duration::from_secs_f64(plan_s),
        seed,
    );
    let nominal = run_open_loop(&plan, Instant::now(), spec.serve.threads, traced);
    let (mut max_qps, mut misses) = (0.0, 0);
    let mut ladder = Vec::new();
    let mut notes = Vec::new();
    for (i, &rate) in spec
        .serve
        .ladder
        .iter()
        .enumerate()
        .filter(|_| tracer.enabled())
    {
        let plan = schedule(
            users,
            rate,
            Duration::from_secs_f64(rung_s),
            seed ^ (i as u64 + 1),
        );
        let rung = run_open_loop(&plan, Instant::now(), spec.serve.threads, traced).samples;
        let complete = rung.len() == plan.len();
        let lat = sorted(&rung.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        let p99_ok = percentile_sorted(&lat, 99.0).is_some_and(|p| p <= spec.serve.limit_ms);
        // No growing backlog: the last tenth of the rung was sent on time.
        let tail = &rung[rung.len() - rung.len() / 10..];
        let late =
            median(&tail.iter().map(Sample::late_ms).collect::<Vec<_>>()).unwrap_or(f64::INFINITY);
        let pass = complete && p99_ok && late <= spec.serve.limit_ms;
        notes.push(format!(
            "rung {rate} q/s: {} of {} due, p99 {:.3} ms, tail lateness {late:.3} ms -> {}",
            rung.len(),
            plan.len(),
            percentile_sorted(&lat, 99.0).unwrap_or(f64::NAN),
            if pass { "meets" } else { "misses" }
        ));
        ladder.extend(rung);
        if pass {
            max_qps = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == 2 {
                break;
            }
        }
    }
    Served {
        nominal,
        planned_s,
        max_qps,
        ladder,
        notes,
    }
}

/// `serve-procs`: two rank processes train while the router answers.
fn serve_procs(
    spec: &Spec,
    ds: &GeneratedDataset,
    users: &WeightedUsers,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    report: &mut RunReport,
) {
    let rows = ds.matrix.by_rows();
    let net_config = |budget: u64| {
        let mut cfg = NetConfig::new(config(spec, budget, seed));
        cfg.serve_publish_every = spec.publish_every;
        cfg
    };
    let query = |router: &ServeRouter, user: u32| {
        let seen = rows.row_cols(user as usize);
        match router.query(user, TOP_K, seen.to_vec()) {
            Ok(Answer::Fresh {
                staleness, recs, ..
            }) if valid_answer(recs.iter().copied(), seen) => Outcome::Fresh { staleness },
            Ok(Answer::Stale {
                staleness, recs, ..
            }) if valid_answer(recs.iter().copied(), seen) => Outcome::Stale { staleness },
            // Training quiesced: the driver finished the router, and it
            // answers "run over" from here on.  The serving window ends
            // at the earliest request that got this answer.
            Ok(Answer::RunOver) => Outcome::Closed {
                ended: Instant::now(),
            },
            Ok(_) => Outcome::Invalid,
            Err(_) => Outcome::Failed,
        }
    };

    // Set-up: engine call to the first fresh answer.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        report.calls += 1;
        let router = ServeRouter::new(RouterConfig::default());
        let start = Instant::now();
        let first = std::thread::scope(|scope| {
            let h = scope.spawn(|| {
                DistributedNomad::with_config(net_config(spec.setup_budget), spec.parallelism)
                    .run_processes_serving(&ds.matrix, &router)
            });
            let mut first = None;
            let mut rng = SplitMix64::new(seed);
            while first.is_none() && !h.is_finished() {
                let user = users.sample(&mut rng);
                match router.query(user, TOP_K, rows.row_cols(user as usize).to_vec()) {
                    Ok(Answer::Fresh { .. }) => first = Some(start.elapsed().as_secs_f64()),
                    Ok(Answer::RunOver) => break,
                    _ => std::thread::sleep(Duration::from_micros(200)),
                }
            }
            let end = Instant::now();
            tracer.call("net.setup_call", start, end);
            (first, h.join())
        });
        match first {
            (Some(t), Ok(Ok(_))) => setup.push(t),
            (_, Ok(Err(e))) => report.call_failed(format!("serving set-up call failed: {e}")),
            (None, _) => report.call_failed("serving set-up call never answered fresh"),
            (_, Err(_)) => report.call_failed("serving set-up call panicked"),
        }
    }
    report.set("setup_s", median(&setup).unwrap_or(f64::NAN));

    let window_s = SERVE_SHARE * seconds;
    let budget = serving_budget(spec, window_s, tracer);
    let router = ServeRouter::new(RouterConfig::default());
    report.calls += 1;
    let start = Instant::now();
    let (out, served) = std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            let out = DistributedNomad::with_config(net_config(budget), spec.parallelism)
                .run_processes_serving(&ds.matrix, &router);
            (out, Instant::now())
        });
        let mut rng = SplitMix64::new(seed);
        while !h.is_finished() {
            let user = users.sample(&mut rng);
            match router.query(user, TOP_K, rows.row_cols(user as usize).to_vec()) {
                Ok(Answer::Fresh { .. }) | Ok(Answer::RunOver) => break,
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        let served = serve_phase(
            spec,
            users,
            seed,
            window_s,
            true,
            tracer,
            "net.router_query",
            &|_, _, u| query(&router, u),
        );
        (h.join(), served)
    });
    let (out, end) = match out {
        Ok((Ok(out), end)) => (out, end),
        Ok((Err(e), _)) => return report.call_failed(format!("serving run failed: {e}")),
        Err(_) => return report.call_failed("serving run panicked"),
    };
    tracer.call("net.run_processes_serving", start, end);
    let call_s = (end - start).as_secs_f64();
    report.set("train_upd_per_s", out.stats.updates as f64 / call_s);
    let rmse = nomad_sgd::rmse(&out.model, &ds.test);
    report.gate(rmse.is_finite(), format!("test_rmse is finite ({rmse})"));
    report.set("test_rmse", rmse);
    served.report(spec, report, true);

    if tracer.enabled() {
        let setup_s = report.get("setup_s").unwrap_or(0.0);
        report.set(
            "core.steady_upd_per_s",
            out.stats.updates as f64 / (call_s - setup_s),
        );
        report.set(
            "core.worker_ns_per_upd",
            spec.parallelism as f64 * out.stats.wall_seconds * 1e9 / out.stats.updates as f64,
        );
        report.set("net.launch_s", call_s - out.stats.wall_seconds);
        net_training_layers(&out.stats, report);
        let bytes = out
            .stats
            .telemetry()
            .counter(names::BYTES_SENT)
            .unwrap_or(0);
        report.set(
            "net.serve_bytes_per_upd",
            bytes as f64 / out.stats.updates.max(1) as f64,
        );
        let r = router.stats();
        let total = r.submitted.max(1) as f64;
        report.set("router.fresh_frac", r.fresh as f64 / total);
        report.set("router.stale_frac", r.stale as f64 / total);
        report.set("router.retries", r.retries as f64);
        report.set("router.hedges", r.hedges as f64);
        report.set("router.shed", r.shed as f64);
        report.set("router.timeout", r.timeout as f64);
        report.set("net.max_publish_gap_upd", out.stats.max_publish_gap as f64);
        report.set(
            "net.max_staleness_upd",
            if out.stats.max_staleness == u64::MAX {
                0.0
            } else {
                out.stats.max_staleness as f64
            },
        );
    }
}

/// `serve-ivf-inproc`: one worker thread trains and publishes while one
/// generator thread asks the IVF index.
fn serve_ivf(
    spec: &Spec,
    ds: &GeneratedDataset,
    users: &WeightedUsers,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    report: &mut RunReport,
) {
    let rows = ds.matrix.by_rows();

    // Set-up: engine call to the first answered approximate query.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        report.calls += 1;
        let publisher = SnapshotPublisher::new(spec.publish_every);
        let qe = QueryEngine::new(&publisher, 1);
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let first = std::thread::scope(|scope| {
            let h =
                scope.spawn(|| {
                    let out = ThreadedNomad::new(config(spec, spec.setup_budget, seed))
                        .run_serving(&ds.matrix, &ds.test, spec.parallelism, 1, &publisher);
                    done.store(true, Ordering::SeqCst);
                    out
                });
            let mut first = None;
            let mut rng = SplitMix64::new(seed);
            while first.is_none() && !done.load(Ordering::SeqCst) {
                let user = users.sample(&mut rng);
                if qe
                    .top_k_approx(user, TOP_K, NPROBE, rows.row_cols(user as usize))
                    .is_ok()
                {
                    first = Some(start.elapsed().as_secs_f64());
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            let joined = h.join();
            tracer.call("core.setup_call", start, Instant::now());
            (first, joined.is_ok())
        });
        match first {
            (Some(t), true) => setup.push(t),
            (_, false) => report.call_failed("serving set-up call panicked"),
            (None, true) => report.call_failed("serving set-up call never answered"),
        }
    }
    report.set("setup_s", median(&setup).unwrap_or(f64::NAN));

    let window_s = SERVE_SHARE * seconds;
    let budget = serving_budget(spec, window_s, tracer);
    let publisher = SnapshotPublisher::new(spec.publish_every);
    let qe = QueryEngine::with_ivf_params(&publisher, 1, IvfParams::default());
    let registry = Arc::new(Registry::new());
    let live = registry.counter(names::UPDATES);
    let last_epoch = AtomicU64::new(0);
    let refresh_ms = std::sync::Mutex::new(Vec::new());
    let changed = std::sync::Mutex::new(Vec::new());
    let last_updates_at = AtomicU64::new(0);
    let engine_end = OnceLock::new();
    report.calls += 1;
    let start = Instant::now();
    let (out, served) = std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ThreadedNomad::new(config(spec, budget, seed))
                    .with_telemetry(Arc::clone(&registry))
                    .run_serving(&ds.matrix, &ds.test, spec.parallelism, 1, &publisher)
            }));
            let end = Instant::now();
            let _ = engine_end.set(end);
            (out, end)
        });
        let mut rng = SplitMix64::new(seed);
        while engine_end.get().is_none() {
            let user = users.sample(&mut rng);
            if qe
                .top_k_approx(user, TOP_K, NPROBE, rows.row_cols(user as usize))
                .is_ok()
            {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let ncols = ds.matrix.ncols() as f64;
        // Queries due before the engine call returned are answered, from
        // the final snapshot if the generator is behind.
        let service = |due: Instant, span: Option<u32>, user: u32| {
            if let Some(&ended) = engine_end.get().filter(|&&end| due >= end) {
                return Outcome::Closed { ended };
            }
            let seen = rows.row_cols(user as usize);
            let t0 = Instant::now();
            let answer = qe.top_k_approx(user, TOP_K, NPROBE, seen);
            let now_updates = live.get();
            match answer {
                Ok(top) if valid_answer(top.recs.iter().map(|r| (r.item, r.score)), seen) => {
                    let prev = last_epoch.swap(top.epoch, Ordering::Relaxed);
                    if prev != top.epoch && tracer.enabled() {
                        let t1 = Instant::now();
                        tracer.child("serve.ivf_refresh", t0, t1, span);
                        refresh_ms
                            .lock()
                            .expect("no panics while held")
                            .push((t1 - t0).as_secs_f64() * 1e3);
                        let since = last_updates_at.swap(top.updates_at, Ordering::Relaxed);
                        if prev != 0 {
                            let rows_changed = publisher.changed_items_since(since).len();
                            changed
                                .lock()
                                .expect("no panics while held")
                                .push(rows_changed as f64 / ncols);
                        }
                    }
                    Outcome::Fresh {
                        staleness: now_updates.saturating_sub(top.updates_at),
                    }
                }
                Ok(_) => Outcome::Invalid,
                Err(_) => Outcome::Failed,
            }
        };
        let served = serve_phase(
            spec,
            users,
            seed,
            window_s,
            true,
            tracer,
            "serve.top_k_approx",
            &service,
        );
        (h.join(), served)
    });
    let (out, end) = match out {
        Ok((Ok(out), end)) => (out, end),
        _ => return report.call_failed("serving run panicked"),
    };
    tracer.call("core.run_serving", start, end);
    let call_s = (end - start).as_secs_f64();
    let updates = out.trace.metrics.updates;
    report.set("train_upd_per_s", updates as f64 / call_s);
    let rmse = nomad_sgd::rmse(&out.model, &ds.test);
    report.gate(rmse.is_finite(), format!("test_rmse is finite ({rmse})"));
    report.set("test_rmse", rmse);
    served.report(spec, report, false);

    // Quiesced: the latest snapshot is the returned model, and a full
    // IVF probe returns exactly the exact scan.
    let latest = publisher.latest();
    report.gate(
        latest.as_ref().is_some_and(|s| s.to_model() == out.model),
        "quiesced publisher.latest() == returned model, bit for bit",
    );
    let full = qe.ivf_centroids().unwrap_or(usize::MAX);
    let mut rng = SplitMix64::new(seed ^ 0x1F5);
    let same = (0..IVF_GATE_USERS).all(|_| {
        let user = users.sample(&mut rng);
        let seen = rows.row_cols(user as usize);
        let approx = qe.top_k_approx(user, TOP_K, full, seen).map(|t| t.recs);
        let exact = qe.top_k(user, TOP_K, seen).map(|t| t.recs);
        approx.is_ok() && approx == exact
    });
    report.gate(
        same,
        format!("full-probe IVF == exact scan for {IVF_GATE_USERS} sampled users"),
    );

    if tracer.enabled() {
        let setup_s = report.get("setup_s").unwrap_or(0.0);
        report.set("core.steady_upd_per_s", updates as f64 / (call_s - setup_s));
        report.set(
            "core.worker_ns_per_upd",
            spec.parallelism as f64 * (call_s - setup_s) * 1e9 / updates as f64,
        );
        core_layers(&registry.snapshot(), report);
        let refresh = refresh_ms.into_inner().expect("threads joined");
        report.set("serve.ivf_refresh_ms", median(&refresh).unwrap_or(0.0));
        let changed = changed.into_inner().expect("threads joined");
        report.set("serve.changed_rows_frac", median(&changed).unwrap_or(0.0));
        report.set("serve.snapshots", publisher.snapshots_published() as f64);
        report.set(
            "serve.publish_gap_max_upd",
            publisher.max_publish_gap() as f64,
        );
    }
}

/// Reproduces a known engine defect found while sizing the workloads
/// (see `perfbench/NOTES.md`) and prints what happened.
///
/// # Errors
/// Unknown defect names.
pub fn repro(defect: &str) -> Result<(), String> {
    match defect {
        // One rank of netflix-sim Medium at k = 100: the scatter frame
        // exceeds the wire's frame limit.
        "frame-limit" => {
            let ds = named_dataset("netflix-sim", SizeTier::Medium)
                .expect("netflix-sim is always registered")
                .build();
            let cfg = NomadConfig::new(HyperParams::netflix())
                .with_stop(StopCondition::Updates(1_000_000))
                .with_seed(1)
                .with_schedule_recording(false);
            let start = Instant::now();
            let out = DistributedNomad::new(cfg, 1).run_processes(&ds.matrix);
            let secs = start.elapsed().as_secs_f64();
            match out {
                Ok(o) => println!(
                    "no defect: 1 rank finished {} updates in {secs:.2} s",
                    o.stats.updates
                ),
                Err(e) => println!("defect reproduced after {secs:.2} s: {e}"),
            }
        }
        // yahoo-sim Medium trained with netflix step sizes.
        "yahoo-netflix-params" => {
            let ds = named_dataset("yahoo-sim", SizeTier::Medium)
                .expect("yahoo-sim is always registered")
                .build();
            let cfg = NomadConfig::new(HyperParams::netflix().with_k(32))
                .with_stop(StopCondition::Updates(20_000_000))
                .with_seed(1)
                .with_schedule_recording(false);
            let out = ThreadedNomad::new(cfg).run(&ds.matrix, &ds.test, 2, 1);
            let rmse = nomad_sgd::rmse(&out.model, &ds.test);
            if rmse.is_finite() {
                println!("no defect: test RMSE {rmse}");
            } else {
                println!("defect reproduced: test RMSE {rmse}");
            }
        }
        other => {
            return Err(format!(
                "unknown defect {other:?} (known: frame-limit, yahoo-netflix-params)"
            ))
        }
    }
    Ok(())
}

/// The update budget of a measured serving call: the workload's frozen
/// updates per second of window.  A traced run adds a margin, so that the
/// call outlasts the ladder, whose load slows training, and no rung is
/// cut short by the engine's return.
fn serving_budget(spec: &Spec, window_s: f64, tracer: &Tracer) -> u64 {
    let margin = if tracer.enabled() { 1.3 } else { 1.0 };
    (spec.window_budget as f64 * window_s * margin) as u64
}

/// Every answer holds at most `TOP_K` items, in descending score order,
/// none of them already seen.
fn valid_answer(recs: impl Iterator<Item = (u32, f64)>, seen: &[u32]) -> bool {
    let mut prev = f64::INFINITY;
    let mut n = 0;
    for (item, score) in recs {
        n += 1;
        if n > TOP_K || score > prev || seen.contains(&item) {
            return false;
        }
        prev = score;
    }
    true
}

/// `engine.*` counters of a threaded run.
fn core_layers(t: &TelemetrySnapshot, report: &mut RunReport) {
    let updates = t.counter(names::UPDATES).unwrap_or(0) as f64;
    let tokens = t.counter(names::TOKENS).unwrap_or(0).max(1) as f64;
    report.set("core.upd_per_hop", updates / tokens);
    let depth = t
        .histogram(names::QUEUE_DEPTH)
        .and_then(|h| h.quantile(0.5))
        .unwrap_or(0);
    report.set("core.queue_depth_p50", depth as f64);
}

/// `net.*` counters of a process run (the fleet fold of every rank's
/// telemetry plus the driver's own scope).
fn net_training_layers(stats: &nomad_net::NetStats, report: &mut RunReport) {
    let fleet = stats.telemetry();
    let updates = stats.updates.max(1) as f64;
    let counter = |n: &str| fleet.counter(n).unwrap_or(0) as f64;
    core_layers(&fleet, report);
    report.set(
        "net.steady_upd_per_s",
        stats.updates as f64 / stats.wall_seconds,
    );
    report.set("net.bytes_per_upd", counter(names::BYTES_SENT) / updates);
    report.set("net.frames_per_upd", counter(names::FRAMES_SENT) / updates);
    report.set(
        "net.remote_frac",
        stats.remote_sends as f64 / stats.tokens_processed.max(1) as f64,
    );
    let live: Vec<u64> = stats
        .per_rank_updates
        .iter()
        .copied()
        .filter(|&u| u > 0)
        .collect();
    let (lo, hi) = (live.iter().min().copied(), live.iter().max().copied());
    report.set(
        "net.rank_imbalance",
        match (lo, hi) {
            (Some(lo), Some(hi)) => hi as f64 / lo as f64,
            _ => 0.0,
        },
    );
    report.set("net.evictions", counter(names::EVICTIONS));
    report.set("net.reminted", stats.reminted as f64);
    report.set("net.retries", counter(names::RETRIES));
}

/// Timed loop of `nomad_sgd::sgd_update` over the workload's ratings at
/// its k, one thread: nanoseconds per update.
fn sgd_ns_per_upd(spec: &Spec, ds: &GeneratedDataset, seed: u64, tracer: &Tracer) -> f64 {
    let data: &RatingMatrix = &ds.matrix;
    let mut model = FactorModel::init(data.nrows(), data.ncols(), spec.k, seed);
    let entries: Vec<_> = data.entries().collect();
    let (alpha, lambda) = (spec.params().alpha, spec.params().lambda);
    let passes = 3;
    let start = Instant::now();
    for _ in 0..passes {
        for e in &entries {
            std::hint::black_box(nomad_sgd::sgd_update(
                &mut model, e.row, e.col, e.value, alpha, lambda,
            ));
        }
    }
    let end = Instant::now();
    tracer.call("sgd.update_loop", start, end);
    (end - start).as_nanos() as f64 / (passes * entries.len()) as f64
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
