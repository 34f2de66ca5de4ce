//! The open-loop load generator: a seeded weighted user sampler, a fixed-rate
//! send schedule, and a runner that times every request from the moment
//! it was *due*, so a stall in the service shows in every request queued
//! behind it (no coordinated omission).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so schedules repeat per seed
/// without depending on the repository's own RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws user ids in proportion to a weight per user.  The workloads
/// pass each user's rating count, so query traffic follows the data's
/// own activity skew: the users who rated most ask most.  A user of
/// weight 0 is never drawn.
#[derive(Debug, Clone)]
pub struct WeightedUsers {
    /// `cdf[u]` = sum of the weights of users `0..=u`.
    cdf: Vec<u64>,
}

impl WeightedUsers {
    /// Sampler over users `0..weights.len()`.
    ///
    /// # Panics
    /// Panics if every weight is 0.
    pub fn new(weights: impl IntoIterator<Item = u64>) -> Self {
        let mut total = 0u64;
        let cdf: Vec<u64> = weights
            .into_iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        assert!(total > 0, "need at least one user of positive weight");
        Self { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let total = *self.cdf.last().expect("non-empty by construction");
        // Uniform in [0, total) by multiply-shift.
        let u = ((u128::from(rng.next_u64()) * u128::from(total)) >> 64) as u64;
        self.cdf.partition_point(|&c| c <= u) as u32
    }
}

/// How long before a due time the generator stops sleeping and spins:
/// a sleep can overshoot by tens of microseconds, which would otherwise
/// read as latency of a sub-millisecond service.
const SPIN: Duration = Duration::from_micros(200);

/// Sleeps until shortly before `due`, then spins until it.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One scheduled request: when it is due (offset from the window start)
/// and which user it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// Due time, relative to the start of the window.
    pub due: Duration,
    /// Queried user.
    pub user: u32,
}

/// A fixed-rate schedule: `rate` requests per second for `window`, users
/// drawn from `users` with a generator seeded by `seed`.
pub fn schedule(users: &WeightedUsers, rate: f64, window: Duration, seed: u64) -> Vec<Scheduled> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate * window.as_secs_f64()).round() as usize;
    (0..count)
        .map(|i| Scheduled {
            due: Duration::from_secs_f64(i as f64 / rate),
            user: users.sample(&mut rng),
        })
        .collect()
}

/// What a service call returned, as the generator classifies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered from the freshest model, `staleness` updates behind.
    Fresh {
        /// Updates the answering snapshot was behind the trainer.
        staleness: u64,
    },
    /// Answered from a degraded (stale) replica.
    Stale {
        /// Updates the answering replica was behind the trainer.
        staleness: u64,
    },
    /// Shed, timed out or failed.
    Failed,
    /// Answered, but the answer broke the top-k contract (too many items,
    /// not in descending score order, or an already-seen item).
    Invalid,
    /// The service had ended at `ended` (the engine call returned, or
    /// the router answered "run over") when the request was served.  The
    /// first such request in due order closes the window: it and every
    /// request due later are outside it, and the window lasts until its
    /// `ended`.
    Closed {
        /// When the service ended.
        ended: Instant,
    },
}

impl Outcome {
    /// Fresh or stale: an answer the user got.
    pub fn answered(&self) -> bool {
        matches!(self, Outcome::Fresh { .. } | Outcome::Stale { .. })
    }
}

/// One scheduled request of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index into the schedule.
    pub index: usize,
    /// When the request was due.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
    /// When the answer came back.
    pub done: Instant,
    /// The outcome.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the scheduled send time, in milliseconds; `+inf` for
    /// a request that got no valid answer.
    pub fn latency_ms(&self) -> f64 {
        if self.outcome.answered() {
            (self.done - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// Time inside the service call (submit → return), in milliseconds.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent this request, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// What one open-loop window produced.
#[derive(Debug, Clone)]
pub struct Window {
    /// Every request of the plan due before `end`, in schedule order.
    pub samples: Vec<Sample>,
    /// When the window started (the plan's time zero).
    pub start: Instant,
    /// When it ended: when the service ended, if it answered
    /// [`Outcome::Closed`], else the last answer.
    pub end: Instant,
    /// The service closed before the plan was through.
    pub closed: bool,
    /// Requests in the plan.
    pub planned: usize,
}

impl Window {
    /// Length of the window in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Runs `plan` open loop from `start` on `threads` generator threads.
/// Each thread claims the next due request, sleeps until it is due (or
/// sends at once if it is already late), and calls `service` with the
/// due time and the user.  A [`Outcome::Closed`] answer ends the window
/// for every thread.  Threads claim requests in due order, so every
/// request due before the service ended was sent and is in the window,
/// answered or not.
pub fn run_open_loop<F>(plan: &[Scheduled], start: Instant, threads: usize, service: F) -> Window
where
    F: Fn(Instant, u32) -> Outcome + Sync,
{
    let next = AtomicUsize::new(0);
    let closed = AtomicBool::new(false);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                while !closed.load(Ordering::Relaxed) {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = plan.get(index) else { break };
                    let due = start + req.due;
                    wait_until(due);
                    let sent = Instant::now();
                    let outcome = service(due, req.user);
                    let done = Instant::now();
                    local.push(Sample {
                        index,
                        due,
                        sent,
                        done,
                        outcome,
                    });
                    if matches!(outcome, Outcome::Closed { .. }) {
                        closed.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                out.lock()
                    .expect("no generator thread panics holding the lock")
                    .extend(local);
            });
        }
    });
    let mut samples = out.into_inner().expect("generator threads joined");
    samples.sort_by_key(|s| s.index);
    let close = samples.iter().find_map(|s| match s.outcome {
        Outcome::Closed { ended } => Some((s.due, ended)),
        _ => None,
    });
    let end = match close {
        Some((due, ended)) => {
            samples.retain(|s| s.due < due);
            ended
        }
        None => samples.iter().map(|s| s.done).max().unwrap_or(start),
    };
    Window {
        samples,
        start,
        end,
        closed: close.is_some(),
        planned: plan.len(),
    }
}
