//! Tests of the benchmark harness itself: input determinism, the
//! coordinated-omission property of the open-loop generator, the
//! percentile function, the regression rule, span self time, and the
//! agreement between the metric table and `BENCHMARK.json`.

use std::time::{Duration, Instant};

use nomad_perfbench::load::{run_open_loop, schedule, Outcome, SplitMix64, WeightedUsers};
use nomad_perfbench::metrics::{END_TO_END, PER_LAYER};
use nomad_perfbench::stats::{
    percentile_sorted, quartiles, regressed, sorted, supported_percentile, Better,
};
use nomad_perfbench::trace::{self_time_by_layer, Span};

/// Weights shaped like a skewed rating count per user.
fn skewed_weights(n: u64) -> Vec<u64> {
    (1..=n).map(|u| 1 + 10_000 / u).collect()
}

#[test]
fn user_sampler_and_schedule_repeat_per_seed() {
    let users = WeightedUsers::new(skewed_weights(1_000));
    let again = WeightedUsers::new(skewed_weights(1_000));
    let a = schedule(&users, 500.0, Duration::from_secs(2), 11);
    let b = schedule(&again, 500.0, Duration::from_secs(2), 11);
    assert_eq!(a.len(), 1_000);
    assert_eq!(a, b);
    let c = schedule(&users, 500.0, Duration::from_secs(2), 12);
    assert_ne!(a, c, "another seed draws other users");
    // Fixed rate: due times are evenly spaced.
    assert_eq!(a[1].due - a[0].due, Duration::from_millis(2));
}

#[test]
fn user_sampler_draws_in_proportion_to_weight() {
    // User 0 has no ratings; user 2 has three times user 1's.
    let users = WeightedUsers::new([0, 1, 3]);
    let mut rng = SplitMix64::new(5);
    let mut counts = [0u32; 3];
    for _ in 0..40_000 {
        counts[users.sample(&mut rng) as usize] += 1;
    }
    assert_eq!(counts[0], 0, "a user of weight 0 is never drawn");
    let ratio = f64::from(counts[2]) / f64::from(counts[1]);
    assert!((ratio - 3.0).abs() < 0.15, "ratio {ratio}");
}

/// A service that stalls once: every request queued behind the stall
/// must show it in its latency from the due time, although its own
/// service time is short (no coordinated omission).
#[test]
fn a_single_stall_shows_in_the_latency_of_later_requests() {
    let users = WeightedUsers::new(skewed_weights(100));
    let plan = schedule(&users, 1_000.0, Duration::from_millis(100), 1);
    let stall_at = 10;
    let calls = std::sync::atomic::AtomicUsize::new(0);
    let samples = run_open_loop(&plan, Instant::now(), 1, |_, _| {
        if calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == stall_at {
            std::thread::sleep(Duration::from_millis(50));
        }
        Outcome::Fresh { staleness: 0 }
    })
    .samples;
    assert_eq!(samples.len(), plan.len());
    let after = &samples[stall_at + 1];
    assert!(after.service_ms() < 10.0, "the next call itself is fast");
    assert!(
        after.latency_ms() > 40.0,
        "the stall must show in the next request's latency from due, got {} ms",
        after.latency_ms()
    );
    // Requests due during the stall were all sent late.
    let late = samples[stall_at + 1..stall_at + 40]
        .iter()
        .filter(|s| s.late_ms() > 5.0)
        .count();
    assert!(late >= 30, "only {late} requests show the backlog");
}

#[test]
fn failed_requests_count_as_infinite_latency() {
    let users = WeightedUsers::new(skewed_weights(10));
    let plan = schedule(&users, 10_000.0, Duration::from_millis(2), 1);
    let samples = run_open_loop(&plan, Instant::now(), 2, |_, _| Outcome::Failed).samples;
    assert!(samples.iter().all(|s| s.latency_ms().is_infinite()));
}

/// A service that stalls and then ends: the window ends at the first
/// request due after the end, and every request due before it is in the
/// window, the ones queued behind the stall with their wait.
#[test]
fn closed_service_ends_the_window_and_keeps_every_request_due_before() {
    let users = WeightedUsers::new(skewed_weights(10));
    let plan = schedule(&users, 1_000.0, Duration::from_millis(200), 1);
    let start = Instant::now();
    let close = start + Duration::from_millis(50);
    let calls = std::sync::atomic::AtomicUsize::new(0);
    let window = run_open_loop(&plan, start, 1, |due, _| {
        if due >= close {
            return Outcome::Closed { ended: close };
        }
        if calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 10 {
            // Stalls past the close.
            std::thread::sleep(Duration::from_millis(60));
        }
        Outcome::Fresh { staleness: 0 }
    });
    assert!(window.closed);
    assert_eq!(window.planned, 200);
    assert_eq!(window.end, close);
    assert_eq!(
        window.samples.len(),
        50,
        "every request due before the close"
    );
    assert!(window.samples.iter().all(|s| s.outcome.answered()));
    // The stall holds the generator from 10 ms to 70 ms: a request due
    // at i ms waits about 70 - i ms.
    for i in [11, 30, 49] {
        let waited = window.samples[i].latency_ms();
        assert!(
            waited > 70.0 - i as f64 - 5.0,
            "request {i} waited {waited} ms"
        );
    }
}

/// A service that ends like the serving router: from the end on it
/// answers "closed" to every request, including one still in flight at
/// the end.  The window ends at that in-flight request, which is outside
/// it with every later one, and lasts until the service ended.
#[test]
fn a_request_in_flight_at_the_end_closes_the_window() {
    let users = WeightedUsers::new(skewed_weights(10));
    let plan = schedule(&users, 1_000.0, Duration::from_millis(200), 1);
    let start = Instant::now();
    let end = start + Duration::from_millis(80);
    let in_flight = Duration::from_micros(39_500)..Duration::from_micros(40_500);
    let window = run_open_loop(&plan, start, 2, |due, _| {
        if in_flight.contains(&(due - start)) {
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
        }
        let now = Instant::now();
        if now >= end {
            return Outcome::Closed { ended: now };
        }
        Outcome::Fresh { staleness: 0 }
    });
    assert!(window.closed);
    assert_eq!(window.samples.len(), 40, "every request due before it");
    assert!(window.samples.iter().all(|s| s.outcome.answered()));
    assert!(window.end >= end);
}

#[test]
fn a_window_that_never_closes_ends_at_the_last_answer() {
    let users = WeightedUsers::new(skewed_weights(10));
    let plan = schedule(&users, 1_000.0, Duration::from_millis(20), 1);
    let window = run_open_loop(&plan, Instant::now(), 2, |_, _| Outcome::Fresh {
        staleness: 0,
    });
    assert!(!window.closed);
    assert_eq!(window.samples.len(), plan.len());
    assert_eq!(
        window.end,
        window.samples.iter().map(|s| s.done).max().unwrap()
    );
}

#[test]
fn nearest_rank_percentile_matches_a_sorted_oracle() {
    let mut rng = SplitMix64::new(9);
    for n in [1usize, 2, 3, 10, 99, 100, 101, 1_000] {
        let v: Vec<f64> = (0..n).map(|_| rng.next_f64() * 100.0).collect();
        let s = sorted(&v);
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            // Oracle: the smallest sample with at least p% at or below it.
            let oracle = s
                .iter()
                .copied()
                .find(|&x| s.iter().filter(|&&y| y <= x).count() as f64 >= p / 100.0 * n as f64)
                .unwrap();
            assert_eq!(percentile_sorted(&s, p), Some(oracle), "n={n} p={p}");
        }
    }
    assert_eq!(percentile_sorted(&[], 50.0), None);
    let with_failures = sorted(&[1.0, 2.0, f64::INFINITY, 3.0]);
    assert_eq!(
        percentile_sorted(&with_failures, 100.0),
        Some(f64::INFINITY)
    );
    assert_eq!(percentile_sorted(&with_failures, 75.0), Some(3.0));
}

#[test]
fn supported_percentile_leaves_ten_samples_beyond() {
    assert_eq!(supported_percentile(19), None);
    assert_eq!(supported_percentile(1_000), Some(99.0));
    assert_eq!(supported_percentile(10_000), Some(99.9));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    // == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
}

#[test]
fn regression_rule_flags_just_past_the_bound() {
    // Lower is better: 10% bound on 100 allows up to 110.
    assert!(!regressed(100.0, 110.0, Better::Lower, 0.1));
    assert!(regressed(100.0, 110.001, Better::Lower, 0.1));
    assert!(!regressed(100.0, 50.0, Better::Lower, 0.1));
    // Higher is better: 25% bound on 8.0 allows down to 6.0.
    assert!(!regressed(8.0, 6.0, Better::Higher, 0.25));
    assert!(regressed(8.0, 5.999, Better::Higher, 0.25));
    assert!(!regressed(8.0, 12.0, Better::Higher, 0.25));
}

#[test]
fn self_time_subtracts_children() {
    let span = |id, name, start_ns, end_ns, parent| Span {
        id,
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
        due_ns: start_ns,
    };
    let spans = vec![
        span(0, "serve.top_k_approx", 0, 1_000, None),
        span(1, "serve.ivf_refresh", 100, 700, Some(0)),
        span(2, "core.run", 0, 5_000, None),
    ];
    let t = self_time_by_layer(&spans);
    assert!(
        (t["serve"] - 1_000e-9).abs() < 1e-15,
        "400 ns self + 600 ns refresh"
    );
    assert!((t["core"] - 5_000e-9).abs() < 1e-15);
}

/// `BENCHMARK.json` names exactly the metrics the binary reports, with
/// the same units, directions and bounds.
#[test]
fn benchmark_json_lists_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
    for m in END_TO_END {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
        assert!(compact.contains(&entry), "missing end-to-end entry {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\" }}",
            m.name,
            m.unit,
            m.better.label()
        );
        assert!(compact.contains(&entry), "missing per-layer entry {entry}");
    }
    let names = compact.matches("\"name\": ").count();
    assert_eq!(
        names,
        END_TO_END.len() + PER_LAYER.len() + 4,
        "4 workloads plus the metrics"
    );
}
