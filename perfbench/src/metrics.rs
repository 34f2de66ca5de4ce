//! The metric names the benchmark reports, with unit and direction.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use crate::stats::Better;

/// An end-to-end metric: reported by every workload's untraced run.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric: reported by every workload's traced run (`0` on
/// a workload that never enters the layer).
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, with the bound each may worsen by.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("train_upd_per_s", "upd/s", Higher, 0.25),
    e2e("test_rmse", "rating", Lower, 0.03),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("serve_answered_qps", "q/s", Higher, 0.1),
    e2e("serve_p50_ms", "ms", Lower, 0.25),
];

/// The per-layer metrics.
pub const PER_LAYER: &[PerLayer] = &[
    // nomad-sgd
    layer("sgd.ns_per_upd", "ns", Lower),
    // nomad-core
    layer("core.steady_upd_per_s", "upd/s", Higher),
    layer("core.worker_ns_per_upd", "ns", Lower),
    layer("core.hop_overhead_ns_per_upd", "ns", Lower),
    layer("core.upd_per_hop", "upd", Higher),
    layer("core.queue_depth_p50", "tokens", Lower),
    // nomad-net, training
    layer("net.launch_s", "s", Lower),
    layer("net.steady_upd_per_s", "upd/s", Higher),
    layer("net.bytes_per_upd", "B", Lower),
    layer("net.frames_per_upd", "frames", Lower),
    layer("net.remote_frac", "ratio", Lower),
    layer("net.rank_imbalance", "ratio", Lower),
    layer("net.evictions", "count", Lower),
    layer("net.reminted", "count", Lower),
    layer("net.retries", "count", Lower),
    // nomad-net, serve_router
    layer("router.service_ms_p50", "ms", Lower),
    layer("router.service_ms_p99", "ms", Lower),
    layer("router.fresh_frac", "ratio", Higher),
    layer("router.stale_frac", "ratio", Lower),
    layer("router.retries", "count", Lower),
    layer("router.hedges", "count", Lower),
    layer("router.shed", "count", Lower),
    layer("router.timeout", "count", Lower),
    layer("net.serve_bytes_per_upd", "B", Lower),
    layer("net.max_publish_gap_upd", "updates", Lower),
    layer("net.max_staleness_upd", "updates", Lower),
    // nomad-serve
    layer("serve.query_us_p50", "us", Lower),
    layer("serve.query_us_p99", "us", Lower),
    layer("serve.ivf_refresh_ms", "ms", Lower),
    layer("serve.changed_rows_frac", "ratio", Lower),
    layer("serve.snapshots", "count", Higher),
    layer("serve.publish_gap_max_upd", "updates", Lower),
    // end-to-end outcomes that can legitimately read 0, or that are too
    // unsteady on a shared two-core host to carry a bound
    layer("serve_p99_ms", "ms", Lower),
    layer("serve_max_qps_slo", "q/s", Higher),
    layer("serve_staleness_upd", "updates", Lower),
    layer("run_fail_frac", "ratio", Lower),
    layer("serve_fail_frac", "ratio", Lower),
    // self time per layer, from the spans: time inside the benchmark's
    // calls into the layer, measured from outside (`core.self_s` holds
    // the engine call, kernel included)
    layer("core.self_s", "s", Lower),
    layer("net.self_s", "s", Lower),
    layer("serve.self_s", "s", Lower),
    // the benchmark itself
    layer("gen.late_ms_p99", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];
