//! The NOMAD benchmark harness: the metric table, order statistics, the
//! open-loop load generator, span tracing and the host block.  The
//! workloads live in the binary (`src/main.rs`); this library holds the
//! parts its tests check.

pub mod host;
pub mod load;
pub mod metrics;
pub mod stats;
pub mod trace;
