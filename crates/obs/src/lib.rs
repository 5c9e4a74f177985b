//! Zero-cost-when-off metrics & event tracing for the sl2 runtime
//! crates.
//!
//! The production objects — `WideFaa`, the sharded registers, the
//! combining front-end — make step-count and contention claims (DWCAS
//! retries, probe widths, combiner batch sizes) that end-to-end timings
//! can only see as medians. This crate is the seam that makes
//! them observable, on the same terms as `sl2_chaos` (PR 7):
//!
//! * **Probes.** Hot paths are annotated with labeled hooks:
//!   [`count`]`("faa.dwcas_retry")`, [`record`]`("combine.batch_size",
//!   n)`, [`time`]`("combine.fold_batch")`, [`gauge`]`("depth", d)`.
//!   With the `obs` feature off (the default everywhere), every probe
//!   is an empty `#[inline(always)]` stub and [`Timer`] is a ZST: the
//!   production build is bit-for-bit unaffected (pinned by
//!   `tests/alloc_counter.rs`).
//! * **Armed registry.** With `obs` on, probes intern their label in a
//!   fixed lock-free table and update relaxed `AtomicU64` cells in
//!   cache-padded per-thread shards — no locks, no allocation, no
//!   synchronization edges added to the object under test (probe
//!   soundness: DESIGN.md §11).
//! * **Snapshots.** [`snapshot`] merges the shards into a
//!   [`MetricsSnapshot`] (counters summed, gauges max-folded,
//!   histograms bucket-merged with p50/p99/p999/max extraction), which
//!   serializes to JSON lines and exports via `SL2_METRICS_JSON`.
//!
//! The [`Histogram`] type itself is *not* feature-gated: the service
//! workers and the benchmark (`benchmark/`) record per-request
//! latencies into it directly, so percentiles exist in default builds.
//!
//! # Example
//!
//! ```
//! use sl2_obs as obs;
//!
//! // Disarmed by default: stubs compile to nothing, snapshots are
//! // empty. Armed (the root's `--features armed`), these fill the registry.
//! obs::count("doc.example.hits");
//! obs::record("doc.example.size", 17);
//! let t = obs::time("doc.example.span");
//! drop(t);
//! assert_eq!(obs::snapshot().is_empty(), !obs::armed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
mod report;

pub use hist::{bucket_of, Histogram, BUCKETS};
pub use report::MetricsSnapshot;

#[cfg(feature = "obs")]
mod armed;

#[cfg(feature = "obs")]
pub use armed::{add, count, gauge, record, reset, snapshot, time, Timer};

/// Number of cache-padded shards each metric is striped over when the
/// probe layer is armed (declared in every build, so shard-aware
/// callers compile in both configurations).
pub const SHARDS: usize = 16;

/// Whether the probe layer is compiled into this build.
#[inline(always)]
pub fn armed() -> bool {
    cfg!(feature = "obs")
}

/// Increments the counter under `label` by 1. Disarmed: empty stub.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn count(_label: &'static str) {}

/// Adds `n` to the counter under `label`. Disarmed: empty stub.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn add(_label: &'static str, _n: u64) {}

/// Raises the high-watermark gauge under `label` to at least `v`.
/// Disarmed: empty stub.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn gauge(_label: &'static str, _v: u64) {}

/// Records observation `v` into the histogram under `label`.
/// Disarmed: empty stub.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn record(_label: &'static str, _v: u64) {}

/// Drop guard recording elapsed nanoseconds into its label's
/// histogram. Disarmed: a ZST with no `Drop` glue.
#[cfg(not(feature = "obs"))]
#[derive(Debug)]
pub struct Timer(());

/// Starts a [`Timer`] over the histogram under `label`. Disarmed:
/// returns the ZST.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn time(_label: &'static str) -> Timer {
    Timer(())
}

/// Zeroes the registry. Disarmed: no-op.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn reset() {}

/// Merged view of the registry. Disarmed: always empty, so
/// report-emitting call sites need no feature gate.
#[cfg(not(feature = "obs"))]
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot::default()
}
