//! The armed probe implementation (feature `obs`): a fixed-capacity
//! lock-free label registry over cache-padded per-thread shards of
//! relaxed atomics.
//!
//! Design constraints, in order:
//!
//! * **Never perturb what it measures.** Probes take no locks and
//!   issue only `Relaxed` operations on cells private to the metrics
//!   layer — they cannot introduce synchronization edges between the
//!   threads of the object under test (DESIGN.md §11).
//! * **Scale with the workload.** Each metric is striped over
//!   [`SHARDS`] cache-padded shards indexed by the calling thread's
//!   [`labeled::slot`], so armed probes contend on instrumentation
//!   lines only when more threads than shards collide.
//! * **Allocation-free.** Labels are `&'static str` interned into
//!   static [`LabelTable`]s (fixed open-addressed `OnceLock` slots,
//!   FNV-1a probe order, content-verified).
//!
//! Totals only exist at snapshot time: [`snapshot`] folds the shards
//! into a [`MetricsSnapshot`] (counters summed, gauges max-folded,
//! histograms bucket-wise merged).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sl2_primitives::labeled::{self, LabelTable};
use sl2_primitives::CachePadded;

use crate::hist::{bucket_of, Histogram, BUCKETS};
use crate::report::MetricsSnapshot;
use crate::SHARDS;

const COUNTER_SLOTS: usize = 128;
const GAUGE_SLOTS: usize = 32;
const HIST_SLOTS: usize = 32;

struct CounterShard {
    cells: [AtomicU64; COUNTER_SLOTS],
}

struct GaugeShard {
    cells: [AtomicU64; GAUGE_SLOTS],
}

struct HistShard {
    buckets: [[AtomicU64; BUCKETS]; HIST_SLOTS],
    max: [AtomicU64; HIST_SLOTS],
}

static COUNTER_LABELS: LabelTable<COUNTER_SLOTS> = LabelTable::new();
static GAUGE_LABELS: LabelTable<GAUGE_SLOTS> = LabelTable::new();
static HIST_LABELS: LabelTable<HIST_SLOTS> = LabelTable::new();

static COUNTERS: [CachePadded<CounterShard>; SHARDS] = [const {
    CachePadded::new(CounterShard {
        cells: [const { AtomicU64::new(0) }; COUNTER_SLOTS],
    })
}; SHARDS];

static GAUGES: [CachePadded<GaugeShard>; SHARDS] = [const {
    CachePadded::new(GaugeShard {
        cells: [const { AtomicU64::new(0) }; GAUGE_SLOTS],
    })
}; SHARDS];

static HISTS: [CachePadded<HistShard>; SHARDS] = [const {
    CachePadded::new(HistShard {
        buckets: [const { [const { AtomicU64::new(0) }; BUCKETS] }; HIST_SLOTS],
        max: [const { AtomicU64::new(0) }; HIST_SLOTS],
    })
}; SHARDS];

#[inline]
fn shard() -> usize {
    labeled::slot() % SHARDS
}

/// Increments the counter under `label` by 1.
#[inline]
pub fn count(label: &'static str) {
    add(label, 1);
}

/// Adds `n` to the counter under `label`.
#[inline]
pub fn add(label: &'static str, n: u64) {
    let idx = COUNTER_LABELS.index_of(label);
    COUNTERS[shard()].cells[idx].fetch_add(n, Ordering::Relaxed);
}

/// Raises the high-watermark gauge under `label` to at least `v`
/// (gauges fold by max across shards at snapshot time).
#[inline]
pub fn gauge(label: &'static str, v: u64) {
    let idx = GAUGE_LABELS.index_of(label);
    GAUGES[shard()].cells[idx].fetch_max(v, Ordering::Relaxed);
}

/// Records observation `v` into the histogram under `label`.
#[inline]
pub fn record(label: &'static str, v: u64) {
    let idx = HIST_LABELS.index_of(label);
    let s = &HISTS[shard()];
    s.buckets[idx][bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    s.max[idx].fetch_max(v, Ordering::Relaxed);
}

/// Drop guard recording elapsed wall-clock nanoseconds into the
/// histogram under its label.
#[derive(Debug)]
#[must_use = "the timer records on drop — bind it for the timed span"]
pub struct Timer {
    label: &'static str,
    start: Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        record(self.label, ns);
    }
}

/// Starts a [`Timer`] over the histogram under `label`.
#[inline]
pub fn time(label: &'static str) -> Timer {
    Timer {
        label,
        start: Instant::now(),
    }
}

/// Zeroes every shard cell. Labels stay registered (the interning
/// tables are append-only); their totals restart from 0.
pub fn reset() {
    for s in &COUNTERS {
        for c in &s.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
    for s in &GAUGES {
        for c in &s.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
    for s in &HISTS {
        for row in &s.buckets {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
        for c in &s.max {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Folds every shard into a [`MetricsSnapshot`]: counters summed,
/// gauges max-folded, histograms bucket-wise merged, entries sorted by
/// label. Concurrent updates may or may not be included (relaxed
/// merge-at-snapshot semantics, DESIGN.md §11); quiesce writers first
/// for exact totals.
pub fn snapshot() -> MetricsSnapshot {
    let mut counters: Vec<(String, u64)> = COUNTER_LABELS
        .labels()
        .map(|(i, l)| {
            let total = COUNTERS
                .iter()
                .map(|s| s.cells[i].load(Ordering::Relaxed))
                .sum();
            (l.to_string(), total)
        })
        .collect();
    counters.sort();

    let mut gauges: Vec<(String, u64)> = GAUGE_LABELS
        .labels()
        .map(|(i, l)| {
            let hi = GAUGES
                .iter()
                .map(|s| s.cells[i].load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            (l.to_string(), hi)
        })
        .collect();
    gauges.sort();

    let mut histograms: Vec<(String, Histogram)> = HIST_LABELS
        .labels()
        .map(|(i, l)| {
            let mut buckets = [0u64; BUCKETS];
            let mut max = 0u64;
            for s in &HISTS {
                for (b, cell) in buckets.iter_mut().zip(s.buckets[i].iter()) {
                    *b += cell.load(Ordering::Relaxed);
                }
                max = max.max(s.max[i].load(Ordering::Relaxed));
            }
            (l.to_string(), Histogram::from_parts(buckets, max))
        })
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}
