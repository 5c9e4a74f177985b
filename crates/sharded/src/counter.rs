//! Process-striped counters over per-shard wide fetch&add registers,
//! production form: the exact [`ShardedFetchInc`] and the
//! [`RelaxedShardedCounter`] whose read meets only the §5-style
//! [`sl2_spec::relaxed::LaggingCounterSpec`].
//!
//! Increments are the cheap, wait-free part of sharding a counter:
//! process `p` raises its own lane in shard `p mod S` by one with one
//! fetch&add — a fixed linearization point, no cross-shard
//! coordination, and (with padding) no shared cache line between
//! stripes. Lanes count in the paper's unary code
//! ([`ShardedFetchInc::new`]) or the shipped log-width binary code
//! ([`ShardedFetchInc::new_binary`]; DESIGN.md §9 "Binary lanes"). What
//! sharding *gives up* is the read:
//!
//! * the **exact** read collects per-shard counts until two
//!   consecutive collects agree — exact and linearizable (stable
//!   collects pin every monotone shard over a common instant), but
//!   lock-free rather than wait-free;
//! * the **naive one-pass sum** is wait-free and can miss an increment
//!   that completed *before* another increment it counts. Each single
//!   sum is still linearizable (the landed count passes through the
//!   returned value somewhere inside the sweep), but the object is
//!   **not strongly linearizable** against the exact counter — no
//!   linearization choice survives every future, and the checker
//!   produces the `Witness` in `tests/non_sl_witnesses.rs`. The
//!   specification it meets *strongly* is the k-lagging counter.
//!
//! Global dense tickets are likewise exactly what striping gives up:
//! [`ShardedFetchInc::inc`] returns a [`ShardTicket`] — unique and
//! per-shard-dense, but not globally ordered. A globally dense
//! fetch&increment needs the single-register [`WideFetchInc`] route
//! (or Theorem 9's test&set array).
//!
//! [`WideFetchInc`]: sl2_core::algos::fetch_inc::WideFetchInc

use sl2_bignum::{LaneEncoding, Lanes, WideFaa};
use sl2_primitives::{Lines, Sharding};

/// A unique increment receipt: shard-dense, not globally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardTicket {
    /// Shard the increment landed in.
    pub shard: usize,
    /// 1-based position among that shard's increments.
    pub seq: u64,
}

/// Exact sharded counter: per-process-striped increments with a
/// stable-collect exact read.
///
/// # Examples
///
/// ```
/// use sl2_sharded::ShardedFetchInc;
///
/// let c = ShardedFetchInc::new(4, 2);
/// let t0 = c.inc(0); // shard 0
/// let t1 = c.inc(1); // shard 1
/// assert_ne!(t0, t1);
/// assert_eq!(c.read(), 2);
/// ```
#[derive(Debug)]
pub struct ShardedFetchInc {
    shards: Lines<WideFaa>,
    lanes: Lanes,
    sharding: Sharding,
}

impl ShardedFetchInc {
    /// Creates a counter shared by `n` processes over `shards` stripes,
    /// with value 0 (unlike the 1-based §4.2 fetch&increment: this is a
    /// counter, not a ticket dispenser), counting in the paper's unary
    /// code.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `shards == 0`, or `shards` exceeds
    /// [`sl2_primitives::MAX_SHARDS`].
    pub fn new(n: usize, shards: usize) -> Self {
        ShardedFetchInc::with_encoding(n, shards, LaneEncoding::Unary)
    }

    /// The shipped form: binary lanes (panics as [`ShardedFetchInc::new`]).
    pub fn new_binary(n: usize, shards: usize) -> Self {
        ShardedFetchInc::with_encoding(n, shards, LaneEncoding::Binary)
    }

    /// Creates a counter with an explicit lane encoding (panics as
    /// [`ShardedFetchInc::new`]).
    pub fn with_encoding(n: usize, shards: usize, encoding: LaneEncoding) -> Self {
        ShardedFetchInc::over(Lines::new(shards, |_| WideFaa::new()), n, encoding)
    }

    /// As [`ShardedFetchInc::with_encoding`] over caller-placed stripe
    /// registers, one stripe per line (fresh registers: the count
    /// starts at 0) — see [`crate::ShardedMaxRegister::over`].
    pub fn over(shards: Lines<WideFaa>, n: usize, encoding: LaneEncoding) -> Self {
        ShardedFetchInc {
            sharding: Sharding::new(shards.len()),
            shards,
            lanes: Lanes::new(n, encoding),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sharding.shards()
    }

    /// Number of processes sharing the counter.
    pub fn processes(&self) -> usize {
        self.lanes.layout.processes()
    }

    /// Increments by one on behalf of `process`; returns the unique
    /// receipt. Wait-free: one own-lane probe plus one fetch&add on the
    /// home shard (only `process` writes that lane, so the probed
    /// value is stable across the two steps).
    pub fn inc(&self, process: usize) -> ShardTicket {
        let shard = self.sharding.of_process(process);
        sl2_obs::count(crate::probes::shard_ops(shard));
        let reg = &self.shards[shard];
        let mine = reg.read_with(|image| self.lanes.decode(process, image));
        // Chaos: the probe-then-adjust window. A crash-stop between
        // the own-lane probe and the landing fetch&add leaves the op
        // pending forever — legal for survivors' linearizability (the
        // increment never landed), exercised by the recorder suite.
        sl2_chaos::point("sharded.inc.pre_add");
        let (pos, neg) = self.lanes.adjustments(process, mine, mine + 1);
        let seq = reg.fetch_adjust_with(&pos, &neg, |old| self.lanes.sum(old) + 1);
        ShardTicket { shard, seq }
    }

    /// Count of increments landed in one shard (a single probe —
    /// atomic at shard granularity).
    pub fn shard_count_of(&self, shard: usize) -> u64 {
        self.shards[shard].read_with(|image| self.lanes.sum(image))
    }

    /// Exact read: collects the per-shard counts until two consecutive
    /// collects agree (see `Sharding::stable_collect`), then sums.
    /// Lock-free; a retry implies a concurrent increment landed.
    pub fn read(&self) -> u64 {
        self.sharding
            .stable_collect(|i| self.shard_count_of(i), |counts| counts.iter().sum())
    }

    /// One-pass sum with no stability check — the wait-free but only
    /// k-lagging read ([`RelaxedShardedCounter`] wraps this).
    pub fn read_relaxed(&self) -> u64 {
        (0..self.sharding.shards())
            .map(|i| self.shard_count_of(i))
            .sum()
    }

    /// Total width of the backing registers in bits (experiment E12's
    /// growth measure, summed over shards).
    pub fn register_bits(&self) -> usize {
        self.shards.iter().map(|s| s.bit_len()).sum()
    }

    /// True while every stripe is in `WideFaa`'s lock-free inline regime.
    pub fn is_inline_lock_free(&self) -> bool {
        self.shards.iter().all(|s| s.is_inline_lock_free())
    }
}

/// The relaxed face of [`ShardedFetchInc`]: same wait-free striped
/// increments, but its only read is the one-pass sum, so the object as
/// a whole is specified against
/// [`sl2_spec::relaxed::LaggingCounterSpec`] — a read may lag the exact
/// count by up to the number of increments concurrent with its sweep.
///
/// # Examples
///
/// ```
/// use sl2_sharded::RelaxedShardedCounter;
///
/// let c = RelaxedShardedCounter::new(2, 2);
/// c.inc(0);
/// c.inc(1);
/// // Single-threaded, the sweep cannot race anything: exact.
/// assert_eq!(c.read(), 2);
/// ```
#[derive(Debug)]
pub struct RelaxedShardedCounter {
    inner: ShardedFetchInc,
}

impl RelaxedShardedCounter {
    /// Creates a relaxed counter shared by `n` processes over `shards`
    /// stripes.
    ///
    /// # Panics
    ///
    /// As [`ShardedFetchInc::new`].
    pub fn new(n: usize, shards: usize) -> Self {
        RelaxedShardedCounter {
            inner: ShardedFetchInc::new(n, shards),
        }
    }

    /// Increments by one on behalf of `process` (wait-free, exact).
    pub fn inc(&self, process: usize) {
        self.inner.inc(process);
    }

    /// Wait-free one-pass read; lags the exact count by at most the
    /// number of increments concurrent with the sweep, and never runs
    /// ahead of it.
    pub fn read(&self) -> u64 {
        self.inner.read_relaxed()
    }

    /// The exact (lock-free) read, for harness assertions that want
    /// ground truth after quiescence.
    pub fn read_exact(&self) -> u64 {
        self.inner.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn sequential_counting_is_exact() {
        let c = ShardedFetchInc::new(3, 2);
        assert_eq!(c.read(), 0);
        for i in 1..=9u64 {
            c.inc((i % 3) as usize);
            assert_eq!(c.read(), i);
            assert_eq!(c.read_relaxed(), i, "no concurrency, no lag");
        }
    }

    #[test]
    fn tickets_are_unique_and_shard_dense() {
        let n = 4;
        let per_thread = 200;
        let c = Arc::new(ShardedFetchInc::new(n, 2));
        let mut tickets: Vec<ShardTicket> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (0..per_thread).map(|_| c.inc(p)).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                tickets.extend(h.join().expect("no panics"));
            }
        });
        let unique: BTreeSet<ShardTicket> = tickets.iter().copied().collect();
        assert_eq!(unique.len(), tickets.len(), "tickets must be unique");
        for shard in 0..2 {
            let mut seqs: Vec<u64> = tickets
                .iter()
                .filter(|t| t.shard == shard)
                .map(|t| t.seq)
                .collect();
            seqs.sort_unstable();
            let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
            assert_eq!(seqs, expect, "shard {shard} sequence must be dense");
        }
        assert_eq!(c.read(), (n * per_thread) as u64);
    }

    #[test]
    fn exact_reads_are_monotone_under_contention() {
        let c = Arc::new(ShardedFetchInc::new(4, 4));
        std::thread::scope(|s| {
            for p in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..300 {
                        c.inc(p);
                    }
                });
            }
            let c2 = Arc::clone(&c);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let v = c2.read();
                    assert!(v >= last, "exact read regressed {last} -> {v}");
                    last = v;
                }
            });
        });
        assert_eq!(c.read(), 1200);
        assert_eq!(c.read_relaxed(), 1200, "quiescent relaxed read is exact");
    }

    #[test]
    fn relaxed_reads_never_run_ahead() {
        let c = Arc::new(RelaxedShardedCounter::new(2, 2));
        let issued = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..2 {
                let c = Arc::clone(&c);
                let issued = Arc::clone(&issued);
                s.spawn(move || {
                    for _ in 0..400 {
                        // Count the increment before it lands: `issued`
                        // is then always ≥ the landed count, so any
                        // read ≤ landed ≤ issued.
                        issued.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        c.inc(p);
                    }
                });
            }
            let c2 = Arc::clone(&c);
            let issued2 = Arc::clone(&issued);
            s.spawn(move || {
                for _ in 0..300 {
                    let v = c2.read();
                    let cap = issued2.load(std::sync::atomic::Ordering::SeqCst);
                    assert!(v <= cap, "relaxed read {v} ran ahead of {cap} issued");
                }
            });
        });
        assert_eq!(c.read_exact(), 800);
    }

    #[test]
    fn one_shard_relaxed_read_is_exact() {
        // S = 1: the sweep is a single probe, so relaxed == exact.
        let c = ShardedFetchInc::new(3, 1);
        for p in [0, 1, 2, 0] {
            c.inc(p);
        }
        assert_eq!(c.read_relaxed(), c.read());
    }
}
