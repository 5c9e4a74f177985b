//! The combining front-end instantiated over the §3 sharded objects,
//! one rung of delegation each — the taxonomy DESIGN.md §8 derives:
//!
//! | object | what combines | why not more |
//! |---|---|---|
//! | [`CombiningMaxRegister`] | application **and** publication | writes are lane-independent: a helper re-attributes the value to its own lane |
//! | [`CombiningCounter`] | publication only | increments are owner-attributed units; non-blocking delegation cannot be exactly-once at consensus number 2 |
//! | [`CombiningSnapshot`] | the read cache only | updates overwrite — not even monotone, so stale help could regress a component |
//!
//! The first two are one type, [`Combiner`], over a [`Combinable`]
//! and a [`Foldable`] inner object; the snapshot keeps its own type,
//! because its cache is multi-word. All three share the 1-load (or
//! optimistic multi-word) cached read and the exact stable path as
//! fallback; the cached read's strong-linearizability verdicts are in
//! [`crate::machines`].

use sl2_sharded::{ShardedFetchInc, ShardedMaxRegister, ShardedSnapshot};

use crate::combiner::{Combinable, Combiner, Foldable};
use crate::slots::{CombinerLock, SeqCache};

// ---------------------------------------------------------------------
// Max register
// ---------------------------------------------------------------------

impl Foldable for ShardedMaxRegister {
    fn processes(&self) -> usize {
        ShardedMaxRegister::processes(self)
    }

    fn fold_relaxed(&self) -> u64 {
        self.read_max_relaxed()
    }

    fn fold_exact(&self) -> u64 {
        use sl2_core::algos::MaxRegister;
        self.read_max()
    }
}

impl Combinable for ShardedMaxRegister {
    type Op = u64;

    fn encode(op: u64) -> u64 {
        op
    }

    fn decode(word: u64) -> u64 {
        word
    }

    fn apply(&self, applier: usize, op: u64) {
        // §3.1 write_max through the *applier's* lane: the fold takes
        // the maximum over all lanes, so any lane can carry the value —
        // the re-attribution that keeps helping inside the
        // single-writer-per-lane discipline.
        use sl2_core::algos::MaxRegister;
        self.write_max(applier, op);
    }

    fn fold_batch(prev: u64, op: u64) -> u64 {
        // Max-merge: idempotent (a value the cache already covers is
        // absorbed), monotone, never ahead of the landed fold when its
        // inputs are not.
        prev.max(op)
    }
}

/// A [`ShardedMaxRegister`] behind the combining front-end: writes are
/// announced and batched (or applied directly on a lost election;
/// [`Combiner::apply`] reports the route), reads choose between the
/// 1-load cached fold ([`Combiner::read_cached`], which strongly meets
/// `sl2_spec::relaxed::LaggingMaxSpec` and is refuted against the exact
/// spec) and the exact stable fold.
///
/// # Examples
///
/// ```
/// use sl2_combine::CombiningMaxRegister;
/// use sl2_sharded::ShardedMaxRegister;
/// use sl2_core::algos::MaxRegister;
///
/// let m = CombiningMaxRegister::new(ShardedMaxRegister::new(4, 4));
/// m.write_max(2, 17);
/// assert_eq!(m.read_cached(), 17);
/// assert_eq!(m.read_max(), 17);
/// ```
pub type CombiningMaxRegister = Combiner<ShardedMaxRegister>;

impl sl2_core::algos::MaxRegister for Combiner<ShardedMaxRegister> {
    fn write_max(&self, process: usize, v: u64) {
        self.apply(process, v);
    }

    /// The exact (stable-collect) read — the trait's contract is the
    /// exact specification, so the cached fold is a separate entry
    /// point.
    fn read_max(&self) -> u64 {
        self.read_stable()
    }
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

impl Foldable for ShardedFetchInc {
    fn processes(&self) -> usize {
        ShardedFetchInc::processes(self)
    }

    fn fold_relaxed(&self) -> u64 {
        self.read_relaxed()
    }

    fn fold_exact(&self) -> u64 {
        self.read()
    }
}

/// A [`ShardedFetchInc`] behind a *publication-combining* front-end.
///
/// Increments always land on the plain wait-free striped path: a unit
/// is owner-attributed, so no helper may apply it and the counter is
/// only [`Foldable`] (DESIGN.md §8). What the election combines is the
/// *publication*: the incrementing process that wins the lock publishes
/// one relaxed fold, so read-heavy callers still get the 1-load cached
/// read. Losers complete unpublished, the staleness the checker
/// adjudicates (refuted against the exact counter, certified against
/// [`LaggingCounterSpec`]).
///
/// [`LaggingCounterSpec`]: sl2_spec::relaxed::LaggingCounterSpec
///
/// # Examples
///
/// ```
/// use sl2_combine::CombiningCounter;
/// use sl2_sharded::ShardedFetchInc;
///
/// let c = CombiningCounter::new(ShardedFetchInc::new(2, 2));
/// c.inc(0);
/// c.inc(1);
/// assert_eq!(c.read_exact(), 2);
/// assert!(c.read_cached() <= 2, "cache never runs ahead");
/// ```
pub type CombiningCounter = Combiner<ShardedFetchInc>;

impl Combiner<ShardedFetchInc> {
    /// Increments by one on behalf of `process` (always the wait-free
    /// striped path), then runs [`Combiner::refresh`] for `process`.
    /// Returns whether this increment published.
    pub fn inc_traced(&self, process: usize) -> bool {
        self.inner().inc(process);
        self.refresh(process)
    }

    /// Increments by one on behalf of `process`.
    pub fn inc(&self, process: usize) {
        self.inc_traced(process);
    }

    /// The exact (stable-collect) read.
    pub fn read_exact(&self) -> u64 {
        self.inner().read()
    }
}

// ---------------------------------------------------------------------
// Snapshot (read-cached only — updates are not ensure-style)
// ---------------------------------------------------------------------

/// A [`ShardedSnapshot`] with a combining *read* cache.
///
/// Updates overwrite, so helping could regress a component — they take
/// the plain sharded path untouched. What combines is the expensive
/// whole-object scan: a reader that wins the election performs one
/// stable scan and publishes it to a [`SeqCache`]; every cached reader
/// thereafter pays an optimistic multi-word copy instead of the
/// `G`-probe stable collect. A torn or never-published cache is a
/// *miss*, and the miss path is the ordinary stable scan.
///
/// # Examples
///
/// ```
/// use sl2_combine::CombiningSnapshot;
/// use sl2_sharded::ShardedSnapshot;
/// use sl2_core::algos::Snapshot;
///
/// let s = CombiningSnapshot::new(ShardedSnapshot::new(4, 2));
/// s.update(1, 9);
/// s.refresh();
/// assert_eq!(s.scan_cached(), vec![0, 9, 0, 0]);
/// ```
#[derive(Debug)]
pub struct CombiningSnapshot {
    inner: ShardedSnapshot,
    lock: CombinerLock,
    cache: SeqCache,
}

impl CombiningSnapshot {
    /// Wraps a sharded snapshot.
    pub fn new(inner: ShardedSnapshot) -> Self {
        use sl2_core::algos::Snapshot;
        let width = inner.components();
        CombiningSnapshot {
            inner,
            lock: CombinerLock::new(),
            cache: SeqCache::new(width),
        }
    }

    /// The wrapped sharded snapshot.
    pub fn inner(&self) -> &ShardedSnapshot {
        &self.inner
    }

    /// Publications so far.
    pub fn epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// Performs one stable scan and publishes it, if the election is
    /// won (one try; a held lock means a publication is in flight).
    /// Returns whether a publication happened.
    ///
    /// The lease rides a `Tenure` guard, so a panic mid-scan
    /// releases on unwind. There is deliberately **no** reclaim here:
    /// the [`SeqCache`] odd/even protocol is only sound under writer
    /// exclusivity, and a wrongful reclaim of a stalled publisher
    /// could overlap two publications into a torn-but-version-stable
    /// view. A crash-stopped snapshot publisher therefore freezes the
    /// cache where it stopped. Dead between the two version bumps, or
    /// before the first publication, it leaves every later cached scan
    /// a miss (the exact stable scan). Dead anywhere else — at
    /// `snapshot.pre_publish` after an earlier publication, say — it
    /// leaves an even version, and every later cached scan hits the
    /// last published view, stale forever; [`Snapshot::scan`] stays
    /// exact. That is the documented §10 trade.
    ///
    /// [`Snapshot::scan`]: sl2_core::algos::Snapshot::scan
    pub fn refresh(&self) -> bool {
        use sl2_core::algos::Snapshot;
        let Some(lease) = self.lock.try_acquire() else {
            return false;
        };
        let tenure = self.lock.hold(lease);
        let view = self.inner.scan();
        sl2_chaos::point("snapshot.pre_publish");
        self.cache.publish(&view);
        drop(tenure);
        true
    }

    /// Optimistic cached scan into a caller buffer (allocation-free):
    /// `true` on a hit (an untorn previously-published view), `false`
    /// on a miss — the caller then falls back to
    /// [`sl2_core::algos::Snapshot::scan`] or [`CombiningSnapshot::refresh`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the component count.
    pub fn scan_cached_into(&self, out: &mut [u64]) -> bool {
        self.cache.read_into(out)
    }

    /// Cached scan with the documented miss path: a hit returns the
    /// published view; a miss performs (and returns) a stable scan.
    pub fn scan_cached(&self) -> Vec<u64> {
        use sl2_core::algos::Snapshot;
        let mut out = vec![0u64; self.inner.components()];
        if self.scan_cached_into(&mut out) {
            return out;
        }
        self.inner.scan()
    }
}

impl sl2_core::algos::Snapshot for CombiningSnapshot {
    fn components(&self) -> usize {
        self.inner.components()
    }

    /// The plain sharded update — deliberately uncombined (see the
    /// type docs).
    fn update(&self, i: usize, v: u64) {
        self.inner.update(i, v);
    }

    /// The exact stable scan (the miss path of the cached read).
    fn scan(&self) -> Vec<u64> {
        self.inner.scan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::ApplyPath;
    use sl2_core::algos::{MaxRegister, Snapshot};
    use sl2_primitives::ConsensusNumber;
    use std::sync::Arc;

    #[test]
    fn solo_writes_combine_and_publish() {
        let m = CombiningMaxRegister::new(ShardedMaxRegister::new(2, 2));
        assert_eq!(m.read_cached(), 0);
        assert_eq!(m.epoch(), 0);
        let path = m.apply(0, 9);
        assert_eq!(path, ApplyPath::Combined { applied: 1 });
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.read_cached(), 9, "uncontended writes publish");
        m.write_max(1, 4);
        assert_eq!(m.read_cached(), 9, "smaller write keeps the fold");
        assert_eq!(m.read_max(), 9);
        let epoch = m.epoch();
        assert_eq!(m.apply(1, 0), ApplyPath::Combined { applied: 0 });
        assert_eq!(
            m.epoch(),
            epoch,
            "a write of 0 announces and publishes nothing"
        );
    }

    #[test]
    fn counter_solo_counts_exactly_through_both_read_paths() {
        let c = CombiningCounter::new(ShardedFetchInc::new(3, 2));
        for i in 0..9 {
            c.inc(i % 3);
        }
        assert_eq!(c.read_exact(), 9);
        assert_eq!(
            c.read_cached(),
            9,
            "solo incs always combine, so the cache is exact at quiescence"
        );
        assert_eq!(c.epoch(), 9);
    }

    #[test]
    fn cached_reads_are_monotone_and_never_ahead_under_contention() {
        let n = 4;
        let c = Arc::new(CombiningCounter::new(ShardedFetchInc::new(n, 2)));
        let issued = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..n {
                let c = Arc::clone(&c);
                let issued = Arc::clone(&issued);
                s.spawn(move || {
                    for _ in 0..300 {
                        issued.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        c.inc(p);
                    }
                });
            }
            let c2 = Arc::clone(&c);
            let issued2 = Arc::clone(&issued);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..400 {
                    let v = c2.read_cached();
                    assert!(v >= last, "cached read regressed {last} -> {v}");
                    assert!(
                        v <= issued2.load(std::sync::atomic::Ordering::SeqCst),
                        "cached read ran ahead"
                    );
                    last = v;
                }
            });
        });
        assert_eq!(c.read_exact(), (n as u64) * 300, "no increment lost");
        c.refresh(0);
        assert_eq!(c.read_cached(), (n as u64) * 300, "refresh catches up");
    }

    #[test]
    fn max_register_mirrors_the_plain_sharded_form() {
        let combined = CombiningMaxRegister::new(ShardedMaxRegister::new(2, 4));
        let plain = ShardedMaxRegister::new(2, 4);
        for (p, v) in [(0usize, 5u64), (1, 11), (0, 3), (1, 11), (0, 20)] {
            combined.write_max(p, v);
            plain.write_max(p, v);
            assert_eq!(combined.read_max(), plain.read_max());
        }
        assert_eq!(combined.read_cached(), 20);
    }

    #[test]
    fn binary_encoded_inner_register_combines_past_the_unary_ceiling() {
        // PR 6: the front-end is encoding-agnostic — a binary-lane
        // sharded register behind the combiner folds values far past
        // the old 64·S inline ceiling, and the shards stay inline.
        let m = CombiningMaxRegister::new(ShardedMaxRegister::new_binary(2, 4));
        for (p, v) in [(0usize, 5u64), (1, 300_000), (0, 123_456)] {
            m.write_max(p, v);
        }
        assert_eq!(m.read_max(), 300_000);
        assert_eq!(m.read_cached(), 300_000);
        assert!(
            m.inner().shards_inline(),
            "binary lanes keep 300 000 inline at S = 4"
        );
    }

    #[test]
    fn contended_writes_keep_the_exact_fold_and_a_lagging_cache() {
        let n = 4;
        let m = Arc::new(CombiningMaxRegister::new(ShardedMaxRegister::new(n, 4)));
        let high = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..n {
                let m = Arc::clone(&m);
                let high = Arc::clone(&high);
                s.spawn(move || {
                    for k in 1..=200u64 {
                        let v = k * (p as u64 + 1);
                        high.fetch_max(v, std::sync::atomic::Ordering::SeqCst);
                        m.write_max(p, v);
                    }
                });
            }
            let m2 = Arc::clone(&m);
            let high2 = Arc::clone(&high);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..400 {
                    let v = m2.read_cached();
                    assert!(v >= last, "cached fold regressed {last} -> {v}");
                    assert!(
                        v <= high2.load(std::sync::atomic::Ordering::SeqCst),
                        "cached fold invented a value"
                    );
                    last = v;
                }
            });
        });
        assert_eq!(m.read_max(), 200 * n as u64);
        m.refresh(0);
        assert_eq!(m.read_cached(), 200 * n as u64);
    }

    #[test]
    fn snapshot_cache_hits_after_refresh_and_misses_before() {
        let s = CombiningSnapshot::new(ShardedSnapshot::new(4, 2));
        let mut buf = [0u64; 4];
        assert!(!s.scan_cached_into(&mut buf), "never published: miss");
        s.update(0, 3);
        s.update(3, 8);
        assert_eq!(s.scan_cached(), vec![3, 0, 0, 8], "miss path = stable scan");
        assert!(s.refresh());
        assert!(s.scan_cached_into(&mut buf), "published: hit");
        assert_eq!(buf, [3, 0, 0, 8]);
        s.update(1, 5);
        assert_eq!(
            s.scan_cached(),
            vec![3, 0, 0, 8],
            "cache lags the direct update until the next refresh"
        );
        s.refresh();
        assert_eq!(s.scan_cached(), vec![3, 5, 0, 8]);
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn snapshot_cached_views_are_never_torn_under_churn() {
        // Writers keep their group's pair equal (mod one in-flight
        // update); cached views must be untorn publications of stable
        // scans, so the pair invariant carries into every hit.
        let s = Arc::new(CombiningSnapshot::new(ShardedSnapshot::new(4, 2)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for g in 0..2usize {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    for v in 1..=300u64 {
                        s.update(2 * g, v);
                        s.update(2 * g + 1, v);
                    }
                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                });
            }
            let s2 = Arc::clone(&s);
            let stop2 = Arc::clone(&stop);
            scope.spawn(move || {
                let mut buf = [0u64; 4];
                while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                    s2.refresh();
                    if s2.scan_cached_into(&mut buf) {
                        for g in 0..2 {
                            let (a, b) = (buf[2 * g], buf[2 * g + 1]);
                            assert!(a == b || a == b + 1, "cached view tore group {g}: {buf:?}");
                        }
                    }
                }
            });
        });
    }

    #[test]
    fn the_whole_front_end_stays_at_consensus_number_two() {
        let m = CombiningMaxRegister::new(ShardedMaxRegister::new(2, 2));
        assert_eq!(m.consensus_ceiling(), ConsensusNumber::Two);
        // The counter is the same front-end over striped WideFaa.
        let c = CombiningCounter::new(ShardedFetchInc::new(2, 2));
        assert_eq!(c.consensus_ceiling(), ConsensusNumber::Two);
    }

    #[test]
    fn abandoned_snapshot_lock_freezes_a_stale_hit_not_a_miss() {
        // A publisher that crash-stops holding the lock after an
        // earlier publication (at `snapshot.pre_publish`, say) leaves
        // the version even: later cached scans hit the old view.
        let s = CombiningSnapshot::new(ShardedSnapshot::new(4, 2));
        s.update(0, 3);
        assert!(s.refresh());
        let dead = s.lock.try_acquire().expect("fresh lock is free");
        drop(dead); // crash-stop: the lease is never released
        s.update(1, 5);
        assert!(!s.refresh(), "no reclaim: the dead holder keeps the lock");
        assert_eq!(s.scan_cached(), vec![3, 0, 0, 0], "a hit, stale forever");
        assert_eq!(s.scan(), vec![3, 5, 0, 0], "the stable scan stays exact");
    }
}
