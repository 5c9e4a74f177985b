//! Lane-group-sharded snapshot: components partitioned into groups,
//! one Theorem-2 register per group, production form.
//!
//! With `n` components and group width `g`, group `k` owns components
//! `k·g .. min((k+1)·g, n)` in one [`WideFaa`] with its own binary
//! [`Lanes`]. `update` runs the exact §3.2 algorithm against the
//! owning group — wait-free, 1–2 steps, fixed linearization point —
//! and updaters in different groups never touch the same cache line.
//!
//! Three scan granularities, with three different guarantees:
//!
//! * [`ShardedSnapshot::scan_group`] — one `fetch&add(R, 0)` on one
//!   group: **atomic**, so the per-group view keeps Theorem 2's strong
//!   linearizability verbatim (it *is* a Theorem 2 snapshot of the
//!   group).
//! * [`ShardedSnapshot::scan`] — whole-object view, collecting group
//!   views until two consecutive collects agree: exact and
//!   linearizable (a stable collect pins every group over a common
//!   interval), lock-free, and strongly linearizable only on the
//!   scenario families of DESIGN.md §6.
//! * [`ShardedSnapshot::scan_relaxed`] — one pass, no stability check:
//!   wait-free, but the view is only a *per-group-consistent* cut; it
//!   can pair an old value in one group with a newer value in another
//!   (the sharded-counter witness of `tests/non_sl_witnesses.rs` is
//!   this effect on a 1-bit-per-shard object).

use sl2_bignum::{LaneEncoding, Lanes, Target, WideFaa};
use sl2_core::algos::Snapshot;
use sl2_primitives::{CachePadded, Sharding};

/// A snapshot whose components are partitioned into lane groups, one
/// Theorem-2 register per group.
///
/// # Examples
///
/// ```
/// use sl2_sharded::ShardedSnapshot;
/// use sl2_core::algos::Snapshot;
///
/// let s = ShardedSnapshot::new(5, 2); // groups {0,1} {2,3} {4}
/// s.update(0, 7);
/// s.update(4, 9);
/// assert_eq!(s.scan(), vec![7, 0, 0, 0, 9]);
/// assert_eq!(s.scan_group(2), vec![9]);
/// ```
#[derive(Debug)]
pub struct ShardedSnapshot {
    groups: Box<[CachePadded<WideFaa>]>,
    lanes: Vec<Lanes>,
    n: usize,
    group_width: usize,
}

impl ShardedSnapshot {
    /// Creates an `n`-component snapshot with `group_width` components
    /// per lane group (the last group may be narrower).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `group_width == 0`, or the resulting group
    /// count exceeds [`sl2_primitives::MAX_SHARDS`].
    pub fn new(n: usize, group_width: usize) -> Self {
        assert!(n > 0, "snapshot needs at least one component");
        assert!(group_width > 0, "groups need at least one component");
        let group_count = n.div_ceil(group_width);
        // Validates the group count against the shard cap.
        let _ = Sharding::new(group_count);
        ShardedSnapshot {
            groups: (0..group_count)
                .map(|_| CachePadded::new(WideFaa::new()))
                .collect(),
            lanes: (0..group_count)
                .map(|k| Lanes::new(group_width.min(n - k * group_width), LaneEncoding::Binary))
                .collect(),
            n,
            group_width,
        }
    }

    /// Number of lane groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group owning component `i`.
    pub fn group_of(&self, i: usize) -> usize {
        assert!(i < self.n, "component {i} out of range (n={})", self.n);
        i / self.group_width
    }

    /// Atomic scan of one lane group: a single `fetch&add(R, 0)` on the
    /// group's register, exactly Theorem 2 at group granularity.
    pub fn scan_group(&self, k: usize) -> Vec<u64> {
        self.groups[k].read_with(|image| self.lanes[k].view(image))
    }

    /// Whole-object view with no stability check: one pass over the
    /// groups. Each group's slice is an atomic cut, but slices of
    /// different groups may come from different instants.
    pub fn scan_relaxed(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n);
        for k in 0..self.groups.len() {
            out.extend(self.scan_group(k));
        }
        out
    }

    /// Total width of the backing registers in bits (experiment E12's
    /// growth measure, summed over groups).
    pub fn register_bits(&self) -> usize {
        self.groups.iter().map(|g| g.bit_len()).sum()
    }
}

impl Snapshot for ShardedSnapshot {
    fn components(&self) -> usize {
        self.n
    }

    fn update(&self, i: usize, v: u64) {
        let k = self.group_of(i);
        let local = i - k * self.group_width;
        let (group, lanes) = (&self.groups[k], &self.lanes[k]);
        // §3.2 against the owning group: probe the own lane, then one
        // signed fetch&add rewriting exactly that lane.
        let prev = group.read_with(|image| lanes.decode(local, image));
        let Some(new) = Target::Exactly(v).next(prev) else {
            return; // linearized at the probing fetch&add
        };
        let (pos, neg) = lanes.adjustments(local, prev, new);
        group.adjust(&pos, &neg);
    }

    fn scan(&self) -> Vec<u64> {
        // Collect the group views until two consecutive collects agree:
        // every group is then pinned to its observed slice over a
        // common interval, so the concatenation is an exact cut.
        let mut prev: Option<Vec<u64>> = None;
        loop {
            let cur = self.scan_relaxed();
            if prev.as_ref() == Some(&cur) {
                return cur;
            }
            prev = Some(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics_match_spec() {
        let s = ShardedSnapshot::new(5, 2);
        assert_eq!(s.scan(), vec![0; 5]);
        s.update(1, 42);
        s.update(1, 17); // overwrite smaller (bits cleared)
        s.update(0, 5);
        s.update(4, 3);
        assert_eq!(s.scan(), vec![5, 17, 0, 0, 3]);
        s.update(1, 17); // same value: probe only
        assert_eq!(s.scan(), vec![5, 17, 0, 0, 3]);
        assert_eq!(s.scan_relaxed(), vec![5, 17, 0, 0, 3]);
    }

    #[test]
    fn group_partition_covers_all_components() {
        let s = ShardedSnapshot::new(7, 3); // groups of 3, 3, 1
        assert_eq!(s.group_count(), 3);
        assert_eq!(s.group_of(0), 0);
        assert_eq!(s.group_of(5), 1);
        assert_eq!(s.group_of(6), 2);
        for i in 0..7 {
            s.update(i, i as u64 + 1);
        }
        assert_eq!(s.scan(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.scan_group(1), vec![4, 5, 6]);
        assert_eq!(s.scan_group(2), vec![7]);
    }

    #[test]
    fn one_group_degenerates_to_the_global_snapshot() {
        let sharded = ShardedSnapshot::new(3, 3);
        let global = sl2_core::algos::snapshot::SlSnapshot::new(3);
        for (i, v) in [(0, 4u64), (2, 9), (0, 2), (1, 6)] {
            sharded.update(i, v);
            global.update(i, v);
            assert_eq!(sharded.scan(), global.scan());
        }
        assert_eq!(sharded.group_count(), 1);
    }

    #[test]
    fn production_and_twin_write_the_same_register_images() {
        // Every n ≤ 4, group width, component p and values v, w ≤ 12: p
        // moves to v, then to w (up, down or the same), then the next
        // component moves to v. Every group register of the production
        // object and of the twin's memory hold the same bits after every
        // update.
        use crate::machines::{ShardedSnapshotAlg, WholeReadMode};
        use sl2_exec::machine::{run_solo, Algorithm};
        use sl2_exec::mem::{Cell, SimMemory};
        use sl2_spec::snapshot::SnapOp;
        for n in 1..=4 {
            for width in 1..=n {
                for (p, v, w) in (0..n)
                    .flat_map(|p| (0..=12).flat_map(move |v| (0..=12).map(move |w| (p, v, w))))
                {
                    let s = ShardedSnapshot::new(n, width);
                    let mut mem = SimMemory::new();
                    let twin = ShardedSnapshotAlg::new(&mut mem, n, width, WholeReadMode::Stable);
                    for (i, x) in [(p, v), (p, w), ((p + 1) % n, v)] {
                        s.update(i, x);
                        run_solo(&mut twin.machine(i, &SnapOp::Update { i, v: x }), &mut mem);
                        for k in 0..s.group_count() {
                            let Cell::Wide(image) = mem.collect_read(k) else {
                                panic!("the twin's group register is not wide");
                            };
                            assert_eq!(
                                s.groups[k].load(),
                                image,
                                "n={n} width={width} group {k}: {p}:{v}, {p}:{w}, then {i}:{x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_updates_land_exactly() {
        let n = 6;
        let s = Arc::new(ShardedSnapshot::new(n, 2));
        std::thread::scope(|sc| {
            for i in 0..n {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for v in 1..=100u64 {
                        s.update(i, v * 3);
                    }
                });
            }
        });
        assert_eq!(s.scan(), vec![300; n]);
    }

    #[test]
    fn group_scans_are_consistent_cuts_under_contention() {
        // One writer keeps components 0 and 1 (same group) equal; a
        // group scan must never observe them apart. The whole-object
        // relaxed scan does NOT enjoy this across groups — that is the
        // point of the stable scan.
        let s = Arc::new(ShardedSnapshot::new(4, 2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|sc| {
            let s1 = Arc::clone(&s);
            let stop1 = Arc::clone(&stop);
            sc.spawn(move || {
                for v in 1..=300u64 {
                    s1.update(0, v);
                    s1.update(1, v);
                }
                stop1.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            let s2 = Arc::clone(&s);
            sc.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let view = s2.scan_group(0);
                    assert!(
                        view[0] == view[1] || view[0] == view[1] + 1,
                        "group cut torn: {view:?}"
                    );
                }
            });
        });
    }
}
