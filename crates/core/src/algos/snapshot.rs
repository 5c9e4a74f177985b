//! §3.2 — wait-free strongly-linearizable atomic snapshot from
//! fetch&add (Theorem 2), production form.

use sl2_bignum::{LaneEncoding, Lanes, Target, WideFaa};

use super::Snapshot;

/// Theorem 2 snapshot over a wide fetch&add register. Component
/// values are stored in binary in interleaved lanes; `update` is one
/// signed fetch&add, `scan` is one `fetch&add(R, 0)`.
///
/// # Examples
///
/// ```
/// use sl2_core::algos::snapshot::SlSnapshot;
/// use sl2_core::algos::Snapshot;
///
/// let s = SlSnapshot::new(3);
/// s.update(0, 7);
/// s.update(2, 9);
/// assert_eq!(s.scan(), vec![7, 0, 9]);
/// ```
#[derive(Debug)]
pub struct SlSnapshot {
    reg: WideFaa,
    lanes: Lanes,
}

impl SlSnapshot {
    /// Creates an `n`-component snapshot.
    pub fn new(n: usize) -> Self {
        SlSnapshot {
            reg: WideFaa::new(),
            lanes: Lanes::new(n, LaneEncoding::Binary),
        }
    }

    /// Current width of the backing register in bits (experiment E12).
    pub fn register_bits(&self) -> usize {
        self.reg.bit_len()
    }
}

impl Snapshot for SlSnapshot {
    fn components(&self) -> usize {
        self.lanes.layout.processes()
    }

    fn update(&self, i: usize, v: u64) {
        // Step 1: recover prevVal from the own lane via a borrowed
        // fetch&add(R, 0) probe, allocation-free at every width.
        let prev = self.reg.read_with(|image| self.lanes.decode(i, image));
        let Some(new) = Target::Exactly(v).next(prev) else {
            return; // linearized at the probing fetch&add
        };
        // Step 2: one signed fetch&add rewrites exactly the lane (the
        // write-only form: the previous value is not needed).
        let (pos, neg) = self.lanes.adjustments(i, prev, new);
        self.reg.adjust(&pos, &neg);
    }

    fn scan(&self) -> Vec<u64> {
        // Single-pass borrowed decode: one u64 vector out, no per-lane
        // BigNat extraction.
        self.reg.read_with(|image| self.lanes.view(image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sl_snapshot_sequential_semantics() {
        let s = SlSnapshot::new(3);
        assert_eq!(s.scan(), vec![0, 0, 0]);
        s.update(1, 42);
        s.update(1, 17); // overwrite smaller (bits cleared)
        s.update(0, 5);
        assert_eq!(s.scan(), vec![5, 17, 0]);
        s.update(1, 17); // same value: probe only
        assert_eq!(s.scan(), vec![5, 17, 0]);
    }

    #[test]
    fn sl_snapshot_concurrent_updates_land_exactly() {
        let n = 4;
        let s = Arc::new(SlSnapshot::new(n));
        std::thread::scope(|sc| {
            for p in 0..n {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for v in 1..=100u64 {
                        s.update(p, v * 3);
                    }
                });
            }
        });
        assert_eq!(s.scan(), vec![300; 4]);
    }

    #[test]
    fn sl_snapshot_scans_are_consistent_cuts() {
        // Writers keep components equal pairwise (i and i+1 updated to
        // the same value in sequence by one thread); scans must never
        // observe component i+1 ahead of component i.
        let s = Arc::new(SlSnapshot::new(2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|sc| {
            let s1 = Arc::clone(&s);
            let stop1 = Arc::clone(&stop);
            sc.spawn(move || {
                for v in 1..=300u64 {
                    s1.update(0, v);
                }
                stop1.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            let s2 = Arc::clone(&s);
            sc.spawn(move || {
                let mut last = 0;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let view = s2.scan();
                    assert!(view[0] >= last, "component regressed");
                    last = view[0];
                }
            });
        });
    }

    #[test]
    fn production_and_twin_write_the_same_register_image() {
        // Every n ≤ 4, component p and values v, w ≤ 12: p moves to v,
        // then to w (up, down or the same), then the next component
        // moves to v. The production register and the twin's memory hold
        // the same bits after every update, and scan the same view.
        use crate::machines::snapshot::SnapshotAlg;
        use sl2_exec::machine::{run_solo, Algorithm};
        use sl2_exec::mem::{Cell, SimMemory};
        use sl2_spec::snapshot::{SnapOp, SnapResp};
        for n in 1..=4 {
            for (p, v, w) in
                (0..n).flat_map(|p| (0..=12).flat_map(move |v| (0..=12).map(move |w| (p, v, w))))
            {
                let s = SlSnapshot::new(n);
                let mut mem = SimMemory::new();
                let twin = SnapshotAlg::new(&mut mem, n);
                for (i, x) in [(p, v), (p, w), ((p + 1) % n, v)] {
                    s.update(i, x);
                    run_solo(&mut twin.machine(i, &SnapOp::Update { i, v: x }), &mut mem);
                    let Cell::Wide(image) = mem.collect_read(0) else {
                        panic!("the twin's register is not wide");
                    };
                    assert_eq!(s.reg.load(), image, "n={n} {p}:{v}, {p}:{w}, then {i}:{x}");
                }
                let (view, _) = run_solo(&mut twin.machine(0, &SnapOp::Scan), &mut mem);
                assert_eq!(SnapResp::View(s.scan()), view);
            }
        }
    }
}
