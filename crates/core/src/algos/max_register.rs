//! §3.1 — wait-free strongly-linearizable max register from fetch&add
//! (Theorem 1), production form.
//!
//! See [`crate::machines::max_register`] for the algorithm commentary;
//! this form runs on a real [`WideFaa`] register and is safe to share
//! across threads. [`SlMaxRegister::new`] is the paper's form: values
//! in unary (the §3.1 warm-up encoding), one register bit per unit of
//! value per process — experiment E12 measures exactly this growth.
//! [`SlMaxRegister::new_binary`] is the shipped form: the same two
//! steps over log-width lanes (DESIGN.md §9 "Binary lanes").
//!
//! [`CasMaxRegister`] is the consensus-number-∞ comparison point: a
//! compare&swap retry loop whose successful CAS fixes the
//! linearization point.

use sl2_bignum::{LaneEncoding, Lanes, Target, WideFaa};
use sl2_primitives::CompareAndSwap;

use super::MaxRegister;

/// Theorem 1 max register over a wide fetch&add register.
///
/// # Examples
///
/// ```
/// use sl2_core::algos::max_register::SlMaxRegister;
/// use sl2_core::algos::MaxRegister;
///
/// let m = SlMaxRegister::new(2);
/// m.write_max(0, 5);
/// m.write_max(1, 3);
/// assert_eq!(m.read_max(), 5);
/// ```
#[derive(Debug)]
pub struct SlMaxRegister {
    reg: WideFaa,
    lanes: Lanes,
}

impl SlMaxRegister {
    /// Creates a max register shared by `n` processes in the paper's
    /// unary encoding (what E12 and the corpus twins certify).
    pub fn new(n: usize) -> Self {
        SlMaxRegister::with_encoding(n, LaneEncoding::Unary)
    }

    /// The shipped form: binary lanes, lock-free inline up to
    /// `2^⌊127/n⌋ − 1` per lane and ≤ 64·n register bits at any value.
    pub fn new_binary(n: usize) -> Self {
        SlMaxRegister::with_encoding(n, LaneEncoding::Binary)
    }

    /// Creates a max register with an explicit lane encoding.
    pub fn with_encoding(n: usize, encoding: LaneEncoding) -> Self {
        SlMaxRegister {
            reg: WideFaa::new(),
            lanes: Lanes::new(n, encoding),
        }
    }

    /// True while the register is in `WideFaa`'s lock-free inline regime.
    pub fn is_inline_lock_free(&self) -> bool {
        self.reg.is_inline_lock_free()
    }

    /// Current width of the backing register in bits (experiment E12:
    /// the Discussion's "extremely large values" concern).
    pub fn register_bits(&self) -> usize {
        self.reg.bit_len()
    }
}

impl SlMaxRegister {
    /// Theorem 1's `writeMax` on a borrowed register: the code every
    /// production write runs, whether the register is this struct's or
    /// another object's (the combining front-end's published fold).
    /// `process` must be the only writer of its lane.
    pub fn write_on(reg: &WideFaa, lanes: &Lanes, process: usize, v: u64) {
        // Step 1: recover prevLocalMax from the own lane (only this
        // process writes it) via a fetch&add(R, 0) probe. The borrowed
        // probe decodes from the register's atomic snapshot (one 16-byte
        // load while the value is inline, a locked view once it has
        // spilled) — no copy of the whole register is materialized.
        let prev = reg.read_with(|image| lanes.decode(process, image));
        let Some(new) = Target::AtLeast(v).next(prev) else {
            return; // the probing fetch&add was the linearization point
        };
        // Step 2: raise the lane to v in one fetch&add (the write-only
        // form: the previous value is not needed).
        let (pos, neg) = lanes.adjustments(process, prev, new);
        reg.adjust(&pos, &neg);
    }

    /// Theorem 1's `readMax` on a borrowed register: one
    /// `fetch&add(R, 0)` probe folded over every lane.
    pub fn read_on(reg: &WideFaa, lanes: &Lanes) -> u64 {
        reg.read_with(|image| lanes.fold(image))
    }
}

impl MaxRegister for SlMaxRegister {
    fn write_max(&self, process: usize, v: u64) {
        SlMaxRegister::write_on(&self.reg, &self.lanes, process, v);
    }

    fn read_max(&self) -> u64 {
        SlMaxRegister::read_on(&self.reg, &self.lanes)
    }
}

/// Max register from compare&swap — the universal-primitive route the
/// paper contrasts against. Strongly linearizable (successful CAS =
/// fixed linearization point) but requires consensus number ∞.
#[derive(Debug, Default)]
pub struct CasMaxRegister {
    cell: CompareAndSwap,
}

impl CasMaxRegister {
    /// Creates a max register with value 0.
    pub fn new() -> Self {
        CasMaxRegister::default()
    }
}

impl MaxRegister for CasMaxRegister {
    fn write_max(&self, _process: usize, v: u64) {
        let mut cur = self.cell.read();
        while cur < v {
            let obs = self.cell.compare_and_swap(cur, v);
            if obs == cur {
                return;
            }
            cur = obs;
        }
    }

    fn read_max(&self) -> u64 {
        self.cell.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics_match_spec() {
        let m = SlMaxRegister::new(3);
        assert_eq!(m.read_max(), 0);
        m.write_max(1, 7);
        m.write_max(0, 3);
        assert_eq!(m.read_max(), 7);
        m.write_max(2, 7); // equal value, different process
        assert_eq!(m.read_max(), 7);
        m.write_max(0, 12);
        assert_eq!(m.read_max(), 12);
    }

    #[test]
    fn concurrent_writers_monotone_readers() {
        let n = 4;
        let m = Arc::new(SlMaxRegister::new(n));
        std::thread::scope(|s| {
            for p in 0..n {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for v in 1..=50u64 {
                        m.write_max(p, v * (p as u64 + 1));
                    }
                });
            }
            // Concurrent reader observes a non-decreasing sequence.
            let m2 = Arc::clone(&m);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let v = m2.read_max();
                    assert!(v >= last, "max register regressed: {last} -> {v}");
                    last = v;
                }
            });
        });
        assert_eq!(m.read_max(), 200, "4 * 50 is the largest write");
    }

    #[test]
    fn register_bits_grow_with_values() {
        let m = SlMaxRegister::new(2);
        assert_eq!(m.register_bits(), 0);
        m.write_max(0, 10);
        let bits_10 = m.register_bits();
        m.write_max(0, 100);
        assert!(m.register_bits() > bits_10, "unary encoding grows");
    }

    #[test]
    fn binary_lanes_match_unary_and_stay_log_width() {
        let (unary, binary) = (SlMaxRegister::new(3), SlMaxRegister::new_binary(3));
        for (p, v) in [(1, 7u64), (0, 3), (2, 7), (0, 12), (1, 5), (2, 1000)] {
            unary.write_max(p, v);
            binary.write_max(p, v);
            assert_eq!(unary.read_max(), binary.read_max(), "after ({p}, {v})");
        }
        assert!(unary.register_bits() > 128 && !unary.is_inline_lock_free());
        assert!(binary.register_bits() <= 3 * 10);
        assert_eq!(binary.is_inline_lock_free(), WideFaa::backend_lock_free());
        // Any u64 operand fits: the register never exceeds 64·n bits.
        binary.write_max(0, u64::MAX);
        assert_eq!(binary.read_max(), u64::MAX);
        assert!(binary.register_bits() <= 64 * 3);
    }

    #[test]
    fn production_and_twin_write_the_same_register_image() {
        // Every n ≤ 4, writer p and values v, w ≤ 12: p writes v, then w
        // (up, down or the same), then the next process writes v. The
        // production register and the twin's memory hold the same bits
        // after every op, in both encodings.
        use crate::machines::max_register::MaxRegAlg;
        use sl2_exec::machine::{run_solo, Algorithm};
        use sl2_exec::mem::{Cell, SimMemory};
        use sl2_spec::max_register::MaxOp;
        for encoding in [LaneEncoding::Unary, LaneEncoding::Binary] {
            for n in 1..=4 {
                for (p, v, w) in (0..n)
                    .flat_map(|p| (0..=12).flat_map(move |v| (0..=12).map(move |w| (p, v, w))))
                {
                    let m = SlMaxRegister::with_encoding(n, encoding);
                    let mut mem = SimMemory::new();
                    let twin = MaxRegAlg::with_encoding(&mut mem, n, encoding);
                    for (q, x) in [(p, v), (p, w), ((p + 1) % n, v)] {
                        m.write_max(q, x);
                        run_solo(&mut twin.machine(q, &MaxOp::Write(x)), &mut mem);
                        let Cell::Wide(image) = mem.collect_read(0) else {
                            panic!("the twin's register is not wide");
                        };
                        assert_eq!(
                            m.reg.load(),
                            image,
                            "{encoding:?} n={n} {p}:{v}, {p}:{w}, then {q}:{x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cas_max_register_agrees() {
        let m = CasMaxRegister::new();
        m.write_max(0, 9);
        m.write_max(1, 4);
        assert_eq!(m.read_max(), 9);
    }

    #[test]
    fn cas_max_register_concurrent_writes() {
        let m = Arc::new(CasMaxRegister::new());
        std::thread::scope(|s| {
            for p in 0..8u64 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for v in 0..100 {
                        m.write_max(p as usize, v * 8 + p);
                    }
                });
            }
        });
        assert_eq!(m.read_max(), 99 * 8 + 7);
    }
}
