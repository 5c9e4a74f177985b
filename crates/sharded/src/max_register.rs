//! Value-sharded max register: `S` Theorem-1 registers, one per value
//! residue class, production form.
//!
//! `write_max(p, v)` runs the exact §3.1 algorithm against the home
//! shard of `v` — a probing `fetch&add(R, 0)` on the own lane, then (if
//! growing) one `fetch&add` setting the missing unary bits — so every
//! write keeps a *fixed* linearization point on a single base object
//! and stays wait-free in 1–2 steps. Contending writers only collide
//! when their values share a residue class; each shard sits on its own
//! cache line ([`sl2_primitives::Lines`]).
//!
//! # The quotient encoding
//!
//! Shard `s` only ever stores values `≡ s (mod S)`, so it does not
//! store `v` in unary — it stores the *quotient count* `⌊v/S⌋ + 1`
//! (the `+ 1` keeps "wrote the value `s` itself" distinguishable from
//! "never wrote"). The map `v ↦ ⌊v/S⌋ + 1` is monotone and bijective
//! within a residue class, so each shard is still exactly a Theorem-1
//! max register over its class — but every probe and fetch&add now
//! touches a register `1/S`-th the width of the global construction's.
//! Sharding therefore buys *width localization* on top of contention
//! relief: with values below `64·S`, every unary shard stays on
//! `BigNat`'s inline path while the equivalent global register has long
//! since spilled to limb vectors (experiment E19 measures exactly
//! this).
//!
//! # Lane encodings (PR 6)
//!
//! *How* a shard stores its quotient counts is a codec choice
//! ([`LaneEncoding`]): the paper's unary prefix code, or the log-width
//! binary code ([`LaneEncoding::Binary`], [`ShardedMaxRegister::new_binary`]),
//! which shrinks a lane holding `c` from `c` bits to `⌈log₂(c+1)⌉` and
//! thereby lifts the `64·S` inline-value ceiling entirely out of the
//! practical range (experiment E31). Both go through the one shared
//! codec ([`Lanes`]) and probe rule ([`Target`]), so the probe, the
//! single linearizing (always positive) fetch&add and the
//! single-writer-per-lane argument are identical, and the checker twins
//! in `sl2_sharded::machines` adjudicate both codecs on the same
//! scenario families.
//!
//! `read_max` folds the shard maxima and must therefore visit `S` base
//! objects: it collects the per-shard folds until two consecutive
//! collects agree (the \[18, 27\] discipline the repo's read/write max
//! register already uses), which makes the read **exact and
//! linearizable, but only lock-free** — and strongly linearizable only
//! on scenario families where no shard can change behind the reader's
//! collect frontier. DESIGN.md §6 states the boundary precisely;
//! `sl2_sharded::machines` + `check_strong` adjudicate it.

use sl2_bignum::{LaneEncoding, Lanes, Target, WideFaa};
use sl2_core::algos::MaxRegister;
use sl2_primitives::{Lines, Sharding};

/// A max register striped over `S` per-residue-class Theorem-1
/// registers.
///
/// # Examples
///
/// ```
/// use sl2_sharded::ShardedMaxRegister;
/// use sl2_core::algos::MaxRegister;
///
/// let m = ShardedMaxRegister::new(2, 4);
/// m.write_max(0, 5);
/// m.write_max(1, 3);
/// assert_eq!(m.read_max(), 5);
/// ```
#[derive(Debug)]
pub struct ShardedMaxRegister {
    shards: Lines<WideFaa>,
    lanes: Lanes,
    sharding: Sharding,
}

impl ShardedMaxRegister {
    /// Creates a max register shared by `n` processes over `shards`
    /// shards, storing quotient counts in the paper's unary code.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `shards == 0`, or `shards` exceeds
    /// [`sl2_primitives::MAX_SHARDS`].
    pub fn new(n: usize, shards: usize) -> Self {
        ShardedMaxRegister::with_encoding(n, shards, LaneEncoding::Unary)
    }

    /// Creates a max register whose shards store quotient counts in
    /// *binary* ([`LaneEncoding::Binary`]): O(log v) lane bits instead of O(v),
    /// which lifts the old `64·S` inline-value ceiling to `2^(127/n)·S`
    /// — effectively unbounded for realistic process counts. The
    /// probe-then-single-fetch&add shape, and with it the fixed write
    /// linearization point, is unchanged (the checker twins adjudicate
    /// this; DESIGN.md §9).
    pub fn new_binary(n: usize, shards: usize) -> Self {
        ShardedMaxRegister::with_encoding(n, shards, LaneEncoding::Binary)
    }

    /// Creates a max register with an explicit lane encoding.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `shards == 0`, or `shards` exceeds
    /// [`sl2_primitives::MAX_SHARDS`].
    pub fn with_encoding(n: usize, shards: usize, encoding: LaneEncoding) -> Self {
        ShardedMaxRegister::over(Lines::new(shards, |_| WideFaa::new()), n, encoding)
    }

    /// As [`ShardedMaxRegister::with_encoding`] over caller-placed
    /// shard registers, one shard per line (fresh registers: the
    /// initial value is 0) — how a registry co-allocates a key's
    /// shards with this header (`sl2_primitives::build_block`).
    pub fn over(shards: Lines<WideFaa>, n: usize, encoding: LaneEncoding) -> Self {
        ShardedMaxRegister {
            sharding: Sharding::new(shards.len()),
            shards,
            lanes: Lanes::new(n, encoding),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sharding.shards()
    }

    /// Number of processes sharing the register.
    pub fn processes(&self) -> usize {
        self.lanes.layout.processes()
    }

    /// The lane encoding the shards store quotient counts in.
    pub fn encoding(&self) -> LaneEncoding {
        self.lanes.encoding
    }

    /// Total width of the backing registers in bits (experiment E12's
    /// growth measure, summed over shards).
    pub fn register_bits(&self) -> usize {
        self.shards.iter().map(|s| s.bit_len()).sum()
    }

    /// True while every shard register still holds its value in
    /// `BigNat`'s inline representation — the width-localization claim
    /// the E19/E31 experiments and the allocation-guard tests pin.
    pub fn shards_inline(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.read_with(|image| image.is_inline()))
    }

    /// True while every shard is in `WideFaa`'s lock-free inline regime.
    pub fn is_inline_lock_free(&self) -> bool {
        self.shards.iter().all(|s| s.is_inline_lock_free())
    }

    /// The fold of one shard: the largest per-lane quotient count
    /// (0 = the shard has never been written).
    fn shard_fold(&self, s: usize) -> u64 {
        self.shards[s].read_with(|image| {
            sl2_obs::record("sharded.probe_bits", image.bit_len() as u64);
            self.lanes.fold(image)
        })
    }
}

impl MaxRegister for ShardedMaxRegister {
    fn write_max(&self, process: usize, v: u64) {
        // Quotient encoding of v in its residue class.
        let (home, count) = self.sharding.to_quotient(v);
        sl2_obs::count(crate::probes::shard_ops(home));
        let shard = &self.shards[home];
        // §3.1 against the home shard. Lane `process` of this shard is
        // only ever written by `process` (for any value in the shard's
        // residue class), so the probe-then-single-fetch&add is
        // regression-free under either lane encoding.
        let prev = shard.read_with(|image| self.lanes.decode(process, image));
        let Some(count) = Target::AtLeast(count).next(prev) else {
            return; // linearized at the probing fetch&add
        };
        // Chaos: crash-stop mid probe-then-adjust — the write is
        // pending forever and must stay invisible to survivors' exact
        // reads (lane untouched).
        sl2_chaos::point("sharded.write.pre_add");
        let (pos, neg) = self.lanes.adjustments(process, prev, count);
        shard.adjust(&pos, &neg);
    }

    fn read_max(&self) -> u64 {
        // Stable collect of the per-shard folds (see
        // `Sharding::stable_collect`): the returned fold is the exact
        // maximum at one instant inside the read.
        self.sharding.stable_collect(
            |i| self.shard_fold(i),
            |folds| self.sharding.max_from_quotients(folds),
        )
    }
}

impl ShardedMaxRegister {
    /// One-pass fold with no stability check: wait-free, monotone
    /// across calls, and never ahead of the exact maximum (every probed
    /// shard fold was attained, and shard folds only grow), but it may
    /// lag [`MaxRegister::read_max`] by writes concurrent with the
    /// sweep. This is the fold the combining layer's cache publication
    /// uses (`sl2_combine`): the published value must never exceed the
    /// landed maximum, and a one-pass fold is the cheapest sound
    /// source.
    pub fn read_max_relaxed(&self) -> u64 {
        (0..self.sharding.shards())
            .map(|s| self.sharding.from_quotient(s, self.shard_fold(s)))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics_match_spec() {
        let m = ShardedMaxRegister::new(3, 4);
        assert_eq!(m.read_max(), 0);
        m.write_max(1, 7);
        m.write_max(0, 3);
        assert_eq!(m.read_max(), 7);
        m.write_max(2, 7); // equal value, different process
        assert_eq!(m.read_max(), 7);
        m.write_max(0, 12);
        assert_eq!(m.read_max(), 12);
        m.write_max(1, 5); // smaller, different shard than 12
        assert_eq!(m.read_max(), 12);
    }

    #[test]
    fn one_shard_degenerates_to_the_global_register() {
        let sharded = ShardedMaxRegister::new(2, 1);
        let global = sl2_core::algos::max_register::SlMaxRegister::new(2);
        for (p, v) in [(0, 4u64), (1, 9), (0, 2), (1, 9), (0, 11)] {
            sharded.write_max(p, v);
            global.write_max(p, v);
            assert_eq!(sharded.read_max(), global.read_max());
        }
    }

    #[test]
    fn concurrent_writers_monotone_readers() {
        let n = 4;
        let m = Arc::new(ShardedMaxRegister::new(n, 4));
        std::thread::scope(|s| {
            for p in 0..n {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for v in 1..=50u64 {
                        m.write_max(p, v * (p as u64 + 1));
                    }
                });
            }
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
    fn values_land_on_their_residue_shards_in_quotient_form() {
        let m = ShardedMaxRegister::new(2, 2);
        m.write_max(0, 4); // even shard: count = 4/2 + 1
        assert_eq!(m.shard_fold(0), 3);
        assert_eq!(m.sharding.from_quotient(0, 3), 4);
        assert_eq!(m.shard_fold(1), 0, "odd shard untouched");
        m.write_max(1, 7); // odd shard: count = 7/2 + 1
        assert_eq!(m.shard_fold(1), 4);
        assert_eq!(m.sharding.from_quotient(1, 4), 7);
        assert_eq!(m.read_max(), 7);
    }

    #[test]
    fn zero_is_writable_and_distinct_from_never_written() {
        let m = ShardedMaxRegister::new(2, 4);
        assert_eq!(m.read_max(), 0);
        m.write_max(0, 0); // count 1 in shard 0: a real write of 0
        assert_eq!(m.shard_fold(0), 1);
        assert_eq!(m.read_max(), 0);
        m.write_max(1, 3);
        assert_eq!(m.read_max(), 3);
    }

    #[test]
    fn quotient_encoding_keeps_small_shards_inline() {
        // Values below 64·S keep every lane count ≤ 64, so with few
        // processes the shard registers stay within the inline 128-bit
        // representation — the E19 width-localization claim.
        let m = ShardedMaxRegister::new(2, 16);
        for v in 0..(64 * 16) {
            m.write_max((v % 2) as usize, v);
        }
        assert_eq!(m.read_max(), 64 * 16 - 1);
        for s in 0..16 {
            assert!(
                m.shards[s].read_with(|image| image.is_inline()),
                "shard {s} spilled off the inline path"
            );
        }
        // The equivalent global register is far past 128 bits.
        let g = sl2_core::algos::max_register::SlMaxRegister::new(2);
        g.write_max(0, 64 * 16 - 1);
        assert!(g.register_bits() > 128);
    }

    #[test]
    fn relaxed_fold_matches_exact_at_quiescence_and_never_runs_ahead() {
        let m = ShardedMaxRegister::new(2, 4);
        assert_eq!(m.read_max_relaxed(), 0);
        for (p, v) in [(0usize, 7u64), (1, 3), (0, 12), (1, 9)] {
            m.write_max(p, v);
            assert_eq!(m.read_max_relaxed(), m.read_max(), "quiescent sweep");
        }
        // Under contention the sweep stays bounded by the exact fold.
        let m = Arc::new(ShardedMaxRegister::new(2, 4));
        std::thread::scope(|s| {
            let w = Arc::clone(&m);
            s.spawn(move || {
                for v in 1..=200u64 {
                    w.write_max(0, v);
                }
            });
            let r = Arc::clone(&m);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..100 {
                    let v = r.read_max_relaxed();
                    assert!(v >= last, "relaxed fold regressed {last} -> {v}");
                    assert!(v <= r.read_max(), "relaxed fold ran ahead");
                    last = v;
                }
            });
        });
    }

    #[test]
    fn register_bits_grow_with_values() {
        let m = ShardedMaxRegister::new(2, 2);
        assert_eq!(m.register_bits(), 0);
        m.write_max(0, 10);
        let bits_10 = m.register_bits();
        m.write_max(0, 100);
        assert!(m.register_bits() > bits_10, "unary encoding grows");
    }

    #[test]
    fn binary_encoding_matches_unary_on_a_script() {
        let unary = ShardedMaxRegister::new(3, 4);
        let binary = ShardedMaxRegister::new_binary(3, 4);
        assert_eq!(unary.encoding(), sl2_bignum::LaneEncoding::Unary);
        assert_eq!(binary.encoding(), sl2_bignum::LaneEncoding::Binary);
        for (p, v) in [
            (0usize, 7u64),
            (1, 3),
            (2, 7),
            (0, 12),
            (1, 5),
            (2, 0),
            (0, 12),
            (1, 100),
            (2, 99),
        ] {
            unary.write_max(p, v);
            binary.write_max(p, v);
            assert_eq!(unary.read_max(), binary.read_max(), "after ({p}, {v})");
            assert_eq!(binary.read_max(), binary.read_max_relaxed());
        }
        for s in 0..4 {
            assert_eq!(unary.shard_fold(s), binary.shard_fold(s), "shard {s}");
        }
    }

    #[test]
    fn binary_encoding_lifts_the_inline_value_ceiling() {
        // The old ceiling: unary shards spill past values ≈ 64·S. With
        // S = 4 that is 256; the binary register takes values three
        // orders of magnitude past it with every shard still inline —
        // the ROADMAP item-5 claim this PR exists to land.
        let ceiling = 64 * 4;
        let m = ShardedMaxRegister::new_binary(2, 4);
        for v in [1u64, 100, 1_000, 50_000, 300_000] {
            m.write_max((v % 2) as usize, v);
            assert_eq!(m.read_max(), v);
        }
        assert!(m.read_max() > ceiling as u64);
        assert!(
            m.shards_inline(),
            "binary shards must stay inline far past 64·S"
        );
        // Identical workload in unary spills.
        let u = ShardedMaxRegister::new(2, 4);
        u.write_max(0, 300_000);
        assert!(!u.shards_inline(), "unary spills past the ceiling");
    }

    #[test]
    fn binary_one_shard_degenerates_to_the_global_register_semantics() {
        let sharded = ShardedMaxRegister::new_binary(2, 1);
        let global = sl2_core::algos::max_register::SlMaxRegister::new(2);
        for (p, v) in [(0, 4u64), (1, 9), (0, 2), (1, 9), (0, 11)] {
            sharded.write_max(p, v);
            global.write_max(p, v);
            assert_eq!(sharded.read_max(), global.read_max());
        }
    }

    #[test]
    fn binary_concurrent_writers_monotone_readers() {
        let n = 4;
        let m = Arc::new(ShardedMaxRegister::new_binary(n, 4));
        std::thread::scope(|s| {
            for p in 0..n {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for v in 1..=200u64 {
                        m.write_max(p, v * (p as u64 + 1) * 97);
                    }
                });
            }
            let m2 = Arc::clone(&m);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..400 {
                    let v = m2.read_max();
                    assert!(v >= last, "max register regressed: {last} -> {v}");
                    last = v;
                }
            });
        });
        assert_eq!(m.read_max(), 200 * 4 * 97);
        assert!(m.shards_inline(), "77 600 in 4 binary shards is inline");
    }

    #[test]
    fn binary_zero_is_writable_and_distinct_from_never_written() {
        let m = ShardedMaxRegister::new_binary(2, 4);
        assert_eq!(m.read_max(), 0);
        m.write_max(0, 0); // count 1 in shard 0: a real write of 0
        assert_eq!(m.shard_fold(0), 1);
        assert_eq!(m.read_max(), 0);
        m.write_max(1, 3);
        assert_eq!(m.read_max(), 3);
    }
}
