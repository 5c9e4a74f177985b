//! [`WideFaa`]: an atomic fetch&add register holding a [`BigNat`].
//!
//! The paper's Section 3 constructions assume a hardware `fetch&add` on a
//! register of unbounded width (the Discussion acknowledges the values
//! stored are "extremely large"). No hardware provides that, so this is a
//! **documented substitution** (see DESIGN.md §2 and §9): a 128-bit
//! atomic cell carries the value while it is small — which is every
//! tier-1 scenario — and an unbounded [`BigNat`] behind a spinlock takes
//! over once the value outgrows the cell. What the algorithms require of
//! the base object is only that every operation takes effect atomically
//! at one instant between its invocation and response; both regimes
//! provide that (DESIGN.md §9 gives the linearization-point argument).
//!
//! # The two regimes and the migration tag
//!
//! * **Inline (lock-free).** On x86_64 with `cmpxchg16b` (runtime
//!   detected), values below 2^127 live directly in an [`Atomic128`]
//!   and every write is a DWCAS retry loop: read the cell, compute
//!   the new value, `cmpxchg16b` it in. The successful CAS is the
//!   single linearization point; no lock is ever touched, so a stalled
//!   thread cannot block others (lock-freedom: some CAS wins every
//!   round). A read is one atomic 16-byte load ([`Atomic128::load`]:
//!   `vmovdqa` on AVX parts from Intel and AMD, a seeded `cmpxchg16b`
//!   elsewhere) and linearizes there; it writes nothing.
//! * **Heap (locked).** Bit 127 of the cell is the **migration tag**.
//!   When an add would carry into it (or a heap-sized operand arrives),
//!   the operation takes the spinlock, CASes the tag into the cell, and
//!   publishes the displaced value into the heap slot *while still
//!   holding the lock* — any thread that observes the tag serializes
//!   behind that same lock, so the heap value is visible before anyone
//!   reads it. The tag is one-way: once set, every later operation
//!   routes to the locked slow path, exactly the old spinlock design.
//!
//! Non-x86_64 targets, CPUs without `cmpxchg16b`, and builds with the
//! `force_spinlock` feature construct every register pre-tagged, so the
//! whole object degrades to the previous spinlock-protected `BigNat` —
//! same results, bit for bit, which the differential stress suite
//! checks by running seeded workloads against both in one binary (see
//! [`WideFaa::with_value_spinlocked`]).
//!
//! # Hot-path design
//!
//! The inline regime is allocation-free end to end: the cell is a
//! `u128`, decode probes run on a borrowed inline `BigNat` built on the
//! stack, and the `_with` entry points ([`WideFaa::read_with`],
//! [`WideFaa::fetch_add_with`], [`WideFaa::fetch_adjust_with`]) hand
//! the §3 algorithms a *borrowed* view of the snapshot, so a probing
//! `fetch&add(R, 0)` decodes lanes without materializing anything
//! (experiment E12's `faa_at_width` series, E30's contended sweep).

use std::cell::UnsafeCell;

use sl2_primitives::{BaseObject, ConsensusNumber};

use crate::cell::RawSpin;
use crate::{Atomic128, BigNat};

/// Bit 127 of the cell: set exactly when the value has migrated to the
/// heap slot. Inline values are therefore capped at 2^127 − 1, which
/// still covers every small-value fast path the §3 algorithms care
/// about (the old spinlock design capped *allocation-freedom* at 2^128
/// with the same order of magnitude).
const MIGRATED: u128 = 1 << 127;

#[inline]
const fn is_tagged(v: u128) -> bool {
    v & MIGRATED != 0
}

/// An atomic wide fetch&add register.
///
/// # Examples
///
/// ```
/// use sl2_bignum::{BigNat, WideFaa};
///
/// let r = WideFaa::new();
/// let old = r.fetch_add(&BigNat::pow2(100));
/// assert!(old.is_zero());
/// assert_eq!(r.load(), BigNat::pow2(100));
/// ```
#[derive(Debug)]
pub struct WideFaa {
    /// Inline value while untagged; permanently `MIGRATED`-tagged once
    /// the value moves to `heap` (or from birth on fallback builds).
    cell: Atomic128,
    /// Guards `heap`. Only ever taken by tagged/migrating operations.
    lock: RawSpin,
    /// The unbounded value; meaningful only while the cell is tagged.
    heap: UnsafeCell<BigNat>,
}

// SAFETY: `heap` is only touched under `lock`, and only after the cell
// is tagged; the tag is published by a CAS and read by atomic loads, so
// the lock acquire/release edges order all heap access. The inline
// regime touches only the atomic cell.
unsafe impl Send for WideFaa {}
// SAFETY: as for `Send` — shared access is the atomic cell or the lock.
unsafe impl Sync for WideFaa {}

impl Default for WideFaa {
    fn default() -> Self {
        WideFaa::new()
    }
}

impl WideFaa {
    /// Creates a register initialized to zero.
    pub fn new() -> Self {
        WideFaa::with_value(BigNat::zero())
    }

    /// Creates a register with the given initial value. Starts in the
    /// lock-free inline regime when the backend supports it and `v`
    /// fits below 2^127; otherwise starts migrated.
    pub fn with_value(v: BigNat) -> Self {
        if Atomic128::is_lock_free() {
            if let Some(x) = v.to_u128() {
                if !is_tagged(x) {
                    return WideFaa {
                        cell: Atomic128::new(x),
                        lock: RawSpin::new(),
                        heap: UnsafeCell::new(BigNat::zero()),
                    };
                }
            }
        }
        WideFaa {
            cell: Atomic128::new(MIGRATED),
            lock: RawSpin::new(),
            heap: UnsafeCell::new(v),
        }
    }

    /// Creates a register that routes **every** operation through the
    /// spinlocked slow path, even where the lock-free backend exists —
    /// the pre-PR-6 behavior. This is the ablation arm: the E30 bench
    /// sweep and the differential stress tests run identical workloads
    /// against a lock-free register and a spinlocked twin in the same
    /// binary and require bit-identical results.
    pub fn with_value_spinlocked(v: BigNat) -> Self {
        WideFaa {
            cell: Atomic128::new(MIGRATED),
            lock: RawSpin::new(),
            heap: UnsafeCell::new(v),
        }
    }

    /// True while operations on this register take the lock-free DWCAS
    /// path: the backend exists and the value has not migrated. Once
    /// false it stays false (migration is one-way).
    pub fn is_inline_lock_free(&self) -> bool {
        Atomic128::is_lock_free() && !is_tagged(self.cell.load())
    }

    /// Whether this build + CPU has the lock-free 128-bit backend at
    /// all (false on non-x86_64, under `force_spinlock`, or without
    /// `cmpxchg16b`).
    pub fn backend_lock_free() -> bool {
        Atomic128::is_lock_free()
    }

    /// Runs `f` with exclusive access to the heap value. Callers must
    /// have observed the migration tag (or constructed the register
    /// pre-tagged): the tag is permanent, and the migrating writer
    /// publishes the heap value before releasing this same lock, so the
    /// borrow below always sees the current value.
    #[cold]
    fn slow_locked<R>(&self, f: impl FnOnce(&mut BigNat) -> R) -> R {
        let _guard = self.lock.acquire();
        // Chaos: a panic here unwinds through `_guard`, whose Drop
        // releases the lock — the unwind-safety the regression tests
        // pin. A crash-stop here deadlocks this register (heap regime
        // serializes on the lock; ROADMAP item 9, DESIGN.md §10).
        sl2_chaos::point("wfaa.spin.critical");
        debug_assert!(is_tagged(self.cell.load()), "slow path on inline value");
        // SAFETY: the spinlock guarantees exclusive access for the
        // guard's lifetime; the reference does not escape `f`.
        f(unsafe { &mut *self.heap.get() })
    }

    /// Migrates the inline value to the heap slot (if some other thread
    /// has not already done so) and runs `f` on it under the lock.
    ///
    /// Inline operations keep succeeding on the cell until the tag CAS
    /// lands — the retry loop re-reads the displaced value each time —
    /// so migration never loses concurrent updates; and because the
    /// heap store happens while the lock is held, every tagged reader
    /// (which must take this lock) sees it.
    #[cold]
    fn migrate_and<R>(&self, f: impl FnOnce(&mut BigNat) -> R) -> R {
        let _guard = self.lock.acquire();
        sl2_chaos::point("wfaa.migrate");
        sl2_obs::count("faa.migrate");
        // Attribute the inline→heap regime change to the request that
        // forced it (ambient span; 0 outside the service tier).
        sl2_trace::event("faa.migrate", 0);
        let mut cur = self.cell.load();
        while !is_tagged(cur) {
            match self.cell.compare_exchange(cur, MIGRATED) {
                Ok(prev) => {
                    // SAFETY: lock held; no reader dereferences `heap`
                    // without first seeing the tag and taking the lock.
                    unsafe { *self.heap.get() = BigNat::from(prev) };
                    break;
                }
                Err(actual) => cur = actual,
            }
        }
        // SAFETY: as in `slow_locked`.
        f(unsafe { &mut *self.heap.get() })
    }

    /// Atomically adds `delta` and returns `f` applied to the
    /// **previous** value, borrowed at the linearization instant. This
    /// is the zero-copy form of `fetch&add`: the §3 algorithms only
    /// ever *decode* the returned snapshot, so handing them a borrow
    /// makes the probe allocation-free at every register width.
    ///
    /// On the inline path `f` runs after the winning DWCAS, on a
    /// stack-built copy of the pre-add value — no lock is held. On the
    /// migrated path `f` runs inside the critical section; keep it to
    /// the short decode work the §3 algorithms need.
    #[inline]
    pub fn fetch_add_with<R>(&self, delta: &BigNat, f: impl FnOnce(&BigNat) -> R) -> R {
        self.fetch_adjust_with(delta, &BigNat::zero(), f)
    }

    /// Atomically adds `delta`, returning the **previous** value.
    ///
    /// Allocation-free while both the register and `delta` fit the
    /// inline representation (the returned snapshot is an inline
    /// `BigNat` built on the stack); on the heap path the old value is
    /// cloned once (it must be returned) and the add happens in place.
    /// Callers that only need a *projection* of the previous value
    /// should use [`WideFaa::fetch_add_with`] instead, which never
    /// clones.
    #[inline]
    pub fn fetch_add(&self, delta: &BigNat) -> BigNat {
        self.fetch_add_with(delta, |v| v.clone())
    }

    /// Atomically adds `delta`, discarding the previous value — the
    /// write-only half of the §3.1 `writeMax` step 2, with no clone at
    /// any width.
    #[inline]
    pub fn add(&self, delta: &BigNat) {
        self.fetch_add_with(delta, |_| ());
    }

    /// Atomically applies `+pos − neg` in one step and returns `f`
    /// applied to the **previous** value, borrowed at the linearization
    /// instant (the zero-copy form of [`WideFaa::fetch_adjust`]). This
    /// is the signed `fetch&add(R, posAdj − negAdj)` of §3.2.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative (the §3 algorithms never
    /// let this happen: a process only clears bits it previously set).
    /// The register is left unchanged (`f` has already run by then, as
    /// in the eager `fetch_adjust`).
    #[inline]
    pub fn fetch_adjust_with<R>(
        &self,
        pos: &BigNat,
        neg: &BigNat,
        f: impl FnOnce(&BigNat) -> R,
    ) -> R {
        if Atomic128::is_lock_free() {
            if let (Some(p), Some(n)) = (pos.to_u128(), neg.to_u128()) {
                // Seed with a relaxed guess: a torn guess costs one
                // failed CAS (which returns the untorn value) and can
                // never be *acted* on — the overflow and underflow
                // branches below re-read atomically before committing
                // to a slow path.
                let mut cur = self.cell.guess();
                let mut confirmed = false;
                loop {
                    sl2_chaos::point("wfaa.pre_cas");
                    // A tagged value is definitive even from a torn
                    // guess: the tag lives in the hi half, which
                    // `guess` loads atomically, and migration is
                    // one-way — no confirming DWCAS needed before
                    // falling through to the lock.
                    if is_tagged(cur) {
                        break;
                    }
                    let next = if p >= n {
                        cur.checked_add(p - n).filter(|x| !is_tagged(*x))
                    } else {
                        cur.checked_sub(n - p)
                    };
                    match next {
                        Some(new) => match self.cell.compare_exchange(cur, new) {
                            Ok(prev) => return f(&BigNat::from(prev)),
                            Err(actual) => {
                                sl2_obs::count("faa.dwcas_retry");
                                sl2_trace::event("faa.dwcas_retry", actual as u64);
                                cur = actual;
                                confirmed = true;
                            }
                        },
                        None => {
                            if !confirmed {
                                sl2_obs::count("faa.guess_miss");
                                cur = self.cell.load();
                                confirmed = true;
                                continue;
                            }
                            if p >= n {
                                // Carry into the tag bit: go unbounded.
                                return self.migrate_and(|v| {
                                    let out = f(v);
                                    v.adjust_in_place(pos, neg);
                                    out
                                });
                            }
                            // Underflow: same contract as the locked
                            // path — `f` observes the value, then the
                            // register is left unchanged (no CAS has
                            // been attempted with this `cur`).
                            let out = f(&BigNat::from(cur));
                            drop(out);
                            panic!("fetch&add adjustment drove the register negative");
                        }
                    }
                }
            } else {
                return self.migrate_and(|v| {
                    let out = f(v);
                    v.adjust_in_place(pos, neg);
                    out
                });
            }
        }
        self.slow_locked(|v| {
            let out = f(v);
            v.adjust_in_place(pos, neg);
            out
        })
    }

    /// Atomically applies `+pos − neg` in one step, returning the
    /// previous value.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative (the §3 algorithms never
    /// let this happen: a process only clears bits it previously set).
    /// The register is left unchanged.
    #[inline]
    pub fn fetch_adjust(&self, pos: &BigNat, neg: &BigNat) -> BigNat {
        self.fetch_adjust_with(pos, neg, |v| v.clone())
    }

    /// Atomically applies `+pos − neg`, discarding the previous value —
    /// the write-only half of the §3.2 `update` step 2.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative; the register is left
    /// unchanged.
    #[inline]
    pub fn adjust(&self, pos: &BigNat, neg: &BigNat) {
        self.fetch_adjust_with(pos, neg, |_| ());
    }

    /// Runs `f` on a borrow of the current value — a `fetch&add(R, 0)`
    /// probe that never materializes a snapshot. This is the read entry
    /// point the §3 production algorithms use for `readMax`/`scan`/
    /// recovery probes.
    ///
    /// While the register is inline this is **wait-free**: one atomic
    /// load of the cell ([`Atomic128::load`]) captures an untorn
    /// snapshot, and `f` runs on a stack-built borrow with no lock
    /// held. A `fetch&add` of zero changes nothing, so a read is all it
    /// needs to be. On the migrated path `f` runs under the lock; keep
    /// it to short decode work.
    #[inline]
    pub fn read_with<R>(&self, f: impl FnOnce(&BigNat) -> R) -> R {
        if Atomic128::is_lock_free() {
            // A tagged value routes to the lock: migration is one-way,
            // so the heap slot is current once the tag is seen.
            sl2_chaos::point("wfaa.read.pre_load");
            let cur = self.cell.load();
            if !is_tagged(cur) {
                return f(&BigNat::from(cur));
            }
        }
        self.slow_locked(|v| f(v))
    }

    /// Reads the current value. Equivalent to `fetch_add(0)`, which is
    /// how the paper's algorithms read the register. Prefer
    /// [`WideFaa::read_with`] when only a decoded projection is needed.
    #[inline]
    pub fn load(&self) -> BigNat {
        self.read_with(|v| v.clone())
    }

    /// Current width of the stored value in bits — the quantity tracked
    /// by experiment E12 ("extremely large values", Discussion section).
    /// Lock-free while inline.
    pub fn bit_len(&self) -> usize {
        self.read_with(|v| v.bit_len())
    }
}

// Fetch&add on an unbounded value sits where the fixed-width
// fetch&adds do in the hierarchy (the paper's point is precisely that
// this level-2 object suffices for the §3 towers). The annotation
// lives here, not in `sl2_primitives::rmw`, so the crate graph keeps
// `sl2_primitives` at the bottom.
impl BaseObject for WideFaa {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Two;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaneEncoding, Lanes};
    use std::sync::Arc;

    #[test]
    fn fetch_add_returns_previous() {
        let r = WideFaa::new();
        assert!(r.fetch_add(&BigNat::from(5u64)).is_zero());
        assert_eq!(r.fetch_add(&BigNat::from(7u64)), BigNat::from(5u64));
        assert_eq!(r.load(), BigNat::from(12u64));
    }

    #[test]
    fn fetch_add_zero_is_read() {
        let r = WideFaa::with_value(BigNat::pow2(99));
        assert_eq!(r.fetch_add(&BigNat::zero()), BigNat::pow2(99));
        assert_eq!(r.load(), BigNat::pow2(99));
    }

    #[test]
    fn fetch_adjust_moves_bits() {
        let r = WideFaa::with_value(BigNat::from(0b1010u64));
        let old = r.fetch_adjust(&BigNat::from(0b0001u64), &BigNat::from(0b1000u64));
        assert_eq!(old, BigNat::from(0b1010u64));
        assert_eq!(r.load(), BigNat::from(0b0011u64));
    }

    #[test]
    fn borrowed_forms_match_eager_forms() {
        let r = WideFaa::with_value(BigNat::from(0b1010u64));
        assert_eq!(r.read_with(|v| v.count_ones()), 2);
        let ones = r.fetch_add_with(&BigNat::from(0b0100u64), |old| old.count_ones());
        assert_eq!(ones, 2, "f sees the pre-add value");
        assert_eq!(r.load(), BigNat::from(0b1110u64));
        let bits = r.fetch_adjust_with(&BigNat::from(1u64), &BigNat::from(0b1000u64), |old| {
            old.bit_len()
        });
        assert_eq!(bits, 4, "f sees the pre-adjust value");
        assert_eq!(r.load(), BigNat::from(0b0111u64));
    }

    #[test]
    fn write_only_forms_apply() {
        let r = WideFaa::new();
        r.add(&BigNat::from(6u64));
        r.adjust(&BigNat::from(1u64), &BigNat::from(4u64));
        assert_eq!(r.load(), BigNat::from(3u64));
    }

    #[test]
    fn failed_adjust_leaves_register_intact() {
        let r = WideFaa::with_value(BigNat::from(0b10u64));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.adjust(&BigNat::zero(), &BigNat::from(0b100u64));
        }));
        assert!(err.is_err());
        // Any lock must have been released and the value preserved.
        assert_eq!(r.load(), BigNat::from(0b10u64));
        r.add(&BigNat::one());
        assert_eq!(r.load(), BigNat::from(0b11u64));
    }

    #[test]
    fn failed_adjust_on_spinlocked_twin_leaves_register_intact() {
        let r = WideFaa::with_value_spinlocked(BigNat::from(0b10u64));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.adjust(&BigNat::zero(), &BigNat::from(0b100u64));
        }));
        assert!(err.is_err());
        assert_eq!(r.load(), BigNat::from(0b10u64));
        r.add(&BigNat::one());
        assert_eq!(r.load(), BigNat::from(0b11u64));
    }

    #[test]
    fn small_registers_are_lock_free_where_the_backend_exists() {
        let r = WideFaa::with_value(BigNat::pow2(100));
        assert_eq!(r.is_inline_lock_free(), WideFaa::backend_lock_free());
        // Reads and small adds must not migrate.
        let _ = r.load();
        let _ = r.bit_len();
        r.add(&BigNat::one());
        assert_eq!(r.is_inline_lock_free(), WideFaa::backend_lock_free());
        // The spinlocked twin is never lock-free.
        let s = WideFaa::with_value_spinlocked(BigNat::zero());
        assert!(!s.is_inline_lock_free());
    }

    #[test]
    fn values_at_or_past_the_tag_bit_start_migrated_and_work() {
        for bits in [127usize, 128, 200] {
            let r = WideFaa::with_value(BigNat::pow2(bits));
            assert!(!r.is_inline_lock_free());
            assert_eq!(r.bit_len(), bits + 1);
            assert_eq!(r.fetch_add(&BigNat::one()), BigNat::pow2(bits));
            let mut want = BigNat::pow2(bits);
            want += &BigNat::one();
            assert_eq!(r.load(), want);
        }
    }

    #[test]
    fn overflow_past_the_tag_bit_migrates_once_and_stays_correct() {
        // 2^126 + 2^126 carries into bit 127 (the tag): the add must
        // migrate, produce the exact sum, and keep working afterwards.
        let r = WideFaa::with_value(BigNat::pow2(126));
        let was_lock_free = r.is_inline_lock_free();
        let old = r.fetch_add(&BigNat::pow2(126));
        assert_eq!(old, BigNat::pow2(126));
        assert_eq!(r.load(), BigNat::pow2(127));
        if was_lock_free {
            assert!(!r.is_inline_lock_free(), "migration is one-way");
        }
        r.add(&BigNat::one());
        let mut want = BigNat::pow2(127);
        want += &BigNat::one();
        assert_eq!(r.load(), want);
        // And the adjust path keeps its semantics on the migrated side.
        let prev = r.fetch_adjust(&BigNat::zero(), &BigNat::one());
        assert_eq!(prev, want);
        assert_eq!(r.load(), BigNat::pow2(127));
    }

    #[test]
    fn heap_sized_operands_migrate_inline_registers() {
        let r = WideFaa::with_value(BigNat::from(5u64));
        let old = r.fetch_add(&BigNat::pow2(300));
        assert_eq!(old, BigNat::from(5u64));
        assert_eq!(r.bit_len(), 301);
        let mut want = BigNat::pow2(300);
        want += &BigNat::from(5u64);
        assert_eq!(r.load(), want);
    }

    #[test]
    fn spinlocked_twin_matches_lock_free_register_on_a_script() {
        // A deterministic single-threaded script must land both
        // registers on identical values step for step.
        let a = WideFaa::new();
        let b = WideFaa::with_value_spinlocked(BigNat::zero());
        let lanes = Lanes::new(4, LaneEncoding::Unary);
        for step in 0..200u64 {
            let p = (step % 4) as usize;
            let old = lanes.decode(p, &a.load());
            let (inc, _) = lanes.adjustments(p, old, old + 1);
            a.add(&inc);
            b.add(&inc);
            assert_eq!(a.load(), b.load(), "diverged at step {step}");
            let lane = |r: &WideFaa| r.read_with(|v| lanes.decode(p, v));
            assert_eq!(lane(&a), lane(&b));
        }
    }

    #[test]
    fn panic_inside_the_locked_closure_releases_the_spinlock() {
        // The caller's closure runs *inside* the spinlock critical
        // section on the migrated path (and on every path of the
        // spinlocked twin): an unwinding panic must release the lock
        // through SpinGuard's Drop, or every other thread spins
        // forever. Regression for the ISSUE-7 hardening audit.
        for reg in [
            WideFaa::with_value(BigNat::pow2(130)),
            WideFaa::with_value_spinlocked(BigNat::pow2(130)),
        ] {
            let r = Arc::new(reg);
            std::thread::scope(|s| {
                let victim = Arc::clone(&r);
                s.spawn(move || {
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        victim.fetch_add_with(&BigNat::one(), |_| -> () {
                            panic!("injected: panic inside the critical section")
                        })
                    }));
                    assert!(out.is_err(), "the injected panic must propagate");
                });
                for _ in 0..4 {
                    let r = Arc::clone(&r);
                    s.spawn(move || {
                        for _ in 0..100 {
                            r.fetch_add_with(&BigNat::one(), |_| ());
                        }
                    });
                }
            });
            // The panicking add aborted before its store (`f` runs
            // first in the critical section); all 400 survivor
            // increments landed.
            let mut want = BigNat::pow2(130);
            want += &BigNat::from(400u64);
            assert_eq!(r.load(), want);
        }
    }

    #[test]
    fn concurrent_fetch_adds_all_land() {
        // Each of 8 threads adds 2^(k) for distinct k 1000 times; the sum
        // is exact iff no increment was lost.
        let r = Arc::new(WideFaa::new());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    let delta = BigNat::pow2(t * 70);
                    for _ in 0..1000 {
                        r.fetch_add(&delta);
                    }
                });
            }
        });
        let v = r.load();
        for t in 0..8usize {
            // lane value = 1000 = 0b1111101000 shifted into position
            let mut expect = BigNat::zero();
            for bit in 0..10 {
                if (1000u64 >> bit) & 1 == 1 {
                    expect.set_bit(t * 70 + bit, true);
                }
            }
            let mut mask = BigNat::zero();
            for bit in 0..10 {
                mask.set_bit(t * 70 + bit, true);
            }
            // extract the 10 bits of lane t
            let mut got = BigNat::zero();
            for b in v.one_bits() {
                if b >= t * 70 && b < t * 70 + 10 {
                    got.set_bit(b, true);
                }
            }
            assert_eq!(got, expect, "thread {t} lane");
        }
    }

    #[test]
    fn concurrent_mixed_borrowed_and_eager_ops() {
        // Writers use the in-place/borrowed forms; readers use both
        // load() and read_with(); the final sum must still be exact.
        let r = Arc::new(WideFaa::new());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    let delta = BigNat::pow2(t * 40);
                    for i in 0..500 {
                        if i % 2 == 0 {
                            r.add(&delta);
                        } else {
                            let _ = r.fetch_add_with(&delta, |old| old.bit_len());
                        }
                    }
                });
            }
            let r2 = Arc::clone(&r);
            s.spawn(move || {
                // The register value only ever grows (adds, no clears),
                // so its bit length is monotone; popcount is NOT (a
                // carry can clear more bits than it sets).
                let mut last = 0;
                for _ in 0..200 {
                    let bits = r2.read_with(|v| v.bit_len());
                    assert!(bits >= last, "register width regressed");
                    last = bits;
                }
            });
        });
        // 500 = 0b111110100; each lane holds 500 in binary at t*40.
        for t in 0..4usize {
            let lane: usize = r
                .load()
                .one_bits()
                .filter(|&b| b >= t * 40 && b < t * 40 + 10)
                .map(|b| 1usize << (b - t * 40))
                .sum();
            assert_eq!(lane, 500, "thread {t} lane");
        }
    }

    #[test]
    fn no_read_is_torn_while_a_writer_flips_both_halves() {
        // Every flip changes both 64-bit halves, so a torn read is a
        // value outside the pair. The register's pair stays below the
        // migration tag (u128::MAX would carry it).
        const READS: usize = 1_000_000;
        let rounds = [
            ((0, u128::MAX), (0, (1u128 << 127) - 1)),
            ((u64::MAX as u128, 1 << 64), (u64::MAX as u128, 1 << 64)),
        ];
        for (cell_pair, reg_pair) in rounds {
            let cell = Atomic128::new(cell_pair.0);
            let reg = WideFaa::with_value(BigNat::from(reg_pair.0));
            let up = BigNat::from(reg_pair.1 - reg_pair.0);
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _ = cell.compare_exchange(cell_pair.0, cell_pair.1);
                        let _ = cell.compare_exchange(cell_pair.1, cell_pair.0);
                        reg.add(&up);
                        reg.adjust(&BigNat::zero(), &up);
                    }
                });
                let readers: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            for j in 0..READS {
                                let (v, (a, b)) = match j % 3 {
                                    0 => (cell.load(), cell_pair),
                                    1 => (reg.read_with(|v| v.to_u128().unwrap()), reg_pair),
                                    _ => (cell.load_locked(), cell_pair),
                                };
                                assert!(v == a || v == b, "torn read {v:#x} (read {})", j % 3);
                            }
                        })
                    })
                    .collect();
                let joined: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                for r in joined {
                    r.unwrap();
                }
            });
        }
    }

    #[test]
    fn bit_len_tracks_growth() {
        let r = WideFaa::new();
        assert_eq!(r.bit_len(), 0);
        r.fetch_add(&BigNat::pow2(1234));
        assert_eq!(r.bit_len(), 1235);
    }

    #[test]
    fn wide_registers_sit_at_level_two() {
        assert_eq!(WideFaa::new().consensus_number(), ConsensusNumber::Two);
    }
}
