//! [`Atomic128`]: a 128-bit atomic cell, lock-free where the hardware
//! allows it, plus the raw spinlock shared with [`WideFaa`]'s slow
//! path.
//!
//! x86_64 has had a 16-byte compare-and-swap (`cmpxchg16b`) since the
//! first 64-bit parts, but Rust's `core::sync::atomic` does not expose
//! `AtomicU128` on stable. This module supplies the missing primitive
//! with a short inline-asm sequence, runtime-detected via CPUID and
//! compiled only on x86_64; every other target (and any build with the
//! `force_spinlock` feature, which exists so the portable path can be
//! differentially tested on hardware that would normally take the
//! lock-free path) falls back to a spinlock-protected `u128` with the
//! same API and the same single-instant atomicity guarantees, just
//! without lock-freedom.
//!
//! A read writes nothing: where the vendor documents an aligned 16-byte
//! load as atomic it is one `vmovdqa`, and only other DWCAS parts pay a
//! `cmpxchg16b` to read (DESIGN.md §9).
//!
//! The consensus-number story (DESIGN.md §2, §9) is unchanged by the
//! stronger primitive: the spinlock this replaces was itself built on
//! `AtomicBool::compare_exchange`, and CAS reduces to consensus-number-2
//! primitives by Khanchandani–Wattenhofer (arXiv 1802.03844), so
//! nothing the checker certifies gets quietly easier.
//!
//! [`WideFaa`]: crate::WideFaa

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::cpu;

/// One `lock cmpxchg16b` on `dst`: if the 16 bytes equal `expected`,
/// store `new`; either way return the value observed (equal to
/// `expected` exactly when the store happened). Sequentially consistent
/// (`lock`-prefixed instructions are full fences on x86).
///
/// `rbx` cannot be named as an operand (LLVM may reserve it), so the
/// low half of `new` travels through `rsi` and is swapped into `rbx`
/// around the instruction. Every operand register is named explicitly:
/// with a `reg`-class operand the allocator is free to pick `rbx`
/// itself in frames where it is not reserved, and the `xchg` prologue
/// would then destroy that operand before the instruction reads it
/// (observed in practice with the pointer operand — a release-mode
/// segfault inside `catch_unwind` frames).
///
/// # Safety
///
/// `dst` must be 16-byte aligned, valid for reads and writes, and the
/// CPU must support `cmpxchg16b` (see `cpu::dwcas`).
#[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
#[inline]
unsafe fn cmpxchg16b(dst: *mut u128, expected: u128, new: u128) -> u128 {
    let mut lo = expected as u64;
    let mut hi = (expected >> 64) as u64;
    // SAFETY: the caller guarantees alignment, validity and the
    // instruction; `rbx` is restored before the block ends and every
    // other register the sequence touches is named as an operand.
    unsafe {
        core::arch::asm!(
            "xchg rsi, rbx",
            "lock cmpxchg16b [rdi]",
            "mov rbx, rsi",
            in("rdi") dst,
            inout("rsi") new as u64 => _,
            inout("rax") lo,
            inout("rdx") hi,
            in("rcx") (new >> 64) as u64,
            options(nostack),
        );
    }
    (lo as u128) | ((hi as u128) << 64)
}

/// One aligned 16-byte `vmovdqa` load of `src`: single-copy atomic on
/// the parts `cpu::atomic_load128` admits, and sequentially consistent
/// against a cell whose every store is a `lock cmpxchg16b` (x86 loads
/// are never reordered with older loads or with those locked stores).
/// No `readonly`/`pure` option: the block is a compiler barrier, as an
/// atomic load must be.
///
/// # Safety
///
/// `src` must be 16-byte aligned and valid for reads, and the CPU must
/// guarantee the load's atomicity (see `cpu::atomic_load128`).
#[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
#[inline]
unsafe fn vmovdqa(src: *const u128) -> u128 {
    let out: core::arch::x86_64::__m128i;
    // SAFETY: the caller guarantees alignment and validity; the block
    // reads 16 bytes and writes only its output register.
    unsafe {
        core::arch::asm!(
            "vmovdqa {out}, xmmword ptr [{src}]",
            src = in(reg) src,
            out = out(xmm_reg) out,
            options(nostack, preserves_flags),
        );
    }
    // SAFETY: `__m128i` and `u128` are both 16 plain bytes, and x86 is
    // little-endian, so lane order matches the integer's.
    unsafe { core::mem::transmute::<core::arch::x86_64::__m128i, u128>(out) }
}

/// A 16-byte-aligned atomic `u128`.
///
/// Lock-free on x86_64 parts with `cmpxchg16b` (detected at runtime;
/// see [`Atomic128::is_lock_free`]); elsewhere every operation takes a
/// short internal spinlock. Both modes give each operation a single
/// linearization instant, so callers never observe torn values.
///
/// # Examples
///
/// ```
/// use sl2_bignum::Atomic128;
///
/// let c = Atomic128::new(1 << 100);
/// assert_eq!(c.fetch_add(1), 1 << 100);
/// assert_eq!(c.load(), (1 << 100) + 1);
/// assert!(c.compare_exchange(5, 6).is_err());
/// ```
#[repr(C, align(16))]
pub struct Atomic128 {
    value: UnsafeCell<u128>,
    lock: RawSpin,
}

// SAFETY: all access to `value` is either a `lock cmpxchg16b` or an
// atomic `vmovdqa` load (both atomic at hardware level) or guarded by
// the internal spinlock — the two regimes are never mixed, because
// `cpu::dwcas()` is constant for the life of the process.
unsafe impl Send for Atomic128 {}
// SAFETY: as for `Send` — every shared access is atomic or locked.
unsafe impl Sync for Atomic128 {}

impl Atomic128 {
    /// Creates a cell holding `v`.
    pub const fn new(v: u128) -> Self {
        Atomic128 {
            value: UnsafeCell::new(v),
            lock: RawSpin::new(),
        }
    }

    /// True when operations on every `Atomic128` in this process use
    /// the DWCAS instruction rather than the spinlock fallback.
    #[inline]
    pub fn is_lock_free() -> bool {
        cpu::dwcas()
    }

    /// A relaxed, possibly-torn read of the two halves — only useful as
    /// the seed of a CAS loop, where a torn guess merely costs one
    /// failed `cmpxchg16b` (whose returned value is untorn). Never
    /// hand the result to code that interprets it.
    #[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
    #[inline]
    pub(crate) fn guess(&self) -> u128 {
        use std::sync::atomic::AtomicU64;
        let p = self.value.get() as *const AtomicU64;
        // SAFETY: the cell is 16-aligned so both halves are 8-aligned;
        // `AtomicU64` is layout-compatible with `u64`, and atomic loads
        // never race with the concurrent `cmpxchg16b` stores in the
        // sense of the memory model (both are atomic accesses).
        let lo = unsafe { &*p }.load(Ordering::Relaxed);
        // SAFETY: as above, for the high half.
        let hi = unsafe { &*p.add(1) }.load(Ordering::Relaxed);
        (lo as u128) | ((hi as u128) << 64)
    }

    /// Portable stand-in for the seed read where no DWCAS exists; the
    /// fallback paths are lock-based anyway, so an exact read is fine.
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force_spinlock"))))]
    #[inline]
    pub(crate) fn guess(&self) -> u128 {
        self.load()
    }

    /// Atomically reads the current value.
    ///
    /// Where the vendor documents an aligned 16-byte load as atomic
    /// (AVX parts from Intel and AMD; see `cpu::atomic_load128`) this
    /// is one `vmovdqa`: a plain read that leaves the cache line
    /// shared, the way the 64-bit `FetchAdd::read` is one `mov`. On
    /// other DWCAS parts it is one seeded `cmpxchg16b`; under the
    /// spinlock it takes the lock. Either way the result is the cell's
    /// value at one instant.
    #[inline]
    pub fn load(&self) -> u128 {
        if cpu::atomic_load128() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
            // SAFETY: alignment by repr; atomicity just checked, and it
            // implies DWCAS, so no spinlock ever writes this cell.
            return unsafe { vmovdqa(self.value.get()) };
        }
        self.load_locked()
    }

    /// The read for CPUs without an atomic 16-byte load: one
    /// `cmpxchg16b` seeded with a relaxed guess. If the guess matches,
    /// the (idempotent) store confirms it atomically; if not, the
    /// instruction *returns* the untorn current value. It takes the
    /// line exclusively, like any locked instruction. Under the
    /// spinlock it takes the lock.
    #[inline]
    pub(crate) fn load_locked(&self) -> u128 {
        if cpu::dwcas() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
            {
                let guess = self.guess();
                // SAFETY: alignment by repr; availability just checked.
                return unsafe { cmpxchg16b(self.value.get(), guess, guess) };
            }
        }
        let _g = self.lock.acquire();
        // SAFETY: the spinlock gives exclusive access.
        unsafe { *self.value.get() }
    }

    /// Atomically replaces the value with `new` if it equals `current`.
    /// Returns the previous value: `Ok` (== `current`) if the exchange
    /// happened, `Err` (the actual value) if not.
    #[inline]
    pub fn compare_exchange(&self, current: u128, new: u128) -> Result<u128, u128> {
        if cpu::dwcas() {
            #[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
            {
                // SAFETY: alignment by repr; availability just checked.
                let observed = unsafe { cmpxchg16b(self.value.get(), current, new) };
                return if observed == current {
                    Ok(observed)
                } else {
                    Err(observed)
                };
            }
        }
        let _g = self.lock.acquire();
        // SAFETY: the spinlock gives exclusive access.
        let v = unsafe { &mut *self.value.get() };
        if *v == current {
            *v = new;
            Ok(current)
        } else {
            Err(*v)
        }
    }

    /// Atomically replaces the value with `f(value)`, returning the
    /// **previous** value. `f` may run several times under contention
    /// (CAS retry loop); it is always applied to an untorn snapshot. If
    /// `f` panics the cell is left unchanged.
    #[inline]
    pub fn fetch_update(&self, mut f: impl FnMut(u128) -> u128) -> u128 {
        if cpu::dwcas() {
            let mut cur = self.load();
            loop {
                match self.compare_exchange(cur, f(cur)) {
                    Ok(prev) => return prev,
                    Err(actual) => cur = actual,
                }
            }
        }
        let _g = self.lock.acquire();
        // SAFETY: the spinlock gives exclusive access.
        let v = unsafe { &mut *self.value.get() };
        let prev = *v;
        *v = f(prev);
        prev
    }

    /// Atomically adds `delta` (wrapping), returning the previous
    /// value.
    ///
    /// Unlike [`Atomic128::fetch_update`] the CAS loop here is seeded
    /// with a relaxed guess rather than an atomic load — one locked
    /// instruction per uncontended call instead of two. That is safe
    /// only because wrapping addition is total: a torn guess produces a
    /// candidate the CAS rejects (returning the untorn value), and
    /// nothing observes the discarded sum. `fetch_update` cannot do
    /// this — its caller-supplied closure may branch or panic on the
    /// value it is shown.
    #[inline]
    pub fn fetch_add(&self, delta: u128) -> u128 {
        if cpu::dwcas() {
            let mut cur = self.guess();
            loop {
                match self.compare_exchange(cur, cur.wrapping_add(delta)) {
                    Ok(prev) => return prev,
                    Err(actual) => cur = actual,
                }
            }
        }
        self.fetch_update(|v| v.wrapping_add(delta))
    }
}

impl std::fmt::Debug for Atomic128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Atomic128")
            .field("value", &self.load())
            .field("lock_free", &Self::is_lock_free())
            .finish()
    }
}

impl Default for Atomic128 {
    fn default() -> Self {
        Atomic128::new(0)
    }
}

/// A minimal test-and-test-and-set spinlock. The protected critical
/// sections are a handful of nanoseconds (an inline `u128` add), so a
/// full parking mutex costs more than the work it guards; spinning with
/// a bounded hint-loop then yielding keeps the uncontended path to one
/// `compare_exchange` + one release store.
#[derive(Debug, Default)]
pub(crate) struct RawSpin {
    locked: AtomicBool,
}

pub(crate) struct SpinGuard<'a>(&'a RawSpin);

impl RawSpin {
    pub(crate) const fn new() -> Self {
        RawSpin {
            locked: AtomicBool::new(false),
        }
    }

    #[inline]
    pub(crate) fn acquire(&self) -> SpinGuard<'_> {
        if self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.acquire_slow();
        }
        // Chaos: fires with the lock held and the guard already live,
        // so an injected panic unwinds through `SpinGuard::drop` and
        // releases — the unwind-safety contract of every RawSpin
        // critical section (WideFaa heap regime and the Atomic128
        // `force_spinlock` fallback alike). A crash-stop here models
        // a client dead inside the critical section: the lock stays
        // held forever, by design (DESIGN.md §10).
        let guard = SpinGuard(self);
        sl2_chaos::point("spin.acquired");
        sl2_obs::count("faa.spin_acquire");
        guard
    }

    #[cold]
    fn acquire_slow(&self) {
        let mut spins = 0u32;
        loop {
            // Test-and-test-and-set: spin on a plain load so waiters
            // don't bounce the cache line with failed RMWs.
            if !self.locked.load(Ordering::Relaxed)
                && self
                    .locked
                    .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for SpinGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.0.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cell_is_sixteen_byte_aligned() {
        assert_eq!(std::mem::align_of::<Atomic128>(), 16);
        let c = Atomic128::new(0);
        assert_eq!(&c as *const _ as usize % 16, 0);
    }

    #[test]
    fn load_and_cas_round_trip() {
        let c = Atomic128::new(7);
        assert_eq!(c.load(), 7);
        assert_eq!(c.compare_exchange(7, u128::MAX), Ok(7));
        assert_eq!(c.load(), u128::MAX);
        assert_eq!(c.compare_exchange(3, 4), Err(u128::MAX));
        assert_eq!(c.load(), u128::MAX);
    }

    #[test]
    fn fetch_add_wraps_and_returns_previous() {
        let c = Atomic128::new(u128::MAX);
        assert_eq!(c.fetch_add(2), u128::MAX);
        assert_eq!(c.load(), 1);
    }

    #[test]
    fn fetch_update_panics_leave_cell_unchanged() {
        let c = Atomic128::new(10);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.fetch_update(|_| panic!("no"));
        }));
        assert!(err.is_err());
        assert_eq!(c.load(), 10);
        assert_eq!(c.fetch_add(1), 10);
    }

    #[test]
    fn x86_builds_detect_the_instruction() {
        // Runtime detection may legitimately fail on exotic hardware,
        // but every x86_64 machine this repo's CI touches has
        // cmpxchg16b; pin that so a broken detector can't silently
        // demote the whole suite to the spinlock path.
        #[cfg(all(target_arch = "x86_64", not(feature = "force_spinlock")))]
        assert!(Atomic128::is_lock_free());
        #[cfg(feature = "force_spinlock")]
        assert!(!Atomic128::is_lock_free());
    }

    #[test]
    fn concurrent_fetch_adds_sum_exactly_across_both_halves() {
        // Each thread adds a value with bits in both 64-bit halves so a
        // torn RMW would lose carries; the total is exact iff every
        // update was atomic.
        let c = Arc::new(Atomic128::new(0));
        let delta: u128 = (1 << 80) | 3;
        let (threads, per) = (8u128, 1000u128);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per {
                        c.fetch_add(delta);
                    }
                });
            }
        });
        assert_eq!(c.load(), delta * threads * per);
    }

    #[test]
    fn concurrent_cas_elects_exactly_one_winner_per_round() {
        let c = Arc::new(Atomic128::new(0));
        let rounds = 100u128;
        let winners: Vec<u64> = std::thread::scope(|s| {
            (0..4u128)
                .map(|t| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let mut won = 0u64;
                        for r in 0..rounds {
                            // Round r: CAS r -> r+1; exactly one thread
                            // can succeed.
                            loop {
                                match c.compare_exchange(r, r + 1) {
                                    Ok(_) => {
                                        won += 1;
                                        break;
                                    }
                                    Err(v) if v > r => break,
                                    Err(_) => std::hint::spin_loop(),
                                }
                            }
                            let _ = t;
                        }
                        won
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(winners.iter().sum::<u64>(), rounds as u64);
        assert_eq!(c.load(), rounds);
    }
}
