//! What the running CPU offers the cell and the lane codec, probed once
//! per process with CPUID and cached.
//!
//! Three facts matter, each a bit of one cached byte:
//!
//! * **DWCAS** — `cmpxchg16b`, the cell's lock-free write (DESIGN.md
//!   §9). Never set under `force_spinlock`, so that build runs every
//!   cell through the spinlock.
//! * **Atomic 16-byte load** — an aligned `vmovdqa` is single-copy
//!   atomic. Intel SDM Vol. 3A §9.1.1 guarantees this on every part
//!   that enumerates AVX, and AMD APM Vol. 2 §7.3.2 does the same for
//!   AMD parts. Other vendors make no such promise, so the bit needs
//!   AVX *and* a GenuineIntel or AuthenticAMD vendor string (the rule
//!   the `portable-atomic` crate applies). It is only set beside DWCAS:
//!   a cell is never read with `vmovdqa` while a spinlock writes it.
//! * **Fast BMI2** — `pext`/`pdep`, the binary lane codec's word
//!   kernel. AMD parts before Zen 3 (family 0x19) run both in microcode
//!   at hundreds of cycles, so they take the portable kernel.

use std::sync::atomic::{AtomicU8, Ordering};

const PROBED: u8 = 1;
const DWCAS: u8 = 1 << 1;
const ATOMIC_LOAD128: u8 = 1 << 2;
const FAST_BMI2: u8 = 1 << 3;

/// The cached fact byte. Racing first calls are harmless: CPUID is
/// idempotent and every thread stores the same byte.
#[inline]
fn facts() -> u8 {
    static FACTS: AtomicU8 = AtomicU8::new(0);
    match FACTS.load(Ordering::Relaxed) {
        0 => {
            let f = probe() | PROBED;
            FACTS.store(f, Ordering::Relaxed);
            f
        }
        f => f,
    }
}

#[cfg(target_arch = "x86_64")]
#[cold]
fn probe() -> u8 {
    use core::arch::x86_64::__cpuid;
    let leaf0 = __cpuid(0);
    let mut vendor = [0u8; 12];
    vendor[..4].copy_from_slice(&leaf0.ebx.to_le_bytes());
    vendor[4..8].copy_from_slice(&leaf0.edx.to_le_bytes());
    vendor[8..].copy_from_slice(&leaf0.ecx.to_le_bytes());
    let intel = &vendor == b"GenuineIntel";
    let amd = &vendor == b"AuthenticAMD";
    let eax = __cpuid(1).eax;
    let family = match (eax >> 8) & 0xf {
        0xf => 0xf + ((eax >> 20) & 0xff),
        base => base,
    };

    let mut f = 0;
    if cfg!(not(feature = "force_spinlock")) && std::is_x86_feature_detected!("cmpxchg16b") {
        f |= DWCAS;
        if (intel || amd) && std::is_x86_feature_detected!("avx") {
            f |= ATOMIC_LOAD128;
        }
    }
    if std::is_x86_feature_detected!("bmi2") && !(amd && family < 0x19) {
        f |= FAST_BMI2;
    }
    f
}

#[cfg(not(target_arch = "x86_64"))]
#[cold]
fn probe() -> u8 {
    0
}

/// `cmpxchg16b` is compiled in and the CPU has it.
#[inline]
pub(crate) fn dwcas() -> bool {
    cfg!(all(target_arch = "x86_64", not(feature = "force_spinlock"))) && facts() & DWCAS != 0
}

/// An aligned `vmovdqa` reads a DWCAS cell atomically.
#[inline]
pub(crate) fn atomic_load128() -> bool {
    cfg!(all(target_arch = "x86_64", not(feature = "force_spinlock")))
        && facts() & ATOMIC_LOAD128 != 0
}

/// `pext`/`pdep` exist and run in hardware.
#[inline]
pub(crate) fn fast_bmi2() -> bool {
    cfg!(target_arch = "x86_64") && facts() & FAST_BMI2 != 0
}
