//! Shared label/thread-identity plumbing for the feature-gated
//! instrumentation layers (`sl2_chaos` injection points and `sl2_obs`
//! metrics probes).
//!
//! Both layers annotate the same hot paths with `&str`-labeled hooks
//! and need the same two pieces of infrastructure:
//!
//! * a **stable label identity** — [`label_hash`] (FNV-1a, identical
//!   across runs and platforms) and the [`Labeled`] pair that caches
//!   it, so seeded decisions and lock-free interning tables agree on
//!   what a label *is*;
//! * a **thread identity** — [`enroll`]/[`enrolled`] for the explicit
//!   logical ids chaos plans target ([`enroll_in`]/[`enrolled_pool`]
//!   when the id is a lane of one worker pool among several in the
//!   process), and [`slot`] for the
//!   always-available shard index obs counters hash by (enrolled id if
//!   present, else a lazily auto-assigned per-thread id).
//!
//! Keeping this here — in the dependency-free crate at the bottom of
//! the workspace graph — means the two consumers cannot drift: a chaos
//! rule targeting thread 3 and an obs shard attributing thread 3 are
//! talking about the same thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// FNV-1a hash of a label; stable across runs and platforms, so it is
/// safe to bake into seeded decisions (chaos noise) and lock-free
/// interning tables (obs registry).
pub fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: the deterministic noise source. Good
/// avalanche, no state — a decision derived from `mix` is a pure
/// function of its inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A label paired with its cached [`label_hash`] — the registration
/// unit both instrumentation layers key by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Labeled {
    /// The label text (probe or injection-point name).
    pub name: &'static str,
    /// Its FNV-1a hash, computed once at registration.
    pub hash: u64,
}

impl Labeled {
    /// Registers `name`, caching its hash.
    pub fn new(name: &'static str) -> Self {
        Labeled {
            name,
            hash: label_hash(name),
        }
    }
}

static NEXT_AUTO_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ENROLLED: Cell<Option<usize>> = const { Cell::new(None) };
    static POOL: Cell<Option<u64>> = const { Cell::new(None) };
    static AUTO_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Enrolls the calling thread under logical id `t`. Chaos plans target
/// enrolled ids; obs shards prefer them (via [`slot`]) so metrics
/// attribute to the same logical thread a fault plan would.
pub fn enroll(t: usize) {
    ENROLLED.with(|c| c.set(Some(t)));
    POOL.with(|c| c.set(None));
}

/// Enrolls the calling thread as lane `t` of worker pool `pool`. Lane
/// numbers repeat across pools (every pool has a lane 0), so a chaos
/// rule that means one pool's lane names the pool too.
pub fn enroll_in(pool: u64, t: usize) {
    ENROLLED.with(|c| c.set(Some(t)));
    POOL.with(|c| c.set(Some(pool)));
}

/// The pool the calling thread was enrolled in by [`enroll_in`], if
/// any.
pub fn enrolled_pool() -> Option<u64> {
    POOL.with(|c| c.get())
}

/// The calling thread's enrolled id, if [`enroll`] was called.
/// Un-enrolled threads return `None` — chaos points pass them
/// untouched.
pub fn enrolled() -> Option<usize> {
    ENROLLED.with(|c| c.get())
}

/// A small per-thread index for sharding: the enrolled id if present,
/// otherwise a process-unique id lazily assigned on first call and
/// cached for the thread's lifetime. Always succeeds — obs counters
/// must work on threads no test bothered to enroll.
pub fn slot() -> usize {
    if let Some(t) = enrolled() {
        return t;
    }
    AUTO_SLOT.with(|c| match c.get() {
        Some(s) => s,
        None => {
            let s = NEXT_AUTO_SLOT.fetch_add(1, Ordering::Relaxed);
            c.set(Some(s));
            s
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_hash_is_stable_and_discriminating() {
        // Pinned FNV-1a vector: the hash is part of the deterministic
        // seeding contract, so a silent change must fail loudly.
        assert_eq!(label_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(label_hash("combine.won"), label_hash("combine.lost"));
        assert_eq!(label_hash("wfaa.pre_cas"), label_hash("wfaa.pre_cas"));
    }

    #[test]
    fn mix_is_a_pure_function() {
        assert_eq!(mix(5 ^ mix(1)), mix(5 ^ mix(1)));
        assert_ne!(mix(0), mix(1));
    }

    #[test]
    fn labeled_caches_the_hash() {
        let l = Labeled::new("obs.test");
        assert_eq!(l.hash, label_hash("obs.test"));
        assert_eq!(l.name, "obs.test");
    }

    #[test]
    fn slot_is_stable_per_thread_and_prefers_enrollment() {
        let a = slot();
        assert_eq!(a, slot(), "auto slot must be cached");
        enroll(97);
        assert_eq!(enrolled(), Some(97));
        assert_eq!(slot(), 97, "enrolled id wins");
    }

    #[test]
    fn pool_enrollment_is_replaced_by_plain_enrollment() {
        enroll_in(5, 2);
        assert_eq!((enrolled_pool(), enrolled()), (Some(5), Some(2)));
        enroll(3);
        assert_eq!((enrolled_pool(), enrolled()), (None, Some(3)));
    }

    #[test]
    fn distinct_threads_get_distinct_auto_slots() {
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(slot).join().unwrap();
            let b = s.spawn(slot).join().unwrap();
            (a, b)
        });
        assert_ne!(a, b);
    }
}
