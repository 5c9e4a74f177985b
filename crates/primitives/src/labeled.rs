//! Shared label/thread-identity plumbing for the feature-gated
//! instrumentation layers (`sl2_chaos` injection points, `sl2_obs`
//! metrics probes and `sl2_trace` events).
//!
//! The layers annotate the same hot paths with `&str`-labeled hooks
//! and need the same pieces of infrastructure:
//!
//! * a **stable label identity** — [`label_hash`] (FNV-1a, identical
//!   across runs and platforms) and the lock-free [`LabelTable`] that
//!   interns labels by it, so seeded decisions and interning tables
//!   agree on what a label *is*;
//! * a **thread identity** — [`enroll`]/[`enrolled`] for the explicit
//!   logical ids chaos plans target ([`enroll_in`]/[`enrolled_pool`]
//!   when the id is a lane of one worker pool among several in the
//!   process), and [`slot`] for the
//!   always-available shard index obs counters hash by (enrolled id if
//!   present, else a lazily auto-assigned per-thread id);
//! * the **JSON-lines writer's escaping** — [`json_escape`], shared by
//!   every report the workspace emits.
//!
//! Keeping this here — in the dependency-free crate at the bottom of
//! the workspace graph — means the consumers cannot drift: a chaos
//! rule targeting thread 3 and an obs shard attributing thread 3 are
//! talking about the same thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Fixed-capacity open-addressed label interning table: [`label_hash`]
/// picks the start slot, linear probing resolves collisions, and each
/// slot is a `OnceLock`, so registration is a lock-free race with
/// content-verified winners. `N` must be a power of two; all storage
/// is inline, so a `static` table never allocates.
#[derive(Debug)]
pub struct LabelTable<const N: usize> {
    slots: [OnceLock<&'static str>; N],
}

impl<const N: usize> LabelTable<N> {
    /// An empty table.
    pub const fn new() -> Self {
        LabelTable {
            slots: [const { OnceLock::new() }; N],
        }
    }

    /// Index of `label`, interning it on first use.
    ///
    /// # Panics
    ///
    /// Panics if all `N` slots hold other labels.
    pub fn index_of(&self, label: &'static str) -> usize {
        debug_assert!(N.is_power_of_two());
        let h = label_hash(label) as usize;
        for i in 0..N {
            let idx = (h + i) & (N - 1);
            let slot = &self.slots[idx];
            match slot.get() {
                Some(&l) => {
                    if l == label {
                        return idx;
                    }
                    // Collision: probe onward.
                }
                None => {
                    // Claim the empty slot; on a lost race, accept the
                    // slot iff the winner registered the same label.
                    if slot.set(label).is_ok() || *slot.get().expect("slot was set") == label {
                        return idx;
                    }
                }
            }
        }
        panic!("label table full ({N} slots) — raise its capacity");
    }

    /// The label interned at `idx`, if any.
    pub fn label_at(&self, idx: usize) -> Option<&'static str> {
        self.slots.get(idx).and_then(|s| s.get().copied())
    }

    /// Every interned label with its index, in index order.
    pub fn labels(&self) -> impl Iterator<Item = (usize, &'static str)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.get().map(|&l| (i, l)))
    }
}

impl<const N: usize> Default for LabelTable<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Minimal JSON string escaping: quotes, backslashes and every control
/// character, so any label or name embeds in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
    #[should_panic(expected = "label table full (2 slots)")]
    fn label_table_interns_each_label_once_and_panics_when_full() {
        let table: LabelTable<2> = LabelTable::new();
        let a = table.index_of("obs.a");
        assert_eq!(table.index_of("obs.a"), a, "re-registration finds the slot");
        let b = table.index_of("obs.b"); // probes past a collision, if any
        assert_eq!(
            (table.label_at(b), table.label_at(2)),
            (Some("obs.b"), None)
        );
        assert_eq!(table.labels().count(), 2);
        table.index_of("obs.c");
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_bytes() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}f"),
            "a\\\"b\\\\c\\nd\\te\\u0001f"
        );
        assert_eq!(json_escape("plain.label/7"), "plain.label/7");
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
