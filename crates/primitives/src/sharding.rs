//! Cache-line padding and shard-index helpers for the sharded runtime
//! layer (`sl2_sharded`).
//!
//! Sharding the §3 objects replaces one global wide register with `S`
//! independent ones. That only relieves contention if the shards do not
//! share cache lines: two spinlocks in one 64-byte line still bounce a
//! single line between cores (false sharing), which erases the win the
//! sharding exists to buy. [`CachePadded`] pins each shard to its own
//! line; [`Sharding`] centralizes the index arithmetic so the
//! production forms and the checker step machines provably agree on
//! which shard an operation touches.

use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

/// Pads and aligns `T` to a 64-byte cache line so adjacent array
/// elements never share a line.
///
/// 64 bytes is the line size of every mainstream x86-64 and aarch64
/// part this repo targets; on machines with 128-byte lines the wrapper
/// halves, but does not eliminate, the benefit.
///
/// # Examples
///
/// ```
/// use sl2_primitives::CachePadded;
///
/// let shards: Vec<CachePadded<u64>> = (0..4).map(CachePadded::new).collect();
/// assert_eq!(*shards[2], 2);
/// assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 64);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(align(64))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Upper bound on shard counts accepted by [`Sharding`].
///
/// The sharded read paths keep their collect buffer on the stack (one
/// uninitialized `[u64; MAX_SHARDS]`, of which a collect touches only
/// its own shards) so folds stay allocation-free; 256 shards reserve
/// 2 KiB of stack per collect and leave headroom past any core count
/// this repo targets. (The bound was 64 until the binary lane encoding
/// made wide shard fans cheap enough to be worth allowing, since shard
/// width no longer grows linearly in the stored values.)
pub const MAX_SHARDS: usize = 256;

/// Shard-index arithmetic shared by `sl2_sharded`'s production forms
/// and step machines.
///
/// The maps are plain residues, deliberately: the checker scenarios in
/// DESIGN.md §6 reason about *which* shard each operation touches, and
/// a mixing hash would make those scenarios unreadable without making
/// the contention story better (load generators drive skew explicitly
/// through their key and value streams instead).
///
/// # Examples
///
/// ```
/// use sl2_primitives::Sharding;
///
/// let sharding = Sharding::new(4);
/// assert_eq!(sharding.of_value(10), 2);
/// assert_eq!(sharding.of_process(5), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sharding {
    shards: usize,
}

impl Sharding {
    /// Creates an index map over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds [`MAX_SHARDS`].
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "sharding requires at least one shard");
        assert!(
            shards <= MAX_SHARDS,
            "sharding capped at {MAX_SHARDS} shards (stack collect buffers)"
        );
        Sharding { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Home shard of a value (value-hashed objects: max registers).
    pub fn of_value(&self, v: u64) -> usize {
        (v % self.shards as u64) as usize
    }

    /// Home shard of a process (process-striped objects: counters).
    pub fn of_process(&self, p: usize) -> usize {
        p % self.shards
    }

    /// The quotient encoding of a value-sharded max register: `v` lives
    /// in shard `v mod S` as the count `⌊v/S⌋ + 1`, so count 0 means
    /// "never written". At one shard the map is the identity: a written
    /// 0 and a never-written register both read 0, so there is nothing
    /// for the `+ 1` to tell apart, and every `u64` keeps its count.
    pub fn to_quotient(&self, v: u64) -> (usize, u64) {
        let lift = u64::from(self.shards > 1);
        (self.of_value(v), v / self.shards as u64 + lift)
    }

    /// Inverse of [`Sharding::to_quotient`]: the value count `c` stands
    /// for in shard `s`, `(c − 1)·S + s`, and 0 for count 0 (at one
    /// shard, `c` itself).
    pub fn from_quotient(&self, s: usize, count: u64) -> u64 {
        match count {
            c if self.shards == 1 => c,
            0 => 0,
            c => (c - 1) * self.shards as u64 + s as u64,
        }
    }

    /// The largest value a collect of per-shard counts stands for (0
    /// if no shard was written).
    pub fn max_from_quotients(&self, counts: &[u64]) -> u64 {
        counts
            .iter()
            .enumerate()
            .map(|(s, &c)| self.from_quotient(s, c))
            .max()
            .unwrap_or(0)
    }

    /// Probes every shard with `probe` until two consecutive collects
    /// agree, then hands `read` the stable collect — exactly
    /// `self.shards()` entries. This is the shared read discipline of
    /// the sharded objects: shard projections are monotone, so equal
    /// collects pin each shard to its observed value over an interval
    /// common to all of them — the stable collect is an exact cut.
    /// Lock-free (a retry implies a concurrent write completed) and
    /// allocation-free: one stack buffer, which is what [`MAX_SHARDS`]
    /// exists to bound, is filled once and then compared and
    /// overwritten in place, pass by pass.
    pub fn stable_collect<R>(
        &self,
        mut probe: impl FnMut(usize) -> u64,
        read: impl FnOnce(&[u64]) -> R,
    ) -> R {
        let mut buf = [MaybeUninit::<u64>::uninit(); MAX_SHARDS];
        let first = &mut buf[..self.shards];
        for (i, slot) in first.iter_mut().enumerate() {
            slot.write(probe(i));
        }
        // SAFETY: the loop above initialized every one of the slots,
        // and `MaybeUninit<u64>` has `u64`'s layout.
        let collect = unsafe { &mut *(first as *mut [MaybeUninit<u64>] as *mut [u64]) };
        loop {
            let mut moved = false;
            for (i, slot) in collect.iter_mut().enumerate() {
                let v = probe(i);
                moved |= *slot != v;
                *slot = v;
            }
            if !moved {
                return read(collect);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_line_aligned_and_transparent() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 64);
        let mut c = CachePadded::new(5u32);
        *c += 1;
        assert_eq!(*c, 6);
        assert_eq!(c.into_inner(), 6);
    }

    #[test]
    fn padded_array_elements_live_on_distinct_lines() {
        let v: Vec<CachePadded<u64>> = (0..4).map(CachePadded::new).collect();
        let a = &v[0] as *const _ as usize;
        let b = &v[1] as *const _ as usize;
        assert!(b - a >= 64, "adjacent shards {a:#x}/{b:#x} share a line");
    }

    #[test]
    fn sharding_maps_are_total_and_in_range() {
        let s = Sharding::new(3);
        for v in 0..100u64 {
            assert!(s.of_value(v) < 3);
        }
        for p in 0..100usize {
            assert!(s.of_process(p) < 3);
        }
        assert_eq!(Sharding::new(1).of_value(u64::MAX), 0);
    }

    #[test]
    fn quotient_round_trips_at_every_shard_count() {
        for shards in [1usize, 2, 3, 4, MAX_SHARDS] {
            let s = Sharding::new(shards);
            for v in [0, 1, 2, 7, 1000, u64::MAX - 1, u64::MAX] {
                let (shard, count) = s.to_quotient(v);
                assert_eq!(shard, s.of_value(v));
                // Past one shard a written value has a nonzero count; at
                // one shard the count is the value.
                assert_eq!(count > 0, shards > 1 || v > 0, "S={shards} v={v}");
                assert_eq!(s.from_quotient(shard, count), v, "S={shards} v={v}");
            }
            for shard in 0..shards {
                assert_eq!(s.from_quotient(shard, 0), 0, "count 0 is never written");
            }
        }
        assert_eq!(Sharding::new(4).to_quotient(u64::MAX), (3, 1 << 62));
        assert_eq!(Sharding::new(1).to_quotient(u64::MAX), (0, u64::MAX));
        assert_eq!(Sharding::new(2).max_from_quotients(&[3, 4]), 7);
        assert_eq!(Sharding::new(2).max_from_quotients(&[0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn sharding_rejects_oversized_counts() {
        let _ = Sharding::new(MAX_SHARDS + 1);
    }

    #[test]
    fn stable_collect_retries_until_quiescent() {
        // A probe that moves once: the first collect sees the old value
        // somewhere, so a second (and third) pass must run before two
        // consecutive collects agree.
        let s = Sharding::new(3);
        let mut calls = 0;
        let stable = s.stable_collect(
            |i| {
                calls += 1;
                if calls <= 2 {
                    0 // first pass sees shards 0 and 1 before the "write"
                } else {
                    (i as u64) + 10
                }
            },
            <[u64]>::to_vec,
        );
        assert_eq!(stable, [10, 11, 12], "exactly the shards, last pass");
        assert_eq!(
            calls, 9,
            "three full passes: the second differs from the first"
        );
    }
}
