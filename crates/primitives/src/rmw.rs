//! Read-modify-write primitives: fetch&add, swap (consensus number 2)
//! and compare&swap (consensus number ∞).
//!
//! `FetchAdd` and `Swap` are the paper's realistic level-2 primitives;
//! `CompareAndSwap` is included as the *universal* primitive the paper
//! contrasts against (the only previously-known route to wait-free
//! strong linearizability \[16, 24\]).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::consensus::{BaseObject, ConsensusNumber};

/// Atomic fetch&add on a `u64` (wrapping, like hardware `xadd`).
///
/// # Examples
///
/// ```
/// use sl2_primitives::FetchAdd;
///
/// let c = FetchAdd::new(0);
/// assert_eq!(c.fetch_add(5), 0);
/// assert_eq!(c.read(), 5);
/// ```
#[derive(Debug, Default)]
pub struct FetchAdd {
    cell: AtomicU64,
}

impl FetchAdd {
    /// Creates a fetch&add register with the given initial value.
    pub fn new(init: u64) -> Self {
        FetchAdd {
            cell: AtomicU64::new(init),
        }
    }

    /// Atomically adds `delta` (wrapping), returning the previous value.
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.cell.fetch_add(delta, Ordering::SeqCst)
    }

    /// Reads the current value (= `fetch_add(0)`, as the paper's
    /// algorithms do).
    pub fn read(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

impl BaseObject for FetchAdd {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Two;
}

/// Atomic swap register on a `u64`.
#[derive(Debug, Default)]
pub struct Swap {
    cell: AtomicU64,
}

impl Swap {
    /// Creates a swap register with the given initial value.
    pub fn new(init: u64) -> Self {
        Swap {
            cell: AtomicU64::new(init),
        }
    }

    /// Atomically writes `v`, returning the previous value.
    pub fn swap(&self, v: u64) -> u64 {
        self.cell.swap(v, Ordering::SeqCst)
    }

    /// Reads the current value.
    pub fn read(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

impl BaseObject for Swap {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Two;
}

/// Atomic compare&swap on a `u64` — the universal primitive.
#[derive(Debug, Default)]
pub struct CompareAndSwap {
    cell: AtomicU64,
}

impl CompareAndSwap {
    /// Creates a CAS register with the given initial value.
    pub fn new(init: u64) -> Self {
        CompareAndSwap {
            cell: AtomicU64::new(init),
        }
    }

    /// Atomically replaces the value with `new` iff it equals `expect`.
    /// Returns the value observed (equal to `expect` iff the CAS won).
    pub fn compare_and_swap(&self, expect: u64, new: u64) -> u64 {
        match self
            .cell
            .compare_exchange(expect, new, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// Reads the current value.
    pub fn read(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

impl BaseObject for CompareAndSwap {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Infinite;
}

// The wide register (`sl2_bignum::WideFaa`) carries the
// same annotation from their own crate — `sl2_bignum` depends on this
// one for the vocabulary, keeping the crate graph a DAG with the
// primitives at the bottom.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_add_sums_exactly_across_threads() {
        let c = FetchAdd::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.fetch_add(1);
                    }
                });
            }
        });
        assert_eq!(c.read(), 80_000);
    }

    #[test]
    fn fetch_add_returns_distinct_tickets() {
        use std::sync::Mutex;
        let c = FetchAdd::new(0);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let t = c.fetch_add(1);
                        seen.lock().unwrap().push(t);
                    }
                });
            }
        });
        let mut tickets = seen.into_inner().unwrap();
        tickets.sort_unstable();
        tickets.dedup();
        assert_eq!(tickets.len(), 4000, "tickets must be unique");
    }

    #[test]
    fn swap_forms_a_chain() {
        // Sequential check that swap returns the previous value.
        let s = Swap::new(0);
        assert_eq!(s.swap(1), 0);
        assert_eq!(s.swap(2), 1);
        assert_eq!(s.read(), 2);
    }

    #[test]
    fn cas_succeeds_once_per_expected_value() {
        let c = CompareAndSwap::new(0);
        assert_eq!(c.compare_and_swap(0, 5), 0); // won
        assert_eq!(c.compare_and_swap(0, 9), 5); // lost
        assert_eq!(c.read(), 5);
    }

    #[test]
    fn consensus_numbers_match_the_hierarchy() {
        assert_eq!(FetchAdd::new(0).consensus_number(), ConsensusNumber::Two);
        assert_eq!(Swap::new(0).consensus_number(), ConsensusNumber::Two);
        assert_eq!(
            CompareAndSwap::new(0).consensus_number(),
            ConsensusNumber::Infinite
        );
    }
}
