//! Production (real-atomics) forms of the paper's constructions.
//!
//! These mirror the pseudocode of the step-machine forms in
//! [`crate::machines`] but run on the hardware atomics of
//! [`sl2_primitives`], for use from real threads (examples, stress tests).
//!
//! Two small traits keep the composition structure of the paper
//! explicit: [`MaxRegister`] (Theorem 6 is generic in its max register
//! — fetch&add-based for Corollary 7, read/write-based for Corollary
//! 8) and [`Snapshot`] (Algorithm 1 is generic in its snapshot —
//! Theorem 3 assumes it strongly linearizable, Theorem 4 plugs in the
//! §3.2 construction).

pub mod fetch_inc;
pub mod max_register;
pub mod mult_queue;
pub mod multishot_ts;
pub mod readable_ts;
pub mod rw_max_register;
pub mod simple;
pub mod sl_set;
pub mod snapshot;

/// A max register: `writeMax` / `readMax` (§3.1).
///
/// `process` identifies the caller where the implementation is
/// per-process structured (the fetch&add construction interleaves one
/// lane per process; implementations that do not care may ignore it).
pub trait MaxRegister: Send + Sync {
    /// Records `v`; the register's value becomes `max(current, v)`.
    fn write_max(&self, process: usize, v: u64);

    /// Returns the largest value written so far (0 if none).
    fn read_max(&self) -> u64;
}

/// An `n`-component single-writer atomic snapshot (§3.2).
pub trait Snapshot: Send + Sync {
    /// Number of components.
    fn components(&self) -> usize;

    /// Sets component `i` to `v` (only process `i` may call this).
    fn update(&self, i: usize, v: u64);

    /// Returns the current view.
    fn scan(&self) -> Vec<u64>;
}
