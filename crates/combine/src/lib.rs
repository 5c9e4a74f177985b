//! Flat-combining front-end over the §3 objects, from
//! consensus-number-2 primitives — the read-heavy counterpart of
//! `sl2_sharded`.
//!
//! PR 3's sharding wins contended writes but loses read-heavy mixes:
//! a whole-object read folds `S` shards per collect pass and retries
//! under churn. This crate adds the layer the ROADMAP names for that
//! regime: operations are *announced* in per-process
//! [`PublicationArray`] slots (swap), one announcer wins a
//! [`CombinerLock`] election (swap), applies the batch to the inner
//! sharded object, and publishes a whole-object fold into a cache that
//! is itself a Theorem-1 max register — so read-heavy callers take a
//! **1-load fast path** (one 16-byte load and a word-kernel fold)
//! instead of the S-probe fold. Khanchandani & Wattenhofer's point
//! ("Is Compare-and-Swap Really Necessary?") holds throughout: slots,
//! lock, cache and epoch are swap/fetch&add, compare&swap appears
//! nowhere ([`Combiner::consensus_ceiling`] asserts it).
//!
//! Two deliberate departures from textbook flat combining, both with
//! semantic teeth:
//!
//! * **no waiters** — an announcer that loses the election applies its
//!   operation *directly* (the plain wait-free sharded path) and
//!   withdraws, instead of parking on its slot. Announced operations
//!   must therefore be ensure-style idempotent ([`Combinable`]), since
//!   owner and helper may both apply one announcement. The system has
//!   no blocked states — and neither do the checker twins in
//!   [`machines`].
//! * **the cached read is honest about what it is** — exact as of its
//!   publication, never ahead, monotone even across overlapping
//!   tenures, but stale against direct-path completions.
//!   Combining is a *helping* pattern, exactly the
//!   structure the "Difficulty of Consistent Refereeing" impossibility
//!   line warns can break strong linearizability — so the cached read
//!   is adjudicated, not assumed: `check_strong` refutes it against
//!   the exact specifications (replayable witnesses) and certifies it
//!   against the `sl2_spec::relaxed` window specifications, while the
//!   stable read keeps the PR-3 frontier boundary (DESIGN.md §8).
//!
//! | read path | cost | meets strongly |
//! |---|---|---|
//! | [`Combiner::read_cached`] | 1 load | `LaggingMaxSpec` / `LaggingCounterSpec` windows |
//! | [`Combiner::read_stable`] | stable S-probe collect | exact spec on frontier-safe scenarios (PR-3 boundary) |
//!
//! # Quick start
//!
//! ```
//! use sl2_combine::CombiningMaxRegister;
//! use sl2_sharded::ShardedMaxRegister;
//! use sl2_core::algos::MaxRegister;
//!
//! // 4 threads over 4 shards, behind the combining front-end.
//! let max = CombiningMaxRegister::new(ShardedMaxRegister::new(4, 4));
//! std::thread::scope(|s| {
//!     for p in 0..4 {
//!         let max = &max;
//!         s.spawn(move || max.write_max(p, 10 * (p as u64 + 1)));
//!     }
//! });
//! // Exact read (stable collect) vs the 1-load cached fold.
//! assert_eq!(max.read_max(), 40);
//! max.refresh(0);
//! assert_eq!(max.read_cached(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod combiner;
pub mod machines;
pub mod objects;
pub mod slots;

pub use combiner::{ApplyPath, Combinable, Combiner, Foldable};
pub use machines::{
    abandoned_counter_fan_in_scenario, abandoned_counter_lagging_scenario,
    cached_fan_in_lagging_scenario, cached_fan_in_max_scenario, combining_frontier_safe_scenario,
    CombiningCounterAlg, CombiningCounterMachine, CombiningMaxRegAlg, CombiningMaxRegMachine,
    ReadMode, DEAD_LEASE, LEASE_BASE,
};
pub use objects::{CombiningCounter, CombiningMaxRegister, CombiningSnapshot};
pub use slots::{CombinerLock, Lease, ProcessLine, PubSlot, PublicationArray, SeqCache};
