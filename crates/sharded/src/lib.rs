//! Lane-group-sharded runtime over the paper's §3 constructions.
//!
//! Every §3 object funnels all processes through **one** wide
//! fetch&add register, so under real contention every operation
//! serializes on one cache line. This crate stripes each object across
//! `S` independent, cache-line-padded [`sl2_bignum::WideFaa`]
//! registers — staying inside the consensus-number-2 budget the paper
//! insists on (cf. Khanchandani & Wattenhofer, *Is Compare-and-Swap
//! Really Necessary?*: combining cn-2 primitives never requires CAS).
//!
//! Sharding is not free semantically. A write or update still has a
//! fixed linearization point (its single fetch&add on one shard), but a
//! whole-object read must now visit several shards, and the instant it
//! logically "happens" is no longer a single base-object step. The
//! composition argument — which sharded forms keep strong
//! linearizability on which scenario families, and which provably
//! degrade to the §5-style relaxed specifications — is DESIGN.md §6,
//! and every claim there is backed by a `check_strong` verdict over the
//! step-machine forms in [`machines`].
//!
//! | object | sharding | write path | read paths |
//! |---|---|---|---|
//! | [`ShardedMaxRegister`] | by value | wait-free, 1–2 steps | stable-collect fold (lock-free, exact) |
//! | [`ShardedSnapshot`] | components → lane groups | wait-free, 1–2 steps | per-group atomic scan; stable whole-object scan; relaxed one-pass scan |
//! | [`ShardedFetchInc`] | by process | wait-free, 2 steps | stable-collect sum (lock-free, exact) |
//! | [`RelaxedShardedCounter`] | by process | wait-free, 2 steps | one-pass sum ([`sl2_spec::relaxed::LaggingCounterSpec`]) |
//!
//! # Quick start
//!
//! ```
//! use sl2_sharded::ShardedMaxRegister;
//! use sl2_core::algos::MaxRegister;
//!
//! // 4 threads, 4 shards: contended writes spread across four
//! // cache-line-padded wide registers instead of one.
//! let max = ShardedMaxRegister::new(4, 4);
//! std::thread::scope(|s| {
//!     for p in 0..4 {
//!         let max = &max;
//!         s.spawn(move || max.write_max(p, 10 * (p as u64 + 1)));
//!     }
//! });
//! assert_eq!(max.read_max(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counter;
pub mod machines;
pub mod max_register;
pub mod snapshot;

/// Static label plumbing for the sl2_obs skew probes: obs counters key
/// by `&'static str`, so per-shard op counts use a fixed label family
/// (exact for the first 16 shards, one overflow bucket past that —
/// enough to see skew at every shard count the tests and benchmark use).
pub(crate) mod probes {
    const SHARD_OPS: [&str; 16] = [
        "sharded.shard.00.ops",
        "sharded.shard.01.ops",
        "sharded.shard.02.ops",
        "sharded.shard.03.ops",
        "sharded.shard.04.ops",
        "sharded.shard.05.ops",
        "sharded.shard.06.ops",
        "sharded.shard.07.ops",
        "sharded.shard.08.ops",
        "sharded.shard.09.ops",
        "sharded.shard.10.ops",
        "sharded.shard.11.ops",
        "sharded.shard.12.ops",
        "sharded.shard.13.ops",
        "sharded.shard.14.ops",
        "sharded.shard.15.ops",
    ];

    /// The op-count label of shard `s`.
    pub(crate) fn shard_ops(s: usize) -> &'static str {
        SHARD_OPS.get(s).copied().unwrap_or("sharded.shard.hi.ops")
    }
}

pub use counter::{RelaxedShardedCounter, ShardTicket, ShardedFetchInc};
pub use machines::{
    fan_in_max_scenario, frontier_safe_max_scenario, ShardedCounterAlg, ShardedMaxRegAlg,
    ShardedSnapshotAlg, WholeReadMode,
};
pub use max_register::ShardedMaxRegister;
pub use snapshot::ShardedSnapshot;
