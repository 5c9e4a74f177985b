//! # sl2 — Strong Linearizability from Consensus-Number-2 Primitives
//!
//! A reproduction, as a production-quality Rust workspace, of
//! *Strong Linearizability using Primitives with Consensus Number 2*
//! (Hagit Attiya, Armando Castañeda, Constantin Enea; PODC 2024,
//! arXiv:2402.13618).
//!
//! Strongly-linearizable objects keep their linearization order fixed
//! under every extension of an execution, which is what lets
//! randomized and security-sensitive programs compose with them. The
//! paper shows which objects admit such implementations from the
//! *realistic* consensus-number-2 primitives (`test&set`,
//! `fetch&add`, `swap`) — and which never will.
//!
//! ## Crates
//!
//! * [`sl2_bignum`] / [`sl2_primitives`] — the base objects:
//!   arbitrary-width fetch&add, test&set, swap, CAS, registers,
//!   infinite arrays; every object annotated with its consensus
//!   number.
//! * [`sl2_spec`] — sequential specifications (including the relaxed
//!   queues/stacks of §5, as nondeterministic state machines).
//! * [`sl2_exec`] — the interleaving substrate: simulated memory, step
//!   machines, schedulers (round-robin / random / burst-adversary /
//!   crash), a linearizability checker and a **strong-linearizability
//!   checker** (prefix-closed linearization functions over bounded
//!   execution trees).
//! * [`sl2_core`] — every construction from the paper, in checkable
//!   step-machine form *and* production real-atomics form, plus the
//!   baselines (AGM stack, AAC max register, Treiber stack, CAS
//!   queue).
//! * [`sl2_agreement`] — Section 5: k-ordering objects (Definition
//!   11), Algorithm B (Lemma 12), test&set consensus; the executable
//!   content of the impossibility theorems.
//! * [`sl2_sharded`] — the lane-group-sharded runtime layer: the §3
//!   objects striped over many cache-line-padded wide registers for
//!   contended workloads, with the semantic cost of each sharding
//!   adjudicated by the checker (DESIGN.md §6).
//! * [`sl2_combine`] — the flat-combining front-end for the read-heavy
//!   regime: announcement slots, a swap-based combiner election, and a
//!   published whole-object fold giving reads a 1-load fast path — all
//!   from consensus-number-2 primitives, with the cached read's
//!   staleness adjudicated by the checker (DESIGN.md §8).
//! * [`sl2_obs`] — feature-gated observability: per-thread sharded
//!   counters, gauges, and log₂ histograms behind labeled probes that
//!   compile to nothing by default and arm under `--features armed`
//!   (DESIGN.md §11); `SL2_METRICS_JSON` exports snapshots as
//!   JSON lines.
//! * [`sl2_trace`] — feature-gated causal request tracing: fixed-size
//!   binary events in per-thread lock-free rings (zero allocation
//!   steady-state, empty stubs by default, armed under `--features
//!   armed`), a crash-safe flight recorder that dumps the last events
//!   per thread on panic or chaos crash-stop
//!   (`SL2_TRACE_JSON`), and the
//!   [`bridge`](sl2_trace::bridge) that converts drained traces into
//!   [`History`](sl2_exec::History)s the checker adjudicates
//!   (DESIGN.md §13).
//! * [`sl2_service`] — the keyed service tier: a lock-free object
//!   [`Registry`](sl2_service::Registry) (millions of keys, lazy
//!   materialization, per-key backend policy), a worker-pool
//!   request/dispatch layer with key-affinity routing, and the
//!   modelled dispatch twin the checker adjudicates — exact routing
//!   certifies by locality, cached routing is refuted exact and
//!   certified per-key-lagging (DESIGN.md §12).
//!
//! ## Quick start
//!
//! ```
//! use sl2::prelude::*;
//!
//! // A wait-free strongly-linearizable max register from fetch&add
//! // (Theorem 1), shared by 4 threads.
//! let max = SlMaxRegister::new(4);
//! std::thread::scope(|s| {
//!     for p in 0..4 {
//!         let max = &max;
//!         s.spawn(move || max.write_max(p, 10 * (p as u64 + 1)));
//!     }
//! });
//! assert_eq!(max.read_max(), 40);
//! ```
//!
//! Under real contention, stripe the same object across shards — writes
//! keep their fixed per-shard linearization points, reads fold a stable
//! collect (exact, lock-free; see DESIGN.md §6 for what sharding costs
//! in strong linearizability):
//!
//! ```
//! use sl2::prelude::*;
//!
//! // 4 threads over 4 cache-line-padded Theorem-1 shards.
//! let max = ShardedMaxRegister::new(4, 4);
//! std::thread::scope(|s| {
//!     for p in 0..4 {
//!         let max = &max;
//!         s.spawn(move || {
//!             for v in 1..=25u64 {
//!                 max.write_max(p, v * (p as u64 + 1));
//!             }
//!         });
//!     }
//! });
//! assert_eq!(max.read_max(), 100);
//! ```
//!
//! When the mix is read-heavy, put the combining front-end in front:
//! writers announce and elect a combiner that publishes whole-object
//! folds, and reads take a **1-load cached path** instead of the
//! S-probe fold — still nothing above consensus number 2. The cached
//! read trails unpublished completions by design; `read_max` stays the
//! exact stable path, and DESIGN.md §8 holds the checker's verdicts on
//! exactly what the cache trades away:
//!
//! ```
//! use sl2::prelude::*;
//!
//! let max = CombiningMaxRegister::new(ShardedMaxRegister::new(4, 4));
//! std::thread::scope(|s| {
//!     for p in 0..4 {
//!         let max = &max;
//!         s.spawn(move || {
//!             for v in 1..=25u64 {
//!                 max.write_max(p, v * (p as u64 + 1));
//!             }
//!         });
//!     }
//! });
//! assert_eq!(max.read_max(), 100); // exact (stable collect)
//! max.refresh(); // publish a fresh fold at quiescence
//! assert_eq!(max.read_cached(), 100); // 1 load
//! ```
//!
//! At service scale the object count, not the thread count, is the
//! axis: a [`Registry`](sl2_service::Registry)-backed
//! [`Service`](sl2_service::Service) routes typed requests by key
//! affinity onto a worker pool — each key a disjoint
//! strongly-linearizable object, materialized on first touch:
//!
//! ```
//! use sl2::prelude::*;
//!
//! let mut svc = Service::new(1024, 2, Backend::Sharded { shards: 2 });
//! svc.call(Request { key: 7, op: ServiceOp::WriteMax(41) });
//! assert_eq!(
//!     svc.call(Request { key: 7, op: ServiceOp::ReadMax }),
//!     Response::Value(41),
//! );
//! assert_eq!(
//!     svc.call(Request { key: 8, op: ServiceOp::ReadMax }),
//!     Response::Value(0), // keys are disjoint objects
//! );
//! svc.shutdown();
//! ```
//!
//! ## Verifying strong linearizability yourself
//!
//! ```
//! use sl2::prelude::*;
//! use sl2_spec::max_register::MaxOp;
//!
//! let mut mem = SimMemory::new();
//! let alg = MaxRegAlg::new(&mut mem, 2);
//! let scenario = Scenario::new(vec![
//!     vec![MaxOp::Write(3), MaxOp::Read],
//!     vec![MaxOp::Write(5)],
//! ]);
//! let out = check_strong(&alg, mem, &scenario, 1_000_000);
//! assert!(out.is_certified());
//! ```

#![warn(missing_docs)]

pub mod figure1;
pub mod records;

pub use sl2_agreement as agreement;
pub use sl2_bignum as bignum;
pub use sl2_combine as combine;
pub use sl2_core as core;
pub use sl2_exec as exec;
pub use sl2_obs as obs;
pub use sl2_primitives as primitives;
pub use sl2_service as service;
pub use sl2_sharded as sharded;
pub use sl2_spec as spec;
pub use sl2_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use sl2_agreement::{
        run_agreement, AlgoB, AtomicOooQueueAlg, AtomicQueueAlg, KOrdering,
        MultiplicityQueueOrdering, OutOfOrderQueueOrdering, QueueOrdering, StackOrdering,
        TasConsensusShared,
    };
    pub use sl2_bignum::{BigNat, LaneEncoding, Layout, WideFaa};
    pub use sl2_combine::{
        abandoned_counter_fan_in_scenario, abandoned_counter_lagging_scenario,
        cached_fan_in_lagging_scenario, cached_fan_in_max_scenario,
        combining_frontier_safe_scenario, ApplyPath, Combinable, Combiner, CombinerLock,
        CombiningCounter, CombiningCounterAlg, CombiningMaxRegAlg, CombiningMaxRegister,
        CombiningSnapshot, Foldable, Lease, PubSlot, PublicationArray, ReadMode, SeqCache,
    };
    pub use sl2_core::algos::fetch_inc::SlFetchInc;
    pub use sl2_core::algos::max_register::SlMaxRegister;
    pub use sl2_core::algos::mult_queue::MultQueue;
    pub use sl2_core::algos::multishot_ts::SlMultiShotTas;
    pub use sl2_core::algos::readable_ts::SlReadableTas;
    pub use sl2_core::algos::rw_max_register::RwMaxRegister;
    pub use sl2_core::algos::simple::{
        SimpleObject, SlCounter, SlIntCounter, SlLogicalClock, SlUnionSet,
    };
    pub use sl2_core::algos::sl_set::SlSet;
    pub use sl2_core::algos::snapshot::SlSnapshot;
    pub use sl2_core::algos::{MaxRegister, Snapshot};
    pub use sl2_core::baselines::multiplicity::{MultQueueAlg, MultStackAlg};
    pub use sl2_core::machines::fetch_inc::FetchIncAlg;
    pub use sl2_core::machines::fetch_inc_composed::FetchIncComposedAlg;
    pub use sl2_core::machines::max_register::MaxRegAlg;
    pub use sl2_core::machines::multishot_ts::MultiShotTasAlg;
    pub use sl2_core::machines::readable_ts::ReadableTasAlg;
    pub use sl2_core::machines::simple::SimpleAlg;
    pub use sl2_core::machines::sl_set::SlSetAlg;
    pub use sl2_core::machines::snapshot::SnapshotAlg;
    pub use sl2_core::universal::{CodedOp, PaxosRace, UniversalAlg};
    pub use sl2_exec::{
        check_strong, fan_in, for_each_history, history_from_spans, is_linearizable, linearize,
        symmetric, tower, validate_witness, Algorithm, BurstSched, CorpusOptions, CorpusRecord,
        CorpusReport, CorpusVerdict, CrashPlan, History, MemoMode, OpMachine, Outcome, RandomSched,
        RecordReport, Recorder, RoundRobin, Scenario, ScenarioCorpus, SearchStats, SimMemory, Step,
        StrongOptions, StrongOutcome, Witness,
    };
    pub use sl2_obs::{Histogram, MetricsSnapshot};
    pub use sl2_primitives::{
        BaseObject, CachePadded, ConsensusNumber, FetchAdd, ReadableTestAndSet, Register, Sharding,
        Swap, TestAndSet,
    };
    pub use sl2_service::machines::{
        cross_key_lagging_scenario, cross_key_scenario, same_key_fan_in_lagging_scenario,
        same_key_fan_in_scenario, KeyedDispatchAlg, LaggingKeyedDispatchAlg, RouteMode,
    };
    pub use sl2_service::{
        Backend, KeyObject, KeyedCounter, KeyedMax, KeyedSnapshot, Registry, RegistryFull, Request,
        Response, Service, ServiceOp,
    };
    pub use sl2_sharded::{
        fan_in_max_scenario, frontier_safe_max_scenario, RelaxedShardedCounter, ShardTicket,
        ShardedCounterAlg, ShardedFetchInc, ShardedMaxRegAlg, ShardedMaxRegister, ShardedSnapshot,
        ShardedSnapshotAlg, WholeReadMode,
    };
    pub use sl2_spec::keyed::{KeyedMaxOp, KeyedMaxSpec, LaggingKeyedMaxSpec};
    pub use sl2_spec::relaxed::{LaggingCounterSpec, LaggingMaxSpec};
    pub use sl2_spec::Spec;
    pub use sl2_trace::bridge::{request_spans, SpanRecord};
    pub use sl2_trace::{EventKind, TraceEvent, TraceLog};
}
