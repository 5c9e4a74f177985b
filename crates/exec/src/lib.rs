//! Deterministic interleaving substrate for the PODC 2024 reproduction
//! *Strong Linearizability using Primitives with Consensus Number 2*.
//!
//! This crate is the executable form of the paper's system model
//! (Section 2) and of its correctness conditions:
//!
//! * [`mem::SimMemory`] — simulated shared memory of typed base-object
//!   cells; every cell operation is one atomic step. Clonable (that is
//!   what lets Algorithm B of Lemma 12 collect base-object states and
//!   simulate locally) and hashable (checker memoization).
//! * [`machine`] — [`machine::OpMachine`] step machines (one shared
//!   memory operation per step) and the [`machine::Algorithm`] factory
//!   trait implemented by every construction in `sl2-core`.
//! * [`lanes`] — the twin steps the §3 fetch&add twins share: one lane
//!   write ([`lanes::LaneWrite`]) and one shard collect
//!   ([`lanes::Collect`]).
//! * [`sched`] — schedulers (round-robin, seeded-random, scripted,
//!   crash plans) and the execution [`sched::run`]ner producing
//!   [`history::History`]s.
//! * [`lin`] — a linearizability checker supporting nondeterministic
//!   specifications (needed for the relaxed queues/stacks of §5).
//! * [`strong`] — the strong-linearizability checker: an AND/OR search
//!   for a prefix-closed linearization function over the execution tree
//!   of a bounded scenario, with sound (equality-checked) memoization,
//!   reporting a replayable counterexample branch on failure.
//! * [`corpus`] — the batch driver: scenario-family enumeration with
//!   isomorphism dedup, shared node budgets, and machine-readable
//!   [`corpus::CorpusReport`]s (the E23 re-certification artifact).
//! * [`record`] — the threaded-history recorder: invoke/response logs
//!   from real threaded runs of the *production* objects (including
//!   chaos-faulted runs), merged on a global stamp and adjudicated by
//!   [`lin`] — crashed operations stay pending forever.
//!
//! # Example: checking an atomic cell is strongly linearizable
//!
//! ```
//! use sl2_exec::mem::{Cell, SimMemory};
//!
//! let mut mem = SimMemory::new();
//! let ts = mem.alloc(Cell::Tas(false));
//! assert_eq!(mem.tas(ts), 0);
//! assert_eq!(mem.tas(ts), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod history;
pub mod lanes;
pub mod lin;
pub mod machine;
pub mod mem;
pub mod record;
pub mod scenarios;
pub mod sched;
pub mod strong;
mod table;

pub use corpus::{CorpusOptions, CorpusRecord, CorpusReport, CorpusVerdict, ScenarioCorpus};
pub use history::{History, OpId};
pub use lin::{is_linearizable, linearize};
pub use machine::{Algorithm, OpMachine, Step};
pub use mem::{ArrayLoc, Cell, Loc, SimMemory, Word};
pub use record::{history_from_spans, RecordReport, RecordRun, Recorder};
pub use scenarios::{fan_in, symmetric, tower};
pub use sched::{BurstSched, CrashPlan, Execution, RandomSched, RoundRobin, Scenario, Scheduler};
pub use strong::{
    check_strong, for_each_history, validate_witness, MemoMode, Outcome, SearchStats,
    StrongOptions, StrongOutcome, Witness,
};
