//! Step-machine forms of the combining front-end, for the
//! strong-linearizability checker.
//!
//! These are the referee's copy of [`crate::Combiner`] over its two
//! inner objects: the same announce → elect → (combine | direct)
//! protocol for the max register, and increment → elect → publish for
//! the counter, with every base object a [`SimMemory`] cell (`Swap`
//! slots, `Swap` lock, `AMaxReg` cache, `Wide` inner shards) and every
//! protocol action one [`OpMachine::step`]. As in production, both
//! twins share one election step (`Elect`) and one publish-then-unlock
//! step ([`Release`]), and their reads one [`Read`]. The whole point
//! of the front-end — a 1-load cached read — is also its semantic
//! risk: combining is a *helping* pattern, exactly the structure the
//! "Difficulty of Consistent Refereeing" line warns can break strong
//! linearizability, so the read paths come in both granularities of
//! honesty ([`ReadMode::Cached`] vs [`ReadMode::Stable`]) and every
//! claim below is a `check_strong` verdict (DESIGN.md §8):
//!
//! * **cached reads** are refuted against the exact specifications at
//!   *every* shard count — staleness, not sharding, is the culprit: an
//!   operation that loses the election completes without republishing,
//!   and a later 1-load read returns the pre-election fold after that
//!   operation completed;
//! * the same cached scenarios are **certified** against the honest
//!   `sl2_spec::relaxed` window specifications
//!   ([`LaggingCounterSpec`], [`LaggingMaxSpec`]) — the DESIGN.md §6
//!   pattern, one layer up;
//! * **stable reads** bypass the cache and keep (at most) the PR-3
//!   collect-frontier boundary — the tests bracket which combining
//!   scenarios certify and which inherit the sharded fan-in
//!   refutation.
//!
//! The machines deliberately skip the production epoch counter (it is
//! observability, not semantics — no read path consults it) to keep
//! the checker's state space tight.
//!
//! The cache is an atomic max-register cell, written with one
//! `max_write` and read with one `max_read`, as production's
//! publication and cached read each are one operation on a Theorem-1
//! max register. That is sound by composition: Theorem 1's register
//! is strongly linearizable (the `thm1/` records certify its twin),
//! and strong linearizability composes, so the atomic cell stands for
//! it (DESIGN.md §10). Because that cell cannot go backwards, two
//! publishers at once are harmless, and the one thing the twins leave
//! out is strike-based reclaim of a stalled but live holder: the
//! recovery twin takes over only the planted [`DEAD_LEASE`].
//!
//! Inner lanes go through the shared [`LaneEncoding`] codec: the
//! constructors model the paper's unary lanes, and `with_encoding`
//! re-codes them — [`LaneEncoding::Binary`] is what the registry ships
//! behind both front-ends.
//!
//! [`LaggingCounterSpec`]: sl2_spec::relaxed::LaggingCounterSpec
//! [`LaggingMaxSpec`]: sl2_spec::relaxed::LaggingMaxSpec

use std::rc::Rc;

use sl2_bignum::{BigNat, LaneEncoding, Lanes, Target};
use sl2_exec::lanes::{Collect, LaneWrite, Reduce, WholeReadMode};
use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_primitives::Sharding;
use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
use sl2_spec::relaxed::{LaggingCounterSpec, LaggingMaxSpec};
use sl2_spec::Spec;

/// Which route a whole-object read takes through the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadMode {
    /// One load of the published cache register (wait-free; exact as
    /// of the last publication, stale against unpublished
    /// completions).
    Cached,
    /// The inner object's stable collect (lock-free, exact; bypasses
    /// the cache entirely).
    Stable,
}

/// The common base-object block of a combining algorithm: slots, lock,
/// cache, inner shards. Opaque — it appears in machine states so the
/// checker can clone/hash them, but its cells are only reachable
/// through the protocol steps. The handle tables are shared, so a
/// machine state copies two reference counts, not two tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrontCells {
    slots: Rc<[Loc]>,
    lock: Loc,
    cache: Loc,
    shards: Rc<[Loc]>,
    lanes: Lanes,
    sharding: Sharding,
}

impl FrontCells {
    fn alloc(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        FrontCells {
            slots: (0..n).map(|_| mem.alloc(Cell::Swap(0))).collect(),
            lock: mem.alloc(Cell::Swap(0)),
            cache: mem.alloc(Cell::AMaxReg(0)),
            shards: (0..shards)
                .map(|_| mem.alloc(Cell::Wide(BigNat::zero())))
                .collect(),
            lanes: Lanes::new(n, LaneEncoding::Unary),
            sharding: Sharding::new(shards),
        }
    }

    /// A pass over the inner shards, reducing each with `reduce`.
    fn collect(&self, reduce: Reduce, mode: WholeReadMode) -> Collect {
        Collect::new(Rc::clone(&self.shards), self.lanes, reduce, mode)
    }

    /// A whole-object read in `mode` (the stable collect reduces each
    /// shard with `reduce`).
    fn read(&self, mode: ReadMode, reduce: Reduce) -> Read {
        match mode {
            ReadMode::Cached => Read::Cached(self.cache),
            ReadMode::Stable => Read::Stable {
                sharding: self.sharding,
                collect: self.collect(reduce, WholeReadMode::Stable),
            },
        }
    }
}

// ---------------------------------------------------------------------
// The shared steps: election, publish-then-unlock, whole-object read
// ---------------------------------------------------------------------

/// The election: one swap of the anonymous lock word `1` (a non-zero
/// answer loses), or under recovery of the lease [`LEASE_BASE`]` + p`,
/// which wins on `0` or [`DEAD_LEASE`] (a takeover). A loser's word
/// stays in the cell until the holder's unlock clears it, as in
/// production's `CombinerLock::try_acquire`.
struct Elect;

impl Elect {
    /// One memory operation: whether the election was won.
    fn won(mem: &mut SimMemory, lock: Loc, lease: Option<u64>) -> bool {
        match lease {
            None => mem.swap(lock, 1) == 0,
            Some(lease) => matches!(mem.swap(lock, lease), 0 | DEAD_LEASE),
        }
    }
}

/// The end of a won tenure: publish a fold into the cache max register,
/// then unlock with a plain swap of 0 — production's `Combiner`
/// publication routine and `CombinerLock::release`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Release {
    /// Write the fold into the cache max register.
    Publish(u64),
    /// Swap the lock word out.
    Unlock,
}

impl Release {
    /// One memory operation; ready once the lock is released.
    fn step(&mut self, mem: &mut SimMemory, cells: &FrontCells) -> Step<()> {
        match *self {
            Release::Publish(fold) => {
                mem.max_write(cells.cache, fold);
                *self = Release::Unlock;
                Step::Pending
            }
            Release::Unlock => {
                mem.swap(cells.lock, 0);
                Step::Ready(())
            }
        }
    }
}

/// A whole-object read through the front-end.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Read {
    /// [`ReadMode::Cached`]: one read of the cache max register.
    Cached(Loc),
    /// [`ReadMode::Stable`]: the inner stable collect, bypassing the
    /// cache.
    Stable {
        /// The quotient map (what a max register's pass decodes with).
        sharding: Sharding,
        /// The collect.
        collect: Collect,
    },
}

impl Read {
    /// One memory operation; ready with the value, a finished stable
    /// pass reduced by `finish`.
    fn step(&mut self, mem: &mut SimMemory, finish: fn(Sharding, &[u64]) -> u64) -> Step<u64> {
        match self {
            Read::Cached(cache) => Step::Ready(mem.max_read(*cache)),
            Read::Stable { sharding, collect } => {
                collect.step(mem).map(|pass| finish(*sharding, &pass))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Canonical adjudication scenarios
// ---------------------------------------------------------------------

/// The cached-read refutation scenario: two announced writes race one
/// independent 1-load reader. On the refuting branch one writer loses
/// the election, completes on the direct path, and the reader then
/// loads the pre-election fold — refuted against the exact spec at
/// every shard count (the staleness needs no collect frontier),
/// certified against [`sl2_spec::relaxed::LaggingMaxSpec`] with
/// `k = 2`.
pub fn cached_fan_in_max_scenario() -> sl2_exec::sched::Scenario<MaxRegisterSpec> {
    sl2_exec::scenarios::fan_in::<MaxRegisterSpec>(
        vec![MaxOp::Write(1), MaxOp::Write(2)],
        vec![MaxOp::Read],
    )
}

/// The same fan-in shape typed against the k-stale window spec, for
/// the certification half of the cached-read adjudication.
pub fn cached_fan_in_lagging_scenario() -> sl2_exec::sched::Scenario<LaggingMaxSpec> {
    sl2_exec::scenarios::fan_in::<LaggingMaxSpec>(
        vec![MaxOp::Write(1), MaxOp::Write(2)],
        vec![MaxOp::Read],
    )
}

/// The stable-read scenario at `shards` shards: both writes land in
/// shard 0 and the reader is fused with the first writer — the PR-3
/// frontier-safe shape, routed through the combining front-end.
pub fn combining_frontier_safe_scenario(
    shards: usize,
) -> sl2_exec::sched::Scenario<MaxRegisterSpec> {
    let s = shards as u64;
    sl2_exec::sched::Scenario::new(vec![
        vec![MaxOp::Write(s), MaxOp::Read],
        vec![MaxOp::Write(2 * s)],
    ])
}

/// The crash-recovery adjudication scenario (exact-spec half): two
/// increments race one cached reader against a counter front-end whose
/// election lock was abandoned by a crashed combiner
/// ([`CombiningCounterAlg::abandon_lock`]). Refuted with or without
/// recovery — recovery restores publication, not exactness.
pub fn abandoned_counter_fan_in_scenario() -> sl2_exec::sched::Scenario<CounterSpec> {
    sl2_exec::scenarios::fan_in::<CounterSpec>(
        vec![CounterOp::Inc, CounterOp::Inc],
        vec![CounterOp::Read],
    )
}

/// The same abandoned-lock fan-in typed against the k-lagging window
/// spec: the certification half — recovery
/// ([`CombiningCounterAlg::with_recovery`]) must land survivors on the
/// lagging contract, strongly.
pub fn abandoned_counter_lagging_scenario() -> sl2_exec::sched::Scenario<LaggingCounterSpec> {
    sl2_exec::scenarios::fan_in::<LaggingCounterSpec>(
        vec![CounterOp::Inc, CounterOp::Inc],
        vec![CounterOp::Read],
    )
}

// ---------------------------------------------------------------------
// Combining max register
// ---------------------------------------------------------------------

/// Factory for the combining max register
/// ([`crate::CombiningMaxRegister`]'s checkable twin), generic over
/// the specification it is judged against — the exact
/// [`MaxRegisterSpec`] for the refutations,
/// [`sl2_spec::relaxed::LaggingMaxSpec`] for what the cached read
/// honestly meets.
#[derive(Debug, Clone)]
pub struct CombiningMaxRegAlg<S = MaxRegisterSpec> {
    cells: FrontCells,
    mode: ReadMode,
    spec: S,
}

impl CombiningMaxRegAlg<MaxRegisterSpec> {
    /// Allocates the front-end (slots, lock, cache) plus `shards`
    /// inner wide registers for `n` processes, judged against the
    /// exact max-register specification.
    pub fn new(mem: &mut SimMemory, n: usize, shards: usize, mode: ReadMode) -> Self {
        CombiningMaxRegAlg {
            cells: FrontCells::alloc(mem, n, shards),
            mode,
            spec: MaxRegisterSpec,
        }
    }
}

impl CombiningMaxRegAlg<LaggingMaxSpec> {
    /// As [`CombiningMaxRegAlg::new`], judged against the k-stale
    /// window specification (the cached read's honest contract).
    pub fn relaxed(mem: &mut SimMemory, n: usize, shards: usize, mode: ReadMode, k: usize) -> Self {
        CombiningMaxRegAlg {
            cells: FrontCells::alloc(mem, n, shards),
            mode,
            spec: LaggingMaxSpec { k },
        }
    }
}

impl<S> CombiningMaxRegAlg<S> {
    /// Re-codes the inner lanes ([`LaneEncoding::Binary`] is the twin
    /// of the shipped `ShardedMaxRegister::new_binary` inner register).
    pub fn with_encoding(mut self, encoding: LaneEncoding) -> Self {
        self.cells.lanes.encoding = encoding;
        self
    }
}

impl<S> Algorithm for CombiningMaxRegAlg<S>
where
    S: Spec<Op = MaxOp, Resp = MaxResp>,
{
    type Spec = S;
    type Machine = CombiningMaxRegMachine;

    fn spec(&self) -> S {
        self.spec.clone()
    }

    fn machine(&self, process: usize, op: &MaxOp) -> CombiningMaxRegMachine {
        match *op {
            MaxOp::Write(v) => CombiningMaxRegMachine::Write(WriteState {
                cells: self.cells.clone(),
                process,
                payload: v,
                fold: 0,
                applied: false,
                stage: WriteStage::Publish,
            }),
            MaxOp::Read => CombiningMaxRegMachine::Read(self.cells.read(self.mode, Reduce::Fold)),
        }
    }
}

/// Where a combining max-register write currently is in the protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WriteStage {
    /// Announce: swap `payload` into the own slot (0 announces
    /// nothing).
    Publish,
    /// The shared election, with the anonymous lock word.
    Elect,
    /// Combiner sweep, peeking slot `.0` (a read).
    SweepPeek(usize),
    /// Combiner sweep, claiming occupied slot `.0` (a swap-out).
    SweepTake(usize),
    /// Combiner applying a claimed value through its **own** lane (the
    /// re-attribution that keeps helping single-writer — see
    /// [`crate::Combinable`]): the ensure probe, then the fetch&add.
    Apply {
        /// Sweep cursor (for the continuation).
        i: usize,
        /// The claimed value (merged into the fold once landed).
        value: u64,
        /// The lane write.
        write: LaneWrite,
    },
    /// Combiner reading the published fold before the sweep (the merge
    /// base; production reads it under the lock for the same reason —
    /// publication must never regress the cache).
    ReadCache,
    /// The shared publish-then-unlock (an empty sweep only unlocks).
    Release(Release),
    /// Election lost: the direct path's ensure probe and fetch&add.
    Direct(LaneWrite),
    /// Election lost: retiring the own announcement.
    Withdraw,
}

/// One combining max-register write in flight.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WriteState {
    /// The front-end's base objects.
    cells: FrontCells,
    /// Announcing process.
    process: usize,
    /// Announced value.
    payload: u64,
    /// Published fold read at [`WriteStage::ReadCache`], merged with
    /// every value this sweep applies (max-merge — the production
    /// `Combinable::fold_batch`).
    fold: u64,
    /// Whether the sweep claimed at least one announcement (an empty
    /// sweep publishes nothing, exactly as production skips the swap).
    applied: bool,
    /// Protocol position.
    stage: WriteStage,
}

impl WriteState {
    /// The own-lane write that lands `value` (the quotient encoding of
    /// the inner sharded register).
    fn write_of(&self, value: u64) -> LaneWrite {
        let (home, count) = self.cells.sharding.to_quotient(value);
        LaneWrite::new(
            self.cells.shards[home],
            self.cells.lanes,
            self.process,
            Target::AtLeast(count),
        )
    }

    /// Sweep continuation after finishing slot `i`: the next slot, or
    /// publication once the sweep is done.
    fn after_slot(&self, i: usize) -> WriteStage {
        if i + 1 < self.cells.slots.len() {
            WriteStage::SweepPeek(i + 1)
        } else if self.applied {
            WriteStage::Release(Release::Publish(self.fold))
        } else {
            // Empty sweep (a previous combiner already claimed this
            // op): nothing to publish.
            WriteStage::Release(Release::Unlock)
        }
    }

    /// Advances the protocol by one memory operation.
    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        let cells = &self.cells;
        self.stage = match self.stage.clone() {
            WriteStage::Publish => {
                mem.swap(cells.slots[self.process], self.payload);
                WriteStage::Elect
            }
            WriteStage::Elect => {
                if Elect::won(mem, cells.lock, None) {
                    WriteStage::ReadCache
                } else {
                    WriteStage::Direct(self.write_of(self.payload))
                }
            }
            WriteStage::ReadCache => {
                self.fold = mem.max_read(cells.cache);
                WriteStage::SweepPeek(0)
            }
            WriteStage::SweepPeek(i) => match mem.read(cells.slots[i]) {
                0 => self.after_slot(i),
                _ => WriteStage::SweepTake(i),
            },
            WriteStage::SweepTake(i) => match mem.swap(cells.slots[i], 0) {
                0 => self.after_slot(i), // withdraw raced the claim
                value => WriteStage::Apply {
                    i,
                    value,
                    write: self.write_of(value),
                },
            },
            WriteStage::Apply {
                i,
                value,
                mut write,
            } => match write.step(mem) {
                Step::Pending => WriteStage::Apply { i, value, write },
                Step::Ready(()) => {
                    // Landed, or already covered by this lane: merged
                    // into the fold either way — it is a landed value.
                    self.fold = self.fold.max(value);
                    self.applied = true;
                    self.after_slot(i)
                }
            },
            WriteStage::Release(mut release) => match release.step(mem, cells) {
                Step::Pending => WriteStage::Release(release),
                Step::Ready(()) => return Step::Ready(MaxResp::Ok),
            },
            WriteStage::Direct(mut write) => match write.step(mem) {
                Step::Pending => WriteStage::Direct(write),
                Step::Ready(()) => WriteStage::Withdraw,
            },
            WriteStage::Withdraw => {
                mem.swap(cells.slots[self.process], 0);
                return Step::Ready(MaxResp::Ok);
            }
        };
        Step::Pending
    }
}

/// Step machine for the combining max register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CombiningMaxRegMachine {
    /// `writeMax` through the front-end.
    Write(WriteState),
    /// `readMax`: the shared read (the stable pass decodes quotients).
    Read(Read),
}

impl OpMachine for CombiningMaxRegMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match self {
            CombiningMaxRegMachine::Write(w) => w.step(mem),
            CombiningMaxRegMachine::Read(read) => read
                .step(mem, |sharding, pass| sharding.max_from_quotients(pass))
                .map(MaxResp::Value),
        }
    }
}

// ---------------------------------------------------------------------
// Combining counter (publication-combining: see crate::CombiningCounter)
// ---------------------------------------------------------------------

/// The frozen lock word a crash-stopped combiner leaves behind. It
/// equals the plain election's own lock word (1), so to the
/// non-recovery machine a dead combiner is indistinguishable from a
/// live one — exactly the production failure mode the lease protocol
/// exists to break ([`crate::CombinerLock::reclaim`]).
pub const DEAD_LEASE: u64 = 1;

/// First live lease id of the recovery election: process `p` swaps in
/// `LEASE_BASE + p`, distinct from free (0) and [`DEAD_LEASE`].
pub const LEASE_BASE: u64 = 2;

/// Factory for the publication-combining counter
/// ([`crate::CombiningCounter`]'s checkable twin), generic over the
/// specification it is judged against — the exact
/// [`sl2_spec::counters::CounterSpec`] for the refutations,
/// [`sl2_spec::relaxed::LaggingCounterSpec`] for what the cached read
/// honestly meets. [`Self::abandon_lock`] + [`Self::with_recovery`]
/// stage the crash-aftermath variants for the recovery adjudication.
#[derive(Debug, Clone)]
pub struct CombiningCounterAlg<S> {
    cells: FrontCells,
    mode: ReadMode,
    recovery: bool,
    spec: S,
}

impl<S> CombiningCounterAlg<S>
where
    S: Spec<Op = CounterOp, Resp = CounterResp>,
{
    /// Allocates the front-end (lock, cache) plus `shards` inner
    /// stripes for `n` processes; reads use `mode`, claims are judged
    /// against `spec`. (The counter announces nothing — its slots are
    /// unused; see [`crate::CombiningCounter`].)
    pub fn with_spec(
        mem: &mut SimMemory,
        n: usize,
        shards: usize,
        mode: ReadMode,
        spec: S,
    ) -> Self {
        CombiningCounterAlg {
            cells: FrontCells::alloc(mem, n, shards),
            mode,
            recovery: false,
            spec,
        }
    }

    /// Re-codes the inner lanes ([`LaneEncoding::Binary`] is the twin
    /// of the shipped `ShardedFetchInc::new_binary` inner counter).
    pub fn with_encoding(mut self, encoding: LaneEncoding) -> Self {
        self.cells.lanes.encoding = encoding;
        self
    }

    /// Starts the front-end in the crash aftermath: the election lock
    /// already holds [`DEAD_LEASE`], as if a combiner crash-stopped
    /// between winning and releasing — the planting *is* one anonymous
    /// election that never releases. The crash itself is the
    /// adversary's prefix, not a step in the tree — `check_strong`
    /// cannot explore an operation that never returns, so the dead
    /// tenure is initial state and every in-tree operation still
    /// terminates (the wait-freedom claim survives the fault).
    pub fn abandon_lock(self, mem: &mut SimMemory) -> Self {
        assert!(
            Elect::won(mem, self.cells.lock, None),
            "the lock starts free"
        );
        self
    }

    /// Arms the lease-reclaim election (the
    /// [`crate::CombinerLock::reclaim`] model): the election swaps the
    /// process's unique lease instead of the anonymous 1 and treats a
    /// [`DEAD_LEASE`] answer as a takeover.
    pub fn with_recovery(mut self) -> Self {
        self.recovery = true;
        self
    }
}

impl CombiningCounterAlg<CounterSpec> {
    /// Cached 1-load reads judged against the exact counter — the
    /// refutation target.
    pub fn cached(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        Self::with_spec(mem, n, shards, ReadMode::Cached, CounterSpec)
    }

    /// Stable collect reads judged against the exact counter.
    pub fn stable(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        Self::with_spec(mem, n, shards, ReadMode::Stable, CounterSpec)
    }
}

impl CombiningCounterAlg<LaggingCounterSpec> {
    /// Cached reads judged against the honest k-lagging specification.
    pub fn relaxed(mem: &mut SimMemory, n: usize, shards: usize, k: u64) -> Self {
        Self::with_spec(mem, n, shards, ReadMode::Cached, LaggingCounterSpec { k })
    }
}

impl<S> Algorithm for CombiningCounterAlg<S>
where
    S: Spec<Op = CounterOp, Resp = CounterResp>,
{
    type Spec = S;
    type Machine = CombiningCounterMachine;

    fn spec(&self) -> S {
        self.spec.clone()
    }

    fn machine(&self, process: usize, op: &CounterOp) -> CombiningCounterMachine {
        match op {
            CounterOp::Inc => CombiningCounterMachine::Inc(IncState {
                cells: self.cells.clone(),
                lease: self.recovery.then_some(LEASE_BASE + process as u64),
                stage: IncStage::Write(LaneWrite::new(
                    self.cells.shards[self.cells.sharding.of_process(process)],
                    self.cells.lanes,
                    process,
                    Target::Increment,
                )),
            }),
            CounterOp::Read => {
                CombiningCounterMachine::Read(self.cells.read(self.mode, Reduce::Sum))
            }
        }
    }
}

/// Step machine for the publication-combining counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CombiningCounterMachine {
    /// `inc` through the front-end.
    Inc(IncState),
    /// `read`: the shared read (the stable pass sums).
    Read(Read),
}

/// One publication-combining increment in flight: the plain striped
/// increment, then one election attempt to republish the fold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IncState {
    /// The front-end's base objects.
    cells: FrontCells,
    /// The recovery lease ([`LEASE_BASE`]` + process`), if armed.
    lease: Option<u64>,
    /// Protocol position.
    stage: IncStage,
}

/// Where a combining increment currently is in the protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IncStage {
    /// Raise the own lane of the home shard by one.
    Write(LaneWrite),
    /// The shared election: lost completes the increment unpublished
    /// (the staleness the cached read pays), won folds.
    Elect,
    /// Election won: one naive pass over the stripes.
    Fold(Collect),
    /// The shared publish-then-unlock.
    Release(Release),
}

impl IncState {
    /// Advances the protocol by one memory operation.
    fn step(&mut self, mem: &mut SimMemory) -> Step<CounterResp> {
        let cells = &self.cells;
        let next = match &mut self.stage {
            IncStage::Write(write) => write.step(mem).map(|()| IncStage::Elect),
            IncStage::Elect => {
                if !Elect::won(mem, cells.lock, self.lease) {
                    return Step::Ready(CounterResp::Ok);
                }
                Step::Ready(IncStage::Fold(
                    cells.collect(Reduce::Sum, WholeReadMode::Naive),
                ))
            }
            IncStage::Fold(collect) => collect
                .step(mem)
                .map(|pass| IncStage::Release(Release::Publish(pass.iter().sum()))),
            IncStage::Release(release) => {
                return release.step(mem, cells).map(|()| CounterResp::Ok)
            }
        };
        if let Step::Ready(stage) = next {
            self.stage = stage;
        }
        Step::Pending
    }
}

impl OpMachine for CombiningCounterMachine {
    type Resp = CounterResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<CounterResp> {
        match self {
            CombiningCounterMachine::Inc(inc) => inc.step(mem),
            CombiningCounterMachine::Read(read) => read
                .step(mem, |_, pass| pass.iter().sum())
                .map(CounterResp::Value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::machine::run_solo;
    use sl2_exec::scenarios::fan_in;
    use sl2_exec::sched::Scenario;
    use sl2_exec::strong::check_strong;
    use sl2_exec::{for_each_history, is_linearizable, validate_witness};
    use sl2_spec::counters::CounterSpec;
    use sl2_spec::relaxed::LaggingCounterSpec;

    // -- solo semantics ------------------------------------------------

    #[test]
    fn max_register_solo_semantics_and_publication() {
        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::new(&mut mem, 2, 2, ReadMode::Cached);
        // Solo, the writer always wins the election: publish, lock,
        // read the cache, sweep 2 slots (peek+take+apply on its own),
        // publish the merged fold, unlock.
        let (r, steps) = run_solo(&mut alg.machine(0, &MaxOp::Write(4)), &mut mem);
        assert_eq!(r, MaxResp::Ok);
        assert_eq!(
            steps, 10,
            "publish + lock + read-cache + (peek,take,probe,add) + peek + publish + unlock"
        );
        let (r, steps) = run_solo(&mut alg.machine(1, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(4), "the cache was published");
        assert_eq!(steps, 1, "cached read is one load");
    }

    #[test]
    fn max_register_stable_read_bypasses_the_cache() {
        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::new(&mut mem, 2, 2, ReadMode::Stable);
        run_solo(&mut alg.machine(0, &MaxOp::Write(5)), &mut mem);
        let (r, steps) = run_solo(&mut alg.machine(1, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(5));
        assert_eq!(steps, 4, "two stable 2-shard collect passes");
    }

    #[test]
    fn counter_solo_semantics_and_publication() {
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 2, 2);
        // Solo inc: probe + add + trylock(won) + 2 folds + publish +
        // unlock = 7 steps.
        let (r, steps) = run_solo(&mut alg.machine(0, &CounterOp::Inc), &mut mem);
        assert_eq!(r, CounterResp::Ok);
        assert_eq!(steps, 7);
        let (r, steps) = run_solo(&mut alg.machine(1, &CounterOp::Read), &mut mem);
        assert_eq!(r, CounterResp::Value(1));
        assert_eq!(steps, 1, "cached read is one load");
    }

    #[test]
    fn a_publication_below_a_larger_fold_leaves_it() {
        // A larger fold already in the cache (what an overlapping
        // publisher leaves) survives a smaller publication, at no
        // extra step: the cache is a max register.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 2, 2);
        mem.max_write(alg.cells.cache, 5);
        let (r, steps) = run_solo(&mut alg.machine(0, &CounterOp::Inc), &mut mem);
        assert_eq!(r, CounterResp::Ok);
        assert_eq!(steps, 7, "the 7 steps of a solo inc");
        assert_eq!(mem.max_read(alg.cells.cache), 5, "the larger fold stays");
        assert_eq!(mem.read(alg.cells.lock), 0, "and the tenure released");
    }

    #[test]
    fn a_max_register_write_of_zero_announces_nothing() {
        // Solo: announce 0, win, read the cache, peek two empty slots,
        // unlock with nothing to publish.
        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::new(&mut mem, 2, 2, ReadMode::Cached);
        let (r, steps) = run_solo(&mut alg.machine(0, &MaxOp::Write(0)), &mut mem);
        assert_eq!((r, steps), (MaxResp::Ok, 6));
        assert_eq!(mem.max_read(alg.cells.cache), 0);
        assert_eq!(mem.read(alg.cells.lock), 0, "the tenure released");
    }

    // -- checker verdicts (the DESIGN.md §8 table) ---------------------

    #[test]
    fn cached_max_read_is_refuted_at_every_shard_count() {
        // Staleness needs no collect frontier: the refutation holds at
        // S = 1, where the PR-3 sharded fan-in control *certified* —
        // the cache, not sharding, is the culprit.
        for shards in [1usize, 2] {
            let mut mem = SimMemory::new();
            let alg = CombiningMaxRegAlg::new(&mut mem, 3, shards, ReadMode::Cached);
            let scenario = cached_fan_in_max_scenario();
            let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
            assert!(out.is_refuted(), "S={shards}");
            let witness = out.witness().expect("refutation carries a witness");
            validate_witness(&alg, mem, &scenario, witness)
                .unwrap_or_else(|e| panic!("S={shards}: {e}"));
        }
    }

    #[test]
    fn cached_max_read_meets_the_stale_window_spec() {
        // Same machine, same scenario, judged against the k-stale
        // window (k = 2 writers): certified.
        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::relaxed(&mut mem, 3, 1, ReadMode::Cached, 2);
        let out = check_strong(&alg, mem, &cached_fan_in_lagging_scenario(), 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn stable_max_read_keeps_the_frontier_safe_certificates() {
        for shards in [1usize, 2] {
            let mut mem = SimMemory::new();
            let alg = CombiningMaxRegAlg::new(&mut mem, 2, shards, ReadMode::Stable);
            let out = check_strong(
                &alg,
                mem,
                &combining_frontier_safe_scenario(shards),
                8_000_000,
            );
            assert!(
                out.is_certified(),
                "frontier-safe S={shards}: {:?}",
                out.outcome
            );
        }
    }

    #[test]
    fn stable_max_read_fan_in_certifies_only_the_single_shard_control() {
        // The PR-3 boundary survives the front-end: the combining
        // write path neither heals nor worsens the collect frontier.
        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::new(&mut mem, 3, 1, ReadMode::Stable);
        let out = check_strong(&alg, mem, &cached_fan_in_max_scenario(), 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);

        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::new(&mut mem, 3, 2, ReadMode::Stable);
        let scenario = cached_fan_in_max_scenario();
        let out = check_strong(&alg, mem.clone(), &scenario, 16_000_000);
        assert!(out.is_refuted());
        let witness = out.witness().expect("refutation carries a witness");
        validate_witness(&alg, mem, &scenario, witness).expect("fan-in witness must replay");
    }

    #[test]
    fn cached_counter_read_is_refuted_even_reader_fused() {
        // The staleness is sharper than the sharded frontier race: the
        // refutation does not need an independent reader — an inc that
        // loses the election completes unpublished, and the *same
        // process's* later read... stays honest only via the stable
        // path. (The fused pair certified for the stable sharded
        // counter in PR 3.)
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 2, 1);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]);
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        assert!(out.is_refuted());
        let witness = out.witness().expect("refutation carries a witness");
        validate_witness(&alg, mem, &scenario, witness).expect("witness must replay");
    }

    #[test]
    fn cached_counter_fan_in_is_linearizable_per_mixed_reads_but_refuted() {
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 3, 1);
        let scenario =
            fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_refuted());
    }

    #[test]
    fn cached_counter_read_meets_the_lagging_spec() {
        // Judged against the honest k-lagging window (k = 2 incs in
        // flight), the same scenarios certify.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::relaxed(&mut mem, 3, 1, 2);
        let scenario = fan_in::<LaggingCounterSpec>(
            vec![CounterOp::Inc, CounterOp::Inc],
            vec![CounterOp::Read],
        );
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn stable_counter_reads_certify_fused_and_fan_in() {
        // The publication-combining counter's stable read is the plain
        // sharded collect; with the increments untouched by helping,
        // the certificates cover both the fused pair and (at one
        // stripe) the independent-reader fan-in.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::stable(&mut mem, 2, 2);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);

        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::stable(&mut mem, 3, 1);
        let scenario =
            fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn every_cached_history_stays_within_the_window_specs() {
        // for_each_history differential: cached reads may lag but each
        // history is linearizable against the window specification.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::relaxed(&mut mem, 3, 1, 2);
        let scenario = fan_in::<LaggingCounterSpec>(
            vec![CounterOp::Inc, CounterOp::Inc],
            vec![CounterOp::Read],
        );
        let mut histories = 0usize;
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            histories += 1;
            assert!(
                is_linearizable(&LaggingCounterSpec { k: 2 }, h),
                "history: {h:?}"
            );
        });
        assert!(histories > 50, "the scenario has real interleaving depth");
    }

    // -- crash aftermath: abandoned lock, lease recovery ---------------

    #[test]
    fn dead_lease_starves_publication_without_recovery_solo() {
        // The plain election cannot tell a dead combiner from a live
        // one: every inc loses, the cache is never published again.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 2, 1).abandon_lock(&mut mem);
        let (r, steps) = run_solo(&mut alg.machine(0, &CounterOp::Inc), &mut mem);
        assert_eq!(r, CounterResp::Ok);
        assert_eq!(steps, 3, "probe + add + lost election");
        let (r, _) = run_solo(&mut alg.machine(1, &CounterOp::Read), &mut mem);
        assert_eq!(r, CounterResp::Value(0), "cache frozen by the dead tenure");
        assert_eq!(mem.read(alg.cells.lock), DEAD_LEASE, "lock frozen forever");
    }

    #[test]
    fn recovery_takes_over_the_dead_lease_solo() {
        // The lease election reclaims the frozen tenure: the same inc
        // that starved above wins via takeover, folds, republishes,
        // and releases — the lock is free again afterwards.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 2, 1)
            .abandon_lock(&mut mem)
            .with_recovery();
        let (r, steps) = run_solo(&mut alg.machine(0, &CounterOp::Inc), &mut mem);
        assert_eq!(r, CounterResp::Ok);
        assert_eq!(steps, 6, "probe + add + takeover + fold + publish + unlock");
        let (r, _) = run_solo(&mut alg.machine(1, &CounterOp::Read), &mut mem);
        assert_eq!(r, CounterResp::Value(1), "publication resumed");
        assert_eq!(mem.read(alg.cells.lock), 0, "reclaimed tenure released");
    }

    #[test]
    fn abandoned_lock_without_recovery_is_lagging_but_never_publishes() {
        // Bounded degradation, adjudicated: with the lock dead and no
        // reclaim, every cached read returns the pre-crash fold (0) —
        // still strongly linearizable against the k-lagging window
        // (all staleness is in-window for k = in-flight incs), refuted
        // against the exact spec.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::relaxed(&mut mem, 3, 1, 2).abandon_lock(&mut mem);
        let scenario = abandoned_counter_lagging_scenario();
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            for rec in h.complete_ops() {
                if rec.op == CounterOp::Read {
                    let (resp, _) = rec.returned.expect("complete");
                    assert_eq!(resp, CounterResp::Value(0), "no publication may happen");
                }
            }
        });

        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 3, 1).abandon_lock(&mut mem);
        let scenario = abandoned_counter_fan_in_scenario();
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        assert!(out.is_refuted());
        let witness = out.witness().expect("refutation carries a witness");
        validate_witness(&alg, mem, &scenario, witness).expect("witness must replay");
    }

    #[test]
    fn recovery_resumes_combining_and_certifies_the_lagging_window() {
        // The tentpole adjudication: with lease reclaim armed, some
        // interleavings republish the full fold (a read sees 2), and
        // the whole tree — takeovers, lost swaps, post-recovery
        // reads — is certified strongly linearizable against the
        // lagging window. Recovery restores publication, not
        // exactness: the exact spec still refutes.
        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::relaxed(&mut mem, 3, 1, 2)
            .abandon_lock(&mut mem)
            .with_recovery();
        let scenario = abandoned_counter_lagging_scenario();
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
        let mut best = 0u64;
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            for rec in h.complete_ops() {
                if let (CounterOp::Read, Some((CounterResp::Value(v), _))) =
                    (&rec.op, &rec.returned)
                {
                    best = best.max(*v);
                }
            }
        });
        assert_eq!(best, 2, "some interleaving republishes the full fold");

        let mut mem = SimMemory::new();
        let alg = CombiningCounterAlg::cached(&mut mem, 3, 1)
            .abandon_lock(&mut mem)
            .with_recovery();
        let scenario = abandoned_counter_fan_in_scenario();
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        assert!(out.is_refuted(), "recovery does not buy exactness");
        let witness = out.witness().expect("refutation carries a witness");
        validate_witness(&alg, mem, &scenario, witness).expect("witness must replay");
    }
}
