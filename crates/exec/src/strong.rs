//! Strong-linearizability checker.
//!
//! An implementation is *strongly linearizable* \[16\] if there is a
//! function `L` mapping each finite execution to a linearization of it,
//! such that `L` is prefix-closed: if `α` is a prefix of `β` then
//! `L(α)` is a prefix of `L(β)`. Equivalently: once an operation is
//! linearized, its position can never be revised, no matter how the
//! adversary extends the execution.
//!
//! On a bounded scenario (fixed per-process operation lists) the set of
//! executions is a finite tree, and the existence of a prefix-closed
//! `L` is decidable by AND/OR search:
//!
//! ```text
//! feasible(node, lin) :=
//!     (lin is a valid linearization of node's history — invariant)
//!  ∧  for EVERY enabled process step (child node c):
//!         EXISTS an extension σ of lin (ops linearizing *at* this
//!         step, with spec-assigned responses for still-pending ops)
//!         such that feasible(c, lin·σ)
//! ```
//!
//! The implementation is strongly linearizable on the scenario iff
//! `feasible(root, ε)`. Two reductions keep the search off commuting
//! orders (DESIGN.md §7). *Lazy linearization*: a step that forces
//! nothing tries σ = ε only, since linearizing running operations can
//! always wait for the next completion. *Sleep sets*, without a memo
//! only: two steps of different processes that complete nothing
//! commute when their footprints are independent — they touch
//! different cells, or neither changes the cell it touches — so of two
//! such steps only one order is explored. A step's footprint is what
//! its memory recorded ([`SimMemory`]); one that makes more than one
//! operation, allocates or asks about the layout commutes with nothing.
//!
//! The search memoizes on the pair (execution state,
//! linearization-relevant state), which merges schedule prefixes that
//! converged — and the memo is **sound**: states are keyed by a
//! canonical `StateKey` stored by value and compared by
//! equality, never by a bare hash (DESIGN.md §7; a hash collision in
//! the pre-PR-4 scheme could silently flip a verdict, which for a
//! referee is the one unforgivable failure). The explorer itself is an
//! explicit-stack machine, so scenario depth is bounded by heap, not
//! by the thread stack.
//!
//! On refutation the engine re-walks the failing branch — reading
//! memoized verdicts instead of stopping at them — to produce a
//! [`Witness`] whose `path`/`schedule` run from the root to the actual
//! dying step; [`validate_witness`] replays it against the scenario.
//!
//! Scope notes:
//! * Invocations are folded into the invoked operation's first step.
//!   An invocation by itself creates no linearization obligation (the
//!   new operation is pending and `L` need not include it), so folding
//!   loses no violations.
//! * Nondeterministic specifications are supported: the checker tracks
//!   the set of specification states consistent with the chosen
//!   linearization prefix.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;

use sl2_spec::Spec;

use crate::history::{History, OpId};
use crate::machine::{Algorithm, OpMachine, Step};
use crate::mem::{Footprint, SimMemory};
use crate::sched::Scenario;
use crate::table::{FxBuild, SpecTable, StateId, INITIAL};

/// Bits of an [`OpId`] carrying the per-process operation index; the
/// process index occupies the bits above. 32 index bits on 64-bit
/// targets (the pre-PR-4 packing allowed only 1024 operations per
/// process and *panicked* past it).
const OP_INDEX_BITS: u32 = if usize::BITS >= 64 { 32 } else { 16 };

/// Canonical operation identity within a scenario: `(process, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpKey {
    /// Invoking process.
    pub process: usize,
    /// Index within that process's operation list.
    pub index: usize,
}

impl OpKey {
    fn id(self) -> OpId {
        OpId((self.process << OP_INDEX_BITS) | self.index)
    }
}

/// Outcome of a strong-linearizability check.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A prefix-closed linearization function exists on the scenario's
    /// execution tree.
    Certified,
    /// No prefix-closed linearization function exists; the witness is
    /// a branch on which every linearization choice dies.
    Refuted(Witness),
    /// The search could not complete within the engine's limits (node
    /// budget, or an operation index too wide for the [`OpId`]
    /// packing). No semantic claim is made either way;
    /// [`StrongOutcome::nodes`] says how far the search got.
    Bounded,
}

/// Search-shape accounting for one checker run: how the AND/OR search
/// actually spent its budget. Reported unconditionally (no feature
/// gate — the counters ride state the engine already touches) through
/// [`StrongOutcome`] into the corpus records, where they make the
/// memoization claims of DESIGN.md §5 measurable in vivo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Feasible entries answered from the memo table.
    pub memo_hits: usize,
    /// Feasible entries that had to be explored (with memoization off,
    /// every feasible entry is a miss).
    pub memo_misses: usize,
    /// Deepest explicit-stack depth reached (= longest chain of
    /// in-flight frames, bounding the search's memory high-water).
    pub max_depth: usize,
}

impl SearchStats {
    /// Fraction of feasible entries answered from the memo table
    /// (0.0 when nothing was entered).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Result of [`check_strong`]: the verdict plus search-size
/// accounting.
#[derive(Debug, Clone)]
pub struct StrongOutcome {
    /// The verdict.
    pub outcome: Outcome,
    /// Distinct search states explored.
    pub nodes: usize,
    /// Search-shape counters (memo hits/misses, max stack depth).
    pub stats: SearchStats,
}

impl StrongOutcome {
    /// Whether the scenario was certified strongly linearizable.
    pub fn is_certified(&self) -> bool {
        matches!(self.outcome, Outcome::Certified)
    }

    /// Whether the scenario was refuted (a witness exists).
    pub fn is_refuted(&self) -> bool {
        matches!(self.outcome, Outcome::Refuted(_))
    }

    /// Whether the search ran out of budget before deciding.
    pub fn is_bounded(&self) -> bool {
        matches!(self.outcome, Outcome::Bounded)
    }

    /// The refutation witness, when refuted.
    pub fn witness(&self) -> Option<&Witness> {
        match &self.outcome {
            Outcome::Refuted(w) => Some(w),
            _ => None,
        }
    }
}

/// A branch of the execution tree on which every linearization prefix
/// dies: the schedule (events from the root to the dying step) and a
/// human-readable explanation. `schedule[i]` is the process taking
/// step `i`; `path[i]` is the rendered event — [`validate_witness`]
/// replays the former and checks it reproduces the latter.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Event descriptions from the root to the failing step.
    pub path: Vec<String>,
    /// The process scheduled at each step of `path` (replayable form).
    pub schedule: Vec<usize>,
    /// What went wrong at the final step.
    pub detail: String,
}

/// How the search memoizes converged schedule prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoMode {
    /// Sound memoization: canonical `StateKey`s stored by value and
    /// compared by equality. The default.
    Canonical,
    /// No memo table: the execution tree is re-explored at every join,
    /// except that two non-completing steps on independent cells are
    /// explored in one order (sleep sets). Exponentially slower on
    /// racy scenarios; used by the soundness differential tests, where
    /// it pits a different reduction against the memo's, and the
    /// E16/E24 ablations.
    Off,
}

/// Tuning knobs for [`check_strong`].
#[derive(Debug, Clone, Copy)]
pub struct StrongOptions {
    /// Bound on distinct search states. [`check_strong`] returns
    /// [`Outcome::Bounded`] when exceeded.
    pub node_limit: usize,
    /// Memoization mode (see [`MemoMode`]).
    pub memo: MemoMode,
}

impl StrongOptions {
    /// Canonical memoization with the given node budget.
    pub fn with_limit(node_limit: usize) -> Self {
        StrongOptions {
            node_limit,
            memo: MemoMode::Canonical,
        }
    }

    /// Switches between canonical memoization and none (the two sound
    /// modes), keeping the node budget.
    pub fn memoize(mut self, on: bool) -> Self {
        self.memo = if on {
            MemoMode::Canonical
        } else {
            MemoMode::Off
        };
        self
    }
}

/// A bare node limit: [`StrongOptions::with_limit`].
impl From<usize> for StrongOptions {
    fn from(node_limit: usize) -> Self {
        StrongOptions::with_limit(node_limit)
    }
}

impl Default for StrongOptions {
    fn default() -> Self {
        StrongOptions {
            node_limit: 1_000_000,
            memo: MemoMode::Canonical,
        }
    }
}

/// One process's place in its operation list. An operation's lifecycle
/// is read off it: below `invoked - 1` complete, at it active iff
/// `machine` is set (else complete), above it not yet invoked — no
/// per-operation record.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Cursor<M> {
    /// How many of the process's operations have been invoked.
    invoked: usize,
    /// The machine running operation `invoked - 1`, while it runs.
    machine: Option<M>,
}

/// The execution half of a search node: copy-on-write memory and one
/// block of cursors, so a step copies O(processes) plus the memory
/// block it writes.
#[derive(Clone)]
struct ExecState<A: Algorithm> {
    mem: SimMemory,
    procs: Vec<Cursor<A::Machine>>,
}

impl<A: Algorithm> ExecState<A> {
    fn initial(scenario: &Scenario<A::Spec>, mut mem: SimMemory) -> Self {
        mem.freeze();
        let idle = Cursor {
            invoked: 0,
            machine: None,
        };
        ExecState {
            mem,
            procs: vec![idle; scenario.processes()],
        }
    }

    /// Whether process `p` can step: it has a running machine or an
    /// operation left to invoke.
    fn can_step(&self, scenario: &Scenario<A::Spec>, p: usize) -> bool {
        let c = &self.procs[p];
        c.machine.is_some() || c.invoked < scenario.ops[p].len()
    }

    /// The first process at or after `from` that can step and is not in
    /// the sleep mask `asleep`.
    fn next_enabled(
        &self,
        scenario: &Scenario<A::Spec>,
        from: usize,
        asleep: u64,
    ) -> Option<usize> {
        (from..self.procs.len()).find(|&p| asleep & sleep_bit(p) == 0 && self.can_step(scenario, p))
    }

    /// The processes that can step, in process order.
    fn enabled<'s>(&'s self, scenario: &'s Scenario<A::Spec>) -> impl Iterator<Item = usize> + 's {
        (0..self.procs.len()).filter(|&p| self.can_step(scenario, p))
    }
}

/// One linearized `(op, resp)` pair and the prefix before it: a
/// persistent list, so extending a linearization shares the whole
/// prefix instead of copying it.
struct LinNode<S: Spec> {
    op: OpKey,
    resp: S::Resp,
    prev: Option<Rc<LinNode<S>>>,
}

impl<S: Spec> Drop for LinNode<S> {
    /// Unlinks the uniquely owned tail iteratively: prefix length is
    /// bounded by heap, like search depth, not by the thread stack.
    fn drop(&mut self) {
        let mut next = self.prev.take();
        while let Some(mut node) = next.and_then(Rc::into_inner) {
            next = node.prev.take();
        }
    }
}

#[derive(Clone)]
struct LinState<S: Spec> {
    /// Ops already linearized with their (actual or assigned)
    /// responses, newest first; [`LinState::assigned`] renders them in
    /// linearization order.
    last: Option<Rc<LinNode<S>>>,
    len: usize,
    /// Order-erased hash of the prefix's pairs (a wrapping sum), kept
    /// incrementally.
    set_hash: u64,
    /// The prefix's pairs whose op is still running: linearized while
    /// pending, response fixed ahead of the completion. At most one
    /// per process — all a step ever asks the prefix about.
    pending: Vec<(OpKey, S::Resp)>,
    /// Ids of the spec states consistent with the linearization prefix,
    /// deduped, in first-seen order (the order the OR side tries
    /// responses in).
    states: Vec<StateId>,
}

impl<S: Spec> LinState<S> {
    /// The response fixed for `k` when it was linearized while pending.
    fn pending_resp(&self, k: OpKey) -> Option<&S::Resp> {
        self.pending.iter().find(|(a, _)| *a == k).map(|(_, r)| r)
    }

    /// Appends `(k, resp)` if spec-consistent; returns the new state.
    /// `running` says `k` has not completed yet.
    fn extended<'a>(
        &self,
        table: &mut SpecTable<'a, S>,
        k: OpKey,
        op: &'a S::Op,
        resp: &S::Resp,
        running: bool,
    ) -> Option<Self> {
        let mut next_states = Vec::new();
        for &s in &self.states {
            for o in table.outcomes(s, op) {
                let (next, r) = table.outcome(o);
                if r == resp && !next_states.contains(&next) {
                    next_states.push(next);
                }
            }
        }
        if next_states.is_empty() {
            return None;
        }
        let mut pending = self.pending.clone();
        if running {
            pending.push((k, resp.clone()));
        }
        Some(LinState {
            set_hash: self
                .set_hash
                .wrapping_add(FxBuild::default().hash_one((k, resp))),
            last: Some(Rc::new(LinNode {
                op: k,
                resp: resp.clone(),
                prev: self.last.clone(),
            })),
            len: self.len + 1,
            pending,
            states: next_states,
        })
    }

    /// The same linearization once pending-linearized `k` has completed
    /// with the response fixed for it.
    fn completed(&self, k: OpKey) -> Self {
        let mut next = self.clone();
        next.pending.retain(|(a, _)| *a != k);
        next
    }

    /// The prefix in linearization order.
    fn assigned(&self) -> Vec<(OpKey, S::Resp)> {
        let mut out = Vec::with_capacity(self.len);
        let mut node = self.last.as_deref();
        while let Some(n) = node {
            out.push((n.op, n.resp.clone()));
            node = n.prev.as_deref();
        }
        out.reverse();
        out
    }

    /// Whether both prefixes hold the same *set* of `(op, resp)` pairs.
    /// Materializes them only when length and set hash already agree —
    /// in practice, on a memo hit.
    fn same_assigned_set(&self, other: &Self) -> bool {
        if self.len != other.len || self.set_hash != other.set_hash {
            return false;
        }
        match (&self.last, &other.last) {
            (Some(a), Some(b)) if !Rc::ptr_eq(a, b) => {
                let (mut a, mut b) = (self.assigned(), other.assigned());
                a.sort_by_key(|(k, _)| *k);
                b.sort_by_key(|(k, _)| *k);
                a == b
            }
            _ => true,
        }
    }
}

/// Canonical memoization key: the full search state, **shared** with
/// the frame that owns it and compared by **equality**. Hashing only
/// routes to a bucket; a collision costs a comparison, never a verdict.
/// Two nodes merge iff their future behavior is literally identical:
/// same base objects, same machine states, same cursors, same set of
/// linearized `(op, resp)` pairs, same spec-state set (the
/// linearization *order* is deliberately erased — futures depend only
/// on the set and the states it can reach). DESIGN.md §7 has the
/// argument that this is the pre-cursor key's partition exactly.
struct StateKey<A: Algorithm> {
    exec: Rc<ExecState<A>>,
    lin: Rc<LinState<A::Spec>>,
}

impl<A: Algorithm> PartialEq for StateKey<A> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.lin.states, &other.lin.states);
        // Both deduped: equal length and inclusion is set equality.
        a.len() == b.len()
            && a.iter().all(|s| b.contains(s))
            && self.lin.same_assigned_set(&other.lin)
            && self.exec.procs == other.exec.procs
            && self.exec.mem == other.exec.mem
    }
}

impl<A: Algorithm> Eq for StateKey<A> {}

impl<A: Algorithm> Hash for StateKey<A> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.exec.mem.hash(h);
        self.exec.procs.hash(h);
        self.lin.set_hash.hash(h);
        // Order-independent, matching the set comparison above.
        let ids: u64 = self.lin.states.iter().map(|&s| u64::from(s)).sum();
        ids.hash(h);
    }
}

/// Checks strong linearizability of `alg` on `scenario` — the one
/// entry point. The verdict has three outcomes and the caller must
/// read the one it expects: [`StrongOutcome::is_certified`],
/// [`StrongOutcome::is_refuted`] (with [`StrongOutcome::witness`]), or
/// [`Outcome::Bounded`] when the node budget runs out.
///
/// `mem` must be the memory in which the algorithm allocated its base
/// objects (i.e. the state right after `A::new(&mut mem, ...)`).
/// `options` is a [`StrongOptions`], or a bare `usize` node limit with
/// canonical memoization.
pub fn check_strong<A: Algorithm>(
    alg: &A,
    mem: SimMemory,
    scenario: &Scenario<A::Spec>,
    options: impl Into<StrongOptions>,
) -> StrongOutcome {
    // Operation indices must fit the OpId packing; a scenario past it
    // is reported as out of engine bounds, not panicked on.
    if scenario.ops.iter().any(|l| l.len() >= 1 << OP_INDEX_BITS) {
        return StrongOutcome {
            outcome: Outcome::Bounded,
            nodes: 0,
            stats: SearchStats::default(),
        };
    }
    let exec = Rc::new(ExecState::<A>::initial(scenario, mem));
    let lin = Rc::new(LinState::<A::Spec> {
        last: None,
        len: 0,
        set_hash: 0,
        pending: Vec::new(),
        states: vec![INITIAL],
    });
    let mut engine = Engine::new(alg, scenario, options.into());
    let verdict = engine.run_task(SpawnTask::Feasible(
        Rc::clone(&exec),
        Rc::clone(&lin),
        Sleep::default(),
    ));
    // Captured before witness extraction, which re-probes the engine
    // and would otherwise pollute the accounting.
    let (nodes, stats) = (engine.nodes, engine.stats);
    let outcome = match verdict {
        Err(BudgetExhausted) => Outcome::Bounded,
        Ok(true) => Outcome::Certified,
        Ok(false) => Outcome::Refuted(engine.extract_witness(&exec, &lin)),
    };
    StrongOutcome {
        outcome,
        nodes,
        stats,
    }
}

/// Replays `witness.schedule` against `alg` on `scenario` from `mem`
/// (the same initial memory handed to the check) and verifies that
/// every step is enabled and renders exactly `witness.path` — i.e.
/// that the witness describes a real branch of the execution tree, all
/// the way to its final (dying) step.
pub fn validate_witness<A: Algorithm>(
    alg: &A,
    mem: SimMemory,
    scenario: &Scenario<A::Spec>,
    witness: &Witness,
) -> Result<(), String> {
    if witness.schedule.len() != witness.path.len() {
        return Err(format!(
            "schedule has {} steps but path has {} events",
            witness.schedule.len(),
            witness.path.len()
        ));
    }
    let mut exec = ExecState::<A>::initial(scenario, mem);
    for (i, (&p, event)) in witness.schedule.iter().zip(&witness.path).enumerate() {
        if !exec.enabled(scenario).any(|q| q == p) {
            return Err(format!("step {i}: process {p} is not enabled"));
        }
        let (child, completed) = step_child(alg, scenario, &exec, p);
        let label = event_label(scenario, &exec, p, &completed);
        if *event != label {
            return Err(format!(
                "step {i}: witness says {event:?} but replay produces {label:?}"
            ));
        }
        exec = child;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// An operation a step just completed, with its actual response.
type Completion<S> = (OpKey, <S as Spec>::Resp);

/// A step's completion, if it finished an operation.
type Completed<S> = Option<Completion<S>>;

/// A linearization to go on from, with the completion it has yet to
/// include, if any.
type Extension<S> = (Rc<LinState<S>>, Completed<S>);

/// Executes one step of process `p` (invoking its next operation if
/// idle — the caller ensured one remains). Returns the child state and
/// the completion if the step finished an operation. The one writer of
/// the cursors.
fn step_child<A: Algorithm>(
    alg: &A,
    scenario: &Scenario<A::Spec>,
    exec: &ExecState<A>,
    p: usize,
) -> (ExecState<A>, Completed<A::Spec>) {
    let mut child = exec.clone();
    child.mem.take_footprint(); // this step's operations only
    let cursor = &mut child.procs[p];
    let mut machine = cursor.machine.take().unwrap_or_else(|| {
        cursor.invoked += 1;
        alg.machine(p, &scenario.ops[p][cursor.invoked - 1])
    });
    let index = cursor.invoked - 1;
    let completed = match machine.step(&mut child.mem) {
        Step::Pending => {
            child.procs[p].machine = Some(machine);
            None
        }
        Step::Ready(resp) => Some((OpKey { process: p, index }, resp)),
    };
    (child, completed)
}

/// Renders the step `step_child(.., before, p)` took, for witnesses —
/// the search itself never formats a label.
fn event_label<A: Algorithm>(
    scenario: &Scenario<A::Spec>,
    before: &ExecState<A>,
    p: usize,
    completed: &Completed<A::Spec>,
) -> String {
    let cursor = &before.procs[p];
    let mut label = match cursor.machine {
        None => format!("p{p}: invoke {:?}; step", scenario.ops[p][cursor.invoked]),
        Some(_) => format!("p{p}: step"),
    };
    if let Some((_, resp)) = completed {
        label.push_str(&format!(" → {resp:?}"));
    }
    label
}

/// How a step's completion meets the linearization so far: `Ok` with
/// the linearization to extend and the op the extension is forced to
/// include (a completion not linearized yet), or `Err` with a
/// completion whose response contradicts the one fixed for it while it
/// was pending.
fn meet<S: Spec>(
    lin: &Rc<LinState<S>>,
    completed: Completed<S>,
) -> Result<Extension<S>, Completion<S>> {
    let Some((k, r)) = completed else {
        return Ok((Rc::clone(lin), None));
    };
    match lin.pending_resp(k) {
        None => Ok((Rc::clone(lin), Some((k, r)))),
        Some(fixed) if *fixed == r => Ok((Rc::new(lin.completed(k)), None)),
        Some(_) => Err((k, r)),
    }
}

/// Node budget exhausted: unwinds the engine without a verdict.
struct BudgetExhausted;

/// Process `p`'s bit in a sleep mask. Processes from 64 on have none
/// and never sleep: an empty sleep set is the unreduced search.
fn sleep_bit(p: usize) -> u64 {
    if p < 64 {
        1 << p
    } else {
        0
    }
}

/// How many processes a [`Sleep`] set holds at most.
const SLEEPERS: usize = 4;

/// A sleep set (DESIGN.md §7): processes a node does not step, each
/// with the footprint of the non-completing step it would take. Holds
/// at most [`SLEEPERS`]; a process that does not fit stays awake, which
/// is always sound, since a smaller sleep set only explores more.
#[derive(Clone, Copy, Default)]
struct Sleep {
    mask: u64,
    /// The members' footprints, in process order.
    fps: [Footprint; SLEEPERS],
}

impl Sleep {
    fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Adds process `p`, whose step has footprint `fp`, if it has a bit
    /// and there is room.
    fn insert(&mut self, p: usize, fp: Footprint) {
        let (bit, len) = (sleep_bit(p), self.len());
        if bit == 0 || len == SLEEPERS {
            return;
        }
        let rank = (self.mask & (bit - 1)).count_ones() as usize;
        self.fps.copy_within(rank..len, rank + 1);
        self.fps[rank] = fp;
        self.mask |= bit;
    }

    /// The members whose steps commute with a step of footprint `fp`.
    fn independent_of(&self, fp: Footprint) -> Sleep {
        let mut out = Sleep::default();
        let mut rest = self.mask;
        for &member in &self.fps[..self.len()] {
            let bit = rest & rest.wrapping_neg();
            rest ^= bit;
            if member.independent(fp) {
                out.fps[out.len()] = member;
                out.mask |= bit;
            }
        }
        out
    }
}

/// A subproblem the engine can evaluate: the two mutually recursive
/// procedures of the AND/OR search, reified.
enum SpawnTask<A: Algorithm> {
    /// `feasible(exec, lin)` — the AND side — with the sleep set of
    /// processes it need not step.
    Feasible(Rc<ExecState<A>>, Rc<LinState<A::Spec>>, Sleep),
    /// `extensions(child, lin, must)` — the OR side of a step that
    /// completed `must`.
    Ext(Rc<ExecState<A>>, Rc<LinState<A::Spec>>, Completion<A::Spec>),
}

impl<A: Algorithm> SpawnTask<A> {
    /// What a step into `child` asks of the OR side. With nothing
    /// forced σ = ε is the only alternative tried (the laziness lemma,
    /// DESIGN.md §7), so `child` is entered at once with `sleep`; a
    /// completion to linearize opens an OR frame.
    fn after_step(
        child: Rc<ExecState<A>>,
        lin: Rc<LinState<A::Spec>>,
        must: Completed<A::Spec>,
        sleep: Sleep,
    ) -> Self {
        match must {
            None => SpawnTask::Feasible(child, lin, sleep),
            Some(m) => SpawnTask::Ext(child, lin, m),
        }
    }
}

/// AND frame: every enabled step must admit a surviving extension.
struct FeasibleFrame<A: Algorithm> {
    exec: Rc<ExecState<A>>,
    lin: Rc<LinState<A::Spec>>,
    key: Option<StateKey<A>>,
    /// The enabled process whose step is explored now; the AND runs
    /// over enabled processes in process order.
    next: usize,
    /// Processes this frame does not step: each one's next step
    /// completes nothing and commutes with the steps that led here, so
    /// an ancestor already explored its other order. Then, as they are
    /// proven feasible, this frame's own non-completing steps, which
    /// its later steps put to sleep in their children where they
    /// commute; these are all below `next`, so the scan never meets
    /// them. Empty with a memo.
    sleep: Sleep,
    /// The footprint of the step in flight (process `next`'s), or
    /// `None` if it completes an operation or there is a memo.
    step: Option<Footprint>,
}

/// OR frame: some linearization extension σ, which must include the
/// step's completion, keeps the child feasible. Alternatives are every
/// `(candidate, response)` pair, generated lazily.
struct ExtFrame<A: Algorithm> {
    child: Rc<ExecState<A>>,
    lin: Rc<LinState<A::Spec>>,
    /// The op the step just completed, which σ must linearize — with
    /// the response the cursors no longer record.
    must: Completion<A::Spec>,
    /// The candidate being tried, once its responses are loaded.
    cand: Option<OpKey>,
    /// Where the scan for the next candidate resumes.
    next_process: usize,
    /// A running candidate's response options (a completed one has
    /// just its actual response, read off `must`).
    resp_opts: Vec<<A::Spec as Spec>::Resp>,
    resp_i: usize,
}

impl<A: Algorithm> ExtFrame<A> {
    fn new(child: Rc<ExecState<A>>, lin: Rc<LinState<A::Spec>>, must: Completion<A::Spec>) -> Self {
        ExtFrame {
            child,
            lin,
            must,
            cand: None,
            next_process: 0,
            resp_opts: Vec::new(),
            resp_i: 0,
        }
    }

    /// Process `p`'s candidate, if it has one. Candidates are the
    /// invoked, unlinearized ops. A completed op was forced into the
    /// extension of its completing step, so these are `must` and the
    /// running ops not linearized while pending: one per process at
    /// most, tried in process order.
    fn candidate(&self, p: usize) -> Option<OpKey> {
        if self.must.0.process == p {
            return Some(self.must.0);
        }
        let cursor = &self.child.procs[p];
        let k = OpKey {
            process: p,
            index: cursor.invoked.checked_sub(1)?,
        };
        (cursor.machine.is_some() && self.lin.pending_resp(k).is_none()).then_some(k)
    }

    /// The next alternative — the extended linearization, and `must`
    /// while σ has not linearized it yet — or `None` when the OR is
    /// exhausted (the frame then resolves to false).
    fn next_alternative<'a>(
        &mut self,
        table: &mut SpecTable<'a, A::Spec>,
        scenario: &'a Scenario<A::Spec>,
    ) -> Option<Extension<A::Spec>> {
        loop {
            let k = match self.cand {
                Some(k) => k,
                None => {
                    let k = (self.next_process..self.child.procs.len())
                        .find_map(|p| self.candidate(p))?;
                    self.next_process = k.process + 1;
                    self.cand = Some(k);
                    self.resp_i = 0;
                    // Legal responses for linearizing a running `k` now:
                    // every response the spec admits from some
                    // consistent state.
                    self.resp_opts.clear();
                    if k != self.must.0 {
                        let op = &scenario.ops[k.process][k.index];
                        for &s in &self.lin.states {
                            for o in table.outcomes(s, op) {
                                let r = table.outcome(o).1;
                                if !self.resp_opts.contains(r) {
                                    self.resp_opts.push(r.clone());
                                }
                            }
                        }
                    }
                    k
                }
            };
            let op = &scenario.ops[k.process][k.index];
            let actual = (k == self.must.0).then_some(&self.must.1);
            loop {
                let resp = match actual {
                    Some(r) => (self.resp_i == 0).then_some(r),
                    None => self.resp_opts.get(self.resp_i),
                };
                let Some(resp) = resp else { break };
                self.resp_i += 1;
                if let Some(next_lin) = self.lin.extended(table, k, op, resp, actual.is_none()) {
                    // σ ends with `must`: a running op after it would
                    // wait for the next completion anyway (laziness).
                    let still_must = actual.is_none().then(|| self.must.clone());
                    return Some((Rc::new(next_lin), still_must));
                }
            }
            self.cand = None;
        }
    }
}

enum Frame<A: Algorithm> {
    Feasible(FeasibleFrame<A>),
    Ext(ExtFrame<A>),
}

enum Entered<A: Algorithm> {
    Done(bool),
    Frame(FeasibleFrame<A>),
}

/// Probe result while re-walking a refuted branch for its witness.
enum ExtProbe<S: Spec> {
    /// Some extension survives: this schedule step is not the failing
    /// one.
    Survives,
    /// All extensions die and `(child, lin)` is a false feasible leaf:
    /// the refuting schedule continues from there.
    Descend(Rc<LinState<S>>),
    /// All extensions die before reaching any feasible leaf: the
    /// branch dies at this very step.
    DeadEnd,
    /// A verdict probe ran out of node budget.
    Truncated,
}

struct Engine<'a, A: Algorithm> {
    alg: &'a A,
    table: SpecTable<'a, A::Spec>,
    scenario: &'a Scenario<A::Spec>,
    /// `None` with memoization off.
    memo: Option<HashMap<StateKey<A>, bool, FxBuild>>,
    nodes: usize,
    node_limit: usize,
    stats: SearchStats,
}

impl<'a, A: Algorithm> Engine<'a, A> {
    fn new(alg: &'a A, scenario: &'a Scenario<A::Spec>, options: StrongOptions) -> Self {
        Engine {
            alg,
            table: SpecTable::new(alg.spec(), 0),
            scenario,
            memo: (options.memo == MemoMode::Canonical).then(HashMap::default),
            nodes: 0,
            node_limit: options.node_limit,
            stats: SearchStats::default(),
        }
    }

    /// Starts a `feasible` evaluation: resolves terminal and memoized
    /// states immediately, and states whose every enabled step is
    /// asleep; otherwise opens an AND frame.
    fn enter_feasible(
        &mut self,
        exec: Rc<ExecState<A>>,
        lin: Rc<LinState<A::Spec>>,
        sleep: Sleep,
    ) -> Result<Entered<A>, BudgetExhausted> {
        let Some(first) = exec.next_enabled(self.scenario, 0, sleep.mask) else {
            return Ok(Entered::Done(true));
        };
        let key = self.memo.is_some().then(|| StateKey {
            exec: Rc::clone(&exec),
            lin: Rc::clone(&lin),
        });
        if let (Some(map), Some(k)) = (&self.memo, &key) {
            if let Some(&cached) = map.get(k) {
                self.stats.memo_hits += 1;
                return Ok(Entered::Done(cached));
            }
        }
        self.stats.memo_misses += 1;
        self.nodes += 1;
        if self.nodes > self.node_limit {
            return Err(BudgetExhausted);
        }
        Ok(Entered::Frame(FeasibleFrame {
            exec,
            lin,
            key,
            next: first,
            sleep,
            step: None,
        }))
    }

    /// Evaluates one subproblem to a verdict with an explicit frame
    /// stack — the search never recurses, so scenario depth is bounded
    /// by heap, not by the thread stack.
    fn run_task(&mut self, task: SpawnTask<A>) -> Result<bool, BudgetExhausted> {
        let mut stack: Vec<Frame<A>> = Vec::new();
        let mut spawn = Some(task);
        let mut result: Option<bool> = None;
        loop {
            if let Some(task) = spawn.take() {
                match task {
                    SpawnTask::Feasible(e, l, s) => match self.enter_feasible(e, l, s)? {
                        Entered::Done(b) => result = Some(b),
                        Entered::Frame(f) => stack.push(Frame::Feasible(f)),
                    },
                    SpawnTask::Ext(c, l, m) => stack.push(Frame::Ext(ExtFrame::new(c, l, m))),
                }
                // Every push flows through here, so this is the one
                // place the stack high-water needs sampling.
                self.stats.max_depth = self.stats.max_depth.max(stack.len());
            }
            let Some(top) = stack.last_mut() else {
                return Ok(result.expect("root task resolved"));
            };
            match top {
                Frame::Feasible(f) => {
                    let r = result.take();
                    if r == Some(true) {
                        if let Some(fp) = f.step {
                            f.sleep.insert(f.next, fp);
                        }
                        f.next += 1;
                    }
                    let verdict = if r == Some(false) {
                        Some(false) // AND fails: record and propagate.
                    } else if let Some(p) = f.exec.next_enabled(self.scenario, f.next, f.sleep.mask)
                    {
                        f.next = p;
                        let (child, completed) = step_child(self.alg, self.scenario, &f.exec, p);
                        // Sleep sets (DESIGN.md §7): without a memo only —
                        // with one, both orders meet at one key.
                        let unmemoized = completed.is_none() && self.memo.is_none();
                        f.step = unmemoized.then(|| child.mem.take_footprint());
                        match meet(&f.lin, completed) {
                            Ok((lin, must)) => {
                                // A non-completing step's child skips the
                                // sleepers and the siblings already proven
                                // that commute with it (`p` is neither);
                                // a completion's child skips nothing.
                                let sleep = match f.step {
                                    Some(fp) => f.sleep.independent_of(fp),
                                    None => Sleep::default(),
                                };
                                spawn =
                                    Some(SpawnTask::after_step(Rc::new(child), lin, must, sleep));
                                None
                            }
                            // Linearized while pending with a response
                            // that is not what really happened.
                            Err(_) => Some(false),
                        }
                    } else {
                        Some(true)
                    };
                    if let Some(v) = verdict {
                        let Some(Frame::Feasible(f)) = stack.pop() else {
                            unreachable!("matched above");
                        };
                        if let (Some(k), Some(map)) = (f.key, &mut self.memo) {
                            map.insert(k, v);
                        }
                        result = Some(v);
                    }
                }
                Frame::Ext(f) => {
                    if result.take() == Some(true) {
                        stack.pop();
                        result = Some(true);
                        continue;
                    }
                    match f.next_alternative(&mut self.table, self.scenario) {
                        Some((lin, must)) => {
                            spawn = Some(SpawnTask::after_step(
                                Rc::clone(&f.child),
                                lin,
                                must,
                                Sleep::default(),
                            ));
                        }
                        None => {
                            stack.pop();
                            result = Some(false);
                        }
                    }
                }
            }
        }
    }

    /// Verdict oracle for witness extraction: memoized states answer
    /// instantly; unexplored ones are evaluated on the spot.
    fn verdict(
        &mut self,
        exec: &Rc<ExecState<A>>,
        lin: &Rc<LinState<A::Spec>>,
    ) -> Result<bool, BudgetExhausted> {
        self.run_task(SpawnTask::Feasible(
            Rc::clone(exec),
            Rc::clone(lin),
            Sleep::default(),
        ))
    }

    /// Re-walks the refuted tree from the root, *through* memoized
    /// verdicts instead of stopping at them, building the complete
    /// schedule to the dying step. The pre-PR-4 checker reported
    /// whatever path happened to be on the stack when a witness was
    /// first recorded — truncated wherever a cached false was reused,
    /// and sometimes left over from an exploratory OR branch of a
    /// certification.
    fn extract_witness(
        &mut self,
        exec0: &Rc<ExecState<A>>,
        lin0: &Rc<LinState<A::Spec>>,
    ) -> Witness {
        // Replay gets a fresh budget on top of what the search spent;
        // under canonical memoization nearly every probe is a lookup.
        self.node_limit = self.nodes.saturating_add(self.node_limit);
        // Without a sound memo the probes would re-explore subtrees
        // exponentially; replay under a fresh canonical memo instead
        // (memoization does not change verdicts — the differential
        // suite pins that).
        self.memo.get_or_insert_with(HashMap::default);
        let mut path = Vec::new();
        let mut schedule = Vec::new();
        let mut exec = Rc::clone(exec0);
        let mut lin = Rc::clone(lin0);
        loop {
            let parent = Rc::clone(&exec);
            let mut descended = false;
            for p in parent.enabled(self.scenario) {
                let (child, completed) = step_child(self.alg, self.scenario, &parent, p);
                let child = Rc::new(child);
                let label = event_label(self.scenario, &parent, p, &completed);
                let (met, must) = match meet(&lin, completed.clone()) {
                    Ok(met) => met,
                    Err((k, r)) => {
                        path.push(label);
                        schedule.push(p);
                        return Witness {
                            detail: format!(
                                "after this step, op {k:?} completed with {r:?} but it was \
                                 already linearized with {:?} — a prefix-closed L cannot \
                                 revise the choice",
                                lin.pending_resp(k)
                            ),
                            path,
                            schedule,
                        };
                    }
                };
                match self.refute_ext(&child, &met, must) {
                    ExtProbe::Survives => continue,
                    ExtProbe::Descend(next_lin) => {
                        path.push(label);
                        schedule.push(p);
                        exec = child;
                        lin = next_lin;
                        descended = true;
                        break;
                    }
                    ExtProbe::DeadEnd => {
                        path.push(label);
                        schedule.push(p);
                        let detail = match &completed {
                            Some((k, r)) => format!(
                                "after this step, op {k:?} completed with {r:?} but no \
                                 linearization extension of {:?} can accommodate it \
                                 across all futures",
                                lin.assigned()
                            ),
                            None => format!(
                                "no linearization extension of {:?} survives all futures \
                                 of this step",
                                lin.assigned()
                            ),
                        };
                        return Witness {
                            detail,
                            path,
                            schedule,
                        };
                    }
                    ExtProbe::Truncated => {
                        return Witness {
                            detail: "witness truncated: replay budget exhausted".to_string(),
                            path,
                            schedule,
                        };
                    }
                }
            }
            if !descended {
                // Every enabled branch probed feasible — possible only
                // if a probe was inconsistent with the refutation; report
                // it rather than panic.
                return Witness {
                    detail: "witness incomplete: no failing branch found on replay".to_string(),
                    path,
                    schedule,
                };
            }
        }
    }

    /// Decides how the OR side of one schedule step fails, if it does:
    /// with nothing forced σ = ε is the one alternative, otherwise every
    /// extension is enumerated and the first false feasible leaf is the
    /// continuation.
    fn refute_ext(
        &mut self,
        child: &Rc<ExecState<A>>,
        lin: &Rc<LinState<A::Spec>>,
        must: Completed<A::Spec>,
    ) -> ExtProbe<A::Spec> {
        let Some(must) = must else {
            return match self.verdict(child, lin) {
                Ok(true) => ExtProbe::Survives,
                Ok(false) => ExtProbe::Descend(Rc::clone(lin)),
                Err(BudgetExhausted) => ExtProbe::Truncated,
            };
        };
        let mut descend: Option<Rc<LinState<A::Spec>>> = None;
        let mut frame = ExtFrame::new(Rc::clone(child), Rc::clone(lin), must);
        while let Some((next_lin, still_must)) =
            frame.next_alternative(&mut self.table, self.scenario)
        {
            match self.refute_ext(child, &next_lin, still_must) {
                ExtProbe::Survives => return ExtProbe::Survives,
                ExtProbe::Descend(l) => {
                    descend.get_or_insert(l);
                }
                ExtProbe::DeadEnd => {}
                ExtProbe::Truncated => return ExtProbe::Truncated,
            }
        }
        match descend {
            Some(l) => ExtProbe::Descend(l),
            None => ExtProbe::DeadEnd,
        }
    }
}

/// Enumerates every distinct complete history of `alg` on `scenario`
/// (all interleavings), calling `f` on each. Used to check plain
/// linearizability over a whole scenario and for differential tests.
///
/// # Panics
///
/// Panics if more than `limit` histories are produced.
pub fn for_each_history<A: Algorithm>(
    alg: &A,
    mem: SimMemory,
    scenario: &Scenario<A::Spec>,
    limit: usize,
    f: &mut dyn FnMut(&History<A::Spec>),
) {
    let exec = ExecState::<A>::initial(scenario, mem);
    let mut history = History::with_capacity(2 * scenario.total_ops());
    let mut count = 0usize;
    recurse(alg, scenario, &exec, &mut history, &mut count, limit, f);
}

fn recurse<A: Algorithm>(
    alg: &A,
    scenario: &Scenario<A::Spec>,
    exec: &ExecState<A>,
    history: &mut History<A::Spec>,
    count: &mut usize,
    limit: usize,
    f: &mut dyn FnMut(&History<A::Spec>),
) {
    if exec.next_enabled(scenario, 0, 0).is_none() {
        *count += 1;
        assert!(*count <= limit, "history enumeration exceeded {limit}");
        f(history);
        return;
    }
    for p in exec.enabled(scenario) {
        let mut events = 0usize;
        if exec.procs[p].machine.is_none() {
            let index = exec.procs[p].invoked;
            let op = scenario.ops[p][index].clone();
            history.invoke(OpKey { process: p, index }.id(), p, op);
            events += 1;
        }
        let (child, completed) = step_child(alg, scenario, exec, p);
        if let Some((k, resp)) = completed {
            history.ret(k.id(), resp);
            events += 1;
        }
        recurse(alg, scenario, &child, history, count, limit, f);
        for _ in 0..events {
            history.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin::is_linearizable;
    use crate::mem::{ArrayLoc, Cell, Loc};
    use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
    use std::iter;

    /// Max register whose ops are single atomic steps — trivially SL.
    #[derive(Debug, Clone)]
    struct AtomicMax {
        loc: Loc,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum AtomicMaxMachine {
        Write(Loc, u64),
        Read(Loc),
    }

    impl OpMachine for AtomicMaxMachine {
        type Resp = MaxResp;
        fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
            match *self {
                AtomicMaxMachine::Write(loc, v) => {
                    mem.max_write(loc, v);
                    Step::Ready(MaxResp::Ok)
                }
                AtomicMaxMachine::Read(loc) => Step::Ready(MaxResp::Value(mem.max_read(loc))),
            }
        }
    }

    impl Algorithm for AtomicMax {
        type Spec = MaxRegisterSpec;
        type Machine = AtomicMaxMachine;
        fn spec(&self) -> MaxRegisterSpec {
            MaxRegisterSpec
        }
        fn machine(&self, _p: usize, op: &MaxOp) -> AtomicMaxMachine {
            match op {
                MaxOp::Write(v) => AtomicMaxMachine::Write(self.loc, *v),
                MaxOp::Read => AtomicMaxMachine::Read(self.loc),
            }
        }
    }

    /// Non-atomic counter increment (read; write) — not even
    /// linearizable, a fortiori not strongly linearizable.
    #[derive(Debug, Clone)]
    struct RacyCounter {
        loc: Loc,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum RacyMachine {
        IncRead(Loc),
        IncWrite(Loc, u64),
        Read(Loc),
    }

    impl OpMachine for RacyMachine {
        type Resp = CounterResp;
        fn step(&mut self, mem: &mut SimMemory) -> Step<CounterResp> {
            match *self {
                RacyMachine::IncRead(loc) => {
                    let v = mem.read(loc);
                    *self = RacyMachine::IncWrite(loc, v);
                    Step::Pending
                }
                RacyMachine::IncWrite(loc, v) => {
                    mem.write(loc, v + 1);
                    Step::Ready(CounterResp::Ok)
                }
                RacyMachine::Read(loc) => Step::Ready(CounterResp::Value(mem.read(loc))),
            }
        }
    }

    impl Algorithm for RacyCounter {
        type Spec = CounterSpec;
        type Machine = RacyMachine;
        fn spec(&self) -> CounterSpec {
            CounterSpec
        }
        fn machine(&self, _p: usize, op: &CounterOp) -> RacyMachine {
            match op {
                CounterOp::Inc => RacyMachine::IncRead(self.loc),
                CounterOp::Read => RacyMachine::Read(self.loc),
            }
        }
    }

    #[test]
    fn atomic_max_register_is_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = AtomicMax {
            loc: mem.alloc(Cell::AMaxReg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(5)],
            vec![MaxOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 2_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
        assert!(out.nodes > 0);
    }

    #[test]
    fn racy_counter_is_rejected() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter {
            loc: mem.alloc(Cell::Reg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc],
            vec![CounterOp::Inc],
            vec![CounterOp::Read],
        ]);
        // Both memo modes: the increments' first steps are quiet reads,
        // which the memo-off search explores in one order only.
        for memoize in [true, false] {
            let options = StrongOptions::with_limit(2_000_000).memoize(memoize);
            let out = check_strong(&alg, mem.clone(), &scenario, options);
            assert!(out.is_refuted(), "memoize={memoize}: {:?}", out.outcome);
            let w = out.witness().expect("witness on failure");
            assert!(!w.path.is_empty());
            assert_eq!(w.path.len(), w.schedule.len());
            validate_witness(&alg, mem.clone(), &scenario, w).expect("witness must replay");
        }
    }

    /// A counter whose read takes two steps (read, then re-read and
    /// return the second value) and whose increment is one fetch&add:
    /// a read's first step is quiet.
    #[derive(Debug, Clone)]
    struct ReadTwice {
        loc: Loc,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum ReadTwiceMachine {
        Inc(Loc),
        Read { loc: Loc, again: bool },
    }

    impl OpMachine for ReadTwiceMachine {
        type Resp = CounterResp;
        fn step(&mut self, mem: &mut SimMemory) -> Step<CounterResp> {
            match self {
                ReadTwiceMachine::Inc(loc) => {
                    mem.faa(*loc, 1);
                    Step::Ready(CounterResp::Ok)
                }
                ReadTwiceMachine::Read { loc, again } => {
                    let v = mem.read(*loc);
                    if *again {
                        return Step::Ready(CounterResp::Value(v));
                    }
                    *again = true;
                    Step::Pending
                }
            }
        }
    }

    impl Algorithm for ReadTwice {
        type Spec = CounterSpec;
        type Machine = ReadTwiceMachine;
        fn spec(&self) -> CounterSpec {
            CounterSpec
        }
        fn machine(&self, _p: usize, op: &CounterOp) -> ReadTwiceMachine {
            match op {
                CounterOp::Inc => ReadTwiceMachine::Inc(self.loc),
                CounterOp::Read => ReadTwiceMachine::Read {
                    loc: self.loc,
                    again: false,
                },
            }
        }
    }

    /// Memo-off nodes of `ReadTwice` on `ops`, after `idle` processes
    /// with no operations; asserts the check certifies.
    fn read_twice_tree_nodes(idle: usize, ops: &[Vec<CounterOp>]) -> usize {
        let mut mem = SimMemory::new();
        let alg = ReadTwice {
            loc: mem.alloc(Cell::Faa(0)),
        };
        let procs = iter::repeat_n(Vec::new(), idle).chain(ops.iter().cloned());
        let scenario = Scenario::new(procs.collect());
        let options = StrongOptions::with_limit(1_000_000).memoize(false);
        let out = check_strong(&alg, mem, &scenario, options);
        assert!(out.is_certified(), "{idle} idle: {:?}", out.outcome);
        out.nodes
    }

    #[test]
    fn commuting_reads_are_explored_in_one_order() {
        // Three readers race only each other: every first step is quiet,
        // and the memo-off search explores one order of each pair of
        // them. The engine before sleep sets and lazy linearization
        // explored 7 001 nodes here.
        let reads = [CounterOp::Read, CounterOp::Read];
        let nodes =
            read_twice_tree_nodes(0, &[reads.to_vec(), reads.to_vec(), vec![CounterOp::Read]]);
        assert_eq!(nodes, 2_103, "memo-off nodes (7 001 unreduced)");
    }

    #[test]
    fn processes_from_64_on_never_sleep() {
        // The same two readers as processes 0 and 1 and as processes 64
        // and 65: the low pair's quiet steps sleep, the high pair's have
        // no bit in the mask, so it explores the 40 nodes the engine
        // before either reduction explored for both pairs.
        let pair = [
            vec![CounterOp::Read, CounterOp::Read],
            vec![CounterOp::Read],
        ];
        let (low, high) = (
            read_twice_tree_nodes(0, &pair),
            read_twice_tree_nodes(64, &pair),
        );
        assert_eq!(high, 40, "processes 64 and 65");
        assert!(low < high, "processes 0 and 1: {low} nodes");
        assert_eq!(sleep_bit(64), 0);
    }

    /// A planted twin that asks about the layout mid-operation. A
    /// write's first step writes `slots` at index `v`, which nothing
    /// has materialized, and its second writes `v` to `reg` and
    /// completes. A read's first step reads `reg` and records
    /// `flat_len()`; its second returns what it read, or 7, which
    /// nobody writes, if it read 0 after the layout had grown. So a
    /// read's first step between a write's two is a non-linearizable
    /// history. It touches a different cell than the write's first
    /// step, yet does not commute with it.
    #[derive(Debug, Clone)]
    struct LayoutReader {
        reg: Loc,
        slots: ArrayLoc,
        len: usize,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum LayoutMachine {
        Read {
            reg: Loc,
            len: usize,
            seen: Option<(u64, usize)>,
        },
        Write {
            reg: Loc,
            slots: ArrayLoc,
            v: u64,
            marked: bool,
        },
    }

    impl OpMachine for LayoutMachine {
        type Resp = MaxResp;
        fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
            match self {
                LayoutMachine::Read { reg, len, seen } => match *seen {
                    None => {
                        *seen = Some((mem.read(*reg), mem.flat_len()));
                        Step::Pending
                    }
                    Some((0, now)) if now > *len => Step::Ready(MaxResp::Value(7)),
                    Some((v, _)) => Step::Ready(MaxResp::Value(v)),
                },
                LayoutMachine::Write {
                    reg,
                    slots,
                    v,
                    marked,
                } => {
                    if *marked {
                        mem.write(*reg, *v);
                        return Step::Ready(MaxResp::Ok);
                    }
                    mem.write_at(*slots, *v as usize, *v);
                    *marked = true;
                    Step::Pending
                }
            }
        }
    }

    impl Algorithm for LayoutReader {
        type Spec = MaxRegisterSpec;
        type Machine = LayoutMachine;
        fn spec(&self) -> MaxRegisterSpec {
            MaxRegisterSpec
        }
        fn machine(&self, _p: usize, op: &MaxOp) -> LayoutMachine {
            match op {
                MaxOp::Write(v) => LayoutMachine::Write {
                    reg: self.reg,
                    slots: self.slots,
                    v: *v,
                    marked: false,
                },
                MaxOp::Read => LayoutMachine::Read {
                    reg: self.reg,
                    len: self.len,
                    seen: None,
                },
            }
        }
    }

    #[test]
    fn a_step_that_reads_the_layout_commutes_with_nothing() {
        // The reader is process 0, so its first step is explored first.
        // Were its footprint only the register it read, the writer's
        // first step would put it to sleep until the writer completed,
        // and the memo-off search, never seeing the order that returns
        // 7, would certify.
        let mut mem = SimMemory::new();
        let reg = mem.alloc(Cell::Reg(0));
        let slots = mem.alloc_array(Cell::Reg(0));
        let alg = LayoutReader {
            reg,
            slots,
            len: mem.flat_len(),
        };
        let scenario = Scenario::new(vec![vec![MaxOp::Read], vec![MaxOp::Write(2)]]);
        for memoize in [true, false] {
            let options = StrongOptions::with_limit(10_000).memoize(memoize);
            let out = check_strong(&alg, mem.clone(), &scenario, options);
            assert!(out.is_refuted(), "memoize={memoize}: {:?}", out.outcome);
            let w = out.witness().expect("witness on failure");
            validate_witness(&alg, mem.clone(), &scenario, w).expect("witness must replay");
        }
    }

    #[test]
    fn racy_counter_has_a_non_linearizable_history() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter {
            loc: mem.alloc(Cell::Reg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]);
        let mut bad = 0usize;
        let mut total = 0usize;
        for_each_history(&alg, mem, &scenario, 1_000_000, &mut |h| {
            total += 1;
            if !is_linearizable(&CounterSpec, h) {
                bad += 1;
            }
        });
        assert!(total > 0);
        assert!(bad > 0, "the lost update must surface in some history");
    }

    #[test]
    fn atomic_max_register_histories_all_linearizable() {
        let mut mem = SimMemory::new();
        let alg = AtomicMax {
            loc: mem.alloc(Cell::AMaxReg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(3), MaxOp::Read],
            vec![MaxOp::Write(1), MaxOp::Read],
        ]);
        for_each_history(&alg, mem, &scenario, 1_000_000, &mut |h| {
            assert!(is_linearizable(&MaxRegisterSpec, h));
        });
    }

    #[test]
    fn memoization_ablation_agrees_and_saves_states() {
        // Same verdicts with and without the state-keyed DAG; the
        // tree mode re-explores joins, so it visits at least as many
        // states (strictly more on racy scenarios).
        let mut mem = SimMemory::new();
        let alg = AtomicMax {
            loc: mem.alloc(Cell::AMaxReg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(5)],
            vec![MaxOp::Read],
        ]);
        let dag = check_strong(&alg, mem.clone(), &scenario, 4_000_000);
        let tree = check_strong(
            &alg,
            mem,
            &scenario,
            StrongOptions::with_limit(4_000_000).memoize(false),
        );
        assert!(dag.is_certified() && tree.is_certified());
        assert!(
            tree.nodes > dag.nodes,
            "tree {} vs dag {}",
            tree.nodes,
            dag.nodes
        );

        let mut mem = SimMemory::new();
        let alg = RacyCounter {
            loc: mem.alloc(Cell::Reg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc],
            vec![CounterOp::Inc],
            vec![CounterOp::Read],
        ]);
        let dag = check_strong(&alg, mem.clone(), &scenario, 4_000_000);
        let tree = check_strong(
            &alg,
            mem,
            &scenario,
            StrongOptions::with_limit(4_000_000).memoize(false),
        );
        assert!(dag.is_refuted() && tree.is_refuted());
    }

    #[test]
    fn node_budget_reports_bounded_instead_of_panicking() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter {
            loc: mem.alloc(Cell::Reg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc],
            vec![CounterOp::Inc],
            vec![CounterOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 3);
        assert!(out.is_bounded(), "{:?}", out.outcome);
        assert!(out.nodes >= 3);
    }

    #[test]
    fn scenarios_past_1024_ops_per_process_now_check() {
        // The pre-PR-4 OpId packing panicked on >1024 ops per process;
        // the widened packing takes a 1100-op solo tower in stride —
        // and the explicit-stack engine keeps depth off the thread
        // stack. At 4096 ops the linearization prefix is as long: it
        // is shared, not copied per node, and unlinked iteratively.
        for height in [1100usize, 4096] {
            let mut mem = SimMemory::new();
            let alg = AtomicMax {
                loc: mem.alloc(Cell::AMaxReg(0)),
            };
            let ops: Vec<MaxOp> = (0..height)
                .map(|i| {
                    if i % 5 == 4 {
                        MaxOp::Read
                    } else {
                        MaxOp::Write(i as u64)
                    }
                })
                .collect();
            let scenario = Scenario::new(vec![ops]);
            let out = check_strong(&alg, mem, &scenario, 4_000_000);
            assert!(out.is_certified(), "{height}: {:?}", out.outcome);
            assert!(out.nodes >= height);
        }
    }

    // -----------------------------------------------------------------
    // The memo-soundness regression: deliberately hash-colliding spec
    // states. `Colliding`'s Hash impl is constant (legal — the Hash
    // contract only requires equal values to hash equally), so every
    // state collides in the spec table's interner and every spec-state
    // set would collide under a memo keyed by hash alone. The
    // last-writer spec checked against a max-register machine is
    // genuinely NOT strongly linearizable (schedule Write(2) to
    // completion before Write(1) is invoked: L = [Write 2] is forced,
    // then [Write 2, Write 1] — but a later Read returns 2, the
    // register's max, contradicting spec state 1). A hash-keyed memo
    // conflates the {state 2} and {state 1} nodes at the converged
    // execution state and certifies; equality-checked keys refute.
    // -----------------------------------------------------------------

    /// Last-writer register state with a deliberately degenerate Hash.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u64);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            0u64.hash(state);
        }
    }

    /// Last-writer (ordinary) register spec over `MaxOp`/`MaxResp`.
    #[derive(Debug, Clone)]
    struct LastWriteSpec;

    impl Spec for LastWriteSpec {
        type State = Colliding;
        type Op = MaxOp;
        type Resp = MaxResp;

        fn initial(&self) -> Colliding {
            Colliding(0)
        }

        fn step(&self, s: &Colliding, op: &MaxOp) -> Vec<(Colliding, MaxResp)> {
            match op {
                MaxOp::Write(v) => vec![(Colliding(*v), MaxResp::Ok)],
                MaxOp::Read => vec![(s.clone(), MaxResp::Value(s.0))],
            }
        }
    }

    /// The max-register machine judged against the last-writer spec.
    #[derive(Debug, Clone)]
    struct MaxVsLastWrite {
        loc: Loc,
    }

    impl Algorithm for MaxVsLastWrite {
        type Spec = LastWriteSpec;
        type Machine = AtomicMaxMachine;
        fn spec(&self) -> LastWriteSpec {
            LastWriteSpec
        }
        fn machine(&self, _p: usize, op: &MaxOp) -> AtomicMaxMachine {
            match op {
                MaxOp::Write(v) => AtomicMaxMachine::Write(self.loc, *v),
                MaxOp::Read => AtomicMaxMachine::Read(self.loc),
            }
        }
    }

    fn collider_scenario() -> (SimMemory, MaxVsLastWrite, Scenario<LastWriteSpec>) {
        let mut mem = SimMemory::new();
        let alg = MaxVsLastWrite {
            loc: mem.alloc(Cell::AMaxReg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(1)],
            vec![MaxOp::Write(2)],
            vec![MaxOp::Read],
        ]);
        (mem, alg, scenario)
    }

    #[test]
    fn canonical_memo_is_immune_to_hash_collisions() {
        // Equality-checked keys and an interner that compares states:
        // correct refutation, agreeing with the memo-free search, whose
        // witness replays too.
        let (mem, alg, scenario) = collider_scenario();
        let canonical = check_strong(&alg, mem.clone(), &scenario, 1_000_000);
        assert!(canonical.is_refuted(), "{:?}", canonical.outcome);
        let tree = check_strong(
            &alg,
            mem.clone(),
            &scenario,
            StrongOptions::with_limit(1_000_000).memoize(false),
        );
        assert!(tree.is_refuted(), "{:?}", tree.outcome);
        let w = canonical.witness().expect("refutation carries a witness");
        validate_witness(&alg, mem.clone(), &scenario, w).expect("witness must replay");
        let w = tree
            .witness()
            .expect("the memo-off refutation carries one too");
        validate_witness(&alg, mem, &scenario, w).expect("memo-off witness must replay");
    }

    #[test]
    fn witness_extends_to_the_dying_step() {
        // The refuting branch needs Write(2) complete, then Write(1)
        // complete, then the Read observing the max — three steps. The
        // pre-PR-4 checker could stop the path wherever a cached false
        // was reused; the replayed witness always reaches the step
        // whose completion no linearization extension survives.
        let (mem, alg, scenario) = collider_scenario();
        let out = check_strong(&alg, mem.clone(), &scenario, 1_000_000);
        let w = out.witness().expect("refuted");
        assert_eq!(w.path.len(), 3, "complete branch: {:?}", w.path);
        assert!(
            w.path.last().expect("non-empty").contains("→"),
            "the dying step is a completion: {:?}",
            w.path
        );
        validate_witness(&alg, mem, &scenario, w).expect("witness must replay");
    }

    #[test]
    fn memo_modes_agree_on_sound_configurations() {
        // Canonical and Off must always agree.
        let mut mem = SimMemory::new();
        let alg = AtomicMax {
            loc: mem.alloc(Cell::AMaxReg(0)),
        };
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(5)],
        ]);
        for memoize in [true, false] {
            let out = check_strong(
                &alg,
                mem.clone(),
                &scenario,
                StrongOptions::with_limit(4_000_000).memoize(memoize),
            );
            assert!(out.is_certified());
        }
    }

    /// The max-register spec, counting the calls a check makes into it.
    #[derive(Debug, Clone, Default)]
    struct CountingSpec {
        steps: Rc<std::cell::Cell<usize>>,
        accepts: Rc<std::cell::Cell<usize>>,
    }

    impl Spec for CountingSpec {
        type State = u64;
        type Op = MaxOp;
        type Resp = MaxResp;

        fn initial(&self) -> u64 {
            MaxRegisterSpec.initial()
        }

        fn step(&self, s: &u64, op: &MaxOp) -> Vec<(u64, MaxResp)> {
            self.steps.set(self.steps.get() + 1);
            MaxRegisterSpec.step(s, op)
        }

        fn accept(&self, s: &u64, op: &MaxOp, resp: &MaxResp) -> Vec<u64> {
            self.accepts.set(self.accepts.get() + 1);
            MaxRegisterSpec.accept(s, op, resp)
        }
    }

    /// [`AtomicMax`] judged against the [`CountingSpec`].
    #[derive(Debug, Clone)]
    struct CountedMax {
        inner: AtomicMax,
        spec: CountingSpec,
    }

    impl Algorithm for CountedMax {
        type Spec = CountingSpec;
        type Machine = AtomicMaxMachine;
        fn spec(&self) -> CountingSpec {
            self.spec.clone()
        }
        fn machine(&self, p: usize, op: &MaxOp) -> AtomicMaxMachine {
            self.inner.machine(p, op)
        }
    }

    #[test]
    fn a_check_asks_the_spec_once_per_state_and_op() {
        // The spec table's promise: `Spec::step` once per distinct
        // `(state, op)` whatever the scenario's length, and never
        // `Spec::accept`. The Write(2)/Read tower reaches states 0 and 2:
        // three transitions.
        let calls = |height: usize| {
            let mut mem = SimMemory::new();
            let alg = CountedMax {
                inner: AtomicMax {
                    loc: mem.alloc(Cell::AMaxReg(0)),
                },
                spec: CountingSpec::default(),
            };
            let ops = [MaxOp::Write(2), MaxOp::Read];
            let scenario = Scenario::new(vec![ops.iter().copied().cycle().take(height).collect()]);
            let out = check_strong(&alg, mem, &scenario, 1_000_000);
            assert!(out.is_certified(), "{height}: {:?}", out.outcome);
            (alg.spec.steps.get(), alg.spec.accepts.get())
        };
        let (short, tall) = (calls(64), calls(1100));
        assert_eq!((short, tall), ((3, 0), (3, 0)), "(step, accept) calls");
    }
}
