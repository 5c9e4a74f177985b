//! Schedulers and the execution runner.
//!
//! The paper's adversary is the scheduler: it decides which process
//! takes the next step and may crash processes at any time. A
//! [`Scheduler`] picks among enabled processes; [`run`] drives an
//! [`Algorithm`] over a [`Scenario`] under a scheduler and produces the
//! resulting [`History`] plus progress metrics (per-operation step
//! counts, used by the wait-freedom/lock-freedom experiments).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sl2_spec::Spec;

use crate::history::{History, OpId};
use crate::machine::{Algorithm, OpMachine, Step};
use crate::mem::SimMemory;

/// Per-process operation lists: process `i` executes `ops[i]` in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario<S: Spec> {
    /// One operation list per process.
    pub ops: Vec<Vec<S::Op>>,
}

impl<S: Spec> Scenario<S> {
    /// Creates a scenario from per-process operation lists.
    pub fn new(ops: Vec<Vec<S::Op>>) -> Self {
        Scenario { ops }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.ops.len()
    }

    /// Total number of operations.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }
}

/// Picks which enabled process steps next.
pub trait Scheduler {
    /// Chooses one element of `enabled` (indices of processes that can
    /// take a step). `enabled` is never empty.
    fn pick(&mut self, enabled: &[usize]) -> usize;
}

/// Cycles through processes in index order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: Option<usize>,
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        let next = match self.last {
            None => enabled[0],
            Some(last) => *enabled.iter().find(|&&p| p > last).unwrap_or(&enabled[0]),
        };
        self.last = Some(next);
        next
    }
}

/// Uniformly random scheduling — the strong adversary's coin-flipping
/// counterpart used by the randomized differential tests.
#[derive(Debug, Clone)]
pub struct RandomSched {
    rng: StdRng,
}

impl RandomSched {
    /// Creates a random scheduler from a seed (deterministic replay).
    pub fn seeded(seed: u64) -> Self {
        RandomSched {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomSched {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        enabled[self.rng.gen_range(0..enabled.len())]
    }
}

/// Adversarial scheduler that runs one process for a random burst
/// before switching: the "stall one process, sprint another" pattern
/// that exposes future-dependent linearizations (e.g. the AGM stack's
/// agreement violations in experiment E10). Uniform step-level
/// randomness almost never produces such schedules; bursts make them
/// common.
#[derive(Debug, Clone)]
pub struct BurstSched {
    rng: StdRng,
    current: Option<usize>,
    remaining: u32,
    max_burst: u32,
}

impl BurstSched {
    /// Creates a burst scheduler with bursts of 1..=`max_burst` steps.
    pub fn seeded(seed: u64, max_burst: u32) -> Self {
        BurstSched {
            rng: StdRng::seed_from_u64(seed),
            current: None,
            remaining: 0,
            max_burst: max_burst.max(1),
        }
    }
}

impl Scheduler for BurstSched {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        if self.remaining > 0 {
            if let Some(p) = self.current {
                if enabled.contains(&p) {
                    self.remaining -= 1;
                    return p;
                }
            }
        }
        let p = enabled[self.rng.gen_range(0..enabled.len())];
        self.current = Some(p);
        self.remaining = self.rng.gen_range(0..self.max_burst);
        p
    }
}

/// Replays an explicit process sequence (e.g. a checker witness). When
/// the scripted process is not enabled (or the script is exhausted),
/// falls back to the lowest enabled index.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    script: Vec<usize>,
    at: usize,
}

impl FixedSchedule {
    /// Creates a scheduler replaying `script`.
    pub fn new(script: Vec<usize>) -> Self {
        FixedSchedule { script, at: 0 }
    }
}

impl Scheduler for FixedSchedule {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        while self.at < self.script.len() {
            let p = self.script[self.at];
            self.at += 1;
            if enabled.contains(&p) {
                return p;
            }
        }
        enabled[0]
    }
}

/// Crash plan: process `i` halts permanently after `limits[i]` steps
/// (`None` = never crashes). Models the paper's crash failures.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    limits: Vec<Option<u64>>,
}

impl CrashPlan {
    /// No crashes.
    pub fn none(n: usize) -> Self {
        CrashPlan {
            limits: vec![None; n],
        }
    }

    /// Crashes process `p` after it has taken `steps` steps.
    pub fn crash_after(mut self, p: usize, steps: u64) -> Self {
        self.limits[p] = Some(steps);
        self
    }

    fn alive(&self, p: usize, taken: u64) -> bool {
        match self.limits.get(p).copied().flatten() {
            None => true,
            Some(limit) => taken < limit,
        }
    }
}

/// Outcome of running a scenario: the history, final memory, and
/// per-operation step counts.
#[derive(Debug, Clone)]
pub struct Execution<S: Spec> {
    /// The invocation/response history.
    pub history: History<S>,
    /// Final shared memory.
    pub mem: SimMemory,
    /// `(op id, steps it took)` for every completed operation.
    pub op_steps: Vec<(OpId, u64)>,
    /// Steps taken by each process.
    pub proc_steps: Vec<u64>,
}

impl<S: Spec> Execution<S> {
    /// Maximum steps any completed operation took (wait-freedom bound).
    pub fn max_op_steps(&self) -> u64 {
        self.op_steps.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }
}

/// Runs `alg` over `scenario` on `mem`, scheduling with `sched` and
/// crashing per `crashes`. Returns when no live process can take a
/// step (all ops done, or the only owners of remaining ops crashed).
///
/// A run allocates per run, never per step: one `enabled` buffer is
/// refilled each step, machines step in place, and the history and
/// step counts are sized from [`Scenario::total_ops`] up front.
pub fn run<A: Algorithm>(
    alg: &A,
    mut mem: SimMemory,
    scenario: &Scenario<A::Spec>,
    sched: &mut dyn Scheduler,
    crashes: &CrashPlan,
) -> Execution<A::Spec> {
    let n = scenario.processes();
    let total = scenario.total_ops();
    // Every op invokes once and returns at most once.
    let mut history = History::with_capacity(2 * total);
    let mut next_op_idx = vec![0usize; n];
    let mut active: Vec<Option<(OpId, A::Machine, u64)>> = (0..n).map(|_| None).collect();
    let mut proc_steps = vec![0u64; n];
    let mut op_steps = Vec::with_capacity(total);
    let mut enabled = Vec::with_capacity(n);
    let mut next_id = 0usize;

    loop {
        enabled.clear();
        enabled.extend((0..n).filter(|&p| {
            crashes.alive(p, proc_steps[p])
                && (active[p].is_some() || next_op_idx[p] < scenario.ops[p].len())
        }));
        if enabled.is_empty() {
            break;
        }
        let p = sched.pick(&enabled);
        assert!(enabled.contains(&p), "scheduler picked a disabled process");

        let (id, machine, taken) = active[p].get_or_insert_with(|| {
            let op = scenario.ops[p][next_op_idx[p]].clone();
            next_op_idx[p] += 1;
            let id = OpId(next_id);
            next_id += 1;
            let machine = alg.machine(p, &op);
            history.invoke(id, p, op);
            (id, machine, 0)
        });
        proc_steps[p] += 1;
        *taken += 1;
        if let Step::Ready(resp) = machine.step(&mut mem) {
            history.ret(*id, resp);
            op_steps.push((*id, *taken));
            active[p] = None;
        }
    }

    Execution {
        history,
        mem,
        op_steps,
        proc_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Event;
    use crate::machine::Step;
    use crate::mem::{Cell, Loc};
    use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};

    /// A deliberately racy counter: read then write (not atomic).
    #[derive(Debug, Clone)]
    struct RacyCounter {
        loc: Loc,
    }

    impl RacyCounter {
        fn new(mem: &mut SimMemory) -> Self {
            RacyCounter {
                loc: mem.alloc(Cell::Reg(0)),
            }
        }
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

        fn machine(&self, _process: usize, op: &CounterOp) -> RacyMachine {
            match op {
                CounterOp::Inc => RacyMachine::IncRead(self.loc),
                CounterOp::Read => RacyMachine::Read(self.loc),
            }
        }
    }

    fn scenario() -> Scenario<CounterSpec> {
        Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ])
    }

    #[test]
    fn round_robin_completes_all_ops() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter::new(&mut mem);
        let exec = run(
            &alg,
            mem,
            &scenario(),
            &mut RoundRobin::default(),
            &CrashPlan::none(2),
        );
        assert_eq!(exec.history.complete_ops().len(), 3);
        assert!(exec.history.is_well_formed());
        // Round-robin interleaves the two incs: the race loses one update.
        let reads: Vec<_> = exec
            .history
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Return {
                    resp: CounterResp::Value(v),
                    ..
                } => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec![1], "lost update under round-robin");
    }

    #[test]
    fn random_schedules_are_reproducible() {
        let run_once = |seed| {
            let mut mem = SimMemory::new();
            let alg = RacyCounter::new(&mut mem);
            run(
                &alg,
                mem,
                &scenario(),
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(2),
            )
            .history
        };
        assert_eq!(run_once(42), run_once(42));
    }

    #[test]
    fn crash_leaves_operation_pending() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter::new(&mut mem);
        // p1 crashes after its first step (mid-Inc).
        let exec = run(
            &alg,
            mem,
            &scenario(),
            &mut RoundRobin::default(),
            &CrashPlan::none(2).crash_after(1, 1),
        );
        assert_eq!(exec.history.pending_ops().len(), 1);
        assert_eq!(exec.history.pending_ops()[0].process, 1);
        assert_eq!(exec.history.complete_ops().len(), 2);
    }

    #[test]
    fn fixed_schedule_replays_exactly() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter::new(&mut mem);
        // p0 runs its Inc fully, then p1, then p0's read: sequential.
        let exec = run(
            &alg,
            mem,
            &scenario(),
            &mut FixedSchedule::new(vec![0, 0, 1, 1, 0]),
            &CrashPlan::none(2),
        );
        let reads: Vec<_> = exec
            .history
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Return {
                    resp: CounterResp::Value(v),
                    ..
                } => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec![2], "sequential schedule sees both increments");
    }

    #[test]
    fn step_counts_are_recorded() {
        let mut mem = SimMemory::new();
        let alg = RacyCounter::new(&mut mem);
        let exec = run(
            &alg,
            mem,
            &scenario(),
            &mut RoundRobin::default(),
            &CrashPlan::none(2),
        );
        assert_eq!(exec.max_op_steps(), 2); // Inc takes 2 steps
        assert_eq!(exec.proc_steps.iter().sum::<u64>(), 5);
    }
}
