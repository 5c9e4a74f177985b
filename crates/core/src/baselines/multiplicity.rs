//! Queue and stack **with multiplicity** from read/write registers, in
//! the style of Castañeda–Rajsbaum–Raynal \[11\] — linearizable with
//! respect to the relaxed specifications of §5, **not** strongly
//! linearizable.
//!
//! The paper (§1) notes that "the read/write lock-free and wait-free
//! (relaxed) queue and stack implementations with multiplicity in \[11\]"
//! are not strongly linearizable — indeed §5 proves queues and stacks
//! with multiplicity are 1-ordering objects (Definition 11), so *no*
//! lock-free strongly-linearizable implementation exists even from
//! test&set, swap and fetch&add, let alone from registers. This module
//! provides the executable positive/negative pair:
//!
//! * every history of the bounded scenarios is linearizable w.r.t.
//!   [`MultiplicityQueueSpec`] / [`MultiplicityStackSpec`] (the
//!   duplication windows are exactly the concurrent ones), and
//! * the strong-linearizability checker refutes prefix-closedness with
//!   a witness of the same shape as the AGM-stack counterexample: two
//!   racing enqueues whose collect-based timestamps tie, so the
//!   linearization order of a *completed* enqueue still depends on the
//!   future steps of a pending one.
//!
//! Construction (read/write only, both objects):
//!
//! * `Token[i]` — SWMR register holding `p_i`'s latest timestamp.
//! * `Items[i]` — SWMR append-only list of `p_i`'s published items,
//!   each packed as `(timestamp, value)`.
//! * `Taken[p]` — SWMR append-only list of item ids consumed by `p`.
//!
//! `enq(v)`/`push(v)`: find own next free slot, collect all tokens,
//! `t := max + 1`, write `Token[i] := t`, publish `(t, v)`. Wait-free in
//! `n + 3` steps (after the own-slot probe).
//!
//! `deq()`/`pop()`: collect all `Taken` lists, then collect all tokens
//! to obtain an **eligibility bound** `B` (the max timestamp), then
//! collect all `Items` lists; among published-but-not-taken items with
//! timestamp `≤ B` pick the **smallest** `(t, process, slot)` for the
//! queue, the **largest** for the stack; append its id to own
//! `Taken[p]` and return it, or report `Empty` at the final collect
//! read. Wait-free. Two dequeues can return the same item only if
//! their collect/mark windows overlap — the multiplicity relaxation.
//!
//! The bound is what makes the non-atomic item collect linearizable:
//! an item with `t > B` has a token write that follows the remover's
//! own token read, so its insert overlaps the remove and may be
//! linearized after it; conversely every item whose insert completed
//! before the remove began is both eligible and visible. Without the
//! bound there is a genuine new/old inversion (a remove that misses an
//! old item but returns a real-time-later one) — kept as a regression
//! test below, found by the linearizability checker.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, Loc, SimMemory};
use sl2_spec::fifo::{QueueOp, QueueResp, StackOp, StackResp};
use sl2_spec::relaxed::{MultiplicityQueueSpec, MultiplicityStackSpec};

/// Bits reserved for the value in a packed `Items` entry.
const VAL_BITS: u32 = 20;
/// Values (and `value + 1`) must fit in [`VAL_BITS`] bits.
const MAX_VALUE: u64 = (1 << VAL_BITS) - 2;

fn pack_item(ts: u64, v: u64) -> u64 {
    assert!(
        v <= MAX_VALUE,
        "multiplicity baseline supports values ≤ {MAX_VALUE}"
    );
    (ts << VAL_BITS) | (v + 1)
}

fn unpack_item(raw: u64) -> (u64, u64) {
    debug_assert_ne!(raw, 0);
    (raw >> VAL_BITS, (raw & ((1 << VAL_BITS) - 1)) - 1)
}

/// Identifier of a published item: enqueuing process + slot.
fn item_id(process: u64, slot: u64) -> u64 {
    (process << 32) | slot
}

/// Shared base-object layout common to the queue and the stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MultLayout {
    n: usize,
    token: Vec<Loc>,
    items: Vec<ArrayLoc>,
    taken: Vec<ArrayLoc>,
}

impl MultLayout {
    fn new(mem: &mut SimMemory, n: usize) -> Self {
        MultLayout {
            n,
            token: (0..n).map(|_| mem.alloc(Cell::Reg(0))).collect(),
            items: (0..n).map(|_| mem.alloc_array(Cell::Reg(0))).collect(),
            taken: (0..n).map(|_| mem.alloc_array(Cell::Reg(0))).collect(),
        }
    }
}

/// Which end of the timestamp order a remove operation consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TakePolicy {
    /// Queue: take the oldest item (smallest `(t, process, slot)`).
    Oldest,
    /// Stack: take the youngest item (largest `(t, process, slot)`).
    Youngest,
}

/// Phases of the insert (`enq`/`push`) machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum InsertPhase {
    /// Probing own `Items[p]` for the next free slot.
    FindSlot { k: u64 },
    /// Collecting `Token[j]`, tracking the maximum.
    Collect { slot: u64, j: usize, max: u64 },
    /// Writing `Token[p] := max + 1`.
    WriteToken { slot: u64, ts: u64 },
    /// Publishing the packed item.
    Publish { slot: u64, ts: u64 },
}

/// Step machine for `enq`/`push` (shared between queue and stack).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InsertMachine {
    layout: MultLayout,
    p: usize,
    v: u64,
    phase: InsertPhase,
}

impl InsertMachine {
    fn new(layout: MultLayout, p: usize, v: u64) -> Self {
        InsertMachine {
            layout,
            p,
            v,
            phase: InsertPhase::FindSlot { k: 0 },
        }
    }

    /// One base-object step; `Some(())` when the insert completed.
    fn step(&mut self, mem: &mut SimMemory) -> Option<()> {
        match self.phase {
            InsertPhase::FindSlot { k } => {
                if mem.read_at(self.layout.items[self.p], k as usize) == 0 {
                    self.phase = InsertPhase::Collect {
                        slot: k,
                        j: 0,
                        max: 0,
                    };
                } else {
                    self.phase = InsertPhase::FindSlot { k: k + 1 };
                }
                None
            }
            InsertPhase::Collect { slot, j, max } => {
                let max = max.max(mem.read(self.layout.token[j]));
                if j + 1 == self.layout.n {
                    self.phase = InsertPhase::WriteToken { slot, ts: max + 1 };
                } else {
                    self.phase = InsertPhase::Collect {
                        slot,
                        j: j + 1,
                        max,
                    };
                }
                None
            }
            InsertPhase::WriteToken { slot, ts } => {
                mem.write(self.layout.token[self.p], ts);
                self.phase = InsertPhase::Publish { slot, ts };
                None
            }
            InsertPhase::Publish { slot, ts } => {
                mem.write_at(
                    self.layout.items[self.p],
                    slot as usize,
                    pack_item(ts, self.v),
                );
                Some(())
            }
        }
    }
}

/// Phases of the remove (`deq`/`pop`) machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RemovePhase {
    /// Collecting all `Taken[j]` lists.
    ScanTaken { j: usize, k: u64 },
    /// Collecting all tokens: the eligibility bound is their maximum.
    CollectBound { j: usize, bound: u64 },
    /// Collecting all `Items[j]` lists, tracking the best candidate
    /// among items with timestamp ≤ the bound.
    ScanItems {
        j: usize,
        k: u64,
        bound: u64,
        /// Best untaken eligible candidate: `(ts, process, slot, value)`.
        best: Option<(u64, u64, u64, u64)>,
    },
    /// Appending the chosen id to own `Taken[p]`.
    Mark { id: u64, v: u64 },
}

/// Step machine for `deq`/`pop` (shared between queue and stack).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RemoveMachine {
    layout: MultLayout,
    p: usize,
    policy: TakePolicy,
    /// Ids collected from the `Taken` lists, in scan order.
    taken_ids: Vec<u64>,
    /// Length of own `Taken[p]` list (next append slot).
    my_taken_len: u64,
    phase: RemovePhase,
}

impl RemoveMachine {
    fn new(layout: MultLayout, p: usize, policy: TakePolicy) -> Self {
        RemoveMachine {
            layout,
            p,
            policy,
            taken_ids: Vec::new(),
            my_taken_len: 0,
            phase: RemovePhase::ScanTaken { j: 0, k: 0 },
        }
    }

    fn better(&self, cand: (u64, u64, u64, u64), best: Option<(u64, u64, u64, u64)>) -> bool {
        match best {
            None => true,
            Some(b) => {
                let key = (cand.0, cand.1, cand.2);
                let bkey = (b.0, b.1, b.2);
                match self.policy {
                    TakePolicy::Oldest => key < bkey,
                    TakePolicy::Youngest => key > bkey,
                }
            }
        }
    }

    /// One base-object step; `Some(resp)` when the remove completed,
    /// where `resp` is `None` for `Empty` and `Some(v)` for an item.
    fn step(&mut self, mem: &mut SimMemory) -> Option<Option<u64>> {
        match self.phase {
            RemovePhase::ScanTaken { j, k } => {
                let raw = mem.read_at(self.layout.taken[j], k as usize);
                if raw == 0 {
                    if j == self.p {
                        self.my_taken_len = k;
                    }
                    if j + 1 == self.layout.n {
                        self.phase = RemovePhase::CollectBound { j: 0, bound: 0 };
                    } else {
                        self.phase = RemovePhase::ScanTaken { j: j + 1, k: 0 };
                    }
                } else {
                    self.taken_ids.push(raw - 1);
                    self.phase = RemovePhase::ScanTaken { j, k: k + 1 };
                }
                None
            }
            RemovePhase::CollectBound { j, bound } => {
                let bound = bound.max(mem.read(self.layout.token[j]));
                if j + 1 == self.layout.n {
                    self.phase = RemovePhase::ScanItems {
                        j: 0,
                        k: 0,
                        bound,
                        best: None,
                    };
                } else {
                    self.phase = RemovePhase::CollectBound { j: j + 1, bound };
                }
                None
            }
            RemovePhase::ScanItems { j, k, bound, best } => {
                let raw = mem.read_at(self.layout.items[j], k as usize);
                if raw == 0 {
                    // End of process j's list.
                    if j + 1 == self.layout.n {
                        // Collect finished: decide at this read step.
                        match best {
                            None => return Some(None),
                            Some((_, bp, bk, v)) => {
                                self.phase = RemovePhase::Mark {
                                    id: item_id(bp, bk),
                                    v,
                                };
                            }
                        }
                    } else {
                        self.phase = RemovePhase::ScanItems {
                            j: j + 1,
                            k: 0,
                            bound,
                            best,
                        };
                    }
                } else {
                    let (ts, v) = unpack_item(raw);
                    let cand = (ts, j as u64, k, v);
                    let eligible = ts <= bound && !self.taken_ids.contains(&item_id(j as u64, k));
                    let best = if eligible && self.better(cand, best) {
                        Some(cand)
                    } else {
                        best
                    };
                    self.phase = RemovePhase::ScanItems {
                        j,
                        k: k + 1,
                        bound,
                        best,
                    };
                }
                None
            }
            RemovePhase::Mark { id, v } => {
                mem.write_at(
                    self.layout.taken[self.p],
                    self.my_taken_len as usize,
                    id + 1,
                );
                Some(Some(v))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Queue with multiplicity
// ---------------------------------------------------------------------

/// Factory for the read/write queue with multiplicity (\[11\] style).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultQueueAlg {
    layout: MultLayout,
}

impl MultQueueAlg {
    /// Allocates the base registers for `n` processes.
    pub fn new(mem: &mut SimMemory, n: usize) -> Self {
        MultQueueAlg {
            layout: MultLayout::new(mem, n),
        }
    }
}

impl Algorithm for MultQueueAlg {
    type Spec = MultiplicityQueueSpec;
    type Machine = MultQueueMachine;

    fn spec(&self) -> MultiplicityQueueSpec {
        MultiplicityQueueSpec
    }

    fn machine(&self, process: usize, op: &QueueOp) -> MultQueueMachine {
        match op {
            QueueOp::Enq(v) => {
                MultQueueMachine::Enq(InsertMachine::new(self.layout.clone(), process, *v))
            }
            QueueOp::Deq => MultQueueMachine::Deq(RemoveMachine::new(
                self.layout.clone(),
                process,
                TakePolicy::Oldest,
            )),
        }
    }
}

/// Step machine for multiplicity-queue operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MultQueueMachine {
    /// An `enq` in progress.
    Enq(InsertMachine),
    /// A `deq` in progress.
    Deq(RemoveMachine),
}

impl OpMachine for MultQueueMachine {
    type Resp = QueueResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<QueueResp> {
        match self {
            MultQueueMachine::Enq(m) => match m.step(mem) {
                None => Step::Pending,
                Some(()) => Step::Ready(QueueResp::Ok),
            },
            MultQueueMachine::Deq(m) => match m.step(mem) {
                None => Step::Pending,
                Some(None) => Step::Ready(QueueResp::Empty),
                Some(Some(v)) => Step::Ready(QueueResp::Item(v)),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Stack with multiplicity
// ---------------------------------------------------------------------

/// Factory for the read/write stack with multiplicity (\[11\] style).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultStackAlg {
    layout: MultLayout,
}

impl MultStackAlg {
    /// Allocates the base registers for `n` processes.
    pub fn new(mem: &mut SimMemory, n: usize) -> Self {
        MultStackAlg {
            layout: MultLayout::new(mem, n),
        }
    }
}

impl Algorithm for MultStackAlg {
    type Spec = MultiplicityStackSpec;
    type Machine = MultStackMachine;

    fn spec(&self) -> MultiplicityStackSpec {
        MultiplicityStackSpec
    }

    fn machine(&self, process: usize, op: &StackOp) -> MultStackMachine {
        match op {
            StackOp::Push(v) => {
                MultStackMachine::Push(InsertMachine::new(self.layout.clone(), process, *v))
            }
            StackOp::Pop => MultStackMachine::Pop(RemoveMachine::new(
                self.layout.clone(),
                process,
                TakePolicy::Youngest,
            )),
        }
    }
}

/// Step machine for multiplicity-stack operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MultStackMachine {
    /// A `push` in progress.
    Push(InsertMachine),
    /// A `pop` in progress.
    Pop(RemoveMachine),
}

impl OpMachine for MultStackMachine {
    type Resp = StackResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<StackResp> {
        match self {
            MultStackMachine::Push(m) => match m.step(mem) {
                None => Step::Pending,
                Some(()) => Step::Ready(StackResp::Ok),
            },
            MultStackMachine::Pop(m) => match m.step(mem) {
                None => Step::Pending,
                Some(None) => Step::Ready(StackResp::Empty),
                Some(Some(v)) => Step::Ready(StackResp::Item(v)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::machine::run_solo;
    use sl2_exec::sched::{run, BurstSched, CrashPlan, FixedSchedule, RandomSched, Scenario};
    use sl2_exec::strong::check_strong;
    use sl2_exec::{for_each_history, is_linearizable};

    #[test]
    fn queue_solo_is_fifo() {
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 2);
        for v in [7, 8, 9] {
            let (r, _) = run_solo(&mut alg.machine(0, &QueueOp::Enq(v)), &mut mem);
            assert_eq!(r, QueueResp::Ok);
        }
        for v in [7, 8, 9] {
            let (r, _) = run_solo(&mut alg.machine(1, &QueueOp::Deq), &mut mem);
            assert_eq!(r, QueueResp::Item(v));
        }
        let (r, _) = run_solo(&mut alg.machine(1, &QueueOp::Deq), &mut mem);
        assert_eq!(r, QueueResp::Empty);
    }

    #[test]
    fn stack_solo_is_lifo() {
        let mut mem = SimMemory::new();
        let alg = MultStackAlg::new(&mut mem, 2);
        for v in [7, 8, 9] {
            let (r, _) = run_solo(&mut alg.machine(0, &StackOp::Push(v)), &mut mem);
            assert_eq!(r, StackResp::Ok);
        }
        for v in [9, 8, 7] {
            let (r, _) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
            assert_eq!(r, StackResp::Item(v));
        }
        let (r, _) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
        assert_eq!(r, StackResp::Empty);
    }

    #[test]
    fn inserts_are_wait_free_n_plus_3_steps() {
        // After the own-slot probe (k+1 reads for the k-th own insert),
        // an insert takes exactly n token reads + 2 writes.
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 3);
        let (_, steps) = run_solo(&mut alg.machine(0, &QueueOp::Enq(1)), &mut mem);
        assert_eq!(steps, 1 + 3 + 2);
        let (_, steps) = run_solo(&mut alg.machine(0, &QueueOp::Enq(2)), &mut mem);
        assert_eq!(steps, 2 + 3 + 2);
    }

    #[test]
    fn sequential_timestamps_strictly_increase() {
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 2);
        run_solo(&mut alg.machine(0, &QueueOp::Enq(1)), &mut mem);
        run_solo(&mut alg.machine(1, &QueueOp::Enq(2)), &mut mem);
        run_solo(&mut alg.machine(0, &QueueOp::Enq(3)), &mut mem);
        let e0 = mem.read_at(alg.layout.items[0], 0);
        let e1 = mem.read_at(alg.layout.items[1], 0);
        let e2 = mem.read_at(alg.layout.items[0], 1);
        assert_eq!(unpack_item(e0).0, 1);
        assert_eq!(unpack_item(e1).0, 2);
        assert_eq!(unpack_item(e2).0, 3);
    }

    #[test]
    fn queue_histories_linearizable_exhaustive_small() {
        // Exhaustive over every interleaving of a 2-process scenario
        // (the machines take too many steps for exhaustive enumeration
        // at 3 processes; those mixes are covered by the sampled tests).
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]);
        let mut histories = 0usize;
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            histories += 1;
            assert!(is_linearizable(&MultiplicityQueueSpec, h), "{h:?}");
        });
        assert!(histories > 1_000, "expected a rich interleaving space");
    }

    #[test]
    fn queue_histories_linearizable_sampled() {
        // Racing enqueues and racing dequeues under random and bursty
        // adversaries, checked against the multiplicity queue spec.
        let scenarios = [
            vec![
                vec![QueueOp::Enq(1)],
                vec![QueueOp::Enq(2)],
                vec![QueueOp::Deq, QueueOp::Deq],
            ],
            vec![
                vec![QueueOp::Enq(1), QueueOp::Enq(2)],
                vec![QueueOp::Deq],
                vec![QueueOp::Deq],
            ],
            vec![
                vec![QueueOp::Enq(1), QueueOp::Deq],
                vec![QueueOp::Enq(2), QueueOp::Deq],
                vec![QueueOp::Deq, QueueOp::Enq(3)],
            ],
        ];
        for ops in scenarios {
            let mut base = SimMemory::new();
            let alg = MultQueueAlg::new(&mut base, 3);
            let scenario = Scenario::new(ops);
            for seed in 0..400 {
                let exec = run(
                    &alg,
                    base.clone(),
                    &scenario,
                    &mut RandomSched::seeded(seed),
                    &CrashPlan::none(3),
                );
                assert!(
                    is_linearizable(&MultiplicityQueueSpec, &exec.history),
                    "seed {seed}: {:?}",
                    exec.history
                );
                let exec = run(
                    &alg,
                    base.clone(),
                    &scenario,
                    &mut BurstSched::seeded(seed, 6),
                    &CrashPlan::none(3),
                );
                assert!(
                    is_linearizable(&MultiplicityQueueSpec, &exec.history),
                    "burst seed {seed}: {:?}",
                    exec.history
                );
            }
        }
    }

    #[test]
    fn stack_histories_linearizable_exhaustive_small() {
        let mut mem = SimMemory::new();
        let alg = MultStackAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Pop, StackOp::Pop],
        ]);
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            assert!(is_linearizable(&MultiplicityStackSpec, h), "{h:?}");
        });
    }

    #[test]
    fn stack_histories_linearizable_sampled() {
        let mut base = SimMemory::new();
        let alg = MultStackAlg::new(&mut base, 3);
        let scenario = Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Push(2), StackOp::Pop],
            vec![StackOp::Pop, StackOp::Pop],
        ]);
        for seed in 0..400 {
            let exec = run(
                &alg,
                base.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(
                is_linearizable(&MultiplicityStackSpec, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    #[test]
    fn new_old_inversion_regression() {
        // The schedule that broke the bound-less first cut of this
        // module: the dequeuer reads p0's (empty) item list, then both
        // enqueues complete back-to-back, then the dequeuer reads p1's
        // list. Without the eligibility bound it returned Item(2) while
        // the strictly older item 1 was still present — a new/old
        // inversion that is not linearizable even with multiplicity.
        // With the bound it answers Empty, which linearizes before the
        // first enqueue.
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]);
        let mut script = vec![2; 7]; // D1: taken×3, bound×3, Items[0][0]
        script.extend([0; 6]); // E1 runs to completion
        script.extend([1; 6]); // E2 runs to completion
        script.extend([2; 32]); // D1 finishes, D2 runs
        let exec = run(
            &alg,
            mem.clone(),
            &scenario,
            &mut FixedSchedule::new(script),
            &CrashPlan::none(3),
        );
        let responses: Vec<QueueResp> = exec
            .history
            .complete_ops()
            .iter()
            .filter(|r| r.op == QueueOp::Deq)
            .map(|r| r.returned.expect("complete").0)
            .collect();
        assert_eq!(responses, vec![QueueResp::Empty, QueueResp::Item(1)]);
        assert!(is_linearizable(&MultiplicityQueueSpec, &exec.history));
    }

    #[test]
    fn duplication_happens_and_only_under_overlap() {
        // Under random schedules, concurrent deqs sometimes duplicate;
        // a completed deq is never duplicated by a later-starting one.
        let mut base = SimMemory::new();
        let alg = MultQueueAlg::new(&mut base, 3);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Enq(2)],
            vec![QueueOp::Deq],
            vec![QueueOp::Deq],
        ]);
        let mut duplicated = 0;
        for seed in 0..300 {
            let exec = run(
                &alg,
                base.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            let items: Vec<u64> = exec
                .history
                .complete_ops()
                .iter()
                .filter_map(|r| match r.returned {
                    Some((QueueResp::Item(v), _)) => Some(v),
                    _ => None,
                })
                .collect();
            if items.len() == 2 && items[0] == items[1] {
                duplicated += 1;
            }
            assert!(is_linearizable(&MultiplicityQueueSpec, &exec.history));
        }
        assert!(duplicated > 0, "expected some duplication under races");
    }

    #[test]
    fn queue_is_not_strongly_linearizable() {
        // The paper's §1 claim about [11], reproduced mechanically: a
        // completed enqueue's linearization order still depends on the
        // future of a pending tied-timestamp enqueue.
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]);
        let out = check_strong(&alg, mem, &scenario, 12_000_000);
        assert!(
            out.is_refuted(),
            "multiplicity queue must not be strongly linearizable"
        );
    }

    #[test]
    fn stack_is_not_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = MultStackAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Push(2)],
            vec![StackOp::Pop, StackOp::Pop],
        ]);
        let out = check_strong(&alg, mem, &scenario, 12_000_000);
        assert!(
            out.is_refuted(),
            "multiplicity stack must not be strongly linearizable"
        );
    }

    #[test]
    fn single_enqueuer_scenarios_pass_the_checker() {
        // Control: with one enqueuer there is no timestamp race; the
        // checker accepts the same op mix.
        let mut mem = SimMemory::new();
        let alg = MultQueueAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Enq(2)],
            vec![QueueOp::Deq],
        ]);
        let out = check_strong(&alg, mem, &scenario, 12_000_000);
        assert!(
            out.is_certified(),
            "no race ⇒ prefix-closed linearization exists: {:?}",
            out.outcome
        );
    }
}
