//! The Afek–Gafni–Morrison wait-free stack \[2\] from fetch&add and swap
//! — **linearizable but not strongly linearizable**.
//!
//! This is the object the paper singles out (§1, §5): it belongs to
//! Common2 and has a wait-free linearizable implementation from
//! consensus-number-2 primitives, yet Attiya & Enea \[9\] showed it is
//! not strongly linearizable — and Theorem 17 of the paper proves no
//! lock-free strongly-linearizable stack from test&set/swap/fetch&add
//! can exist at all.
//!
//! Implementation (the classic AGM structure):
//! * `push(v)`: `i := fetch&add(top, 1); items[i].write(v)` (the write
//!   is a `swap` whose result is discarded);
//! * `pop()`: `t := read(top)`; for `j = t−1 .. 0`: `x :=
//!   items[j].swap(⊥)`; if `x ≠ ⊥` return `x`; return ε.
//!
//! The non-strong-linearizability witness (reproduced by the checker in
//! this module's tests and in experiment E11): after `push(2)` by `p1`
//! completes while `push(1)` by `p0` has reserved slot 0 but not yet
//! written it, the linearization order of the two pushes is still
//! *future-dependent* — one extension (two pops returning 2 then 1)
//! forces `push(1)` before `push(2)`, another (pop returning 2, then
//! pop returning ε) forces it after. No prefix-closed linearization
//! function can serve both.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, Loc, SimMemory};
use sl2_spec::fifo::{StackOp, StackResp, StackSpec};

/// Empty-slot marker (items are stored shifted by one).
const BOTTOM: u64 = 0;

/// Factory for the AGM stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgmStackAlg {
    top: Loc,
    items: ArrayLoc,
}

impl AgmStackAlg {
    /// Allocates the base objects.
    pub fn new(mem: &mut SimMemory) -> Self {
        AgmStackAlg {
            top: mem.alloc(Cell::Faa(0)),
            items: mem.alloc_array(Cell::Swap(BOTTOM)),
        }
    }
}

impl Algorithm for AgmStackAlg {
    type Spec = StackSpec;
    type Machine = AgmStackMachine;

    fn spec(&self) -> StackSpec {
        StackSpec
    }

    fn machine(&self, _process: usize, op: &StackOp) -> AgmStackMachine {
        match op {
            StackOp::Push(v) => AgmStackMachine::PushFaa { alg: *self, v: *v },
            StackOp::Pop => AgmStackMachine::PopReadTop { alg: *self },
        }
    }
}

/// Step machine for AGM stack operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AgmStackMachine {
    /// `push` step 1: reserve a slot with `fetch&add(top, 1)`.
    PushFaa {
        /// Base-object handles.
        alg: AgmStackAlg,
        /// Value being pushed.
        v: u64,
    },
    /// `push` step 2: write the item into the reserved slot.
    PushWrite {
        /// Base-object handles.
        alg: AgmStackAlg,
        /// Reserved slot.
        slot: u64,
        /// Value being pushed.
        v: u64,
    },
    /// `pop` step 1: read `top`.
    PopReadTop {
        /// Base-object handles.
        alg: AgmStackAlg,
    },
    /// `pop` scanning down: `items[j].swap(⊥)`.
    PopScan {
        /// Base-object handles.
        alg: AgmStackAlg,
        /// Current slot (scanning downward).
        j: u64,
    },
}

impl OpMachine for AgmStackMachine {
    type Resp = StackResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<StackResp> {
        match *self {
            AgmStackMachine::PushFaa { alg, v } => {
                let slot = mem.faa(alg.top, 1);
                *self = AgmStackMachine::PushWrite { alg, slot, v };
                Step::Pending
            }
            AgmStackMachine::PushWrite { alg, slot, v } => {
                mem.swap_at(alg.items, slot as usize, v + 1);
                Step::Ready(StackResp::Ok)
            }
            AgmStackMachine::PopReadTop { alg } => {
                let t = mem.read(alg.top);
                if t == 0 {
                    return Step::Ready(StackResp::Empty);
                }
                *self = AgmStackMachine::PopScan { alg, j: t - 1 };
                Step::Pending
            }
            AgmStackMachine::PopScan { alg, j } => {
                let x = mem.swap_at(alg.items, j as usize, BOTTOM);
                if x != BOTTOM {
                    return Step::Ready(StackResp::Item(x - 1));
                }
                if j == 0 {
                    return Step::Ready(StackResp::Empty);
                }
                *self = AgmStackMachine::PopScan { alg, j: j - 1 };
                Step::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::machine::run_solo;
    use sl2_exec::sched::{run, CrashPlan, RandomSched, Scenario};
    use sl2_exec::strong::check_strong;
    use sl2_exec::{for_each_history, is_linearizable};

    #[test]
    fn solo_lifo_order() {
        let mut mem = SimMemory::new();
        let alg = AgmStackAlg::new(&mut mem);
        let (r, _) = run_solo(&mut alg.machine(0, &StackOp::Pop), &mut mem);
        assert_eq!(r, StackResp::Empty);
        for v in [1, 2, 3] {
            run_solo(&mut alg.machine(0, &StackOp::Push(v)), &mut mem);
        }
        for v in [3, 2, 1] {
            let (r, _) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
            assert_eq!(r, StackResp::Item(v));
        }
        let (r, _) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
        assert_eq!(r, StackResp::Empty);
    }

    #[test]
    fn wait_free_pop_bound_is_top() {
        let mut mem = SimMemory::new();
        let alg = AgmStackAlg::new(&mut mem);
        for v in 0..10 {
            run_solo(&mut alg.machine(0, &StackOp::Push(v)), &mut mem);
        }
        let (_, steps) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
        assert!(steps <= 2, "top item found immediately");
    }

    #[test]
    fn random_schedules_are_linearizable() {
        // AGM is linearizable (that is the [2] result); the failure is
        // only of STRONG linearizability.
        let mut mem = SimMemory::new();
        let alg = AgmStackAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![StackOp::Push(1), StackOp::Pop],
            vec![StackOp::Push(2), StackOp::Pop],
            vec![StackOp::Pop, StackOp::Push(3)],
        ]);
        for seed in 0..80 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(
                is_linearizable(&StackSpec, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    /// The paper's E11 witness scenario.
    fn witness_scenario() -> Scenario<StackSpec> {
        Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Push(2)],
            vec![StackOp::Pop, StackOp::Pop],
        ])
    }

    #[test]
    fn every_history_of_the_witness_scenario_is_linearizable() {
        let mut mem = SimMemory::new();
        let alg = AgmStackAlg::new(&mut mem);
        for_each_history(&alg, mem, &witness_scenario(), 4_000_000, &mut |h| {
            assert!(is_linearizable(&StackSpec, h), "{h:?}");
        });
    }

    #[test]
    fn agm_stack_is_not_strongly_linearizable() {
        // Reproduces the Attiya–Enea counterexample [9]: the checker
        // finds an execution prefix whose linearization cannot be fixed
        // without knowing the future.
        let mut mem = SimMemory::new();
        let alg = AgmStackAlg::new(&mut mem);
        let out = check_strong(&alg, mem, &witness_scenario(), 8_000_000);
        assert!(out.is_refuted(), "AGM must NOT be strongly linearizable");
        let w = out.witness().expect("failure must carry a witness");
        assert!(!w.path.is_empty());
    }
}
