//! Treiber's stack from compare&swap — strongly linearizable, the
//! classic universal-primitive stack (\[16, 24\] territory).
//!
//! Linked representation in simulated memory: node records live in two
//! register arrays (`vals`, `nxts`) and are claimed from a bump
//! allocator (`fetch&add`). `push` publishes a node by CAS on `top`;
//! `pop` unlinks by CAS on `top`. Every operation linearizes at its
//! successful CAS (or at the read of `top == null` for ε) — fixed
//! points, hence strong linearizability, which the checker confirms on
//! the same scenario shape that refutes the AGM stack.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, Loc, SimMemory};
use sl2_spec::fifo::{StackOp, StackResp, StackSpec};

/// Null node pointer (node ids are 1-based).
const NULL: u64 = 0;

/// Factory for the Treiber stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreiberStackAlg {
    top: Loc,
    alloc: Loc,
    vals: ArrayLoc,
    nxts: ArrayLoc,
}

impl TreiberStackAlg {
    /// Allocates the base objects.
    pub fn new(mem: &mut SimMemory) -> Self {
        TreiberStackAlg {
            top: mem.alloc(Cell::Cas(NULL)),
            alloc: mem.alloc(Cell::Faa(1)),
            vals: mem.alloc_array(Cell::Reg(0)),
            nxts: mem.alloc_array(Cell::Reg(NULL)),
        }
    }
}

impl Algorithm for TreiberStackAlg {
    type Spec = StackSpec;
    type Machine = TreiberMachine;

    fn spec(&self) -> StackSpec {
        StackSpec
    }

    fn machine(&self, _process: usize, op: &StackOp) -> TreiberMachine {
        match op {
            StackOp::Push(v) => TreiberMachine::PushAlloc { alg: *self, v: *v },
            StackOp::Pop => TreiberMachine::PopReadTop { alg: *self },
        }
    }
}

/// Step machine for Treiber stack operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TreiberMachine {
    /// `push`: claim a fresh node from the bump allocator.
    PushAlloc {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Value being pushed.
        v: u64,
    },
    /// `push`: store the value into the private node.
    PushWriteVal {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Claimed node.
        node: u64,
        /// Value being pushed.
        v: u64,
    },
    /// `push`: read the current `top`.
    PushReadTop {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Claimed node.
        node: u64,
    },
    /// `push`: link the node to the observed top.
    PushWriteNext {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Claimed node.
        node: u64,
        /// Observed top.
        t: u64,
    },
    /// `push`: CAS `top` from the observed value to the node.
    PushCas {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Claimed node.
        node: u64,
        /// Expected top.
        t: u64,
    },
    /// `pop`: read `top`.
    PopReadTop {
        /// Base-object handles.
        alg: TreiberStackAlg,
    },
    /// `pop`: read the value of the candidate node.
    PopReadVal {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Candidate node.
        t: u64,
    },
    /// `pop`: read the candidate's next pointer.
    PopReadNext {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Candidate node.
        t: u64,
        /// Its value.
        v: u64,
    },
    /// `pop`: CAS `top` from the candidate to its successor.
    PopCas {
        /// Base-object handles.
        alg: TreiberStackAlg,
        /// Candidate node.
        t: u64,
        /// Its value.
        v: u64,
        /// Its successor.
        nxt: u64,
    },
}

impl OpMachine for TreiberMachine {
    type Resp = StackResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<StackResp> {
        match *self {
            TreiberMachine::PushAlloc { alg, v } => {
                let node = mem.faa(alg.alloc, 1);
                *self = TreiberMachine::PushWriteVal { alg, node, v };
                Step::Pending
            }
            TreiberMachine::PushWriteVal { alg, node, v } => {
                mem.write_at(alg.vals, node as usize, v + 1);
                *self = TreiberMachine::PushReadTop { alg, node };
                Step::Pending
            }
            TreiberMachine::PushReadTop { alg, node } => {
                let t = mem.read(alg.top);
                *self = TreiberMachine::PushWriteNext { alg, node, t };
                Step::Pending
            }
            TreiberMachine::PushWriteNext { alg, node, t } => {
                mem.write_at(alg.nxts, node as usize, t);
                *self = TreiberMachine::PushCas { alg, node, t };
                Step::Pending
            }
            TreiberMachine::PushCas { alg, node, t } => {
                let obs = mem.cas(alg.top, t, node);
                if obs == t {
                    Step::Ready(StackResp::Ok)
                } else {
                    *self = TreiberMachine::PushWriteNext { alg, node, t: obs };
                    Step::Pending
                }
            }
            TreiberMachine::PopReadTop { alg } => {
                let t = mem.read(alg.top);
                if t == NULL {
                    return Step::Ready(StackResp::Empty);
                }
                *self = TreiberMachine::PopReadVal { alg, t };
                Step::Pending
            }
            TreiberMachine::PopReadVal { alg, t } => {
                let v = mem.read_at(alg.vals, t as usize);
                *self = TreiberMachine::PopReadNext { alg, t, v };
                Step::Pending
            }
            TreiberMachine::PopReadNext { alg, t, v } => {
                let nxt = mem.read_at(alg.nxts, t as usize);
                *self = TreiberMachine::PopCas { alg, t, v, nxt };
                Step::Pending
            }
            TreiberMachine::PopCas { alg, t, v, nxt } => {
                let obs = mem.cas(alg.top, t, nxt);
                if obs == t {
                    Step::Ready(StackResp::Item(v - 1))
                } else if obs == NULL {
                    Step::Ready(StackResp::Empty)
                } else {
                    *self = TreiberMachine::PopReadVal { alg, t: obs };
                    Step::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::is_linearizable;
    use sl2_exec::machine::run_solo;
    use sl2_exec::sched::{run, CrashPlan, RandomSched, Scenario};
    use sl2_exec::strong::check_strong;

    #[test]
    fn solo_lifo_order() {
        let mut mem = SimMemory::new();
        let alg = TreiberStackAlg::new(&mut mem);
        for v in [4, 5, 6] {
            run_solo(&mut alg.machine(0, &StackOp::Push(v)), &mut mem);
        }
        for v in [6, 5, 4] {
            let (r, _) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
            assert_eq!(r, StackResp::Item(v));
        }
        let (r, _) = run_solo(&mut alg.machine(1, &StackOp::Pop), &mut mem);
        assert_eq!(r, StackResp::Empty);
    }

    #[test]
    fn random_schedules_are_linearizable() {
        let mut mem = SimMemory::new();
        let alg = TreiberStackAlg::new(&mut mem);
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

    #[test]
    fn treiber_is_strongly_linearizable_on_the_agm_witness_scenario() {
        // The contrast at the heart of the paper: the scenario that
        // refutes AGM (consensus number 2) is fine for CAS.
        let mut mem = SimMemory::new();
        let alg = TreiberStackAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Push(2)],
            vec![StackOp::Pop, StackOp::Pop],
        ]);
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn treiber_strong_linearizability_push_pop_race() {
        let mut mem = SimMemory::new();
        let alg = TreiberStackAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![StackOp::Push(1), StackOp::Pop],
            vec![StackOp::Push(2)],
        ]);
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }
}
