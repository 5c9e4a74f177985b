//! §3.3 — wait-free strongly-linearizable *simple types* from atomic
//! snapshots (Algorithm 1; Theorems 3–4), step-machine form.
//!
//! Any object whose operations pairwise commute or overwrite
//! ([`SimpleTypeSpec`]) is implemented over one snapshot `root`:
//!
//! 1. `view := root.scan()`; traverse the published operation graph,
//!    linearize it with [`lingraph`], compute this invocation's
//!    response, and create its node;
//! 2. `root.update(address of node)`; return the response.
//!
//! The machine form uses an atomic snapshot cell for `root` — Theorem 3
//! proves strong linearizability *given* a strongly-linearizable
//! snapshot, and Theorem 4 follows by composing with the §3.2 snapshot
//! ([9, Theorem 10]); the production form in
//! [`crate::algos::simple`] performs that composition end-to-end.
//!
//! Nodes live in a content-addressed [`Arena`] shared behind
//! `Rc<RefCell<…>>`: published nodes are immutable, so sharing the
//! arena across checker branches is sound (see [`crate::graph`]).

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::simple::SimpleTypeSpec;

use crate::graph::{lingraph, response_after, Arena, NodeId, OpNode};

/// Factory for the Algorithm 1 simple-type object.
#[derive(Clone)]
pub struct SimpleAlg<S: SimpleTypeSpec> {
    spec: S,
    root: Loc,
    n: usize,
    arena: Rc<RefCell<Arena<S>>>,
}

impl<S: SimpleTypeSpec> fmt::Debug for SimpleAlg<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimpleAlg")
            .field("spec", &self.spec)
            .field("root", &self.root)
            .field("n", &self.n)
            .field("arena_nodes", &self.arena.borrow().len())
            .finish()
    }
}

impl<S: SimpleTypeSpec> SimpleAlg<S> {
    /// Allocates the shared snapshot `root` (all components null).
    pub fn new(mem: &mut SimMemory, n: usize, spec: S) -> Self {
        SimpleAlg {
            spec,
            root: mem.alloc(Cell::ASnap(vec![crate::graph::NULL_NODE; n])),
            n,
            arena: Rc::new(RefCell::new(Arena::new())),
        }
    }
}

impl<S: SimpleTypeSpec> Algorithm for SimpleAlg<S> {
    type Spec = S;
    type Machine = SimpleMachine<S>;

    fn spec(&self) -> S {
        self.spec.clone()
    }

    fn machine(&self, process: usize, op: &S::Op) -> SimpleMachine<S> {
        SimpleMachine {
            spec: self.spec.clone(),
            arena: Rc::clone(&self.arena),
            root: self.root,
            process,
            op: op.clone(),
            phase: Phase::Scan,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Phase<R> {
    /// Step 1: scan `root`, build and linearize the graph, create the
    /// node.
    Scan,
    /// Step 2: publish the node and return.
    Publish { id: NodeId, resp: R },
}

/// Step machine for Algorithm 1 operations (`execute_p`).
#[derive(Clone)]
pub struct SimpleMachine<S: SimpleTypeSpec> {
    spec: S,
    arena: Rc<RefCell<Arena<S>>>,
    root: Loc,
    process: usize,
    op: S::Op,
    phase: Phase<S::Resp>,
}

impl<S: SimpleTypeSpec> fmt::Debug for SimpleMachine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimpleMachine")
            .field("process", &self.process)
            .field("op", &self.op)
            .field("phase", &self.phase)
            .finish()
    }
}

// The arena is content-addressed and append-only: machine identity is
// fully captured by (process, op, phase). Two machines with equal
// phases behave identically regardless of arena garbage from other
// checker branches.
impl<S: SimpleTypeSpec> PartialEq for SimpleMachine<S> {
    fn eq(&self, other: &Self) -> bool {
        self.process == other.process && self.op == other.op && self.phase == other.phase
    }
}

impl<S: SimpleTypeSpec> Eq for SimpleMachine<S> {}

impl<S: SimpleTypeSpec> Hash for SimpleMachine<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.process.hash(state);
        self.op.hash(state);
        self.phase.hash(state);
    }
}

impl<S: SimpleTypeSpec> OpMachine for SimpleMachine<S> {
    type Resp = S::Resp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<S::Resp> {
        match &self.phase {
            Phase::Scan => {
                let view = mem.snap_scan(self.root);
                let mut arena = self.arena.borrow_mut();
                let nodes = arena.reachable(&view);
                let lin = lingraph(&self.spec, &arena, &nodes);
                let (resp, _) = response_after(&self.spec, &arena, &lin, &self.op);
                let seq = arena.own_chain_len(view[self.process], self.process);
                let id = arena.insert(OpNode {
                    process: self.process,
                    seq,
                    op: self.op.clone(),
                    resp: resp.clone(),
                    preceding: view,
                });
                self.phase = Phase::Publish { id, resp };
                Step::Pending
            }
            Phase::Publish { id, resp } => {
                let resp = resp.clone();
                mem.snap_update(self.root, self.process, *id);
                Step::Ready(resp)
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
    use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
    use sl2_spec::union_set::{UnionSetOp, UnionSetResp, UnionSetSpec};

    #[test]
    fn solo_counter_semantics() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, CounterSpec);
        run_solo(&mut alg.machine(0, &CounterOp::Inc), &mut mem);
        run_solo(&mut alg.machine(1, &CounterOp::Inc), &mut mem);
        run_solo(&mut alg.machine(0, &CounterOp::Inc), &mut mem);
        let (r, steps) = run_solo(&mut alg.machine(1, &CounterOp::Read), &mut mem);
        assert_eq!(r, CounterResp::Value(3));
        assert_eq!(steps, 2, "scan + publish");
    }

    #[test]
    fn solo_max_register_semantics() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, MaxRegisterSpec);
        run_solo(&mut alg.machine(0, &MaxOp::Write(4)), &mut mem);
        run_solo(&mut alg.machine(1, &MaxOp::Write(2)), &mut mem);
        let (r, _) = run_solo(&mut alg.machine(0, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(4));
    }

    #[test]
    fn solo_union_set_semantics() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, UnionSetSpec);
        run_solo(&mut alg.machine(0, &UnionSetOp::Insert(5)), &mut mem);
        run_solo(&mut alg.machine(1, &UnionSetOp::Insert(2)), &mut mem);
        let (r, _) = run_solo(&mut alg.machine(0, &UnionSetOp::ReadAll), &mut mem);
        assert_eq!(r, UnionSetResp::Items(vec![2, 5]));
        let (r, _) = run_solo(&mut alg.machine(1, &UnionSetOp::Contains(5)), &mut mem);
        assert_eq!(r, UnionSetResp::Bool(true));
    }

    #[test]
    fn solo_int_counter_semantics() {
        use sl2_spec::counters::{IntCounterOp, IntCounterResp, IntCounterSpec};
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, IntCounterSpec);
        run_solo(&mut alg.machine(0, &IntCounterOp::Dec), &mut mem);
        run_solo(&mut alg.machine(1, &IntCounterOp::Dec), &mut mem);
        run_solo(&mut alg.machine(0, &IntCounterOp::Inc), &mut mem);
        let (r, _) = run_solo(&mut alg.machine(1, &IntCounterOp::Read), &mut mem);
        assert_eq!(r, IntCounterResp::Value(-1), "counts go negative");
    }

    #[test]
    fn int_counter_strong_linearizability() {
        // Theorem 3 for the non-monotonic counter: racing an increment
        // against a decrement and a reader.
        use sl2_spec::counters::{IntCounterOp, IntCounterSpec};
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 3, IntCounterSpec);
        let scenario = Scenario::new(vec![
            vec![IntCounterOp::Inc],
            vec![IntCounterOp::Dec],
            vec![IntCounterOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn int_counter_mixed_ops_linearizable_under_random_schedules() {
        use sl2_spec::counters::{IntCounterOp, IntCounterSpec};
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 3, IntCounterSpec);
        let scenario = Scenario::new(vec![
            vec![IntCounterOp::Inc, IntCounterOp::Dec],
            vec![IntCounterOp::Dec, IntCounterOp::Read],
            vec![IntCounterOp::Inc],
        ]);
        for seed in 0..60 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(
                is_linearizable(&IntCounterSpec, &exec.history),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn concurrent_increments_are_never_lost() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 3, CounterSpec);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Inc],
            vec![CounterOp::Inc],
            vec![CounterOp::Inc],
        ]);
        for seed in 0..40 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(is_linearizable(&CounterSpec, &exec.history), "seed {seed}");
            // A sequential read afterwards must see all 4 increments.
            let mut after = exec.mem;
            let (r, _) = run_solo(&mut alg.machine(0, &CounterOp::Read), &mut after);
            assert_eq!(r, CounterResp::Value(4), "seed {seed}");
        }
    }

    #[test]
    fn all_histories_linearizable_counter() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, CounterSpec);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]);
        for_each_history(&alg, mem, &scenario, 2_000_000, &mut |h| {
            assert!(is_linearizable(&CounterSpec, h), "{h:?}");
        });
    }

    #[test]
    fn theorem3_counter_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, CounterSpec);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn theorem3_max_register_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 3, MaxRegisterSpec);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2)],
            vec![MaxOp::Write(5)],
            vec![MaxOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn wait_free_two_steps_always() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, CounterSpec);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read, CounterOp::Inc],
            vec![CounterOp::Read, CounterOp::Inc],
        ]);
        for seed in 0..30 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(2),
            );
            assert_eq!(exec.max_op_steps(), 2, "every op is scan+publish");
        }
    }

    #[test]
    fn crash_between_scan_and_publish_is_invisible() {
        let mut mem = SimMemory::new();
        let alg = SimpleAlg::new(&mut mem, 2, CounterSpec);
        let scenario = Scenario::new(vec![vec![CounterOp::Inc], vec![CounterOp::Read]]);
        let exec = run(
            &alg,
            mem,
            &scenario,
            &mut RandomSched::seeded(3),
            &CrashPlan::none(2).crash_after(0, 1),
        );
        assert!(is_linearizable(&CounterSpec, &exec.history));
    }
}
