//! Atomic (single-step) k-ordering objects — the *strongest possible*
//! implementations Lemma 12 can consume.
//!
//! Every operation here is one shared-memory step on an
//! [`sl2_exec::mem::Cell::AQueue`] composite cell, so the
//! implementation is trivially lock-free (wait-free, even) and
//! strongly linearizable: the linearization point *is* the step. These
//! are the positive-direction instruments for Theorem 19's reduction
//! at `k ≥ 1`:
//!
//! * [`AtomicQueueAlg`] — an exact queue; Algorithm B over it solves
//!   consensus (`k = 1`), the ideal-object control for E9.
//! * [`AtomicOooQueueAlg`] — a k-out-of-order queue whose dequeue
//!   removes one of the `k` oldest items, chosen deterministically
//!   from the queue state and a per-caller salt. Algorithm B over it
//!   solves `k`-set agreement: at most `k` distinct decisions, and for
//!   `k > 1` genuinely distinct decisions do occur (experiment E17).
//!
//! Contrast with the negative direction: Algorithm B over the
//! *linearizable-but-not-strongly-linearizable* read/write queue with
//! multiplicity (`sl2_core::baselines::multiplicity`) violates
//! 1-agreement on schedules that land in its timestamp-tie window —
//! see `tests/agreement_e2e.rs`.

use std::collections::VecDeque;

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::fifo::{QueueOp, QueueResp, QueueSpec};
use sl2_spec::relaxed::OutOfOrderQueueSpec;

/// Atomic exact queue: every operation is one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtomicQueueAlg {
    loc: Loc,
}

impl AtomicQueueAlg {
    /// Allocates the queue cell.
    pub fn new(mem: &mut SimMemory) -> Self {
        AtomicQueueAlg {
            loc: mem.alloc(Cell::AQueue {
                items: VecDeque::new(),
                last: None,
            }),
        }
    }
}

impl Algorithm for AtomicQueueAlg {
    type Spec = QueueSpec;
    type Machine = AtomicQueueMachine;

    fn spec(&self) -> QueueSpec {
        QueueSpec
    }

    fn machine(&self, _process: usize, op: &QueueOp) -> AtomicQueueMachine {
        match op {
            QueueOp::Enq(v) => AtomicQueueMachine::Enq(self.loc, *v),
            QueueOp::Deq => AtomicQueueMachine::Deq(self.loc),
        }
    }
}

/// Single-step machine for [`AtomicQueueAlg`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomicQueueMachine {
    /// `enq(v)` in one step.
    Enq(Loc, u64),
    /// `deq()` in one step.
    Deq(Loc),
}

impl OpMachine for AtomicQueueMachine {
    type Resp = QueueResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<QueueResp> {
        match *self {
            AtomicQueueMachine::Enq(loc, v) => {
                mem.queue_enq(loc, v);
                Step::Ready(QueueResp::Ok)
            }
            AtomicQueueMachine::Deq(loc) => Step::Ready(match mem.queue_deq(loc) {
                Some(v) => QueueResp::Item(v),
                None => QueueResp::Empty,
            }),
        }
    }
}

/// Atomic k-out-of-order queue: `deq` removes one of the `k` oldest
/// items (state-and-salt-deterministic choice), in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtomicOooQueueAlg {
    loc: Loc,
    /// The out-of-order window.
    pub k: usize,
}

impl AtomicOooQueueAlg {
    /// Allocates the queue cell for window `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(mem: &mut SimMemory, k: usize) -> Self {
        assert!(k >= 1, "the window must contain at least the front item");
        AtomicOooQueueAlg {
            loc: mem.alloc(Cell::AQueue {
                items: VecDeque::new(),
                last: None,
            }),
            k,
        }
    }
}

impl Algorithm for AtomicOooQueueAlg {
    type Spec = OutOfOrderQueueSpec;
    type Machine = AtomicOooQueueMachine;

    fn spec(&self) -> OutOfOrderQueueSpec {
        OutOfOrderQueueSpec { k: self.k }
    }

    fn machine(&self, process: usize, op: &QueueOp) -> AtomicOooQueueMachine {
        match op {
            QueueOp::Enq(v) => AtomicOooQueueMachine::Enq(self.loc, *v),
            // The caller's id salts the in-window choice, so different
            // processes genuinely spread across the window.
            QueueOp::Deq => AtomicOooQueueMachine::Deq(self.loc, self.k, process as u64),
        }
    }
}

/// Single-step machine for [`AtomicOooQueueAlg`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomicOooQueueMachine {
    /// `enq(v)` in one step.
    Enq(Loc, u64),
    /// `deq()` in one step: window size and salt.
    Deq(Loc, usize, u64),
}

impl OpMachine for AtomicOooQueueMachine {
    type Resp = QueueResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<QueueResp> {
        match *self {
            AtomicOooQueueMachine::Enq(loc, v) => {
                mem.queue_enq(loc, v);
                Step::Ready(QueueResp::Ok)
            }
            AtomicOooQueueMachine::Deq(loc, k, salt) => {
                Step::Ready(match mem.queue_deq_within(loc, k, salt) {
                    Some(v) => QueueResp::Item(v),
                    None => QueueResp::Empty,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::is_linearizable;
    use sl2_exec::machine::run_solo;
    use sl2_exec::sched::Scenario;
    use sl2_exec::sched::{run, CrashPlan, RandomSched};
    use sl2_exec::strong::check_strong;

    #[test]
    fn atomic_queue_is_exact_fifo() {
        let mut mem = SimMemory::new();
        let alg = AtomicQueueAlg::new(&mut mem);
        for v in [1, 2, 3] {
            run_solo(&mut alg.machine(0, &QueueOp::Enq(v)), &mut mem);
        }
        for v in [1, 2, 3] {
            let (r, steps) = run_solo(&mut alg.machine(1, &QueueOp::Deq), &mut mem);
            assert_eq!((r, steps), (QueueResp::Item(v), 1));
        }
    }

    #[test]
    fn atomic_queue_is_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = AtomicQueueAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]);
        let out = check_strong(&alg, mem, &scenario, 2_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn ooo_queue_stays_in_window_and_spreads() {
        let mut mem = SimMemory::new();
        let alg = AtomicOooQueueAlg::new(&mut mem, 3);
        for v in 0..9u64 {
            run_solo(&mut alg.machine(0, &QueueOp::Enq(v)), &mut mem);
        }
        // Dequeue with different salts: all results within the 3-oldest
        // window of the evolving queue; at least two distinct first
        // picks across salts in some run.
        let mut firsts = Vec::new();
        for salt_proc in 0..4usize {
            let mut m = mem.clone();
            let (r, _) = run_solo(&mut alg.machine(salt_proc, &QueueOp::Deq), &mut m);
            match r {
                QueueResp::Item(v) => {
                    assert!(v <= 2, "first deq must pick from {{0,1,2}}, got {v}");
                    firsts.push(v);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        firsts.sort_unstable();
        firsts.dedup();
        assert!(
            firsts.len() >= 2,
            "salts should spread across the window: {firsts:?}"
        );
    }

    #[test]
    fn ooo_queue_is_strongly_linearizable_wrt_relaxed_spec() {
        let mut mem = SimMemory::new();
        let alg = AtomicOooQueueAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq, QueueOp::Deq],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn ooo_histories_linearizable_under_random_schedules() {
        let mut base = SimMemory::new();
        let alg = AtomicOooQueueAlg::new(&mut base, 3);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Deq],
            vec![QueueOp::Enq(2), QueueOp::Deq],
            vec![QueueOp::Enq(3), QueueOp::Deq],
        ]);
        for seed in 0..200 {
            let exec = run(
                &alg,
                base.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(
                is_linearizable(&OutOfOrderQueueSpec { k: 3 }, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    #[test]
    fn empty_ooo_deq_reports_empty() {
        let mut mem = SimMemory::new();
        let alg = AtomicOooQueueAlg::new(&mut mem, 4);
        let (r, _) = run_solo(&mut alg.machine(0, &QueueOp::Deq), &mut mem);
        assert_eq!(r, QueueResp::Empty);
    }
}
