//! A strongly-linearizable queue from compare&swap — the *universal
//! primitive* route the paper contrasts against (\[16, 24\]).
//!
//! The queue is an infinite array of CAS cells. `enq(v)` claims the
//! first empty slot with a CAS (linearizing at the successful CAS);
//! `deq` scans from the front, turning the first present item into a
//! TAKEN tombstone with a CAS (linearizing at the successful CAS, or at
//! the read that observes an empty slot for an ε answer). Slots are
//! single-use, so cells move monotonically `empty → item → taken`,
//! which is what pins the linearization points.
//!
//! This object is the positive control of the Section 5 experiments:
//! plugged into Algorithm B (Lemma 12) it lets three processes solve
//! consensus — exactly what Theorem 17 says is impossible for any
//! implementation from consensus-number-2 primitives.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, SimMemory};
use sl2_spec::fifo::{QueueOp, QueueResp, QueueSpec};

/// Cell states: empty, item (shifted by one), taken tombstone.
const EMPTY: u64 = 0;
const TAKEN: u64 = u64::MAX;

/// Factory for the CAS array queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CasQueueAlg {
    items: ArrayLoc,
}

impl CasQueueAlg {
    /// Allocates the base objects.
    pub fn new(mem: &mut SimMemory) -> Self {
        CasQueueAlg {
            items: mem.alloc_array(Cell::Cas(EMPTY)),
        }
    }
}

impl Algorithm for CasQueueAlg {
    type Spec = QueueSpec;
    type Machine = CasQueueMachine;

    fn spec(&self) -> QueueSpec {
        QueueSpec
    }

    fn machine(&self, _process: usize, op: &QueueOp) -> CasQueueMachine {
        match op {
            QueueOp::Enq(v) => CasQueueMachine::Enq {
                items: self.items,
                c: 0,
                v: *v,
            },
            QueueOp::Deq => CasQueueMachine::Deq {
                items: self.items,
                c: 0,
            },
        }
    }
}

/// Step machine for the CAS queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CasQueueMachine {
    /// `enq`: CAS the first empty slot to the item.
    Enq {
        /// The slot array.
        items: ArrayLoc,
        /// Slot currently being tried.
        c: usize,
        /// Value being enqueued.
        v: u64,
    },
    /// `deq`: scan for the first present item and CAS it to TAKEN.
    Deq {
        /// The slot array.
        items: ArrayLoc,
        /// Slot currently being examined.
        c: usize,
    },
    /// `deq`: retry CAS on a slot whose item was observed.
    DeqClaim {
        /// The slot array.
        items: ArrayLoc,
        /// Slot being claimed.
        c: usize,
        /// Observed (shifted) item value.
        raw: u64,
    },
}

impl OpMachine for CasQueueMachine {
    type Resp = QueueResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<QueueResp> {
        match *self {
            CasQueueMachine::Enq { items, c, v } => {
                let obs = mem.cas_at(items, c, EMPTY, v + 1);
                if obs == EMPTY {
                    Step::Ready(QueueResp::Ok)
                } else {
                    *self = CasQueueMachine::Enq { items, c: c + 1, v };
                    Step::Pending
                }
            }
            CasQueueMachine::Deq { items, c } => {
                let obs = mem.read_at(items, c);
                if obs == EMPTY {
                    // Slots fill front-to-back and never empty again:
                    // an empty slot here means the queue is empty NOW.
                    Step::Ready(QueueResp::Empty)
                } else if obs == TAKEN {
                    *self = CasQueueMachine::Deq { items, c: c + 1 };
                    Step::Pending
                } else {
                    *self = CasQueueMachine::DeqClaim { items, c, raw: obs };
                    Step::Pending
                }
            }
            CasQueueMachine::DeqClaim { items, c, raw } => {
                let obs = mem.cas_at(items, c, raw, TAKEN);
                if obs == raw {
                    Step::Ready(QueueResp::Item(raw - 1))
                } else {
                    // Someone else took it; move on.
                    *self = CasQueueMachine::Deq { items, c: c + 1 };
                    Step::Pending
                }
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
    fn solo_fifo_order() {
        let mut mem = SimMemory::new();
        let alg = CasQueueAlg::new(&mut mem);
        let (r, _) = run_solo(&mut alg.machine(0, &QueueOp::Deq), &mut mem);
        assert_eq!(r, QueueResp::Empty);
        for v in [1, 2, 3] {
            run_solo(&mut alg.machine(0, &QueueOp::Enq(v)), &mut mem);
        }
        for v in [1, 2, 3] {
            let (r, _) = run_solo(&mut alg.machine(1, &QueueOp::Deq), &mut mem);
            assert_eq!(r, QueueResp::Item(v));
        }
        let (r, _) = run_solo(&mut alg.machine(1, &QueueOp::Deq), &mut mem);
        assert_eq!(r, QueueResp::Empty);
    }

    #[test]
    fn random_schedules_are_linearizable() {
        let mut mem = SimMemory::new();
        let alg = CasQueueAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Deq],
            vec![QueueOp::Enq(2), QueueOp::Deq],
            vec![QueueOp::Deq, QueueOp::Enq(3)],
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
                is_linearizable(&QueueSpec, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    #[test]
    fn all_histories_linearizable_enq_race() {
        let mut mem = SimMemory::new();
        let alg = CasQueueAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq],
        ]);
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            assert!(is_linearizable(&QueueSpec, h), "{h:?}");
        });
    }

    #[test]
    fn cas_queue_is_strongly_linearizable_on_the_agm_witness_shape() {
        // The exact scenario shape that refutes the AGM stack passes
        // here: CAS pins linearization points at fixed steps.
        let mut mem = SimMemory::new();
        let alg = CasQueueAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1)],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn cas_queue_strong_linearizability_enq_deq_mix() {
        let mut mem = SimMemory::new();
        let alg = CasQueueAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Deq],
            vec![QueueOp::Enq(2), QueueOp::Deq],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }
}
