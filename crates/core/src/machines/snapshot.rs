//! §3.2 — wait-free strongly-linearizable atomic snapshot from
//! fetch&add (Theorem 2), step-machine form.
//!
//! The wide register `R` holds the current view with process `i`'s
//! component stored (in binary) in lane `i` (bits `i, n+i, 2n+i, ...`).
//! `update(v)` computes which lane bits to set (`posAdj`) and clear
//! (`negAdj`) and applies one `fetch&add(R, posAdj − negAdj)`; `scan`
//! reads `R` via `fetch&add(R, 0)` and decodes the view. Every
//! operation linearizes at its single fetch&add.
//!
//! As with the max register machine, `prevVal` is re-derived by a
//! preliminary `fetch&add(R, 0)` instead of a cross-operation local
//! cache; lane `i` is only written by process `i`, so the decoded value
//! equals `prevVal` exactly.

use sl2_bignum::{BigNat, LaneEncoding, Lanes, Target};
use sl2_exec::lanes::LaneWrite;
use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::snapshot::{SnapOp, SnapResp, SnapshotSpec};

/// Factory for the §3.2 snapshot (Theorem 2).
#[derive(Debug, Clone)]
pub struct SnapshotAlg {
    reg: Loc,
    lanes: Lanes,
}

impl SnapshotAlg {
    /// Allocates the shared wide register for `n` components.
    pub fn new(mem: &mut SimMemory, n: usize) -> Self {
        SnapshotAlg {
            reg: mem.alloc(Cell::Wide(BigNat::zero())),
            lanes: Lanes::new(n, LaneEncoding::Binary),
        }
    }
}

impl Algorithm for SnapshotAlg {
    type Spec = SnapshotSpec;
    type Machine = SnapshotMachine;

    fn spec(&self) -> SnapshotSpec {
        SnapshotSpec::new(self.lanes.layout.processes())
    }

    fn machine(&self, process: usize, op: &SnapOp) -> SnapshotMachine {
        match op {
            SnapOp::Update { i, v } => {
                assert_eq!(
                    *i, process,
                    "single-writer snapshot: process {process} cannot update component {i}"
                );
                SnapshotMachine::Update(LaneWrite::new(
                    self.reg,
                    self.lanes,
                    process,
                    Target::Exactly(*v),
                ))
            }
            SnapOp::Scan => SnapshotMachine::Scan {
                reg: self.reg,
                lanes: self.lanes,
            },
        }
    }
}

/// Step machine for §3.2 operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SnapshotMachine {
    /// `update`: probe the own lane for `prevVal`, then
    /// `fetch&add(R, posAdj − negAdj)`. A probe that finds the value
    /// already there is the linearization point (paper, step 1 of
    /// update).
    Update(LaneWrite),
    /// `scan`: one `fetch&add(R, 0)`.
    Scan {
        /// The shared wide register.
        reg: Loc,
        /// Its lanes, one per component.
        lanes: Lanes,
    },
}

impl OpMachine for SnapshotMachine {
    type Resp = SnapResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<SnapResp> {
        match self {
            SnapshotMachine::Update(w) => w.step(mem).map(|()| SnapResp::Ok),
            SnapshotMachine::Scan { reg, lanes } => {
                let image = mem.wide_adjust(*reg, &BigNat::zero(), &BigNat::zero());
                Step::Ready(SnapResp::View(lanes.view(&image)))
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
    fn solo_update_scan_round_trip() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 3);
        run_solo(
            &mut alg.machine(0, &SnapOp::Update { i: 0, v: 6 }),
            &mut mem,
        );
        run_solo(
            &mut alg.machine(2, &SnapOp::Update { i: 2, v: 9 }),
            &mut mem,
        );
        let (r, steps) = run_solo(&mut alg.machine(1, &SnapOp::Scan), &mut mem);
        assert_eq!(r, SnapResp::View(vec![6, 0, 9]));
        assert_eq!(steps, 1);
        // Overwrite with a smaller value (clears bits via negAdj).
        run_solo(
            &mut alg.machine(2, &SnapOp::Update { i: 2, v: 1 }),
            &mut mem,
        );
        let (r, _) = run_solo(&mut alg.machine(1, &SnapOp::Scan), &mut mem);
        assert_eq!(r, SnapResp::View(vec![6, 0, 1]));
    }

    #[test]
    fn same_value_update_is_single_step() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 2);
        run_solo(
            &mut alg.machine(0, &SnapOp::Update { i: 0, v: 4 }),
            &mut mem,
        );
        let (_, steps) = run_solo(
            &mut alg.machine(0, &SnapOp::Update { i: 0, v: 4 }),
            &mut mem,
        );
        assert_eq!(steps, 1);
    }

    #[test]
    #[should_panic(expected = "single-writer")]
    fn update_of_foreign_component_rejected() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 2);
        alg.machine(0, &SnapOp::Update { i: 1, v: 3 });
    }

    #[test]
    fn random_schedules_stay_linearizable() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![
                SnapOp::Update { i: 0, v: 1 },
                SnapOp::Scan,
                SnapOp::Update { i: 0, v: 3 },
            ],
            vec![SnapOp::Update { i: 1, v: 7 }, SnapOp::Scan],
            vec![SnapOp::Scan, SnapOp::Update { i: 2, v: 2 }, SnapOp::Scan],
        ]);
        for seed in 0..40 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(is_linearizable(&SnapshotSpec::new(3), &exec.history));
            assert!(exec.max_op_steps() <= 2, "wait-free bound");
        }
    }

    #[test]
    fn all_histories_linearizable() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![SnapOp::Update { i: 0, v: 2 }, SnapOp::Scan],
            vec![SnapOp::Update { i: 1, v: 5 }, SnapOp::Scan],
        ]);
        for_each_history(&alg, mem, &scenario, 1_000_000, &mut |h| {
            assert!(is_linearizable(&SnapshotSpec::new(2), h));
        });
    }

    #[test]
    fn strongly_linearizable_update_scan_race() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![SnapOp::Update { i: 0, v: 2 }, SnapOp::Update { i: 0, v: 1 }],
            vec![SnapOp::Scan, SnapOp::Scan],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn strongly_linearizable_three_processes() {
        let mut mem = SimMemory::new();
        let alg = SnapshotAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![SnapOp::Update { i: 0, v: 1 }],
            vec![SnapOp::Update { i: 1, v: 2 }],
            vec![SnapOp::Scan, SnapOp::Scan],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }
}
