//! §4.1 — readable *multi-shot* test&set from readable test&set and a
//! max register (Theorem 6; Corollaries 7–8), step-machine form.
//!
//! Base objects: a max register `curr` (initially 1) and an infinite
//! array `TS` of readable test&set objects. Operations:
//!
//! * `test&set()` → `TS[curr.readMax()].test&set()`
//! * `read()`     → `TS[curr.readMax()].read()`
//! * `reset()`    → `c := curr.readMax()`; if `TS[c].read() == 1` then
//!   `curr.writeMax(c + 1)`
//!
//! The object's state is that of `TS[v]` where `v` is the value of
//! `curr`; the object logically resets when `curr.writeMax(v+1)` first
//! takes effect. Per the paper's modular structure (the base objects
//! here are the *implemented* readable test&set of Theorem 5 and the
//! max register of Theorem 1/Corollary 8, composed via [9, Thm 10]),
//! the machine form uses atomic composite cells for both.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, Loc, SimMemory};
use sl2_spec::tas::{MultiShotTasSpec, TasOp, TasResp};

/// Factory for the Theorem 6 readable multi-shot test&set.
#[derive(Debug, Clone)]
pub struct MultiShotTasAlg {
    curr: Loc,
    ts: ArrayLoc,
}

impl MultiShotTasAlg {
    /// Allocates the base objects.
    pub fn new(mem: &mut SimMemory) -> Self {
        MultiShotTasAlg {
            curr: mem.alloc(Cell::AMaxReg(1)),
            ts: mem.alloc_array(Cell::ARTas(false)),
        }
    }
}

impl Algorithm for MultiShotTasAlg {
    type Spec = MultiShotTasSpec;
    type Machine = MultiShotTasMachine;

    fn spec(&self) -> MultiShotTasSpec {
        MultiShotTasSpec
    }

    fn machine(&self, _process: usize, op: &TasOp) -> MultiShotTasMachine {
        let kind = match op {
            TasOp::TestAndSet => MsKind::TestAndSet,
            TasOp::Read => MsKind::Read,
            TasOp::Reset => MsKind::Reset,
        };
        MultiShotTasMachine::ReadCurr {
            curr: self.curr,
            ts: self.ts,
            kind,
        }
    }
}

/// Which multi-shot operation a machine is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsKind {
    /// `test&set()`.
    TestAndSet,
    /// `read()`.
    Read,
    /// `reset()`.
    Reset,
}

/// Step machine for Theorem 6 operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MultiShotTasMachine {
    /// Step 1 (all ops): `c := curr.readMax()`.
    ReadCurr {
        /// The max register.
        curr: Loc,
        /// The `TS` array.
        ts: ArrayLoc,
        /// Operation kind.
        kind: MsKind,
    },
    /// `test&set` step 2: `TS[c].test&set()`.
    TasAt {
        /// The `TS` array.
        ts: ArrayLoc,
        /// Epoch read from `curr`.
        c: u64,
    },
    /// `read` step 2: `TS[c].read()`.
    ReadAt {
        /// The `TS` array.
        ts: ArrayLoc,
        /// Epoch read from `curr`.
        c: u64,
    },
    /// `reset` step 2: `TS[c].read()`; if 0 the reset is a no-op.
    ResetProbe {
        /// The max register.
        curr: Loc,
        /// The `TS` array.
        ts: ArrayLoc,
        /// Epoch read from `curr`.
        c: u64,
    },
    /// `reset` step 3: `curr.writeMax(c + 1)`.
    ResetAdvance {
        /// The max register.
        curr: Loc,
        /// Epoch read from `curr`.
        c: u64,
    },
}

impl OpMachine for MultiShotTasMachine {
    type Resp = TasResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<TasResp> {
        match *self {
            MultiShotTasMachine::ReadCurr { curr, ts, kind } => {
                let c = mem.max_read(curr);
                *self = match kind {
                    MsKind::TestAndSet => MultiShotTasMachine::TasAt { ts, c },
                    MsKind::Read => MultiShotTasMachine::ReadAt { ts, c },
                    MsKind::Reset => MultiShotTasMachine::ResetProbe { curr, ts, c },
                };
                Step::Pending
            }
            MultiShotTasMachine::TasAt { ts, c } => {
                Step::Ready(TasResp::Bit(mem.tas_at(ts, c as usize)))
            }
            MultiShotTasMachine::ReadAt { ts, c } => {
                Step::Ready(TasResp::Bit(mem.rtas_read_at(ts, c as usize)))
            }
            MultiShotTasMachine::ResetProbe { curr, ts, c } => {
                if mem.rtas_read_at(ts, c as usize) == 0 {
                    // Nothing to reset; linearize at this read.
                    Step::Ready(TasResp::Ok)
                } else {
                    *self = MultiShotTasMachine::ResetAdvance { curr, c };
                    Step::Pending
                }
            }
            MultiShotTasMachine::ResetAdvance { curr, c } => {
                mem.max_write(curr, c + 1);
                Step::Ready(TasResp::Ok)
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

    fn solo<A: Algorithm>(
        alg: &A,
        mem: &mut SimMemory,
        op: &<A::Spec as sl2_spec::Spec>::Op,
    ) -> <A::Spec as sl2_spec::Spec>::Resp {
        run_solo(&mut alg.machine(0, op), mem).0
    }

    #[test]
    fn reset_reopens_competition_solo() {
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        assert_eq!(solo(&alg, &mut mem, &TasOp::TestAndSet), TasResp::Bit(0));
        assert_eq!(solo(&alg, &mut mem, &TasOp::TestAndSet), TasResp::Bit(1));
        assert_eq!(solo(&alg, &mut mem, &TasOp::Read), TasResp::Bit(1));
        assert_eq!(solo(&alg, &mut mem, &TasOp::Reset), TasResp::Ok);
        assert_eq!(solo(&alg, &mut mem, &TasOp::Read), TasResp::Bit(0));
        assert_eq!(solo(&alg, &mut mem, &TasOp::TestAndSet), TasResp::Bit(0));
    }

    #[test]
    fn reset_on_zero_state_is_noop() {
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        assert_eq!(solo(&alg, &mut mem, &TasOp::Reset), TasResp::Ok);
        // curr must not have advanced: winning is still possible at epoch 1.
        assert_eq!(solo(&alg, &mut mem, &TasOp::TestAndSet), TasResp::Bit(0));
    }

    #[test]
    fn wait_free_constant_bound() {
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Reset, TasOp::TestAndSet],
            vec![TasOp::TestAndSet, TasOp::Read, TasOp::Reset],
            vec![TasOp::Read, TasOp::Reset, TasOp::Read],
        ]);
        for seed in 0..60 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(exec.max_op_steps() <= 3, "wait-free: ≤3 steps per op");
            assert!(
                is_linearizable(&MultiShotTasSpec, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    #[test]
    fn all_histories_linearizable_with_reset_race() {
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Reset],
            vec![TasOp::TestAndSet, TasOp::Read],
        ]);
        for_each_history(&alg, mem, &scenario, 2_000_000, &mut |h| {
            assert!(is_linearizable(&MultiShotTasSpec, h), "{h:?}");
        });
    }

    #[test]
    fn theorem6_strong_linearizability_reset_vs_tas() {
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Reset],
            vec![TasOp::TestAndSet],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn theorem6_strong_linearizability_with_reader() {
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet],
            vec![TasOp::Reset],
            vec![TasOp::Read, TasOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 6_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn concurrent_resets_advance_epoch_once() {
        // Several resets of the same epoch: only the first writeMax has
        // effect (the others write the same value).
        let mut mem = SimMemory::new();
        let alg = MultiShotTasAlg::new(&mut mem);
        // Set state to 1 first.
        run_solo(&mut alg.machine(0, &TasOp::TestAndSet), &mut mem);
        let scenario = Scenario::new(vec![vec![TasOp::Reset], vec![TasOp::Reset]]);
        for seed in 0..30 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(2),
            );
            let mut after = exec.mem;
            assert_eq!(after.max_read(alg.curr), 2, "epoch advanced exactly once");
        }
    }
}
