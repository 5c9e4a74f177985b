//! §4.1 — wait-free strongly-linearizable *readable* test&set from
//! plain test&set (Theorem 5), step-machine form.
//!
//! Base objects: a read/write register `state` (initially 0) and an
//! `n`-process test&set object `ts`. `read()` returns `state`.
//! `test&set()` performs `ts.test&set()`, then writes 1 to `state`,
//! then returns the bit obtained from `ts`.
//!
//! Linearization (from the paper's proof): reads linearize at their
//! read of `state`; when `state` first changes 0→1 (event `e`), the
//! test&set that won `ts` linearizes at `e`, followed by every other
//! test&set that already accessed `ts`; all remaining test&sets
//! linearize at their access of `ts`. Those points never move in any
//! extension, hence strong linearizability.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::tas::{ReadableTasSpec, TasOp, TasResp};

/// Factory for the Theorem 5 readable test&set.
#[derive(Debug, Clone)]
pub struct ReadableTasAlg {
    ts: Loc,
    state: Loc,
}

impl ReadableTasAlg {
    /// Allocates the base objects.
    pub fn new(mem: &mut SimMemory) -> Self {
        ReadableTasAlg {
            ts: mem.alloc(Cell::Tas(false)),
            state: mem.alloc(Cell::Reg(0)),
        }
    }
}

impl Algorithm for ReadableTasAlg {
    type Spec = ReadableTasSpec;
    type Machine = ReadableTasMachine;

    fn spec(&self) -> ReadableTasSpec {
        ReadableTasSpec
    }

    fn machine(&self, _process: usize, op: &TasOp) -> ReadableTasMachine {
        match op {
            TasOp::TestAndSet => ReadableTasMachine::TasAccess {
                ts: self.ts,
                state: self.state,
            },
            TasOp::Read => ReadableTasMachine::Read { state: self.state },
            TasOp::Reset => panic!("Theorem 5 object has no reset; see multishot_ts"),
        }
    }
}

/// Step machine for Theorem 5 operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReadableTasMachine {
    /// `test&set` step 1: access the base `ts`.
    TasAccess {
        /// Base test&set object.
        ts: Loc,
        /// The `state` register.
        state: Loc,
    },
    /// `test&set` step 2: write 1 to `state`, then return the bit.
    WriteState {
        /// The `state` register.
        state: Loc,
        /// Bit obtained from `ts`.
        won: u8,
    },
    /// `read`: one read of `state`.
    Read {
        /// The `state` register.
        state: Loc,
    },
}

impl OpMachine for ReadableTasMachine {
    type Resp = TasResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<TasResp> {
        match self {
            ReadableTasMachine::TasAccess { ts, state } => {
                let won = mem.tas(*ts);
                *self = ReadableTasMachine::WriteState { state: *state, won };
                Step::Pending
            }
            ReadableTasMachine::WriteState { state, won } => {
                mem.write(*state, 1);
                Step::Ready(TasResp::Bit(*won))
            }
            ReadableTasMachine::Read { state } => Step::Ready(TasResp::Bit(mem.read(*state) as u8)),
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
    fn solo_semantics() {
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        let (r, _) = run_solo(&mut alg.machine(0, &TasOp::Read), &mut mem);
        assert_eq!(r, TasResp::Bit(0));
        let (r, steps) = run_solo(&mut alg.machine(0, &TasOp::TestAndSet), &mut mem);
        assert_eq!(r, TasResp::Bit(0));
        assert_eq!(steps, 2);
        let (r, _) = run_solo(&mut alg.machine(1, &TasOp::TestAndSet), &mut mem);
        assert_eq!(r, TasResp::Bit(1));
        let (r, _) = run_solo(&mut alg.machine(1, &TasOp::Read), &mut mem);
        assert_eq!(r, TasResp::Bit(1));
    }

    #[test]
    fn exactly_one_winner_under_any_schedule() {
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet],
            vec![TasOp::TestAndSet],
            vec![TasOp::TestAndSet],
        ]);
        for seed in 0..60 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            let winners = exec
                .history
                .complete_ops()
                .iter()
                .filter(|r| r.returned.as_ref().map(|(x, _)| x) == Some(&TasResp::Bit(0)))
                .count();
            assert_eq!(winners, 1);
            assert!(is_linearizable(&ReadableTasSpec, &exec.history));
        }
    }

    #[test]
    fn all_histories_linearizable() {
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Read],
            vec![TasOp::Read, TasOp::TestAndSet],
        ]);
        for_each_history(&alg, mem, &scenario, 1_000_000, &mut |h| {
            assert!(is_linearizable(&ReadableTasSpec, h), "{h:?}");
        });
    }

    #[test]
    fn theorem5_strong_linearizability_two_contenders_one_reader() {
        // The crux: a reader observing state=1 forces the winner's
        // linearization before the write event e; the checker verifies
        // the fixed points survive every extension.
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet],
            vec![TasOp::TestAndSet],
            vec![TasOp::Read, TasOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn theorem5_strong_linearizability_tas_and_reads_interleaved() {
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Read],
            vec![TasOp::Read, TasOp::TestAndSet],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn crash_between_tas_and_write_is_safe() {
        // A process that wins ts but crashes before writing state leaves
        // a pending op; reads may still see 0 (the win is not yet
        // linearized) — exactly the paper's linearization rule.
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![TasOp::TestAndSet],
            vec![TasOp::Read, TasOp::TestAndSet],
        ]);
        let exec = run(
            &alg,
            mem,
            &scenario,
            &mut RandomSched::seeded(7),
            &CrashPlan::none(2).crash_after(0, 1),
        );
        assert!(is_linearizable(&ReadableTasSpec, &exec.history));
    }
}
