//! §3.1 — wait-free strongly-linearizable max register from fetch&add
//! (Theorem 1), step-machine form.
//!
//! One wide fetch&add register `R` packs, per process, a *unary*
//! encoding of the largest value that process has written: lane bit
//! `v-1` set means "wrote a value ≥ v". `WriteMax(K)` sets the missing
//! lane bits `prev+1 ..= K` with a single `fetch&add`; `ReadMax` reads
//! `R` with `fetch&add(R, 0)` and returns the largest per-process unary
//! count. The linearization point of every operation is its single
//! fetch&add — fixed once taken, hence strongly linearizable.
//!
//! Deviation from the paper's presentation: instead of caching
//! `prevLocalMax` across operations in process-local memory, a write
//! re-derives it by first reading `R` (one extra `fetch&add(R, 0)`).
//! Only process `i` ever writes lane `i`, so the decoded value *is*
//! `prevLocalMax`; semantics and linearization points are unchanged,
//! and operations stay wait-free (exactly 1–2 steps).
//!
//! [`MaxRegAlg::new`] is that unary paper form;
//! [`MaxRegAlg::with_encoding`] at [`LaneEncoding::Binary`] is the twin
//! of the shipped `SlMaxRegister::new_binary` — the same machine with
//! every lane read and write going through the codec's binary arm, so
//! lane states are in bijection and the checker explores the same
//! graph (`tests/corpus.rs` pins equal node counts).

use sl2_bignum::{BigNat, LaneEncoding, Lanes, Target};
use sl2_exec::lanes::LaneWrite;
use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

/// Factory for the §3.1 max register (Theorem 1).
#[derive(Debug, Clone)]
pub struct MaxRegAlg {
    reg: Loc,
    lanes: Lanes,
}

impl MaxRegAlg {
    /// Allocates the shared wide register for `n` processes (unary
    /// lanes, the paper's form).
    pub fn new(mem: &mut SimMemory, n: usize) -> Self {
        Self::with_encoding(mem, n, LaneEncoding::Unary)
    }

    /// As [`MaxRegAlg::new`] with an explicit lane encoding.
    pub fn with_encoding(mem: &mut SimMemory, n: usize, encoding: LaneEncoding) -> Self {
        MaxRegAlg {
            reg: mem.alloc(Cell::Wide(BigNat::zero())),
            lanes: Lanes::new(n, encoding),
        }
    }
}

impl Algorithm for MaxRegAlg {
    type Spec = MaxRegisterSpec;
    type Machine = MaxRegMachine;

    fn spec(&self) -> MaxRegisterSpec {
        MaxRegisterSpec
    }

    fn machine(&self, process: usize, op: &MaxOp) -> MaxRegMachine {
        match *op {
            MaxOp::Write(v) => MaxRegMachine::Write(LaneWrite::new(
                self.reg,
                self.lanes,
                process,
                Target::AtLeast(v),
            )),
            MaxOp::Read => MaxRegMachine::Read {
                reg: self.reg,
                lanes: self.lanes,
            },
        }
    }
}

/// Step machine for §3.1 operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MaxRegMachine {
    /// `WriteMax`: probe the own lane, then raise it to `v` with one
    /// fetch&add. A probe that finds the lane at `v` or above is the
    /// linearization point (paper: "not needed for correctness, but it
    /// simplifies the linearization proof").
    Write(LaneWrite),
    /// `ReadMax`: one `fetch&add(R,0)`.
    Read {
        /// The shared wide register.
        reg: Loc,
        /// Its lanes.
        lanes: Lanes,
    },
}

impl OpMachine for MaxRegMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match self {
            MaxRegMachine::Write(w) => w.step(mem).map(|()| MaxResp::Ok),
            MaxRegMachine::Read { reg, lanes } => {
                let image = mem.wide_adjust(*reg, &BigNat::zero(), &BigNat::zero());
                Step::Ready(MaxResp::Value(lanes.fold(&image)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::machine::run_solo;
    use sl2_exec::sched::{run, CrashPlan, RandomSched, RoundRobin, Scenario};
    use sl2_exec::strong::check_strong;
    use sl2_exec::{for_each_history, is_linearizable};

    #[test]
    fn solo_semantics_match_spec() {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 2);
        let (r, steps) = run_solo(&mut alg.machine(0, &MaxOp::Write(3)), &mut mem);
        assert_eq!(r, MaxResp::Ok);
        assert_eq!(steps, 2);
        let (r, _) = run_solo(&mut alg.machine(1, &MaxOp::Write(2)), &mut mem);
        assert_eq!(r, MaxResp::Ok);
        let (r, steps) = run_solo(&mut alg.machine(0, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(3));
        assert_eq!(steps, 1);
        // A smaller write is a 1-step no-op (probe only).
        let (_, steps) = run_solo(&mut alg.machine(1, &MaxOp::Write(1)), &mut mem);
        assert_eq!(steps, 1);
    }

    #[test]
    fn wait_free_bound_two_steps() {
        // Every operation finishes in at most 2 of its own steps,
        // regardless of scheduling: wait-freedom with a constant bound.
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(5), MaxOp::Read, MaxOp::Write(7)],
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Read, MaxOp::Write(9)],
        ]);
        for seed in 0..50 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(exec.max_op_steps() <= 2);
            assert!(is_linearizable(&MaxRegisterSpec, &exec.history));
        }
    }

    #[test]
    fn all_histories_linearizable_small_scenario() {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(4), MaxOp::Read],
        ]);
        for_each_history(&alg, mem, &scenario, 1_000_000, &mut |h| {
            assert!(is_linearizable(&MaxRegisterSpec, h), "history: {h:?}");
        });
    }

    #[test]
    fn strongly_linearizable_two_writers_one_reader() {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2)],
            vec![MaxOp::Write(5)],
            vec![MaxOp::Read, MaxOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn strongly_linearizable_write_read_mix() {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(3), MaxOp::Read],
            vec![MaxOp::Write(1), MaxOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 4_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn crash_mid_write_leaves_consistent_register() {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![vec![MaxOp::Write(4)], vec![MaxOp::Read, MaxOp::Read]]);
        // p0 crashes after its probe step: register unchanged, reads
        // stay linearizable.
        let exec = run(
            &alg,
            mem,
            &scenario,
            &mut RoundRobin::default(),
            &CrashPlan::none(2).crash_after(0, 1),
        );
        assert!(is_linearizable(&MaxRegisterSpec, &exec.history));
        assert_eq!(exec.history.pending_ops().len(), 1);
    }
}
