//! Theorem 9 ∘ Theorem 5, end to end in machine form: readable
//! fetch&increment whose readable test&set base objects are themselves
//! **implemented** (not atomic cells) by Theorem 5's construction from
//! plain test&set and a read/write register.
//!
//! The paper composes its constructions through the composability of
//! strong linearizability (\[9, Theorem 10\]): Theorem 9 assumes atomic
//! readable test&set objects, and Theorem 5 supplies strongly
//! linearizable ones from plain test&set. [`crate::machines::fetch_inc`]
//! checks Theorem 9 modularly (base objects are `ARTas` cells); this
//! module *inlines* Theorem 5 into every base object, so the checker
//! verifies the composed construction directly — the executable form of
//! the composition theorem, and of Theorem 19's substitution step
//! ("replace the base objects in `A` with the wait-free strongly
//! linearizable implementations of Theorem 5").
//!
//! Each logical `M[i]` is a pair `(ts[i], state[i])`:
//!
//! * `test&set()` = `ts[i].test&set()`, then `state[i].write(1)`,
//!   return the bit from `ts[i]` (2 steps);
//! * `read()` = `state[i].read()` (1 step).
//!
//! `fetch&increment()` walks `M[1], M[2], ...` performing the 2-step
//! test&set until it wins; `read()` walks `state[1], state[2], ...`
//! until it reads 0. As in Theorem 9 the implementation is lock-free
//! (not wait-free); restricted to **one-shot** use (each process
//! invokes at most one `fetch&increment`), every operation finishes
//! within `2n` of its own steps — the related-work claim that the
//! one-shot fetch&increment from test&set \[4, 5\] is wait-free and
//! strongly linearizable.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, SimMemory};
use sl2_spec::counters::{FetchIncOp, FetchIncResp, FetchIncSpec};

/// Factory for the composed (Thm 9 ∘ Thm 5) readable fetch&increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetchIncComposedAlg {
    /// Plain test&set bits of the inlined Theorem 5 objects.
    ts: ArrayLoc,
    /// `state` registers of the inlined Theorem 5 objects.
    state: ArrayLoc,
}

impl FetchIncComposedAlg {
    /// Allocates the base arrays.
    pub fn new(mem: &mut SimMemory) -> Self {
        FetchIncComposedAlg {
            ts: mem.alloc_array(Cell::Tas(false)),
            state: mem.alloc_array(Cell::Reg(0)),
        }
    }
}

impl Algorithm for FetchIncComposedAlg {
    type Spec = FetchIncSpec;
    type Machine = FetchIncComposedMachine;

    fn spec(&self) -> FetchIncSpec {
        FetchIncSpec
    }

    fn machine(&self, _process: usize, op: &FetchIncOp) -> FetchIncComposedMachine {
        match op {
            FetchIncOp::FetchInc => FetchIncComposedMachine::IncTas { alg: *self, i: 1 },
            FetchIncOp::Read => FetchIncComposedMachine::Read { alg: *self, i: 1 },
        }
    }
}

/// Step machine for the composed fetch&increment. Indices are 1-based.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FetchIncComposedMachine {
    /// `fetch&increment`, Theorem 5 step 1 at `M[i]`: `ts[i].test&set()`.
    IncTas {
        /// Base-object handles.
        alg: FetchIncComposedAlg,
        /// Current index (1-based).
        i: u64,
    },
    /// `fetch&increment`, Theorem 5 step 2 at `M[i]`:
    /// `state[i].write(1)`, then return `i` if the test&set was won.
    IncWrite {
        /// Base-object handles.
        alg: FetchIncComposedAlg,
        /// Current index (1-based).
        i: u64,
        /// Whether `ts[i]` returned 0 (the win).
        won: bool,
    },
    /// `read`, Theorem 5's read at `M[i]`: `state[i].read()`.
    Read {
        /// Base-object handles.
        alg: FetchIncComposedAlg,
        /// Current index (1-based).
        i: u64,
    },
}

impl OpMachine for FetchIncComposedMachine {
    type Resp = FetchIncResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<FetchIncResp> {
        match *self {
            FetchIncComposedMachine::IncTas { alg, i } => {
                let won = mem.tas_at(alg.ts, i as usize - 1) == 0;
                *self = FetchIncComposedMachine::IncWrite { alg, i, won };
                Step::Pending
            }
            FetchIncComposedMachine::IncWrite { alg, i, won } => {
                mem.write_at(alg.state, i as usize - 1, 1);
                if won {
                    Step::Ready(FetchIncResp::Value(i))
                } else {
                    *self = FetchIncComposedMachine::IncTas { alg, i: i + 1 };
                    Step::Pending
                }
            }
            FetchIncComposedMachine::Read { alg, i } => {
                if mem.read_at(alg.state, i as usize - 1) == 0 {
                    Step::Ready(FetchIncResp::Value(i))
                } else {
                    *self = FetchIncComposedMachine::Read { alg, i: i + 1 };
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
    use sl2_exec::sched::{run, BurstSched, CrashPlan, RandomSched, Scenario};
    use sl2_exec::strong::check_strong;

    #[test]
    fn solo_counts_from_one() {
        let mut mem = SimMemory::new();
        let alg = FetchIncComposedAlg::new(&mut mem);
        for expect in 1..=4u64 {
            let (r, steps) = run_solo(&mut alg.machine(0, &FetchIncOp::FetchInc), &mut mem);
            assert_eq!(r, FetchIncResp::Value(expect));
            assert_eq!(steps, 2 * expect, "2 steps per probed index");
        }
        let (r, _) = run_solo(&mut alg.machine(1, &FetchIncOp::Read), &mut mem);
        assert_eq!(r, FetchIncResp::Value(5));
    }

    #[test]
    fn composed_strong_linearizability_two_incs_one_read() {
        let mut mem = SimMemory::new();
        let alg = FetchIncComposedAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn composed_strong_linearizability_inc_read_mix() {
        let mut mem = SimMemory::new();
        let alg = FetchIncComposedAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc, FetchIncOp::FetchInc],
            vec![FetchIncOp::Read, FetchIncOp::FetchInc],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn matches_modular_form_under_random_schedules() {
        // Differential test: the composed form and the modular form
        // (atomic readable test&set cells) return identical multisets
        // of tickets and both linearize, schedule by schedule.
        use crate::machines::fetch_inc::FetchIncAlg;
        let scenario_ops = vec![
            vec![FetchIncOp::FetchInc, FetchIncOp::Read],
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::FetchInc],
        ];
        for seed in 0..200 {
            let mut mem_c = SimMemory::new();
            let alg_c = FetchIncComposedAlg::new(&mut mem_c);
            let scenario = Scenario::new(scenario_ops.clone());
            let exec_c = run(
                &alg_c,
                mem_c,
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            assert!(is_linearizable(&FetchIncSpec, &exec_c.history));

            let mut mem_m = SimMemory::new();
            let alg_m = FetchIncAlg::new(&mut mem_m);
            let exec_m = run(
                &alg_m,
                mem_m,
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            let tickets = |h: &sl2_exec::History<FetchIncSpec>, op: FetchIncOp| -> Vec<u64> {
                let mut t: Vec<u64> = h
                    .complete_ops()
                    .iter()
                    .filter(|r| r.op == op)
                    .filter_map(|r| match r.returned {
                        Some((FetchIncResp::Value(v), _)) => Some(v),
                        _ => None,
                    })
                    .collect();
                t.sort_unstable();
                t
            };
            assert_eq!(
                tickets(&exec_c.history, FetchIncOp::FetchInc),
                tickets(&exec_m.history, FetchIncOp::FetchInc),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn one_shot_use_is_wait_free_within_2n_steps() {
        // One-shot restriction (each process at most one inc): a
        // fetch&increment loses at most n−1 probes, so it finishes in
        // ≤ 2n of its own steps — the wait-free one-shot
        // fetch&increment of [4, 5]. Verified across random and bursty
        // schedules for n = 2..5.
        for n in 2..=5usize {
            let mut base = SimMemory::new();
            let alg = FetchIncComposedAlg::new(&mut base);
            let scenario = Scenario::new(vec![vec![FetchIncOp::FetchInc]; n]);
            for seed in 0..300 {
                let exec = run(
                    &alg,
                    base.clone(),
                    &scenario,
                    &mut BurstSched::seeded(seed, 5),
                    &CrashPlan::none(n),
                );
                assert!(
                    exec.max_op_steps() <= 2 * n as u64,
                    "n={n} seed={seed}: an op took {} steps",
                    exec.max_op_steps()
                );
                assert!(is_linearizable(&FetchIncSpec, &exec.history));
            }
        }
    }

    #[test]
    fn multi_shot_use_exceeds_the_one_shot_bound() {
        // Contrast: with repeated increments the same machine is only
        // lock-free — an overtaken read/inc exceeds the 2n bound.
        let mut mem = SimMemory::new();
        let alg = FetchIncComposedAlg::new(&mut mem);
        // Six completed increments push the frontier past index 5.
        for _ in 0..6 {
            run_solo(&mut alg.machine(0, &FetchIncOp::FetchInc), &mut mem);
        }
        let (r, steps) = run_solo(&mut alg.machine(1, &FetchIncOp::FetchInc), &mut mem);
        assert_eq!(r, FetchIncResp::Value(7));
        assert!(steps > 2 * 2, "late inc paid {steps} steps (n = 2)");
    }

    #[test]
    fn crash_between_tas_and_state_write_is_linearizable() {
        // The Theorem 5 window: a process wins ts[i] and crashes before
        // writing state[i]. Readers keep seeing state 0 and return i —
        // consistent with the winner's inc never being linearized
        // (it is pending forever and need not be included).
        let mut mem = SimMemory::new();
        let alg = FetchIncComposedAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::Read, FetchIncOp::Read],
        ]);
        let exec = run(
            &alg,
            mem,
            &scenario,
            &mut RandomSched::seeded(7),
            &CrashPlan::none(2).crash_after(0, 1),
        );
        assert!(
            is_linearizable(&FetchIncSpec, &exec.history),
            "{:?}",
            exec.history
        );
        for r in exec.history.complete_ops() {
            if r.op == FetchIncOp::Read {
                assert_eq!(
                    r.returned.as_ref().map(|(v, _)| v),
                    Some(&FetchIncResp::Value(1))
                );
            }
        }
    }
}
