//! §4.3 — lock-free strongly-linearizable set from test&set
//! (Algorithm 2 / Theorem 10), step-machine form.
//!
//! Base objects: an infinite array `Items` of read/write registers
//! (⊥-initialized), an infinite array `TS` of test&set objects, and a
//! readable fetch&increment `Max` (initially 1) — the Theorem 9 object,
//! used here as an atomic composite cell per the paper's modular proof.
//!
//! * `put(x)`: `m := Max.fetch&increment(); Items[m].write(x)`.
//! * `take()`: repeatedly — read `Max`, scan `Items[1..Max-1]`; for each
//!   non-⊥ item whose `TS` bit test&sets to 0, return it; if a full
//!   pass observes the same taken-count and the same `Max` as the
//!   previous pass, return `EMPTY`.
//!
//! The set's state is `{x : Items[i]=x, i < Max, TS[i]=0}`. Puts
//! linearize at their `Items` write, successful takes at their winning
//! `test&set`, empty takes at their last read of `Max` — all fixed
//! points.

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, Loc, SimMemory};
use sl2_spec::put_take::{PutTakeSetSpec, SetOp, SetResp};

/// Items are stored shifted by one so that register value 0 encodes ⊥.
const BOTTOM: u64 = 0;

/// Factory for the Algorithm 2 set. (`Eq + Hash` because take
/// machines embed the handles.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlSetAlg {
    max: Loc,
    items: ArrayLoc,
    ts: ArrayLoc,
}

impl SlSetAlg {
    /// Allocates the base objects.
    pub fn new(mem: &mut SimMemory) -> Self {
        SlSetAlg {
            max: mem.alloc(Cell::ARFai(1)),
            items: mem.alloc_array(Cell::Reg(BOTTOM)),
            ts: mem.alloc_array(Cell::Tas(false)),
        }
    }
}

impl Algorithm for SlSetAlg {
    type Spec = PutTakeSetSpec;
    type Machine = SlSetMachine;

    fn spec(&self) -> PutTakeSetSpec {
        PutTakeSetSpec
    }

    fn machine(&self, _process: usize, op: &SetOp) -> SlSetMachine {
        match op {
            SetOp::Put(x) => SlSetMachine::PutFai {
                max: self.max,
                items: self.items,
                x: *x,
            },
            SetOp::Take => SlSetMachine::ReadMax {
                alg: *self,
                taken_old: 0,
                max_old: 0,
            },
        }
    }
}

/// Step machine for Algorithm 2 operations. Slot indices are 1-based
/// as in the paper (array cell `c-1` backs slot `c`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SlSetMachine {
    /// `put` step 1: `m := Max.fetch&increment()`.
    PutFai {
        /// The readable fetch&inc.
        max: Loc,
        /// The `Items` array.
        items: ArrayLoc,
        /// Item being put.
        x: u64,
    },
    /// `put` step 2: `Items[m].write(x)` — the linearization point.
    PutWrite {
        /// The `Items` array.
        items: ArrayLoc,
        /// Reserved slot (1-based).
        m: u64,
        /// Item being put.
        x: u64,
    },
    /// `take` loop head: `max_new := Max.read() − 1`.
    ReadMax {
        /// Base-object handles.
        alg: SlSetAlg,
        /// Taken-count of the previous pass (line 16).
        taken_old: u64,
        /// `Max` of the previous pass (line 17).
        max_old: u64,
    },
    /// `take` scanning: `x := Items[c].read()`.
    ScanItem {
        /// Base-object handles.
        alg: SlSetAlg,
        /// Current slot (1-based).
        c: u64,
        /// Last slot of this pass.
        max_new: u64,
        /// Taken slots observed this pass.
        taken_new: u64,
        /// Previous pass counters.
        taken_old: u64,
        /// Previous pass `Max`.
        max_old: u64,
    },
    /// `take` claiming: `TS[c].test&set()`.
    TasItem {
        /// Base-object handles.
        alg: SlSetAlg,
        /// Current slot (1-based).
        c: u64,
        /// Item read from `Items[c]` (already decoded).
        x: u64,
        /// Last slot of this pass.
        max_new: u64,
        /// Taken slots observed this pass.
        taken_new: u64,
        /// Previous pass counters.
        taken_old: u64,
        /// Previous pass `Max`.
        max_old: u64,
    },
}

impl SlSetMachine {
    /// Advances a `take` pass past slot `c`, either continuing the
    /// scan, finishing the pass (EMPTY or a new pass), — pure local
    /// control flow, folded into the step that just ran.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        alg: &SlSetAlg,
        c: u64,
        max_new: u64,
        taken_new: u64,
        taken_old: u64,
        max_old: u64,
    ) -> (SlSetMachine, Option<SetResp>) {
        if c < max_new {
            (
                SlSetMachine::ScanItem {
                    alg: *alg,
                    c: c + 1,
                    max_new,
                    taken_new,
                    taken_old,
                    max_old,
                },
                None,
            )
        } else if taken_new == taken_old && max_new == max_old {
            // Two identical passes: the set was empty at the last read
            // of Max (line 15).
            (
                SlSetMachine::ReadMax {
                    alg: *alg,
                    taken_old,
                    max_old,
                },
                Some(SetResp::Empty),
            )
        } else {
            (
                SlSetMachine::ReadMax {
                    alg: *alg,
                    taken_old: taken_new,
                    max_old: max_new,
                },
                None,
            )
        }
    }
}

impl OpMachine for SlSetMachine {
    type Resp = SetResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<SetResp> {
        match self.clone() {
            SlSetMachine::PutFai { max, items, x } => {
                let m = mem.fai(max);
                *self = SlSetMachine::PutWrite { items, m, x };
                Step::Pending
            }
            SlSetMachine::PutWrite { items, m, x } => {
                mem.write_at(items, m as usize - 1, x + 1);
                Step::Ready(SetResp::Ok)
            }
            SlSetMachine::ReadMax {
                alg,
                taken_old,
                max_old,
            } => {
                let max_new = mem.read(alg.max) - 1;
                if max_new == 0 {
                    // Empty active region: pass over immediately.
                    let (next, done) = SlSetMachine::advance(&alg, 0, 0, 0, taken_old, max_old);
                    *self = next;
                    match done {
                        Some(resp) => Step::Ready(resp),
                        None => Step::Pending,
                    }
                } else {
                    *self = SlSetMachine::ScanItem {
                        alg,
                        c: 1,
                        max_new,
                        taken_new: 0,
                        taken_old,
                        max_old,
                    };
                    Step::Pending
                }
            }
            SlSetMachine::ScanItem {
                alg,
                c,
                max_new,
                taken_new,
                taken_old,
                max_old,
            } => {
                let raw = mem.read_at(alg.items, c as usize - 1);
                if raw == BOTTOM {
                    let (next, done) =
                        SlSetMachine::advance(&alg, c, max_new, taken_new, taken_old, max_old);
                    *self = next;
                    match done {
                        Some(resp) => Step::Ready(resp),
                        None => Step::Pending,
                    }
                } else {
                    *self = SlSetMachine::TasItem {
                        alg,
                        c,
                        x: raw - 1,
                        max_new,
                        taken_new,
                        taken_old,
                        max_old,
                    };
                    Step::Pending
                }
            }
            SlSetMachine::TasItem {
                alg,
                c,
                x,
                max_new,
                taken_new,
                taken_old,
                max_old,
            } => {
                if mem.tas_at(alg.ts, c as usize - 1) == 0 {
                    return Step::Ready(SetResp::Item(x));
                }
                let (next, done) =
                    SlSetMachine::advance(&alg, c, max_new, taken_new + 1, taken_old, max_old);
                *self = next;
                match done {
                    Some(resp) => Step::Ready(resp),
                    None => Step::Pending,
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
    use sl2_spec::{legal_states, Spec};

    #[test]
    fn solo_put_take_round_trip() {
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        let (r, _) = run_solo(&mut alg.machine(0, &SetOp::Take), &mut mem);
        assert_eq!(r, SetResp::Empty);
        run_solo(&mut alg.machine(0, &SetOp::Put(7)), &mut mem);
        run_solo(&mut alg.machine(0, &SetOp::Put(9)), &mut mem);
        let (r1, _) = run_solo(&mut alg.machine(1, &SetOp::Take), &mut mem);
        let (r2, _) = run_solo(&mut alg.machine(1, &SetOp::Take), &mut mem);
        let mut got = vec![r1, r2];
        got.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(got, vec![SetResp::Item(7), SetResp::Item(9)]);
        let (r, _) = run_solo(&mut alg.machine(0, &SetOp::Take), &mut mem);
        assert_eq!(r, SetResp::Empty);
    }

    #[test]
    fn item_zero_is_representable() {
        // Item 0 must not collide with ⊥ (stored shifted).
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        run_solo(&mut alg.machine(0, &SetOp::Put(0)), &mut mem);
        let (r, _) = run_solo(&mut alg.machine(1, &SetOp::Take), &mut mem);
        assert_eq!(r, SetResp::Item(0));
    }

    #[test]
    fn random_schedules_stay_linearizable() {
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![SetOp::Put(1), SetOp::Take, SetOp::Put(4)],
            vec![SetOp::Put(2), SetOp::Take],
            vec![SetOp::Take, SetOp::Take],
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
                is_linearizable(&PutTakeSetSpec, &exec.history),
                "seed {seed}: {:?}",
                exec.history
            );
        }
    }

    #[test]
    fn no_item_taken_twice_and_none_invented() {
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![SetOp::Put(1), SetOp::Put(2)],
            vec![SetOp::Take, SetOp::Take, SetOp::Take],
        ]);
        for seed in 0..60 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(2),
            );
            let taken: Vec<u64> = exec
                .history
                .complete_ops()
                .iter()
                .filter_map(|r| match r.returned {
                    Some((SetResp::Item(x), _)) => Some(x),
                    _ => None,
                })
                .collect();
            let mut uniq = taken.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(taken.len(), uniq.len(), "duplicate take, seed {seed}");
            assert!(taken.iter().all(|x| [1, 2].contains(x)));
        }
    }

    #[test]
    fn all_histories_linearizable_put_take_race() {
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        let scenario = Scenario::new(vec![vec![SetOp::Put(3)], vec![SetOp::Take]]);
        for_each_history(&alg, mem, &scenario, 2_000_000, &mut |h| {
            assert!(is_linearizable(&PutTakeSetSpec, h), "{h:?}");
        });
    }

    #[test]
    fn theorem10_strong_linearizability_put_vs_take() {
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        let scenario = Scenario::new(vec![vec![SetOp::Put(1)], vec![SetOp::Take]]);
        let out = check_strong(&alg, mem, &scenario, 6_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn theorem10_strong_linearizability_competing_takes() {
        // The put is part of the scenario (the checker's specification
        // state starts from the object's initial, empty, state).
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        let scenario = Scenario::new(vec![vec![SetOp::Put(5), SetOp::Take], vec![SetOp::Take]]);
        let out = check_strong(&alg, mem, &scenario, 6_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn empty_answer_needs_a_stable_double_pass() {
        // After one put+take, a take returning EMPTY performs at least
        // two passes (the first pass observes the taken slot).
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        run_solo(&mut alg.machine(0, &SetOp::Put(1)), &mut mem);
        run_solo(&mut alg.machine(0, &SetOp::Take), &mut mem);
        let (r, steps) = run_solo(&mut alg.machine(1, &SetOp::Take), &mut mem);
        assert_eq!(r, SetResp::Empty);
        // pass1: readMax + item + tas(loses) ; pass2: readMax + item + tas
        assert!(steps >= 4, "EMPTY after {steps} steps");
    }

    #[test]
    fn take_sequences_are_legal_for_the_nondeterministic_spec() {
        let mut mem = SimMemory::new();
        let alg = SlSetAlg::new(&mut mem);
        for v in [10, 20, 30] {
            run_solo(&mut alg.machine(0, &SetOp::Put(v)), &mut mem);
        }
        let mut seq = Vec::new();
        for v in [10, 20, 30] {
            seq.push((SetOp::Put(v), SetResp::Ok));
        }
        for _ in 0..3 {
            let (r, _) = run_solo(&mut alg.machine(1, &SetOp::Take), &mut mem);
            seq.push((SetOp::Take, r));
        }
        let spec = PutTakeSetSpec;
        assert!(!legal_states(&spec, &seq).is_empty());
        assert_eq!(
            legal_states(&spec, &seq)[0],
            spec.initial(),
            "set drained back to empty"
        );
    }
}
