//! §4.2 — lock-free strongly-linearizable readable fetch&increment
//! from test&set (Theorem 9), step-machine form.
//!
//! Base objects: an infinite array `M` of readable test&set objects.
//! `fetch&increment()` performs `test&set` on `M\[1\], M\[2\], ...` in
//! index-ascending order until it obtains 0 and returns that index.
//! `read()` reads `M\[1\], M\[2\], ...` until it obtains 0 and returns that
//! index. The object's state is the smallest index whose test&set bit
//! is still 0; every operation linearizes at the step where it obtains
//! 0 — a fixed point, hence strong linearizability.
//!
//! The implementation is lock-free but not wait-free: an operation can
//! be overtaken forever, but only if infinitely many fetch&increments
//! complete (the paper's Discussion leaves wait-freedom from test&set
//! open).

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{ArrayLoc, Cell, SimMemory};
use sl2_spec::counters::{FetchIncOp, FetchIncResp, FetchIncSpec};

/// Factory for the Theorem 9 readable fetch&increment.
#[derive(Debug, Clone)]
pub struct FetchIncAlg {
    m: ArrayLoc,
}

impl FetchIncAlg {
    /// Allocates the base test&set array.
    pub fn new(mem: &mut SimMemory) -> Self {
        FetchIncAlg {
            m: mem.alloc_array(Cell::ARTas(false)),
        }
    }
}

impl Algorithm for FetchIncAlg {
    type Spec = FetchIncSpec;
    type Machine = FetchIncMachine;

    fn spec(&self) -> FetchIncSpec {
        FetchIncSpec
    }

    fn machine(&self, _process: usize, op: &FetchIncOp) -> FetchIncMachine {
        match op {
            FetchIncOp::FetchInc => FetchIncMachine::Inc { m: self.m, i: 1 },
            FetchIncOp::Read => FetchIncMachine::Read { m: self.m, i: 1 },
        }
    }
}

/// Step machine for Theorem 9 operations. Indices are 1-based, as in
/// the paper (the first winner obtains 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FetchIncMachine {
    /// `fetch&increment`: test&set `M[i]`, ascending.
    Inc {
        /// The `M` array.
        m: ArrayLoc,
        /// Next index to try (1-based).
        i: u64,
    },
    /// `read`: read `M[i]`, ascending.
    Read {
        /// The `M` array.
        m: ArrayLoc,
        /// Next index to try (1-based).
        i: u64,
    },
}

impl OpMachine for FetchIncMachine {
    type Resp = FetchIncResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<FetchIncResp> {
        match self {
            FetchIncMachine::Inc { m, i } => {
                if mem.tas_at(*m, *i as usize - 1) == 0 {
                    Step::Ready(FetchIncResp::Value(*i))
                } else {
                    *i += 1;
                    Step::Pending
                }
            }
            FetchIncMachine::Read { m, i } => {
                if mem.rtas_read_at(*m, *i as usize - 1) == 0 {
                    Step::Ready(FetchIncResp::Value(*i))
                } else {
                    *i += 1;
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
    fn solo_counts_from_one() {
        let mut mem = SimMemory::new();
        let alg = FetchIncAlg::new(&mut mem);
        for expect in 1..=5u64 {
            let (r, _) = run_solo(&mut alg.machine(0, &FetchIncOp::FetchInc), &mut mem);
            assert_eq!(r, FetchIncResp::Value(expect));
        }
        let (r, steps) = run_solo(&mut alg.machine(1, &FetchIncOp::Read), &mut mem);
        assert_eq!(r, FetchIncResp::Value(6));
        assert_eq!(steps, 6, "read scans past the 5 taken slots");
    }

    #[test]
    fn distinct_values_under_every_schedule() {
        let mut mem = SimMemory::new();
        let alg = FetchIncAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc, FetchIncOp::FetchInc],
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::FetchInc],
        ]);
        for seed in 0..60 {
            let exec = run(
                &alg,
                mem.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(3),
            );
            let mut got: Vec<u64> = exec
                .history
                .complete_ops()
                .iter()
                .filter_map(|r| match r.returned {
                    Some((FetchIncResp::Value(v), _)) => Some(v),
                    _ => None,
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2, 3, 4], "seed {seed}");
            assert!(is_linearizable(&FetchIncSpec, &exec.history));
        }
    }

    #[test]
    fn all_histories_linearizable_with_reader() {
        let mut mem = SimMemory::new();
        let alg = FetchIncAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc, FetchIncOp::Read],
            vec![FetchIncOp::FetchInc],
        ]);
        for_each_history(&alg, mem, &scenario, 2_000_000, &mut |h| {
            assert!(is_linearizable(&FetchIncSpec, h), "{h:?}");
        });
    }

    #[test]
    fn theorem9_strong_linearizability() {
        let mut mem = SimMemory::new();
        let alg = FetchIncAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::Read],
        ]);
        let out = check_strong(&alg, mem, &scenario, 6_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn theorem9_strong_linearizability_inc_read_mix() {
        let mut mem = SimMemory::new();
        let alg = FetchIncAlg::new(&mut mem);
        let scenario = Scenario::new(vec![
            vec![FetchIncOp::FetchInc, FetchIncOp::FetchInc],
            vec![FetchIncOp::Read, FetchIncOp::FetchInc],
        ]);
        let out = check_strong(&alg, mem, &scenario, 6_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn lock_free_not_wait_free_witness() {
        // A read can be overtaken k times by k completing increments:
        // its step count grows with contention — lock-freedom, not
        // wait-freedom. Global progress is preserved throughout.
        let mut mem = SimMemory::new();
        let alg = FetchIncAlg::new(&mut mem);
        let k = 6u64;
        let mut reader = alg.machine(1, &FetchIncOp::Read);
        let mut reader_steps = 0u64;
        for _ in 0..k {
            // An increment completes (takes the next slot) just before
            // the reader probes it, so the reader keeps chasing.
            run_solo(&mut alg.machine(0, &FetchIncOp::FetchInc), &mut mem);
            assert!(matches!(reader.step(&mut mem), Step::Pending));
            reader_steps += 1;
        }
        // Increments stop; the reader lands on the next probe.
        assert!(matches!(
            reader.step(&mut mem),
            Step::Ready(FetchIncResp::Value(v)) if v == k + 1
        ));
        reader_steps += 1;
        assert!(reader_steps > k, "reader was overtaken {k} times");
    }
}
