//! Lock-free strongly-linearizable max register from read/write
//! registers (the \[18, 27\] object used by Corollary 8), step-machine
//! form.
//!
//! Base objects: one single-writer register `A[i]` per process.
//! `writeMax(v)` by process `i` reads `A[i]` and, if `v` is larger,
//! writes it — wait-free, and safe because only `i` writes `A[i]` (the
//! register never regresses). `readMax()` repeatedly collects `A` until
//! two consecutive collects are equal, then returns the maximum — the
//! double-collect is a consistent snapshot whose moment is fixed in the
//! execution, giving strong linearizability; it retries only when some
//! write completes, giving lock-freedom (wait-free reads are impossible
//! here: Helmi et al. \[18\] prove unbounded wait-free strongly
//! linearizable max registers require more than read/write).

use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

/// Factory for the read/write lock-free max register.
#[derive(Debug, Clone)]
pub struct RwMaxRegAlg {
    cells: Vec<Loc>,
}

impl RwMaxRegAlg {
    /// Allocates one single-writer register per process.
    pub fn new(mem: &mut SimMemory, n: usize) -> Self {
        RwMaxRegAlg {
            cells: (0..n).map(|_| mem.alloc(Cell::Reg(0))).collect(),
        }
    }
}

impl Algorithm for RwMaxRegAlg {
    type Spec = MaxRegisterSpec;
    type Machine = RwMaxRegMachine;

    fn spec(&self) -> MaxRegisterSpec {
        MaxRegisterSpec
    }

    fn machine(&self, process: usize, op: &MaxOp) -> RwMaxRegMachine {
        match *op {
            MaxOp::Write(v) => RwMaxRegMachine::WriteProbe {
                own: self.cells[process],
                v,
            },
            MaxOp::Read => RwMaxRegMachine::Collect {
                cells: self.cells.clone(),
                idx: 0,
                current: Vec::new(),
                previous: None,
            },
        }
    }
}

/// Step machine for the read/write max register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RwMaxRegMachine {
    /// `writeMax` step 1: read the own register.
    WriteProbe {
        /// Own single-writer register.
        own: Loc,
        /// Value being written.
        v: u64,
    },
    /// `writeMax` step 2: write the larger value.
    WriteStore {
        /// Own single-writer register.
        own: Loc,
        /// Value being written.
        v: u64,
    },
    /// `readMax`: collecting `A[idx]`; `previous` is the last complete
    /// collect (if any) to compare against.
    Collect {
        /// All per-process registers.
        cells: Vec<Loc>,
        /// Next register to read.
        idx: usize,
        /// Values read so far in this collect.
        current: Vec<u64>,
        /// The previous complete collect.
        previous: Option<Vec<u64>>,
    },
}

impl OpMachine for RwMaxRegMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match self {
            RwMaxRegMachine::WriteProbe { own, v } => {
                let cur = mem.read(*own);
                if *v <= cur {
                    Step::Ready(MaxResp::Ok)
                } else {
                    *self = RwMaxRegMachine::WriteStore { own: *own, v: *v };
                    Step::Pending
                }
            }
            RwMaxRegMachine::WriteStore { own, v } => {
                mem.write(*own, *v);
                Step::Ready(MaxResp::Ok)
            }
            RwMaxRegMachine::Collect {
                cells,
                idx,
                current,
                previous,
            } => {
                current.push(mem.read(cells[*idx]));
                *idx += 1;
                if *idx < cells.len() {
                    return Step::Pending;
                }
                // Collect complete: compare with the previous one.
                let done = std::mem::take(current);
                if previous.as_ref() == Some(&done) {
                    let max = done.iter().copied().max().unwrap_or(0);
                    return Step::Ready(MaxResp::Value(max));
                }
                *previous = Some(done);
                *idx = 0;
                Step::Pending
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
    fn solo_read_needs_two_collects() {
        let mut mem = SimMemory::new();
        let alg = RwMaxRegAlg::new(&mut mem, 3);
        run_solo(&mut alg.machine(0, &MaxOp::Write(4)), &mut mem);
        run_solo(&mut alg.machine(2, &MaxOp::Write(9)), &mut mem);
        let (r, steps) = run_solo(&mut alg.machine(1, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(9));
        assert_eq!(steps, 6, "two 3-register collects");
    }

    #[test]
    fn smaller_write_is_one_step() {
        let mut mem = SimMemory::new();
        let alg = RwMaxRegAlg::new(&mut mem, 2);
        run_solo(&mut alg.machine(0, &MaxOp::Write(5)), &mut mem);
        let (_, steps) = run_solo(&mut alg.machine(0, &MaxOp::Write(3)), &mut mem);
        assert_eq!(steps, 1, "probe sees a larger own value and returns");
    }

    #[test]
    fn writes_by_different_processes_never_regress() {
        let mut mem = SimMemory::new();
        let alg = RwMaxRegAlg::new(&mut mem, 3);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(5), MaxOp::Read],
            vec![MaxOp::Write(3), MaxOp::Read],
            vec![MaxOp::Write(8), MaxOp::Read],
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
                is_linearizable(&MaxRegisterSpec, &exec.history),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_histories_linearizable() {
        let mut mem = SimMemory::new();
        let alg = RwMaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(7)],
        ]);
        for_each_history(&alg, mem, &scenario, 2_000_000, &mut |h| {
            assert!(is_linearizable(&MaxRegisterSpec, h), "{h:?}");
        });
    }

    #[test]
    fn rw_max_register_is_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = RwMaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(5)],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn reader_starvation_requires_completing_writes() {
        // Lock-freedom: the reader's collects keep failing only while
        // writes keep completing.
        let mut mem = SimMemory::new();
        let alg = RwMaxRegAlg::new(&mut mem, 2);
        let mut reader = alg.machine(1, &MaxOp::Read);
        let mut steps = 0u64;
        for v in 1..=4u64 {
            // A write lands between the reader's collects.
            assert!(matches!(reader.step(&mut mem), Step::Pending));
            assert!(matches!(reader.step(&mut mem), Step::Pending));
            steps += 2;
            run_solo(&mut alg.machine(0, &MaxOp::Write(v)), &mut mem);
        }
        // Writes stop: the reader finishes within two more collects.
        let mut out = None;
        for _ in 0..4 {
            steps += 1;
            if let Step::Ready(r) = reader.step(&mut mem) {
                out = Some(r);
                break;
            }
        }
        assert_eq!(out, Some(MaxResp::Value(4)));
        assert!(steps >= 8, "reader was forced through {steps} steps");
    }
}
