//! Step machines: the executable encoding of the paper's per-process
//! algorithm automata.
//!
//! Section 2 of the paper models an implementation as one local state
//! machine per process whose *steps* are base-object operations. An
//! [`OpMachine`] is exactly that for a single high-level operation: each
//! call to [`OpMachine::step`] performs **exactly one** shared-memory
//! operation (plus any local computation, which is free in the model)
//! and either stays [`Step::Pending`] or returns [`Step::Ready`] with
//! the operation's response.
//!
//! An [`Algorithm`] ties machines to a sequential specification and
//! knows how to instantiate the machine for any `(process, operation)`
//! pair. Checkers, schedulers, and Algorithm B all drive
//! implementations exclusively through these two traits.

use std::fmt::Debug;
use std::hash::Hash;

use sl2_spec::Spec;

use crate::mem::SimMemory;

/// Result of one machine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step<R> {
    /// The operation needs more steps.
    Pending,
    /// The operation completed with this response.
    Ready(R),
}

impl<R> Step<R> {
    /// Returns the response if ready.
    pub fn ready(self) -> Option<R> {
        match self {
            Step::Pending => None,
            Step::Ready(r) => Some(r),
        }
    }

    /// Maps a ready response, keeping `Pending` as it is.
    pub fn map<T>(self, f: impl FnOnce(R) -> T) -> Step<T> {
        match self {
            Step::Pending => Step::Pending,
            Step::Ready(r) => Step::Ready(f(r)),
        }
    }
}

/// A single high-level operation in execution: a local state machine
/// performing one shared-memory operation per step.
///
/// `Clone + Eq + Hash` let checkers snapshot, restore and memoize
/// process-local states (the paper's "local state of `p` in `C`").
pub trait OpMachine: Clone + Debug + Eq + Hash {
    /// Response type of the operation.
    type Resp: Clone + Debug + Eq + Hash;

    /// Performs the next step. Must apply exactly one operation to
    /// `mem`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if stepped again after returning
    /// [`Step::Ready`].
    fn step(&mut self, mem: &mut SimMemory) -> Step<Self::Resp>;
}

/// An implementation of an object type: a factory of [`OpMachine`]s,
/// one per invoked operation, tied to a sequential specification.
///
/// Construction convention: implementations provide
/// `fn new(mem: &mut SimMemory, n: usize, ...) -> Self`, allocating
/// their base objects in `mem` and remembering the [`crate::mem::Loc`]
/// handles.
pub trait Algorithm: Clone + Debug {
    /// The sequential specification this algorithm implements.
    type Spec: Spec;
    /// The per-operation step machine.
    type Machine: OpMachine<Resp = <Self::Spec as Spec>::Resp>;

    /// The specification instance (used by checkers).
    fn spec(&self) -> Self::Spec;

    /// Instantiates the machine executing `op` on behalf of `process`.
    fn machine(&self, process: usize, op: &<Self::Spec as Spec>::Op) -> Self::Machine;
}

/// Drives a machine to completion, alone, and returns its response and
/// the number of steps taken — the paper's solo execution. Useful in
/// tests and in Algorithm B's local simulation of the decision
/// sequence.
pub fn run_solo<M: OpMachine>(machine: &mut M, mem: &mut SimMemory) -> (M::Resp, u64) {
    let mut steps = 0;
    loop {
        steps += 1;
        assert!(
            steps < 1_000_000,
            "solo run exceeded 1e6 steps: machine is not making progress"
        );
        if let Step::Ready(resp) = machine.step(mem) {
            return (resp, steps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{Cell, Loc};

    /// A two-step machine: reads a register, then writes it + 1.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct IncMachine {
        loc: Loc,
        seen: Option<u64>,
    }

    impl OpMachine for IncMachine {
        type Resp = u64;

        fn step(&mut self, mem: &mut SimMemory) -> Step<u64> {
            match self.seen {
                None => {
                    self.seen = Some(mem.read(self.loc));
                    Step::Pending
                }
                Some(v) => {
                    mem.write(self.loc, v + 1);
                    Step::Ready(v)
                }
            }
        }
    }

    #[test]
    fn run_solo_counts_steps() {
        let mut mem = SimMemory::new();
        let loc = mem.alloc(Cell::Reg(5));
        let mut m = IncMachine { loc, seen: None };
        let (resp, steps) = run_solo(&mut m, &mut mem);
        assert_eq!(resp, 5);
        assert_eq!(steps, 2);
        assert_eq!(mem.read(loc), 6);
    }

    #[test]
    fn interleaving_two_machines_exhibits_the_race() {
        // The classic lost update: both read 0, both write 1.
        let mut mem = SimMemory::new();
        let loc = mem.alloc(Cell::Reg(0));
        let mut a = IncMachine { loc, seen: None };
        let mut b = IncMachine { loc, seen: None };
        assert_eq!(a.step(&mut mem), Step::Pending);
        assert_eq!(b.step(&mut mem), Step::Pending);
        assert_eq!(a.step(&mut mem), Step::Ready(0));
        assert_eq!(b.step(&mut mem), Step::Ready(0));
        assert_eq!(mem.read(loc), 1, "lost update observed, as expected");
    }
}
