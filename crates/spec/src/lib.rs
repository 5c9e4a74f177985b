//! Sequential specifications for every object appearing in *Strong
//! Linearizability using Primitives with Consensus Number 2* (Attiya,
//! Castañeda, Enea; PODC 2024).
//!
//! A specification is an explicit state machine ([`Spec`]). Relaxed
//! objects from Section 5 (queues/stacks with multiplicity, m-stuttering,
//! k-out-of-order) are *nondeterministic*: one operation may have several
//! legal outcomes, so [`Spec::step`] returns every `(state, response)`
//! pair. Deterministic objects implement the same trait with a singleton
//! outcome and get the convenience method [`Spec::apply`].
//!
//! The commute/overwrite structure of §3.3 ("simple types", after Aspnes
//! & Herlihy) lives in [`simple`], together with a semantic validator
//! used by the property tests.
//!
//! # Example
//!
//! ```
//! use sl2_spec::{Spec, max_register::{MaxRegisterSpec, MaxOp, MaxResp}};
//!
//! let spec = MaxRegisterSpec;
//! let mut s = spec.initial();
//! assert_eq!(spec.apply(&mut s, &MaxOp::Write(5)), MaxResp::Ok);
//! assert_eq!(spec.apply(&mut s, &MaxOp::Write(3)), MaxResp::Ok);
//! assert_eq!(spec.apply(&mut s, &MaxOp::Read), MaxResp::Value(5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Debug;
use std::hash::Hash;

pub mod counters;
pub mod fifo;
pub mod keyed;
pub mod max_register;
pub mod put_take;
pub mod relaxed;
pub mod simple;
pub mod snapshot;
pub mod swap;
pub mod tas;
pub mod union_set;

/// Item / value type used by all specifications.
pub type Value = u64;

/// A sequential specification: a (possibly nondeterministic) state
/// machine over operations and responses.
///
/// Implementations must be cheap to clone; most are zero-sized.
pub trait Spec: Clone + Debug {
    /// Object state. `Eq + Hash` so checkers can memoize on it.
    type State: Clone + Eq + Hash + Debug;
    /// Operation descriptors (invocation + arguments).
    type Op: Clone + Eq + Hash + Debug;
    /// Responses.
    type Resp: Clone + Eq + Hash + Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// All legal outcomes of executing `op` in state `s`. Deterministic
    /// objects return exactly one outcome; nondeterministic relaxations
    /// (Section 5) may return several. Never returns an empty vector:
    /// every operation is total in every state of every object in the
    /// paper.
    fn step(&self, s: &Self::State, op: &Self::Op) -> Vec<(Self::State, Self::Resp)>;

    /// [`Spec::step`]'s outcomes, in its order, passed to `emit` one at
    /// a time, with `None` standing for a successor equal to `s`. A spec
    /// whose op often leaves the state as it is overrides this, so a
    /// checker neither clones nor looks up that state. The default
    /// passes every successor of [`Spec::step`] as `Some`.
    fn step_each(
        &self,
        s: &Self::State,
        op: &Self::Op,
        emit: &mut dyn FnMut(Option<Self::State>, Self::Resp),
    ) {
        for (next, resp) in self.step(s, op) {
            emit(Some(next), resp);
        }
    }

    /// The key of the one component of the state that `op` acts on,
    /// for a specification that is a product of independent objects.
    ///
    /// `Some(k)` is a contract: the state is a product over keys, `op`'s
    /// outcomes depend only on component `k`, and each successor state
    /// differs from its predecessor at most in component `k`. A history
    /// is then linearizable iff each key's sub-history is (locality,
    /// Herlihy & Wing), and a checker may search them one at a time. The
    /// default, `None`, makes no such claim: a history in which any op
    /// has no key is checked whole.
    fn key_of(&self, _op: &Self::Op) -> Option<Value> {
        None
    }

    /// Executes `op` in place, for deterministic specs.
    ///
    /// # Panics
    ///
    /// Panics if the spec is nondeterministic at this state/operation
    /// (more than one outcome) — use [`Spec::step`] then.
    fn apply(&self, s: &mut Self::State, op: &Self::Op) -> Self::Resp {
        let mut outcomes = self.step(s, op);
        assert_eq!(
            outcomes.len(),
            1,
            "apply() on a nondeterministic spec transition: {op:?} in {s:?}"
        );
        let (next, resp) = outcomes.pop().expect("spec transition must be total");
        *s = next;
        resp
    }

    /// Runs a whole sequence of operations from the initial state and
    /// returns the responses (deterministic specs only).
    fn run(&self, ops: &[Self::Op]) -> Vec<Self::Resp> {
        let mut s = self.initial();
        ops.iter().map(|op| self.apply(&mut s, op)).collect()
    }

    /// Whether `(op, resp)` is a legal next step from `s`, and if so the
    /// successor states that realize it.
    fn accept(&self, s: &Self::State, op: &Self::Op, resp: &Self::Resp) -> Vec<Self::State> {
        self.step(s, op)
            .into_iter()
            .filter_map(|(next, r)| (&r == resp).then_some(next))
            .collect()
    }
}

/// Validates that a sequence of `(op, resp)` pairs is a legal sequential
/// execution of `spec`, tracking every nondeterministic branch.
///
/// Returns the set of possible final states (empty iff the sequence is
/// illegal).
pub fn legal_states<S: Spec>(spec: &S, seq: &[(S::Op, S::Resp)]) -> Vec<S::State> {
    let mut states = vec![spec.initial()];
    for (op, resp) in seq {
        let mut next: Vec<S::State> = Vec::new();
        for s in &states {
            for succ in spec.accept(s, op, resp) {
                if !next.contains(&succ) {
                    next.push(succ);
                }
            }
        }
        states = next;
        if states.is_empty() {
            return states;
        }
    }
    states
}

/// Convenience: is the `(op, resp)` sequence a legal sequential
/// execution of `spec`?
pub fn is_legal<S: Spec>(spec: &S, seq: &[(S::Op, S::Resp)]) -> bool {
    !legal_states(spec, seq).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

    #[test]
    fn legal_states_accepts_valid_sequence() {
        let spec = MaxRegisterSpec;
        let seq = vec![
            (MaxOp::Write(4), MaxResp::Ok),
            (MaxOp::Read, MaxResp::Value(4)),
            (MaxOp::Write(2), MaxResp::Ok),
            (MaxOp::Read, MaxResp::Value(4)),
        ];
        assert!(is_legal(&spec, &seq));
    }

    #[test]
    fn legal_states_rejects_stale_read() {
        let spec = MaxRegisterSpec;
        let seq = vec![
            (MaxOp::Write(4), MaxResp::Ok),
            (MaxOp::Read, MaxResp::Value(0)),
        ];
        assert!(!is_legal(&spec, &seq));
    }

    #[test]
    fn run_returns_responses_in_order() {
        let spec = MaxRegisterSpec;
        let resps = spec.run(&[MaxOp::Write(7), MaxOp::Read, MaxOp::Write(1), MaxOp::Read]);
        assert_eq!(
            resps,
            vec![
                MaxResp::Ok,
                MaxResp::Value(7),
                MaxResp::Ok,
                MaxResp::Value(7)
            ]
        );
    }
}
