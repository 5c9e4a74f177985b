//! Linearizability checker (Herlihy & Wing \[23\]).
//!
//! Decides whether a finite [`History`] has a linearization: a
//! sequential execution containing every complete operation (with its
//! actual response) and a subset of pending operations, respecting the
//! real-time precedence order, and legal for the (possibly
//! nondeterministic) sequential specification.
//!
//! The search is the classic Wing–Gong exploration, memoized on `(set of
//! linearized ops, specification state)`, at O(processes) per node
//! (DESIGN.md §7 "The history checker"): the linearized set is a prefix
//! per process, kept as one cursor each, and spec states are ids in the
//! check's `SpecTable`, so a memo key is `(cursors, state id)`.

use std::collections::HashSet;

use sl2_spec::Spec;

use crate::history::{History, OpId, TimedOp};
use crate::table::{FxBuild, SpecTable, StateId, INITIAL};

/// A linearization: operations in order with their responses
/// (assigned responses for pending operations).
pub type Linearization<S> = Vec<(OpId, <S as Spec>::Op, <S as Spec>::Resp)>;

/// No op / not returned.
const NONE: usize = usize::MAX;

/// Searches for a linearization of `history` against `spec`.
///
/// Returns `Some(linearization)` if one exists, `None` otherwise.
///
/// # Panics
///
/// Panics, naming the event, if the history is ill-formed: a return
/// with no open operation, an invocation by a process with one open, or
/// a reused [`OpId`].
pub fn linearize<S: Spec>(spec: &S, history: &History<S>) -> Option<Linearization<S>> {
    let (ops, heads) = history
        .timeline()
        .unwrap_or_else(|e| panic!("ill-formed history: {e}"));
    let n = ops.len();
    let mut s = Search {
        ops,
        key: heads.into_iter().chain([NONE]).collect(),
        memo: HashSet::default(),
        table: SpecTable::new(spec.clone(), n),
    };
    // Complete ops still to place; pending ones may be dropped.
    let mut left = s.ops.iter().filter(|o| o.resp.is_some()).count();
    // Per node: state, op placed to reach it, next candidate to try
    // (heads from that op on) and the outcomes left of the current one.
    let mut frames = Vec::with_capacity(n + 1);
    frames.push((INITIAL, NONE, 0, 0..0));
    // (op, outcome) per linearized op.
    let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(n);
    while left > 0 {
        let (state, placed, from, outs) = frames.last_mut()?;
        // `outs` are op `from - 1`'s outcomes; a complete op takes only
        // those with its actual response.
        let actual = usize::checked_sub(*from, 1).and_then(|i| s.ops[i].resp);
        if let Some(k) = outs.find(|&k| actual.is_none_or(|r| r == s.table.outcome(k).1)) {
            let (op, next) = (*from - 1, s.table.outcome(k).0);
            left -= s.toggle(op, s.ops[op].next);
            chosen.push((op, k));
            if left == 0 || !s.failed(next) {
                frames.push((next, op, 0, 0..0));
            } else {
                left += s.toggle(op, op);
                chosen.pop();
            }
            continue;
        }
        // Outcomes spent: the next enabled head in invocation order, or
        // the node fails. A node on the path is never reached again (each
        // step places one more op), so recording it when it fails decides
        // every revisit as recording it on entry would.
        let op = s.enabled_from(*from);
        if op != NONE {
            (*from, *outs) = (op + 1, s.table.outcomes(*state, s.ops[op].op));
        } else {
            let (state, placed) = (*state, *placed);
            frames.pop();
            s.fail(state);
            if placed != NONE {
                left += s.toggle(placed, placed);
                chosen.pop();
            }
        }
    }
    let entry = |&(i, k): &(usize, usize)| {
        let op = &s.ops[i];
        (op.id, op.op.clone(), s.table.outcome(k).1.clone())
    };
    Some(chosen.iter().map(entry).collect())
}

/// Convenience: does a linearization exist?
pub fn is_linearizable<S: Spec>(spec: &S, history: &History<S>) -> bool {
    linearize(spec, history).is_some()
}

struct Search<'h, S: Spec> {
    /// In invocation order.
    ops: Vec<TimedOp<'h, S>>,
    /// Per process, its first op not linearized yet; then a state id.
    key: Vec<usize>,
    /// The `key`s of failed nodes.
    memo: HashSet<Box<[usize]>, FxBuild>,
    table: SpecTable<'h, S>,
}

impl<S: Spec> Search<'_, S> {
    /// Moves op `i`'s process cursor to `to` (`i` itself to undo
    /// placing it); 1 if `i` is complete, else 0.
    fn toggle(&mut self, i: usize, to: usize) -> usize {
        self.key[self.ops[i].slot] = to;
        usize::from(self.ops[i].resp.is_some())
    }

    /// The first enabled head from op `from` on, in invocation order. A
    /// head is enabled iff no head returned before it was invoked, so
    /// the earliest head return bounds them all: O(processes).
    fn enabled_from(&self, from: usize) -> usize {
        let heads = self.key[..self.key.len() - 1]
            .iter()
            .filter(|&&h| h != NONE);
        let bound = heads.clone().map(|&h| self.ops[h].returned).min();
        let enabled = heads.filter(|&&h| h >= from && Some(h) < bound).min();
        enabled.copied().unwrap_or(NONE)
    }

    /// Whether node `(heads, state)` failed before.
    fn failed(&mut self, state: StateId) -> bool {
        *self.key.last_mut().expect("state slot") = state as usize;
        self.memo.contains(self.key.as_slice())
    }

    /// Records that node `(heads, state)` failed.
    fn fail(&mut self, state: StateId) {
        *self.key.last_mut().expect("state slot") = state as usize;
        self.memo.insert(self.key.as_slice().into());
    }
}

/// Checks that `lin` is itself a valid linearization of `history`
/// (used to cross-validate checker output in tests).
pub fn validate_linearization<S: Spec>(
    spec: &S,
    history: &History<S>,
    lin: &Linearization<S>,
) -> Result<(), String> {
    let ops = history.ops();
    let find = |id: OpId| ops.iter().find(|r| r.id == id);
    // 1. Every complete op appears with its actual response.
    for rec in history.complete_ops() {
        let (resp, _) = rec.returned.clone().expect("complete");
        match lin.iter().find(|(id, _, _)| *id == rec.id) {
            None => {
                return Err(format!(
                    "complete op {:?} missing from linearization",
                    rec.id
                ))
            }
            Some((_, _, r)) if *r != resp => {
                return Err(format!("op {:?} response mismatch", rec.id))
            }
            _ => {}
        }
    }
    // 2. Real-time order respected.
    for (x, (a, _, _)) in lin.iter().enumerate() {
        for (b, _, _) in lin.iter().skip(x + 1) {
            let (ra, rb) = (find(*a).expect("known"), find(*b).expect("known"));
            if history.precedes(rb, ra) {
                return Err(format!("{:?} linearized before its predecessor {:?}", a, b));
            }
        }
    }
    // 3. Spec-legal.
    let seq: Vec<(S::Op, S::Resp)> = lin
        .iter()
        .map(|(_, op, resp)| (op.clone(), resp.clone()))
        .collect();
    if !sl2_spec::is_legal(spec, &seq) {
        return Err("linearization is not a legal sequential execution".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_spec::fifo::{QueueOp, QueueResp, QueueSpec};
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
    use sl2_spec::put_take::{PutTakeSetSpec, SetOp, SetResp};

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(5));
        h.ret(OpId(0), MaxResp::Ok);
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.ret(OpId(1), MaxResp::Value(5));
        let lin = linearize(&MaxRegisterSpec, &h).expect("linearizable");
        validate_linearization(&MaxRegisterSpec, &h, &lin).expect("valid");
    }

    #[test]
    fn stale_read_after_write_is_not_linearizable() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(5));
        h.ret(OpId(0), MaxResp::Ok);
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.ret(OpId(1), MaxResp::Value(0)); // must see 5
        assert!(!is_linearizable(&MaxRegisterSpec, &h));
    }

    #[test]
    fn concurrent_read_may_see_old_or_new() {
        for seen in [0u64, 5] {
            let mut h: History<MaxRegisterSpec> = History::new();
            h.invoke(OpId(0), 0, MaxOp::Write(5));
            h.invoke(OpId(1), 1, MaxOp::Read);
            h.ret(OpId(1), MaxResp::Value(seen));
            h.ret(OpId(0), MaxResp::Ok);
            assert!(
                is_linearizable(&MaxRegisterSpec, &h),
                "concurrent read seeing {seen} is fine"
            );
        }
    }

    #[test]
    fn pending_op_may_be_linearized_to_explain_effects() {
        // p0's Write(5) never returns, but p1 reads 5: the pending write
        // must be linearized before the read.
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(5));
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.ret(OpId(1), MaxResp::Value(5));
        let lin = linearize(&MaxRegisterSpec, &h).expect("linearizable");
        assert_eq!(lin.len(), 2, "pending write included");
        validate_linearization(&MaxRegisterSpec, &h, &lin).expect("valid");
    }

    #[test]
    fn queue_fifo_violation_detected() {
        // enq(1) enq(2) sequentially, then deq -> 2: not linearizable.
        let mut h: History<QueueSpec> = History::new();
        h.invoke(OpId(0), 0, QueueOp::Enq(1));
        h.ret(OpId(0), QueueResp::Ok);
        h.invoke(OpId(1), 0, QueueOp::Enq(2));
        h.ret(OpId(1), QueueResp::Ok);
        h.invoke(OpId(2), 1, QueueOp::Deq);
        h.ret(OpId(2), QueueResp::Item(2));
        assert!(!is_linearizable(&QueueSpec, &h));
    }

    #[test]
    fn queue_concurrent_enqueues_allow_either_order() {
        let mut h: History<QueueSpec> = History::new();
        h.invoke(OpId(0), 0, QueueOp::Enq(1));
        h.invoke(OpId(1), 1, QueueOp::Enq(2));
        h.ret(OpId(0), QueueResp::Ok);
        h.ret(OpId(1), QueueResp::Ok);
        h.invoke(OpId(2), 0, QueueOp::Deq);
        h.ret(OpId(2), QueueResp::Item(2)); // legal iff enq(2) first
        let lin = linearize(&QueueSpec, &h).expect("linearizable");
        validate_linearization(&QueueSpec, &h, &lin).expect("valid");
    }

    #[test]
    fn nondeterministic_spec_take_any_item() {
        let mut h: History<PutTakeSetSpec> = History::new();
        h.invoke(OpId(0), 0, SetOp::Put(1));
        h.ret(OpId(0), SetResp::Ok);
        h.invoke(OpId(1), 1, SetOp::Put(2));
        h.ret(OpId(1), SetResp::Ok);
        h.invoke(OpId(2), 0, SetOp::Take);
        h.ret(OpId(2), SetResp::Item(2));
        h.invoke(OpId(3), 1, SetOp::Take);
        h.ret(OpId(3), SetResp::Item(1));
        let lin = linearize(&PutTakeSetSpec, &h).expect("linearizable");
        validate_linearization(&PutTakeSetSpec, &h, &lin).expect("valid");
    }

    #[test]
    fn set_double_take_of_same_item_rejected() {
        let mut h: History<PutTakeSetSpec> = History::new();
        h.invoke(OpId(0), 0, SetOp::Put(1));
        h.ret(OpId(0), SetResp::Ok);
        h.invoke(OpId(1), 0, SetOp::Take);
        h.ret(OpId(1), SetResp::Item(1));
        h.invoke(OpId(2), 1, SetOp::Take);
        h.ret(OpId(2), SetResp::Item(1));
        assert!(!is_linearizable(&PutTakeSetSpec, &h));
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<QueueSpec> = History::new();
        assert!(is_linearizable(&QueueSpec, &h));
    }

    // Per-process cursors rely on well-formedness, so an ill-formed
    // history fails closed in every build, naming the event.

    #[test]
    #[should_panic(expected = "event 2 returns OpId(7), which is not open")]
    fn a_return_with_no_open_op_panics() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(1));
        h.ret(OpId(0), MaxResp::Ok);
        h.ret(OpId(7), MaxResp::Ok);
        linearize(&MaxRegisterSpec, &h);
    }

    #[test]
    #[should_panic(expected = "event 1 invokes OpId(1) while process 0 has OpId(0) open")]
    fn a_second_invoke_with_an_op_open_panics() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Read);
        h.invoke(OpId(1), 0, MaxOp::Read);
        linearize(&MaxRegisterSpec, &h);
    }

    #[test]
    #[should_panic(expected = "event 3 reuses OpId(0)")]
    fn a_duplicate_op_id_panics() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(1));
        h.ret(OpId(0), MaxResp::Ok);
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.invoke(OpId(0), 0, MaxOp::Read);
        h.ret(OpId(1), MaxResp::Value(1));
        h.ret(OpId(0), MaxResp::Value(1));
        linearize(&MaxRegisterSpec, &h);
    }
}
