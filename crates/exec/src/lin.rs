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
//! [`is_linearizable`] runs it once per key when every op has one, over
//! lists linked per key and process in one pass, with no sort.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::mem;
use std::ops::Range;

use sl2_spec::Spec;

use crate::history::{History, OpId, TimedOp};
use crate::table::{Chains, FxBuild, SpecTable, StateId, INITIAL};

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
    let (mut s, heads) = Search::new(spec, history);
    if !s.run(&heads) {
        return None;
    }
    let entry = |&(i, k): &(usize, usize)| {
        let op = &s.ops[i];
        (op.id, op.op.clone(), s.table.outcome(k).1.clone())
    };
    Some(s.chosen.iter().map(entry).collect())
}

/// Does a linearization exist? When every op has a [`Spec::key_of`]
/// key, each key's sub-history is searched on its own, in order of the
/// key's first invocation, stopping at the first that fails:
/// linearizability is local (DESIGN.md §7 "Per key"); one reverse pass
/// links each key's lists, in O(ops + keys · processes). Otherwise the
/// whole history is searched, as [`linearize`] does.
///
/// # Panics
///
/// As [`linearize`], if the history is ill-formed.
pub fn is_linearizable<S: Spec>(spec: &S, history: &History<S>) -> bool {
    let (mut s, heads) = Search::new(spec, history);
    // Per op, its key's rank in order of first invocation.
    let mut ranks: HashMap<u64, usize, FxBuild> = HashMap::default();
    let mut rank = Vec::with_capacity(s.ops.len());
    rank.extend(s.ops.iter().map_while(|o| {
        let fresh = ranks.len();
        Some(*ranks.entry(spec.key_of(o.op)?).or_insert(fresh))
    }));
    if rank.len() < s.ops.len() {
        return s.run(&heads);
    }
    // Row `r` holds key `r`'s first op per process; one reverse pass
    // links each op to its process's next op on the same key.
    let p = heads.len().max(1);
    let mut firsts = vec![NONE; ranks.len() * p];
    for (i, r) in rank.into_iter().enumerate().rev() {
        let first = &mut firsts[r * p + s.ops[i].slot];
        (s.ops[i].next, *first) = (*first, i);
    }
    firsts.chunks_exact(p).all(|row| {
        s.memo.clear();
        s.run(row)
    })
}

struct Search<'h, S: Spec> {
    /// In invocation order.
    ops: Vec<TimedOp<'h, S>>,
    /// Per process, its first op not linearized yet; then a state id.
    key: Vec<usize>,
    /// The `key`s of failed nodes.
    memo: Memo,
    table: SpecTable<'h, S>,
    /// Per node on the path: state, op placed to reach it, next
    /// candidate to try (heads from that op on) and the outcomes left of
    /// the current one. Reused by every `run`.
    frames: Vec<Frame>,
    /// `(op, outcome)` per linearized op: after a `run` that succeeded,
    /// the linearization it found.
    chosen: Vec<(usize, usize)>,
}

/// A node of [`Search::run`]'s path (see [`Search::frames`]).
type Frame = (StateId, usize, usize, Range<usize>);

impl<'h, S: Spec> Search<'h, S> {
    /// The search over `history`, its ops linked per process, and each
    /// process's first op.
    fn new(spec: &S, history: &'h History<S>) -> (Self, Vec<usize>) {
        let (ops, heads) = history
            .timeline()
            .unwrap_or_else(|e| panic!("ill-formed history: {e}"));
        let n = ops.len();
        let s = Search {
            ops,
            key: vec![NONE; heads.len() + 1],
            memo: Memo::default(),
            table: SpecTable::new(spec.clone(), n),
            frames: Vec::with_capacity(n + 1),
            chosen: Vec::with_capacity(n),
        };
        (s, heads)
    }

    /// The Wing–Gong search over the lists that start at `heads` (one
    /// per process) and follow the ops' `next` links: whether a
    /// linearization exists, leaving the `(op, outcome)` placed at each
    /// step in `chosen` when one does.
    fn run(&mut self, heads: &[usize]) -> bool {
        let (mut frames, mut chosen) = (mem::take(&mut self.frames), mem::take(&mut self.chosen));
        frames.clear();
        chosen.clear();
        let found = self.place(heads, &mut frames, &mut chosen);
        (self.frames, self.chosen) = (frames, chosen);
        found
    }

    /// [`Search::run`] on its buffers, taken out of `self`.
    fn place(
        &mut self,
        heads: &[usize],
        frames: &mut Vec<Frame>,
        chosen: &mut Vec<(usize, usize)>,
    ) -> bool {
        self.key[..heads.len()].copy_from_slice(heads);
        // Complete ops still to place; pending ones may be dropped.
        let mut left = 0;
        for &head in heads {
            let mut i = head;
            while i != NONE {
                left += usize::from(self.ops[i].resp.is_some());
                i = self.ops[i].next;
            }
        }
        frames.push((INITIAL, NONE, 0, 0..0));
        while left > 0 {
            let Some((state, placed, from, outs)) = frames.last_mut() else {
                return false;
            };
            // `outs` are op `from - 1`'s outcomes; a complete op takes only
            // those with its actual response.
            let actual = usize::checked_sub(*from, 1).and_then(|i| self.ops[i].resp);
            if let Some(k) = outs.find(|&k| actual.is_none_or(|r| r == self.table.outcome(k).1)) {
                let (op, next) = (*from - 1, self.table.outcome(k).0);
                left -= self.toggle(op, self.ops[op].next);
                chosen.push((op, k));
                if left == 0 || !self.failed(next) {
                    frames.push((next, op, 0, 0..0));
                } else {
                    left += self.toggle(op, op);
                    chosen.pop();
                }
                continue;
            }
            // Outcomes spent: the next enabled head in invocation order, or
            // the node fails. A node on the path is never reached again (each
            // step places one more op), so recording it when it fails decides
            // every revisit as recording it on entry would.
            let op = self.enabled_from(*from);
            if op != NONE {
                (*from, *outs) = (op + 1, self.table.outcomes(*state, self.ops[op].op));
            } else {
                let (state, placed) = (*state, *placed);
                frames.pop();
                self.fail(state);
                if placed != NONE {
                    left += self.toggle(placed, placed);
                    chosen.pop();
                }
            }
        }
        true
    }

    /// Moves op `i`'s process cursor to `to` (`i` itself to undo
    /// placing it); 1 if `i` is complete, else 0.
    fn toggle(&mut self, i: usize, to: usize) -> usize {
        self.key[self.ops[i].slot] = to;
        usize::from(self.ops[i].resp.is_some())
    }

    /// The first enabled head from op `from` on, in invocation order. A
    /// head is enabled iff no head returned before it was invoked, so
    /// the earliest head return bounds them all: two passes over the
    /// processes (a `NONE` head is never below the bound).
    fn enabled_from(&self, from: usize) -> usize {
        let heads = &self.key[..self.key.len() - 1];
        let mut bound = NONE;
        for &h in heads.iter().filter(|&&h| h != NONE) {
            bound = bound.min(self.ops[h].returned);
        }
        let mut enabled = NONE;
        for &h in heads {
            if h >= from && h < bound.min(enabled) {
                enabled = h;
            }
        }
        enabled
    }

    /// Whether node `(heads, state)` failed before.
    fn failed(&mut self, state: StateId) -> bool {
        *self.key.last_mut().expect("state slot") = state as usize;
        self.memo.contains(&self.key)
    }

    /// Records that node `(heads, state)` failed.
    fn fail(&mut self, state: StateId) {
        *self.key.last_mut().expect("state slot") = state as usize;
        self.memo.insert(&self.key);
    }
}

/// The failed nodes' keys, all of one length, end to end in one arena:
/// no allocation per key once the arena and its [`Chains`] have grown,
/// and none after a `clear`.
#[derive(Default)]
struct Memo {
    keys: Vec<usize>,
    chains: Chains,
}

impl Memo {
    fn contains(&self, key: &[usize]) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        let (hash, width) = (FxBuild::default().hash_one(key), key.len());
        let at = |i: usize| &self.keys[i * width..][..width];
        self.chains.find(hash, |i| at(i) == key).is_some()
    }

    fn insert(&mut self, key: &[usize]) {
        self.chains.push(FxBuild::default().hash_one(key));
        self.keys.extend_from_slice(key);
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.chains.clear();
    }
}

/// Checks that `lin` is itself a valid linearization of `history`
/// (used to cross-validate checker output in tests): each entry names a
/// distinct op of the history with that op, every complete op is listed
/// with its actual response, no op is listed after an op that it
/// precedes in real time, and the sequence is legal for `spec`.
pub fn validate_linearization<S: Spec>(
    spec: &S,
    history: &History<S>,
    lin: &Linearization<S>,
) -> Result<(), String> {
    let ops = history.ops();
    let index: HashMap<OpId, usize> = ops.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    // 1. Each entry is a distinct op of the history, with its own op and,
    // if it returned, its actual response.
    let mut listed = vec![false; ops.len()];
    let mut records = Vec::with_capacity(lin.len());
    for (id, op, resp) in lin {
        let Some(&i) = index.get(id) else {
            return Err(format!("{id:?} is not an op of the history"));
        };
        if mem::replace(&mut listed[i], true) {
            return Err(format!("{id:?} is linearized twice"));
        }
        let rec = &ops[i];
        if *op != rec.op {
            return Err(format!("op {id:?} is not the history's {:?}", rec.op));
        }
        if matches!(&rec.returned, Some((actual, _)) if actual != resp) {
            return Err(format!("op {id:?} response mismatch"));
        }
        records.push(rec);
    }
    if let Some(i) = (0..ops.len()).find(|&i| !listed[i] && ops[i].returned.is_some()) {
        let id = ops[i].id;
        return Err(format!("complete op {id:?} missing from linearization"));
    }
    // 2. Real-time order respected: scanning from the end, the earliest
    // return among the later entries must not come before an entry's
    // invocation.
    let mut earliest: Option<(usize, OpId)> = None;
    for rec in records.into_iter().rev() {
        if let Some((_, b)) = earliest.filter(|&(at, _)| at < rec.invoked_at) {
            let a = rec.id;
            return Err(format!("{a:?} linearized before its predecessor {b:?}"));
        }
        if let Some(&(_, at)) = rec.returned.as_ref() {
            if earliest.is_none_or(|(e, _)| at < e) {
                earliest = Some((at, rec.id));
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
    use sl2_spec::keyed::{KeyedMaxOp, KeyedMaxSpec};
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

    /// `Write(5)` then `Read → 5`, one after the other, and its
    /// linearization.
    fn write_then_read() -> (History<MaxRegisterSpec>, Linearization<MaxRegisterSpec>) {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(5));
        h.ret(OpId(0), MaxResp::Ok);
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.ret(OpId(1), MaxResp::Value(5));
        let lin = linearize(&MaxRegisterSpec, &h).expect("linearizable");
        (h, lin)
    }

    #[test]
    fn a_linearization_listing_an_op_twice_is_invalid() {
        // A repeated read is legal and does not precede itself.
        let (h, mut lin) = write_then_read();
        lin.push(lin[1]);
        let err = validate_linearization(&MaxRegisterSpec, &h, &lin).unwrap_err();
        assert_eq!(err, "OpId(1) is linearized twice");
    }

    #[test]
    fn a_linearization_naming_a_foreign_op_is_invalid() {
        let (h, mut lin) = write_then_read();
        lin.push((OpId(7), MaxOp::Read, MaxResp::Value(5)));
        let err = validate_linearization(&MaxRegisterSpec, &h, &lin).unwrap_err();
        assert_eq!(err, "OpId(7) is not an op of the history");
        // An id of the history with an op it did not invoke.
        let (h, mut lin) = write_then_read();
        lin[0].1 = MaxOp::Write(6);
        assert!(validate_linearization(&MaxRegisterSpec, &h, &lin).is_err());
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

    /// Both entry points, which must agree: the verdict per key, and
    /// the whole search's linearization, validated.
    fn verdict<S: Spec>(spec: &S, h: &History<S>) -> bool {
        let lin = linearize(spec, h);
        if let Some(lin) = &lin {
            validate_linearization(spec, h, lin).expect("valid");
        }
        assert_eq!(is_linearizable(spec, h), lin.is_some(), "{h:?}");
        lin.is_some()
    }

    #[test]
    fn one_wrong_key_refutes_the_history() {
        // Key 1's sub-history is fine; key 2's read misses a write that
        // returned before it was invoked. Each process switches keys, so
        // a key's lists are not the processes' lists.
        for (seen, ok) in [(4, true), (0, false)] {
            let mut h: History<KeyedMaxSpec> = History::new();
            h.invoke(OpId(0), 0, KeyedMaxOp::Write { key: 1, v: 5 });
            h.invoke(OpId(1), 1, KeyedMaxOp::Write { key: 2, v: 4 });
            h.ret(OpId(0), MaxResp::Ok);
            h.ret(OpId(1), MaxResp::Ok);
            h.invoke(OpId(2), 1, KeyedMaxOp::Read { key: 1 });
            h.invoke(OpId(3), 0, KeyedMaxOp::Read { key: 2 });
            h.ret(OpId(2), MaxResp::Value(5));
            h.ret(OpId(3), MaxResp::Value(seen));
            assert_eq!(verdict(&KeyedMaxSpec, &h), ok, "key 2 read {seen}");
        }
    }

    #[test]
    fn a_key_with_only_pending_ops_places_nothing() {
        // Key 2 has two pending writes and nothing else: its search is
        // done before it starts, and key 1 alone decides.
        for (seen, ok) in [(5, true), (9, false)] {
            let mut h: History<KeyedMaxSpec> = History::new();
            h.invoke(OpId(0), 0, KeyedMaxOp::Write { key: 1, v: 5 });
            h.invoke(OpId(1), 1, KeyedMaxOp::Write { key: 2, v: 9 });
            h.invoke(OpId(2), 2, KeyedMaxOp::Write { key: 2, v: 7 });
            h.ret(OpId(0), MaxResp::Ok);
            h.invoke(OpId(3), 0, KeyedMaxOp::Read { key: 1 });
            h.ret(OpId(3), MaxResp::Value(seen));
            assert_eq!(verdict(&KeyedMaxSpec, &h), ok, "key 1 read {seen}");
        }
    }

    /// Keyed max registers plus `None`, a read of the largest value
    /// under any key: an op with no key.
    #[derive(Clone, Debug)]
    struct WithGlobalRead;

    impl Spec for WithGlobalRead {
        type State = <KeyedMaxSpec as Spec>::State;
        type Op = Option<KeyedMaxOp>;
        type Resp = MaxResp;

        fn initial(&self) -> Self::State {
            KeyedMaxSpec.initial()
        }

        fn step(&self, s: &Self::State, op: &Self::Op) -> Vec<(Self::State, MaxResp)> {
            match op {
                Some(op) => KeyedMaxSpec.step(s, op),
                None => {
                    let max = s.values().max().copied().unwrap_or(0);
                    vec![(s.clone(), MaxResp::Value(max))]
                }
            }
        }

        fn key_of(&self, op: &Self::Op) -> Option<u64> {
            KeyedMaxSpec.key_of(op.as_ref()?)
        }
    }

    #[test]
    fn an_op_without_a_key_falls_back_to_the_whole_search() {
        // Every keyed sub-history is fine on its own; only the whole
        // history shows that the global read missed key 1's write.
        for (seen, ok) in [(5, true), (3, false)] {
            let mut h: History<WithGlobalRead> = History::new();
            h.invoke(OpId(0), 0, Some(KeyedMaxOp::Write { key: 1, v: 5 }));
            h.invoke(OpId(1), 1, Some(KeyedMaxOp::Write { key: 2, v: 3 }));
            h.ret(OpId(0), MaxResp::Ok);
            h.ret(OpId(1), MaxResp::Ok);
            h.invoke(OpId(2), 0, None);
            h.ret(OpId(2), MaxResp::Value(seen));
            assert_eq!(verdict(&WithGlobalRead, &h), ok, "global read {seen}");
        }
    }

    // Per-process cursors rely on well-formedness, so an ill-formed
    // history fails closed in every build, naming the event. So do
    // `History::ops` and the validator built on it: a reused id must not
    // silently re-point the earlier op's record at the later one.

    /// Write(1) by p0, then a return of `OpId(7)`, never invoked.
    fn orphan_return() -> History<MaxRegisterSpec> {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(1));
        h.ret(OpId(0), MaxResp::Ok);
        h.ret(OpId(7), MaxResp::Ok);
        h
    }

    /// Write(1) by p0, then p0 invokes a read under the same `OpId(0)`.
    fn reused_id() -> History<MaxRegisterSpec> {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(1));
        h.ret(OpId(0), MaxResp::Ok);
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.invoke(OpId(0), 0, MaxOp::Read);
        h.ret(OpId(1), MaxResp::Value(1));
        h.ret(OpId(0), MaxResp::Value(1));
        h
    }

    #[test]
    #[should_panic(expected = "event 2 returns OpId(7), which is not open")]
    fn a_return_with_no_open_op_panics() {
        linearize(&MaxRegisterSpec, &orphan_return());
    }

    #[test]
    #[should_panic(expected = "event 2 returns OpId(7), which is not open")]
    fn op_records_of_a_return_with_no_open_op_panic() {
        orphan_return().ops();
    }

    #[test]
    #[should_panic(expected = "event 2 returns OpId(7), which is not open")]
    fn validating_against_a_return_with_no_open_op_panics() {
        let _ = validate_linearization(&MaxRegisterSpec, &orphan_return(), &Vec::new());
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
        linearize(&MaxRegisterSpec, &reused_id());
    }

    #[test]
    #[should_panic(expected = "event 3 reuses OpId(0)")]
    fn op_records_of_a_duplicate_op_id_panic() {
        reused_id().ops();
    }

    #[test]
    #[should_panic(expected = "event 3 reuses OpId(0)")]
    fn validating_against_a_duplicate_op_id_panics() {
        let h = reused_id();
        let lin = vec![
            (OpId(0), MaxOp::Write(1), MaxResp::Ok),
            (OpId(1), MaxOp::Read, MaxResp::Value(1)),
        ];
        let _ = validate_linearization(&MaxRegisterSpec, &h, &lin);
    }
}
