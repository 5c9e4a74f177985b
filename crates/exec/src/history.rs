//! Histories: the invocation/response traces of concurrent executions.
//!
//! A [`History`] is the subsequence of an execution consisting of
//! high-level invocation and response events — what linearizability and
//! strong linearizability are defined over.

use std::collections::HashMap;
use std::fmt::Debug;

use sl2_spec::Spec;

/// Identifier of an operation instance within one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// One event of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<S: Spec> {
    /// Operation `id` invoked by `process` with descriptor `op`.
    Invoke {
        /// Operation instance.
        id: OpId,
        /// Invoking process.
        process: usize,
        /// Operation descriptor.
        op: S::Op,
    },
    /// Operation `id` returned `resp`.
    Return {
        /// Operation instance.
        id: OpId,
        /// The response.
        resp: S::Resp,
    },
}

/// An operation's lifecycle within a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<S: Spec> {
    /// Operation instance id.
    pub id: OpId,
    /// Invoking process.
    pub process: usize,
    /// Operation descriptor.
    pub op: S::Op,
    /// Index of the invocation event.
    pub invoked_at: usize,
    /// Completion: response and index of the return event.
    pub returned: Option<(S::Resp, usize)>,
}

/// An operation as the linearizability checker reads it: borrowed from
/// the events and linked to its process's next operation.
pub(crate) struct TimedOp<'h, S: Spec> {
    pub(crate) id: OpId,
    pub(crate) op: &'h S::Op,
    /// `None` while pending.
    pub(crate) resp: Option<&'h S::Resp>,
    /// How many operations were invoked before this one returned
    /// (`usize::MAX` while pending): the `j`-th operation invoked
    /// follows it in real time iff `j >= returned`.
    pub(crate) returned: usize,
    /// Dense process index, and the process's next operation
    /// (`usize::MAX` if none).
    pub(crate) slot: usize,
    pub(crate) next: usize,
}

/// A finite history of invocation/response events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History<S: Spec> {
    events: Vec<Event<S>>,
}

impl<S: Spec> History<S> {
    /// Creates an empty history.
    pub fn new() -> Self {
        History { events: Vec::new() }
    }

    /// Appends an invocation event.
    pub fn invoke(&mut self, id: OpId, process: usize, op: S::Op) {
        self.events.push(Event::Invoke { id, process, op });
    }

    /// Appends a return event.
    pub fn ret(&mut self, id: OpId, resp: S::Resp) {
        self.events.push(Event::Return { id, resp });
    }

    /// The raw event sequence.
    pub fn events(&self) -> &[Event<S>] {
        &self.events
    }

    /// The same history under a different specification with identical
    /// operation and response types — e.g. the exact counter vs its
    /// k-lagging window. One recorded run judged against both is the
    /// recorder's differential adjudication (`tests/recorder.rs`).
    pub fn retyped<S2>(&self) -> History<S2>
    where
        S2: Spec<Op = S::Op, Resp = S::Resp>,
    {
        let mut out = History::new();
        for ev in &self.events {
            match ev {
                Event::Invoke { id, process, op } => out.invoke(*id, *process, op.clone()),
                Event::Return { id, resp } => out.ret(*id, resp.clone()),
            }
        }
        out
    }

    /// Removes the most recent event (used by backtracking explorers).
    pub fn pop(&mut self) -> Option<Event<S>> {
        self.events.pop()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-operation records, in invocation order.
    pub fn ops(&self) -> Vec<OpRecord<S>> {
        let mut recs: Vec<OpRecord<S>> = Vec::new();
        let mut index: HashMap<OpId, usize> = HashMap::new();
        for (i, ev) in self.events.iter().enumerate() {
            match ev {
                Event::Invoke { id, process, op } => {
                    index.insert(*id, recs.len());
                    recs.push(OpRecord {
                        id: *id,
                        process: *process,
                        op: op.clone(),
                        invoked_at: i,
                        returned: None,
                    });
                }
                Event::Return { id, resp } => {
                    let at = index[id];
                    recs[at].returned = Some((resp.clone(), i));
                }
            }
        }
        recs
    }

    /// Operations with both invocation and response.
    pub fn complete_ops(&self) -> Vec<OpRecord<S>> {
        self.ops()
            .into_iter()
            .filter(|r| r.returned.is_some())
            .collect()
    }

    /// Operations with only an invocation.
    pub fn pending_ops(&self) -> Vec<OpRecord<S>> {
        self.ops()
            .into_iter()
            .filter(|r| r.returned.is_none())
            .collect()
    }

    /// Real-time precedence: does `a` precede `b` (a's return before
    /// b's invocation)?
    pub fn precedes(&self, a: &OpRecord<S>, b: &OpRecord<S>) -> bool {
        match &a.returned {
            Some((_, ret_at)) => *ret_at < b.invoked_at,
            None => false,
        }
    }

    /// Restriction of the history to one process (the paper's `α|i`).
    pub fn per_process(&self, process: usize) -> Vec<Event<S>> {
        let owned: std::collections::HashSet<OpId> = self
            .ops()
            .into_iter()
            .filter(|r| r.process == process)
            .map(|r| r.id)
            .collect();
        self.events
            .iter()
            .filter(|ev| match ev {
                Event::Invoke { id, .. } | Event::Return { id, .. } => owned.contains(id),
            })
            .cloned()
            .collect()
    }

    /// The operations in invocation order, each linked to its process's
    /// next one, and each process's first operation: one walk over the
    /// events with an open-operation slot per process. An ill-formed
    /// history — a return with no open operation, an invocation by a
    /// process that still has one open, a reused [`OpId`] — is an
    /// error naming the offending event.
    pub(crate) fn timeline(&self) -> Result<(Vec<TimedOp<'_, S>>, Vec<usize>), String> {
        const NONE: usize = usize::MAX;
        let mut ops: Vec<TimedOp<'_, S>> = Vec::with_capacity(self.events.len());
        let mut ids = Vec::with_capacity(self.events.len());
        // Per process: its id, first, last and open operation.
        let mut procs: Vec<[usize; 4]> = Vec::new();
        for (at, ev) in self.events.iter().enumerate() {
            match ev {
                Event::Invoke { id, process, op } => {
                    let slot = procs.iter().position(|p| p[0] == *process);
                    let slot = slot.unwrap_or_else(|| {
                        procs.push([*process, NONE, NONE, NONE]);
                        procs.len() - 1
                    });
                    let [_, first, last, open] = &mut procs[slot];
                    if *open != NONE {
                        let open = ops[*open].id;
                        return Err(format!(
                            "event {at} invokes {id:?} while process {process} has {open:?} open"
                        ));
                    }
                    match *last {
                        NONE => *first = ops.len(),
                        l => ops[l].next = ops.len(),
                    }
                    (*last, *open) = (ops.len(), ops.len());
                    ids.push((*id, at));
                    let (id, resp, returned, next) = (*id, None, NONE, NONE);
                    ops.push(TimedOp {
                        id,
                        op,
                        resp,
                        returned,
                        slot,
                        next,
                    });
                }
                Event::Return { id, resp } => {
                    let mut open = procs.iter_mut().map(|p| &mut p[3]);
                    let Some(open) = open.find(|o| **o != NONE && ops[**o].id == *id) else {
                        return Err(format!("event {at} returns {id:?}, which is not open"));
                    };
                    (ops[*open].resp, ops[*open].returned) = (Some(resp), ops.len());
                    *open = NONE;
                }
            }
        }
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("event {} reuses {:?}", w[1].1, w[1].0));
        }
        Ok((ops, procs.iter().map(|p| p[1]).collect()))
    }

    /// Checks well-formedness: each process has at most one operation
    /// pending at a time, returns match prior invocations, no duplicate
    /// ids.
    pub fn is_well_formed(&self) -> bool {
        self.timeline().is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

    fn sample() -> History<MaxRegisterSpec> {
        let mut h = History::new();
        h.invoke(OpId(0), 0, MaxOp::Write(5));
        h.invoke(OpId(1), 1, MaxOp::Read);
        h.ret(OpId(0), MaxResp::Ok);
        h.invoke(OpId(2), 0, MaxOp::Read);
        h.ret(OpId(2), MaxResp::Value(5));
        h
    }

    #[test]
    fn ops_classify_complete_and_pending() {
        let h = sample();
        assert_eq!(h.complete_ops().len(), 2);
        assert_eq!(h.pending_ops().len(), 1);
        assert_eq!(h.pending_ops()[0].id, OpId(1));
    }

    #[test]
    fn precedence_follows_real_time() {
        let h = sample();
        let ops = h.ops();
        let w = &ops[0]; // Write(5), completed at index 2
        let r1 = &ops[1]; // pending Read by p1, invoked at 1
        let r2 = &ops[2]; // Read by p0, invoked at 3
        assert!(h.precedes(w, r2));
        assert!(!h.precedes(w, r1)); // overlapping
        assert!(!h.precedes(r1, r2)); // pending never precedes
    }

    #[test]
    fn per_process_projects_events() {
        let h = sample();
        assert_eq!(h.per_process(0).len(), 4);
        assert_eq!(h.per_process(1).len(), 1);
    }

    #[test]
    fn well_formedness_accepts_sample() {
        assert!(sample().is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_double_invocation() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.invoke(OpId(0), 0, MaxOp::Read);
        h.invoke(OpId(1), 0, MaxOp::Read); // same process, still pending
        assert!(!h.is_well_formed());
    }

    #[test]
    fn well_formedness_rejects_orphan_return() {
        let mut h: History<MaxRegisterSpec> = History::new();
        h.ret(OpId(7), MaxResp::Ok);
        assert!(!h.is_well_formed());
    }
}
