//! Threaded-history recorder: invoke/response logs from *real*
//! threaded runs of the production objects, merged on a global order
//! stamp into a checkable [`History`] — the lincheck-shaped bridge
//! between the simulated step machines (which `check_strong` explores
//! exhaustively) and the code that actually ships.
//!
//! The division of labour with [`crate::strong`] is deliberate. The
//! checker adjudicates *all* interleavings of a bounded scenario, but
//! only of the checkable twins; the recorder observes *one*
//! interleaving per run, but of the production object itself, under
//! real threads, real contention, and (with the `sl2_chaos` hooks
//! armed) real injected faults. A recorded history that fails
//! [`crate::lin::is_linearizable`] against a spec the twins certify is
//! a twin-fidelity bug; a recorded history that *passes* a spec the
//! twins refute is expected (one run cannot witness every race) — the
//! differential tests in `tests/recorder.rs` pin both directions.
//!
//! # Crash-stop and the pending-forever convention
//!
//! [`Recorder::run_op`] logs the invocation *before* running the
//! operation body. If the body never returns — a chaos crash-stop
//! parks the thread and later unwinds it past the closure — the
//! response is never logged and the merged history carries the
//! operation as *pending*: the linearizability checker then decides
//! whether to take its effect or discard it, exactly the freedom the
//! crash-stop model grants the adversary. Survivor threads' completed
//! operations must still linearize around the hole.
//!
//! # Order stamps
//!
//! Every log entry takes one ticket from a global atomic clock —
//! invocations immediately before the body runs, responses immediately
//! after it returns. The merged event sequence is therefore consistent
//! with real-time order: if op A's response ticket precedes op B's
//! invocation ticket, A really returned before B was invoked. (The
//! converse slack — a ticket taken but logged late — only ever
//! *shrinks* recorded precedence, which is the sound direction: the
//! checker sees fewer order constraints than real time imposed, never
//! more.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sl2_spec::Spec;
use sl2_trace::bridge::SpanRecord;
use sl2_trace::json_escape;

use crate::history::{History, OpId};
use crate::lin::is_linearizable;

/// Per-process operation-id stride: the `k`-th operation recorded by
/// process `p` gets [`OpId`]`(p * OP_STRIDE + k)`, so ids stay distinct
/// while each process records fewer than 2^20 operations (the merge
/// asserts it); the linearizability checker has no length cap of its own.
const OP_STRIDE: usize = 1 << 20;

/// One logged event, before the merge.
#[derive(Debug)]
enum Rec<S: Spec> {
    Invoke(S::Op),
    Return(S::Resp),
}

/// One process's stamped event log.
type ProcessLog<S> = Mutex<Vec<(u64, Rec<S>)>>;

/// Records invoke/response events from concurrent threads exercising
/// a production object, then merges them into a [`History`] for the
/// linearizability checker.
///
/// ```
/// use sl2_exec::record::Recorder;
/// use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};
/// use sl2_exec::is_linearizable;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let counter = AtomicU64::new(0);
/// let rec = Recorder::<CounterSpec>::new(2);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         rec.run_op(0, CounterOp::Inc, || {
///             counter.fetch_add(1, Ordering::Relaxed);
///             CounterResp::Ok
///         });
///     });
///     s.spawn(|| {
///         rec.run_op(1, CounterOp::Read, || {
///             CounterResp::Value(counter.load(Ordering::Relaxed))
///         });
///     });
/// });
/// let history = rec.into_history();
/// assert!(is_linearizable(&CounterSpec, &history));
/// ```
#[derive(Debug)]
pub struct Recorder<S: Spec> {
    clock: AtomicU64,
    logs: Vec<ProcessLog<S>>,
}

impl<S: Spec> Recorder<S> {
    /// A recorder for `processes` threads (one log per process; each
    /// process must run its operations sequentially, the usual
    /// single-thread-per-process discipline).
    pub fn new(processes: usize) -> Self {
        Recorder {
            clock: AtomicU64::new(0),
            logs: (0..processes).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of per-process logs.
    pub fn processes(&self) -> usize {
        self.logs.len()
    }

    fn log(&self, process: usize, rec: Rec<S>) {
        let stamp = self.clock.fetch_add(1, Ordering::AcqRel);
        self.logs[process]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((stamp, rec));
    }

    /// Runs `body` as operation `op` of `process`, logging the
    /// invocation before and the response after. If `body` unwinds
    /// (an injected panic, or a chaos crash-stop resumed past the
    /// closure), the operation stays **pending** in the merged
    /// history — the crash-stop convention.
    pub fn run_op(&self, process: usize, op: S::Op, body: impl FnOnce() -> S::Resp) -> S::Resp {
        self.log(process, Rec::Invoke(op));
        let resp = body();
        self.log(process, Rec::Return(resp.clone()));
        resp
    }

    /// Merges the per-process logs into one [`History`], ordered by
    /// the global stamps. Responses pair with their process's oldest
    /// unanswered invocation (per-process operations are sequential);
    /// unanswered invocations come out as pending operations.
    pub fn into_history(self) -> History<S> {
        let mut events: Vec<(u64, Event<S>)> = Vec::new();
        for (p, log) in self.logs.into_iter().enumerate() {
            let log = log.into_inner().unwrap_or_else(|e| e.into_inner());
            let mut next = 0usize;
            let mut open: Option<OpId> = None;
            for (stamp, rec) in log {
                match rec {
                    Rec::Invoke(op) => {
                        assert!(open.is_none(), "process {p}: overlapping own operations");
                        assert!(next < OP_STRIDE, "process {p}: too many operations");
                        let id = OpId(p * OP_STRIDE + next);
                        next += 1;
                        open = Some(id);
                        events.push((stamp, Event::Invoke { id, process: p, op }));
                    }
                    Rec::Return(resp) => {
                        let id = open.take().expect("response without an invocation");
                        events.push((stamp, Event::Return { id, resp }));
                    }
                }
            }
        }
        merge(events)
    }
}

/// Local twin of [`crate::history::Event`] used only while merging
/// (the history's own event type is append-only behind its API).
#[derive(Debug)]
enum Event<S: Spec> {
    Invoke { id: OpId, process: usize, op: S::Op },
    Return { id: OpId, resp: S::Resp },
}

/// Replays stamped events into a [`History`] in stamp order: the one
/// merge [`Recorder::into_history`] and [`history_from_spans`] share.
fn merge<S: Spec>(mut events: Vec<(u64, Event<S>)>) -> History<S> {
    events.sort_by_key(|(stamp, _)| *stamp);
    let mut history = History::new();
    for (_, ev) in events {
        match ev {
            Event::Invoke { id, process, op } => history.invoke(id, process, op),
            Event::Return { id, resp } => history.ret(id, resp),
        }
    }
    history
}

/// Builds a [`History`] from bridged trace spans
/// (`sl2_trace::bridge::request_spans`): each span becomes one
/// operation of its dense process — invoked at its begin stamp,
/// returned at its end stamp, or **pending forever** if the span
/// never completed (the crash-stop convention, exactly as
/// [`Recorder::run_op`] treats an unwound body).
///
/// `decode_op` translates a span's encoded operation word into the
/// spec's op (return `None` to skip spans outside the spec's
/// vocabulary); `decode_resp` translates the response word (`None`
/// demotes the span to pending — dropping a response only removes
/// constraints, which is the sound direction).
///
/// Soundness (DESIGN.md §13): span Begin is emitted *before* the
/// request is published and End *after* its response is observed, so
/// every bridged interval contains the real one. Stamp slack
/// therefore only shrinks recorded precedence: a refutation of the
/// bridged history refutes the real run, while a certification is
/// exact only modulo that slack.
pub fn history_from_spans<S, FO, FR>(
    spans: &[SpanRecord],
    mut decode_op: FO,
    mut decode_resp: FR,
) -> History<S>
where
    S: Spec,
    FO: FnMut(&SpanRecord) -> Option<S::Op>,
    FR: FnMut(&SpanRecord, u64) -> Option<S::Resp>,
{
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| s.invoke_stamp);
    let mut next: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut events: Vec<(u64, Event<S>)> = Vec::new();
    for s in ordered {
        let Some(op) = decode_op(s) else { continue };
        let k = next.entry(s.process).or_insert(0);
        assert!(*k < OP_STRIDE, "process {}: too many operations", s.process);
        let id = OpId(s.process * OP_STRIDE + *k);
        *k += 1;
        events.push((
            s.invoke_stamp,
            Event::Invoke {
                id,
                process: s.process,
                op,
            },
        ));
        if let Some((stamp, word)) = s.response {
            if let Some(resp) = decode_resp(s, word) {
                events.push((stamp, Event::Return { id, resp }));
            }
        }
    }
    merge(events)
}

/// One adjudicated recorded run in a [`RecordReport`].
#[derive(Debug, Clone)]
pub struct RecordRun {
    /// Run name (`object/scenario` by convention).
    pub name: String,
    /// Specification label the history was checked against.
    pub spec: String,
    /// Completed operations in the recorded history.
    pub complete_ops: usize,
    /// Pending (crashed or unfinished) operations.
    pub pending_ops: usize,
    /// Whether the history linearizes against the spec.
    pub linearizable: bool,
}

/// Machine-readable result of a batch of recorded runs, serialized as
/// JSON lines next to the corpus report (CI uploads it as the
/// recorder artifact; `SL2_RECORDER_JSON` names the path).
#[derive(Debug, Clone, Default)]
pub struct RecordReport {
    /// One row per adjudicated run, in run order.
    pub runs: Vec<RecordRun>,
}

impl RecordReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks `history` against `spec`, records the verdict under
    /// `name`, and returns it (true = linearizable).
    pub fn adjudicate<S: Spec>(
        &mut self,
        name: &str,
        spec_label: &str,
        spec: &S,
        history: &History<S>,
    ) -> bool {
        let linearizable = is_linearizable(spec, history);
        self.runs.push(RecordRun {
            name: name.to_string(),
            spec: spec_label.to_string(),
            complete_ops: history.complete_ops().len(),
            pending_ops: history.pending_ops().len(),
            linearizable,
        });
        linearizable
    }

    /// Number of runs that linearized.
    pub fn passed(&self) -> usize {
        self.runs.iter().filter(|r| r.linearizable).count()
    }

    /// Serializes the report as JSON lines: one object per run plus a
    /// trailing summary object.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            out.push_str(&format!(
                "{{\"recorder\":\"run\",\"name\":\"{}\",\"spec\":\"{}\",\
                 \"complete_ops\":{},\"pending_ops\":{},\"linearizable\":{}}}\n",
                json_escape(&r.name),
                json_escape(&r.spec),
                r.complete_ops,
                r.pending_ops,
                r.linearizable,
            ));
        }
        out.push_str(&format!(
            "{{\"recorder\":\"summary\",\"runs\":{},\"linearizable\":{},\
             \"violations\":{}}}\n",
            self.runs.len(),
            self.passed(),
            self.runs.len() - self.passed(),
        ));
        out
    }

    /// Writes the JSON-lines report to the path named by the
    /// `SL2_RECORDER_JSON` environment variable, if set (the CI
    /// artifact hook, mirroring `SL2_CORPUS_JSON`).
    pub fn write_env(&self) {
        if let Ok(path) = std::env::var("SL2_RECORDER_JSON") {
            std::fs::write(&path, self.to_json_lines())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};

    #[test]
    fn sequential_runs_merge_into_a_well_formed_history() {
        let rec = Recorder::<CounterSpec>::new(2);
        rec.run_op(0, CounterOp::Inc, || CounterResp::Ok);
        rec.run_op(1, CounterOp::Inc, || CounterResp::Ok);
        rec.run_op(0, CounterOp::Read, || CounterResp::Value(2));
        let h = rec.into_history();
        assert!(h.is_well_formed());
        assert_eq!(h.complete_ops().len(), 3);
        assert_eq!(h.pending_ops().len(), 0);
        assert!(is_linearizable(&CounterSpec, &h));
    }

    #[test]
    fn stamps_preserve_real_time_precedence() {
        // Sequential ops on different processes: the merge must keep
        // their order (a read of 0 after an inc completed is a
        // violation, and the history must expose it as one).
        let rec = Recorder::<CounterSpec>::new(2);
        rec.run_op(0, CounterOp::Inc, || CounterResp::Ok);
        rec.run_op(1, CounterOp::Read, || CounterResp::Value(0));
        let h = rec.into_history();
        assert!(h.is_well_formed());
        assert!(
            !is_linearizable(&CounterSpec, &h),
            "stale read after a completed inc must refute"
        );
    }

    #[test]
    fn an_unwound_body_leaves_the_op_pending_forever() {
        let rec = Recorder::<CounterSpec>::new(2);
        rec.run_op(0, CounterOp::Inc, || CounterResp::Ok);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.run_op(1, CounterOp::Inc, || panic!("injected"));
        }));
        // The crashed inc is pending: the checker may take its effect
        // or discard it, so reads of both 1 and 2 linearize.
        let rec2 = Recorder::<CounterSpec>::new(2);
        rec2.run_op(0, CounterOp::Inc, || CounterResp::Ok);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec2.run_op(1, CounterOp::Inc, || panic!("injected"));
        }));
        rec2.run_op(0, CounterOp::Read, || CounterResp::Value(2));
        let h = rec.into_history();
        assert!(h.is_well_formed());
        assert_eq!(h.complete_ops().len(), 1);
        assert_eq!(h.pending_ops().len(), 1);
        assert!(is_linearizable(&CounterSpec, &h));
        let h2 = rec2.into_history();
        assert_eq!(h2.pending_ops().len(), 1);
        assert!(
            is_linearizable(&CounterSpec, &h2),
            "a read of 2 forces the checker to take the pending inc"
        );
    }

    #[test]
    fn report_serializes_runs_and_summary() {
        let rec = Recorder::<CounterSpec>::new(1);
        rec.run_op(0, CounterOp::Inc, || CounterResp::Ok);
        let h = rec.into_history();
        let mut report = RecordReport::new();
        assert!(report.adjudicate("counter/solo", "exact", &CounterSpec, &h));
        let json = report.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"counter/solo\""));
        assert!(lines[0].contains("\"linearizable\":true"));
        assert!(lines[1].contains("\"recorder\":\"summary\""));
        assert!(lines[1].contains("\"violations\":0"));
    }
}
