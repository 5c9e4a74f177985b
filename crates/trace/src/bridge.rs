//! The trace→history bridge: pairs span boundaries back into
//! invoke/response intervals the checker can adjudicate.
//!
//! [`request_spans`] scans a drained [`TraceLog`] for `Begin`/`End`
//! events under one label and reconstructs each request as a
//! [`SpanRecord`]: the process that invoked it (a dense remap of the
//! begin-thread slot), its invoke stamp and operation word, and —
//! if the span ever ended — its response stamp and word. A span that
//! never ends (the worker crash-stopped, the client never observed a
//! response) comes out with `response: None` and stays **pending
//! forever** in the bridged history, exactly the PR-7 recorder
//! convention: the checker is free to take or drop its effect.
//!
//! The typed half lives in `sl2_exec::record::history_from_spans`
//! (`sl2_exec` sits above this crate in the workspace DAG, so the
//! `History` constructor cannot live here — DESIGN.md §13 records the
//! split): it decodes the op/response words against a spec and feeds
//! the merged event stream to `History` in stamp order.
//!
//! # Soundness direction
//!
//! Begin is emitted *before* the request is published and End *after*
//! its response is observed, so every recorded interval contains the
//! real one; stamp slack therefore only ever **shrinks** recorded
//! precedence. A history with fewer precedence constraints admits a
//! superset of linearizations — so a refutation of the bridged
//! history refutes the real run too, while a certification is exact
//! only modulo that slack (DESIGN.md §13).

use crate::{EventKind, TraceLog};

/// One reconstructed request interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span id the request carried through the FIFO.
    pub span: u64,
    /// Dense process index (begin-thread slots remapped to `0..n` in
    /// ascending slot order, so the mapping is run-independent).
    pub process: usize,
    /// Raw thread slot that emitted the begin event.
    pub thread: usize,
    /// Stamp of the begin event (invocation ticket).
    pub invoke_stamp: u64,
    /// Payload word of the begin event (the encoded operation).
    pub op_word: u64,
    /// `(stamp, payload)` of the end event, or `None` if the span
    /// never completed — a crashed request, pending forever.
    pub response: Option<(u64, u64)>,
}

impl SpanRecord {
    /// True if the span never observed a response.
    pub fn is_pending(&self) -> bool {
        self.response.is_none()
    }
}

/// Reconstructs the request spans recorded under `label`, sorted by
/// invoke stamp. Instants and other labels are ignored; an `End`
/// without a matching `Begin` (its begin was overwritten in a full
/// ring) is dropped — half a span is not an interval.
pub fn request_spans(log: &TraceLog, label: &str) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = Vec::new();
    for e in &log.events {
        if e.label != label {
            continue;
        }
        match e.kind {
            EventKind::Begin => spans.push(SpanRecord {
                span: e.span,
                process: 0, // remapped below
                thread: e.thread,
                invoke_stamp: e.stamp,
                op_word: e.payload,
                response: None,
            }),
            EventKind::End => {
                if let Some(s) = spans
                    .iter_mut()
                    .find(|s| s.span == e.span && s.response.is_none())
                {
                    s.response = Some((e.stamp, e.payload));
                }
            }
            EventKind::Instant => {}
        }
    }
    spans.sort_by_key(|s| s.invoke_stamp);
    let mut threads: Vec<usize> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for s in &mut spans {
        s.process = threads
            .binary_search(&s.thread)
            .expect("thread was collected above");
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn ev(
        kind: EventKind,
        label: &'static str,
        thread: usize,
        span: u64,
        stamp: u64,
        payload: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            label,
            thread,
            span,
            stamp,
            payload,
        }
    }

    #[test]
    fn pairs_boundaries_and_remaps_processes_densely() {
        let log = TraceLog {
            events: vec![
                ev(EventKind::Begin, "svc.req", 7, 1, 0, 10),
                ev(EventKind::Instant, "svc.step", 7, 1, 1, 0),
                ev(EventKind::Begin, "svc.req", 3, 2, 2, 20),
                ev(EventKind::End, "svc.req", 7, 1, 3, 11),
                ev(EventKind::End, "svc.req", 3, 2, 4, 21),
            ],
            ..TraceLog::default()
        };
        let spans = request_spans(&log, "svc.req");
        assert_eq!(spans.len(), 2);
        // Thread 3 < thread 7, so processes are {3 → 0, 7 → 1}.
        assert_eq!(spans[0].process, 1);
        assert_eq!(spans[0].op_word, 10);
        assert_eq!(spans[0].response, Some((3, 11)));
        assert_eq!(spans[1].process, 0);
        assert_eq!(spans[1].response, Some((4, 21)));
    }

    #[test]
    fn unfinished_spans_stay_pending_and_orphan_ends_are_dropped() {
        let log = TraceLog {
            events: vec![
                ev(EventKind::Begin, "svc.req", 0, 5, 0, 1),
                ev(EventKind::End, "svc.req", 0, 99, 1, 2), // begin overwritten
            ],
            ..TraceLog::default()
        };
        let spans = request_spans(&log, "svc.req");
        assert_eq!(spans.len(), 1);
        assert!(spans[0].is_pending());
    }
}
