//! Causal request tracing for the sl2 runtime crates — the third leg
//! of the disarmed-instrumentation triad (chaos = PR 7, obs = PR 8),
//! and the first whose output is itself checker-adjudicated.
//!
//! `sl2_obs` answers "how much / how fast" in aggregate; nothing there
//! can answer *what happened, in order, to one request* as it crosses
//! the service tier. This crate records exactly that, on the same
//! zero-cost terms:
//!
//! * **Trace points.** Hot paths emit fixed-size binary events —
//!   label id, thread id (from `sl2_primitives::labeled`), request
//!   *span* id, a monotone stamp from a record-style global clock, and
//!   one payload word — via [`span_begin`]/[`span_end`] (operation
//!   boundaries) and [`event`]/[`event_in`] (instants inside a span).
//!   With the `trace` feature off (the default everywhere), every
//!   point is an empty `#[inline(always)]` stub and [`SpanGuard`] is a
//!   ZST: the production build is bit-for-bit unaffected (pinned by
//!   `tests/alloc_counter.rs`).
//! * **Per-thread rings.** Armed, events go into [`RINGS`] static
//!   cache-padded ring buffers of [`RING_CAP`] slots each, selected by
//!   the caller's thread slot. Writes are lock-free and allocation-free
//!   in steady state; a full ring overwrites oldest-first, so the rings
//!   always hold the *last* `RING_CAP` events per lane — a black box,
//!   not an unbounded log. A per-slot commit word (seqlock-style
//!   publish) lets [`drain`] detect and skip torn slots.
//! * **Spans.** A request takes one span id ([`next_span`]) at its
//!   client boundary; the id rides through the worker FIFO, and the
//!   serving worker re-enters it ambiently ([`enter_span`]) so that
//!   instants emitted layers below — combiner election, bignum
//!   migration — attribute to the request that caused them without any
//!   signature threading.
//! * **Flight recorder.** [`install_flight_recorder`] chains a panic
//!   hook that dumps the rings ([`dump_env`], `SL2_TRACE_JSON`
//!   JSON-lines, mirroring the corpus/recorder/metrics artifacts),
//!   tagged `chaos[seed=…]` when a fault plan is installed — every
//!   failure ships its own black box. (A chaos *crash-stop* parks the
//!   thread without unwinding, so no hook runs at the point of crash;
//!   the observer calls [`dump_env`] explicitly once
//!   `crashed_count` trips — see `tests/trace.rs`.)
//! * **The bridge.** [`bridge`] pairs span boundaries back into
//!   invoke/response intervals, which `sl2_exec::record::
//!   history_from_spans` turns into a checkable `History`: crashed
//!   spans stay pending forever (the PR-7 convention), and stamp slack
//!   only ever *shrinks* recorded precedence, so refutations found in
//!   a bridged history are sound (DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use sl2_trace as trace;
//!
//! // Disarmed by default: stubs compile to nothing and drains are
//! // empty. Armed (the root's `--features armed`), these fill the rings.
//! let span = trace::next_span();
//! trace::span_begin("doc.example.request", span, 7);
//! {
//!     let _g = trace::enter_span(span);
//!     trace::event("doc.example.step", 1); // attributes to `span`
//! }
//! trace::span_end("doc.example.request", span, 0);
//! assert_eq!(trace::drain().events.is_empty(), !trace::armed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bridge;

pub use sl2_primitives::labeled::json_escape;

#[cfg(feature = "trace")]
mod armed;

#[cfg(feature = "trace")]
pub use armed::{
    current_span, drain, dump_env, enter_span, event, event_in, install_flight_recorder, next_span,
    reset, span_begin, span_end, SpanGuard,
};

/// Number of static per-thread ring buffers events are striped over
/// when the trace layer is armed (declared in every build, so
/// ring-aware callers compile in both configurations).
pub const RINGS: usize = 16;

/// Capacity of each ring, in events: the "last N per lane" a flight
/// dump can hold.
pub const RING_CAP: usize = 1024;

/// Whether the trace layer is compiled into this build.
#[inline(always)]
pub fn armed() -> bool {
    cfg!(feature = "trace")
}

/// What a trace event marks within its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The span's operation was invoked (client boundary).
    Begin,
    /// The span's operation completed (response boundary).
    End,
    /// A point inside the span (route step, election, migration, …).
    Instant,
}

impl EventKind {
    /// Lowercase wire name used in the JSON-lines dump.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        }
    }
}

/// One decoded trace event. The in-ring representation is five `u64`
/// words; this is the drained, label-resolved form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin/End/Instant.
    pub kind: EventKind,
    /// Interned point label, e.g. `"service.request"`.
    pub label: &'static str,
    /// Thread slot of the emitting thread (`labeled::slot`).
    pub thread: usize,
    /// Request span the event belongs to (0 = no ambient span).
    pub span: u64,
    /// Global-clock ticket: stamps are unique and totally ordered.
    pub stamp: u64,
    /// One word of event payload (operation encoding, batch size, …).
    pub payload: u64,
}

/// A drained trace: events from every ring, merged and sorted by
/// stamp. Produced by [`drain`]; consumed by [`bridge`] and the
/// flight-recorder dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Events in stamp order (stamps are unique global tickets).
    pub events: Vec<TraceEvent>,
    /// Events that were claimed but had already rotated out of their
    /// ring when it was drained (a full ring overwrites oldest-first).
    pub overwritten: u64,
    /// Slots the drain skipped because their commit word did not match
    /// the expected generation: in flight, or overwritten mid-read.
    pub torn: u64,
}

impl TraceLog {
    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the log as JSON lines: a header object carrying the
    /// dump `reason`, the chaos `tag` (empty when no plan is installed)
    /// and the lost-evidence counts, then one object per event in stamp
    /// order. Two runs
    /// of the same seeded schedule produce byte-identical output —
    /// the determinism `tests/trace.rs` pins.
    pub fn to_json_lines(&self, reason: &str, tag: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"trace\":\"dump\",\"reason\":\"{}\",\"tag\":\"{}\",\"events\":{},\
             \"overwritten\":{},\"torn\":{}}}\n",
            json_escape(reason),
            json_escape(tag),
            self.events.len(),
            self.overwritten,
            self.torn,
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{{\"trace\":\"event\",\"kind\":\"{}\",\"label\":\"{}\",\
                 \"thread\":{},\"span\":{},\"stamp\":{},\"payload\":{}}}\n",
                e.kind.name(),
                json_escape(e.label),
                e.thread,
                e.span,
                e.stamp,
                e.payload,
            ));
        }
        out
    }

    /// Writes the JSON-lines dump to the path named by the
    /// `SL2_TRACE_JSON` environment variable, if set (the CI artifact
    /// hook, mirroring `SL2_RECORDER_JSON`/`SL2_METRICS_JSON`).
    pub fn write_env(&self, reason: &str, tag: &str) {
        if let Ok(path) = std::env::var("SL2_TRACE_JSON") {
            std::fs::write(&path, self.to_json_lines(reason, tag))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
    }
}

/// Mints a fresh nonzero span id. Disarmed: returns 0 (no span).
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn next_span() -> u64 {
    0
}

/// The calling thread's ambient span (0 = none). Disarmed: 0.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn current_span() -> u64 {
    0
}

/// Drop guard restoring the previous ambient span. Disarmed: a ZST
/// with no `Drop` glue.
#[cfg(not(feature = "trace"))]
#[derive(Debug)]
#[must_use = "the guard scopes the ambient span — bind it for the span's extent"]
pub struct SpanGuard(());

/// Makes `span` the calling thread's ambient span for the guard's
/// lifetime. Disarmed: returns the ZST.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn enter_span(_span: u64) -> SpanGuard {
    SpanGuard(())
}

/// Marks the invocation boundary of `span` at `label`. Disarmed:
/// empty stub.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn span_begin(_label: &'static str, _span: u64, _payload: u64) {}

/// Marks the response boundary of `span` at `label`. Disarmed: empty
/// stub.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn span_end(_label: &'static str, _span: u64, _payload: u64) {}

/// Emits an instant attributed to the ambient span. Disarmed: empty
/// stub.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn event(_label: &'static str, _payload: u64) {}

/// Emits an instant attributed to an explicit `span`. Disarmed: empty
/// stub.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn event_in(_label: &'static str, _span: u64, _payload: u64) {}

/// Clears the rings and rewinds the clock and span counters.
/// Disarmed: no-op.
#[cfg(not(feature = "trace"))]
#[inline(always)]
pub fn reset() {}

/// Nondestructive merge of every ring. Disarmed: always empty, so
/// dump-emitting call sites need no feature gate.
#[cfg(not(feature = "trace"))]
pub fn drain() -> TraceLog {
    TraceLog::default()
}

/// Chains the flight-recorder panic hook. Disarmed: no-op.
#[cfg(not(feature = "trace"))]
pub fn install_flight_recorder() {}

/// Dumps the rings to `SL2_TRACE_JSON` (if set). Disarmed: no-op.
#[cfg(not(feature = "trace"))]
pub fn dump_env(_reason: &str) {}
