//! The armed trace implementation (feature `trace`): fixed-size
//! binary events in static cache-padded ring buffers, published
//! seqlock-style so a post-mortem drain can detect torn slots.
//!
//! Design constraints, in order (the obs contract, DESIGN.md §11,
//! extended to events):
//!
//! * **Never perturb what it traces.** Emitting takes no locks and
//!   allocates nothing: a label is interned into a static
//!   [`LabelTable`] (the one obs uses), a
//!   slot is claimed with one relaxed `fetch_add` on the ring head,
//!   and the five event words are plain atomic stores. The only
//!   cross-thread edge an emit creates is the global clock ticket —
//!   the same `AcqRel` ticket the PR-7 recorder already takes, and
//!   for the same reason: stamps must order consistently with real
//!   time for the bridge to be sound.
//! * **Bounded.** [`RINGS`] rings of [`RING_CAP`] slots, all static.
//!   A full ring overwrites oldest-first: the rings are a black box
//!   holding the *last* `RING_CAP` events per lane, not a log.
//! * **Torn-proof reads.** Each slot carries a commit word written
//!   `0 → fields → claim+1`: the invalidating store is followed by a
//!   release fence, so no field store moves above it, and the commit
//!   store is a release. [`drain`] accepts a slot only if the commit
//!   word reads `claim+1` both before and after the field loads, with
//!   an acquire fence before the second read, so no field load moves
//!   below it; an in-flight or wrapped-over slot is skipped, never
//!   decoded torn. Drains are exact at quiescence (workers joined or
//!   parked); during live writes they are a best-effort snapshot —
//!   exactly what a flight recorder wants. Lost evidence is counted:
//!   [`TraceLog::overwritten`] and [`TraceLog::torn`].

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Once;

use sl2_primitives::labeled::{self, LabelTable};
use sl2_primitives::CachePadded;

use crate::{EventKind, TraceEvent, TraceLog, RINGS, RING_CAP};

const LABEL_SLOTS: usize = 64;

const KIND_BEGIN: u64 = 1;
const KIND_END: u64 = 2;
const KIND_INSTANT: u64 = 3;

/// One in-ring event: five words, seqlock-published via `commit`.
struct Slot {
    /// 0 while being written; `claim + 1` once the claim-th event of
    /// this ring is fully stored. A reader expecting generation
    /// `claim` validates `commit == claim + 1` around its field loads.
    commit: AtomicU64,
    /// `kind | label_idx << 8 | thread << 32`.
    meta: AtomicU64,
    span: AtomicU64,
    stamp: AtomicU64,
    payload: AtomicU64,
}

struct Ring {
    /// Total events ever claimed in this ring (monotone; the live
    /// window is `[head - RING_CAP, head)`).
    head: AtomicU64,
    slots: [Slot; RING_CAP],
}

static LABELS: LabelTable<LABEL_SLOTS> = LabelTable::new();

static RING_BUFFERS: [CachePadded<Ring>; RINGS] = [const {
    CachePadded::new(Ring {
        head: AtomicU64::new(0),
        slots: [const {
            Slot {
                commit: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                span: AtomicU64::new(0),
                stamp: AtomicU64::new(0),
                payload: AtomicU64::new(0),
            }
        }; RING_CAP],
    })
}; RINGS];

/// Global event clock: one ticket per event, `AcqRel` like the PR-7
/// recorder's, so stamp order is consistent with real-time order.
static CLOCK: AtomicU64 = AtomicU64::new(0);

/// Span id mint. Starts at 1: span 0 means "no ambient span".
static SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's ambient span (0 = none).
    static AMBIENT: Cell<u64> = const { Cell::new(0) };
}

/// Mints a fresh nonzero span id.
#[inline]
pub fn next_span() -> u64 {
    SPAN.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's ambient span (0 = none).
#[inline]
pub fn current_span() -> u64 {
    AMBIENT.with(|c| c.get())
}

/// Drop guard restoring the previous ambient span.
#[derive(Debug)]
#[must_use = "the guard scopes the ambient span — bind it for the span's extent"]
pub struct SpanGuard {
    prev: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

/// Makes `span` the calling thread's ambient span for the guard's
/// lifetime (nests: dropping restores the outer span).
#[inline]
pub fn enter_span(span: u64) -> SpanGuard {
    SpanGuard {
        prev: AMBIENT.with(|c| c.replace(span)),
    }
}

#[inline]
fn emit(kind: u64, label: &'static str, span: u64, payload: u64) {
    let idx = LABELS.index_of(label) as u64;
    let thread = labeled::slot() as u64;
    let ring = &RING_BUFFERS[(thread as usize) % RINGS];
    let claim = ring.head.fetch_add(1, Ordering::Relaxed);
    let slot = &ring.slots[(claim as usize) % RING_CAP];
    let stamp = CLOCK.fetch_add(1, Ordering::AcqRel);
    // Seqlock-style publish: invalidate, store fields, commit. A
    // drain racing this write sees commit ≠ claim+1 on one side of
    // its field loads and skips the slot instead of decoding it torn.
    // A release store of 0 would not keep the relaxed field stores
    // after it; the fence does (it pairs with the acquire fence in
    // `drain`).
    slot.commit.store(0, Ordering::Relaxed);
    fence(Ordering::Release);
    slot.meta
        .store(kind | (idx << 8) | (thread << 32), Ordering::Relaxed);
    slot.span.store(span, Ordering::Relaxed);
    slot.stamp.store(stamp, Ordering::Relaxed);
    slot.payload.store(payload, Ordering::Relaxed);
    slot.commit.store(claim + 1, Ordering::Release);
}

/// Marks the invocation boundary of `span` at `label`.
#[inline]
pub fn span_begin(label: &'static str, span: u64, payload: u64) {
    emit(KIND_BEGIN, label, span, payload);
}

/// Marks the response boundary of `span` at `label`.
#[inline]
pub fn span_end(label: &'static str, span: u64, payload: u64) {
    emit(KIND_END, label, span, payload);
}

/// Emits an instant attributed to the ambient span.
#[inline]
pub fn event(label: &'static str, payload: u64) {
    emit(KIND_INSTANT, label, current_span(), payload);
}

/// Emits an instant attributed to an explicit `span`.
#[inline]
pub fn event_in(label: &'static str, span: u64, payload: u64) {
    emit(KIND_INSTANT, label, span, payload);
}

/// Nondestructive merge of every ring: the last `RING_CAP` committed
/// events per ring, validated against their commit words (torn or
/// in-flight slots are skipped and counted), sorted by stamp. Exact at
/// quiescence; a best-effort snapshot while writers are live.
pub fn drain() -> TraceLog {
    let mut log = TraceLog::default();
    for ring in RING_BUFFERS.iter() {
        let head = ring.head.load(Ordering::Acquire);
        let start = head.saturating_sub(RING_CAP as u64);
        log.overwritten += start;
        for claim in start..head {
            let slot = &ring.slots[(claim as usize) % RING_CAP];
            if slot.commit.load(Ordering::Acquire) != claim + 1 {
                log.torn += 1; // in-flight, or wrapped past us
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let span = slot.span.load(Ordering::Relaxed);
            let stamp = slot.stamp.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            // Keeps the field loads above the re-check (pairs with the
            // release fence in `emit`).
            fence(Ordering::Acquire);
            if slot.commit.load(Ordering::Relaxed) != claim + 1 {
                log.torn += 1; // overwritten mid-read: drop, never tear
                continue;
            }
            let kind = match meta & 0xff {
                KIND_BEGIN => EventKind::Begin,
                KIND_END => EventKind::End,
                _ => EventKind::Instant,
            };
            let label = LABELS
                .label_at(((meta >> 8) & 0xff_ffff) as usize)
                .unwrap_or("?");
            log.events.push(TraceEvent {
                kind,
                label,
                thread: (meta >> 32) as usize,
                span,
                stamp,
                payload,
            });
        }
    }
    log.events.sort_by_key(|e| e.stamp);
    log
}

/// Clears every ring and rewinds the clock and span mints, so a
/// scripted run replayed after `reset` reproduces identical stamps
/// and span ids (the determinism `tests/trace.rs` pins). Labels stay
/// interned. Callers serialize against concurrent emitters — the
/// rings are process-global.
pub fn reset() {
    for ring in RING_BUFFERS.iter() {
        for slot in ring.slots.iter() {
            slot.commit.store(0, Ordering::Release);
        }
        ring.head.store(0, Ordering::Release);
    }
    CLOCK.store(0, Ordering::Release);
    SPAN.store(1, Ordering::Release);
}

/// Chains a panic hook that dumps the rings via [`dump_env`] with
/// reason `"panic"`, after the previous hook has printed its report.
/// Idempotent: the hook is installed once per process. (A chaos
/// crash-stop never unwinds and runs no hook — its observer calls
/// [`dump_env`] explicitly; DESIGN.md §13.)
pub fn install_flight_recorder() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            dump_env("panic");
        }));
    });
}

/// Drains the rings and writes the JSON-lines dump to the path named
/// by `SL2_TRACE_JSON` (if set), tagged with the installed chaos
/// plan's seed so the post-mortem names the run that reproduces it.
pub fn dump_env(reason: &str) {
    drain().write_env(reason, &chaos_tag());
}

fn chaos_tag() -> String {
    match sl2_chaos::plan_seed() {
        Some(seed) => format!("chaos[seed={seed}]"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The rings, clock, and span mint are process-global: unit tests
    /// in this binary serialize on this lock (as `tests/trace.rs`
    /// does at the workspace level).
    static SEQ: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_restore() {
        let _g = SEQ.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(current_span(), 0);
        let outer = next_span();
        let inner = next_span();
        {
            let _a = enter_span(outer);
            assert_eq!(current_span(), outer);
            {
                let _b = enter_span(inner);
                assert_eq!(current_span(), inner);
            }
            assert_eq!(current_span(), outer);
        }
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn emitted_events_drain_in_stamp_order_with_fields_intact() {
        let _g = SEQ.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let span = next_span();
        span_begin("trace.unit.op", span, 41);
        event_in("trace.unit.step", span, 42);
        span_end("trace.unit.op", span, 43);
        let log = drain();
        assert_eq!(log.len(), 3);
        assert!(log.events.windows(2).all(|w| w[0].stamp < w[1].stamp));
        assert_eq!(log.events[0].kind, EventKind::Begin);
        assert_eq!(log.events[0].label, "trace.unit.op");
        assert_eq!(log.events[0].payload, 41);
        assert_eq!(log.events[1].kind, EventKind::Instant);
        assert_eq!(log.events[2].kind, EventKind::End);
        assert!(log.events.iter().all(|e| e.span == span));
        reset();
        assert!(drain().is_empty());
    }

    #[test]
    fn json_dump_carries_reason_and_tag() {
        let _g = SEQ.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        event_in("trace.unit.json", 0, 9);
        let json = drain().to_json_lines("panic", "chaos[seed=7]");
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"reason\":\"panic\""));
        assert!(lines[0].contains("\"tag\":\"chaos[seed=7]\""));
        assert!(lines[1].contains("\"label\":\"trace.unit.json\""));
        reset();
    }
}
