//! E44–E46: the trace tier — ring integrity under wraparound,
//! deterministic seed-tagged flight-recorder dumps, crash-stop
//! black boxes, and the trace→`History` bridge that lets the checker
//! adjudicate *production* service runs (DESIGN.md §13).
//!
//! Every test serializes on one mutex: the trace rings, the stamp
//! clock, and the span counter are process-global, and the chaos
//! session is exclusive.

#![cfg(feature = "armed")]

use std::sync::{Mutex, MutexGuard};

use sl2::prelude::*;
use sl2::trace;

static SEQ: Mutex<()> = Mutex::new(());

fn seq() -> MutexGuard<'static, ()> {
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

/// E45a — a ring past capacity overwrites oldest-first and never
/// tears: after `RING_CAP + extra` emissions from one thread, the
/// drain holds exactly the last `RING_CAP` events, payloads in
/// sequence, stamps strictly increasing, every field intact.
#[test]
fn full_ring_overwrites_oldest_first_with_no_torn_events() {
    let _g = seq();
    trace::reset();

    let extra = 100u64;
    let total = trace::RING_CAP as u64 + extra;
    for i in 0..total {
        trace::event_in("trace.wrap.tick", 1, i);
    }

    let log = trace::drain();
    let ours: Vec<&TraceEvent> = log
        .events
        .iter()
        .filter(|e| e.label == "trace.wrap.tick")
        .collect();
    assert_eq!(
        ours.len(),
        trace::RING_CAP,
        "a full ring retains exactly RING_CAP events"
    );
    let thread = ours[0].thread;
    for (k, e) in ours.iter().enumerate() {
        assert_eq!(
            e.payload,
            extra + k as u64,
            "overwrite must evict oldest-first (index {k})"
        );
        assert_eq!(e.kind, EventKind::Instant);
        assert_eq!(e.span, 1);
        assert_eq!(e.thread, thread, "single-threaded emission, one ring");
    }
    assert!(
        ours.windows(2).all(|w| w[0].stamp < w[1].stamp),
        "stamps are unique global tickets, drained in order"
    );
    assert_eq!(log.overwritten, extra, "every evicted event is counted");
    assert_eq!(log.torn, 0, "a quiescent drain skips no slot");
    let header = log.to_json_lines("wrap", "");
    let header = header.lines().next().expect("a header line");
    assert!(header.contains(&format!("\"overwritten\":{extra},\"torn\":0")));
    trace::reset();
}

/// The faulted runs: `armed` arms chaos together with the rings.
mod chaos_armed {
    use super::*;
    use sl2_chaos::{
        crashed_count, install, plan_seed, release_crashed, set_thread, FaultAction, FaultPlan,
    };

    /// One scripted faulted run: an enrolled thread opens a span,
    /// takes two instants, and is panicked by the plan at the second
    /// chaos point — the span pends forever. Returns the full
    /// JSON-lines dump.
    fn scripted_dump(seed: u64) -> String {
        trace::reset();
        let session =
            install(FaultPlan::new(seed).on("trace.det.gate", Some(7), 2, FaultAction::Panic));
        std::thread::scope(|s| {
            s.spawn(|| {
                set_thread(7);
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let span = trace::next_span();
                    trace::span_begin("trace.det.request", span, seed);
                    let _ambient = trace::enter_span(span);
                    trace::event("trace.det.step", 1);
                    sl2_chaos::point("trace.det.gate"); // hit 1: survives
                    trace::event("trace.det.step", 2);
                    sl2_chaos::point("trace.det.gate"); // hit 2: injected panic
                    trace::event("trace.det.step", 3); // unreachable
                    trace::span_end("trace.det.request", span, 0);
                }));
            });
        });
        let tag = format!("chaos[seed={}]", plan_seed().expect("plan installed"));
        let dump = trace::drain().to_json_lines("panic", &tag);
        drop(session);
        trace::reset();
        dump
    }

    /// E45b — flight-recorder determinism: two runs of the same chaos
    /// seed dump byte-identical event sequences (reset rewinds the
    /// stamp clock and the span counter; enrollment pins the ring).
    #[test]
    fn same_seed_chaos_runs_dump_byte_identical_sequences() {
        let _g = seq();
        let seed = 0x7ACEu64;
        let first = scripted_dump(seed);
        let second = scripted_dump(seed);
        assert_eq!(first, second, "same seed must replay to the same bytes");

        assert!(first.contains(&format!("chaos[seed={seed}]")));
        assert!(first.contains("\"reason\":\"panic\""));
        assert_eq!(
            first.matches("\"kind\":\"begin\"").count(),
            1,
            "one request span opened"
        );
        assert_eq!(
            first.matches("\"kind\":\"end\"").count(),
            0,
            "the panicked span must pend forever"
        );
        assert_eq!(
            first.matches("trace.det.step").count(),
            2,
            "the third step is after the injected panic"
        );
        // A different seed changes the tag (and nothing else here, but
        // the tag is what CI triage keys on).
        let other = scripted_dump(seed ^ 1);
        assert_ne!(first, other);
    }

    /// E46 — crash-stop black box: a worker crash-stopped at the
    /// dispatch point leaves the request's span pending (PR-7
    /// convention: crashed ops pend forever), and the flight recorder
    /// dumps a seed-tagged black box while the thread is still parked.
    #[test]
    fn crash_stop_leaves_span_pending_and_dumps_seed_tagged_black_box() {
        let _g = seq();
        trace::reset();
        trace::install_flight_recorder();

        const VICTIM: usize = 0;
        let seed = 0x5E41_000Au64;
        let session = install(FaultPlan::new(seed).on(
            "service.dispatch",
            Some(VICTIM),
            1,
            FaultAction::CrashStop,
        ));
        let mut svc = Service::new(64, 2, Backend::Sharded { shards: 2 });
        let key = (0..64u64)
            .find(|k| svc.route_of(*k) == VICTIM)
            .expect("some key routes to the victim");

        svc.submit(Request {
            key,
            op: ServiceOp::WriteMax(9),
        });
        while crashed_count() == 0 {
            std::thread::yield_now();
        }

        // The worker is parked mid-dispatch: drain the live rings and
        // bridge. The request began (client side, pre-publish) but can
        // never end.
        let log = trace::drain();
        let spans = request_spans(&log, "service.request");
        assert_eq!(spans.len(), 1, "chaos[seed={seed}]: one request in flight");
        assert!(
            spans[0].is_pending(),
            "chaos[seed={seed}]: a crash-stopped request must never respond"
        );
        assert_eq!(
            Request::keyed_max_op_of(spans[0].op_word),
            Some(KeyedMaxOp::Write { key, v: 9 }),
            "chaos[seed={seed}]: the black box identifies the lost operation"
        );

        // The dump is tagged with the live plan's seed — what CI keys
        // replay triage on — and in the armed CI leg `SL2_TRACE_JSON`
        // persists it as the black-box artifact.
        let tag = format!("chaos[seed={}]", plan_seed().expect("plan installed"));
        let dump = log.to_json_lines("crash_stop", &tag);
        assert!(dump.contains(&format!("chaos[seed={seed}]")));
        assert!(dump.contains("\"reason\":\"crash_stop\""));
        assert!(dump.contains("service.request"));
        trace::dump_env("crash_stop");

        // Wake the parked victim so shutdown's join can complete.
        release_crashed();
        svc.shutdown();
        drop(session);
        trace::reset();
    }
}

/// E44 — the capstone: real `Service` runs traced end to end, bridged
/// into `History`s, adjudicated against the exact and lagging keyed
/// specs in both polarities — and each verdict asserted equal to
/// `check_strong` on the modelled dispatch twins (PR 9). The trace
/// tier and the checker agree about production.
#[test]
fn e44_bridged_service_histories_match_the_dispatch_twin_verdicts() {
    let _g = seq();
    let mut report = RecordReport::new();

    // ---- Traced run 1: exact backend, concurrent same-key fan-in. --
    trace::reset();
    let key_a = 1u64;
    {
        let mut svc = Service::new(64, 2, Backend::Sharded { shards: 2 });
        std::thread::scope(|s| {
            for v in [1u64, 2] {
                let svc = &svc;
                s.spawn(move || {
                    assert_eq!(
                        svc.call(Request {
                            key: key_a,
                            op: ServiceOp::WriteMax(v),
                        }),
                        Response::Ok
                    );
                });
            }
        });
        assert_eq!(
            svc.call(Request {
                key: key_a,
                op: ServiceOp::ReadMax,
            }),
            Response::Value(2)
        );
        svc.shutdown();
    }
    let spans = request_spans(&trace::drain(), "service.request");
    assert_eq!(spans.len(), 3, "two writes and a read were traced");
    assert!(spans.iter().all(|s| !s.is_pending()));
    let exact_history: History<KeyedMaxSpec> = history_from_spans(
        &spans,
        |s| Request::keyed_max_op_of(s.op_word),
        |_, w| Response::max_resp_of(w),
    );
    assert!(exact_history.is_well_formed());
    assert_eq!(exact_history.complete_ops().len(), 3);

    let exact_verdict = report.adjudicate(
        "service_exact/bridged_fan_in",
        "keyed_exact",
        &KeyedMaxSpec,
        &exact_history,
    );
    assert!(
        exact_verdict,
        "the exact backend's bridged history must linearize"
    );
    assert!(
        report.adjudicate(
            "service_exact/bridged_fan_in",
            "lagging_k2",
            &LaggingKeyedMaxSpec { k: 2 },
            &exact_history.retyped::<LaggingKeyedMaxSpec>(),
        ),
        "weakening the spec cannot flip a certification"
    );

    // ---- Traced run 2: combining backend, staged staleness. --------
    // Hold the per-key combiner lock so the write loses its election
    // and applies direct-path (correct but unpublished); the cached
    // read then serves the stale fold. One lost election does not
    // reach the reclaim threshold, so the stall is pure staleness.
    trace::reset();
    let key_b = 2u64;
    {
        let mut svc = Service::new(64, 2, Backend::Combining { shards: 2 });
        let obj = svc.registry().get_or_insert(&key_b);
        let KeyedMax::Combining(m) = obj.max() else {
            panic!("combining backend materializes a combining max");
        };
        let held = m.lock().try_acquire().expect("fresh lock is free");

        assert_eq!(
            svc.call(Request {
                key: key_b,
                op: ServiceOp::WriteMax(5),
            }),
            Response::Ok
        );
        let stale = svc.call(Request {
            key: key_b,
            op: ServiceOp::ReadMaxCached,
        });
        assert_eq!(
            stale,
            Response::Value(0),
            "publication is locked out, so the cached read trails"
        );

        assert!(m.lock().release(held));
        svc.shutdown();
    }
    let spans = request_spans(&trace::drain(), "service.request");
    assert_eq!(spans.len(), 2);
    let stale_history: History<KeyedMaxSpec> = history_from_spans(
        &spans,
        |s| Request::keyed_max_op_of(s.op_word),
        |_, w| Response::max_resp_of(w),
    );
    assert!(stale_history.is_well_formed());

    let cached_verdict = report.adjudicate(
        "service_cached/bridged_stale",
        "keyed_exact",
        &KeyedMaxSpec,
        &stale_history,
    );
    assert!(
        !cached_verdict,
        "a completed write the later read missed cannot linearize exactly"
    );
    let lagging_verdict = report.adjudicate(
        "service_cached/bridged_stale",
        "lagging_k2",
        &LaggingKeyedMaxSpec { k: 2 },
        &stale_history.retyped::<LaggingKeyedMaxSpec>(),
    );
    assert!(
        lagging_verdict,
        "the staleness is one write deep — inside the k=2 window"
    );

    // ---- The modelled twins must return the same polarities. -------
    {
        let mut mem = SimMemory::new();
        let alg = KeyedDispatchAlg::new(&mut mem, 3, &[1, 2], RouteMode::Exact);
        let twin = check_strong(&alg, mem, &same_key_fan_in_scenario(), 16_000_000);
        assert!(!twin.is_bounded(), "{:?}", twin.outcome);
        assert_eq!(
            twin.is_certified(),
            exact_verdict,
            "exact twin and exact bridged run must agree"
        );
    }
    {
        let mut mem = SimMemory::new();
        let alg = KeyedDispatchAlg::new(&mut mem, 3, &[1, 2], RouteMode::Cached);
        let out = check_strong(&alg, mem.clone(), &same_key_fan_in_scenario(), 16_000_000);
        assert!(!out.is_bounded(), "{:?}", out.outcome);
        assert_eq!(
            out.is_refuted(),
            !cached_verdict,
            "cached twin refutation must mirror the bridged refutation"
        );
        let w = out.witness().expect("the cached twin must be refuted");
        validate_witness(&alg, mem, &same_key_fan_in_scenario(), w)
            .expect("the refutation witness must replay");
    }
    {
        let mut mem = SimMemory::new();
        let alg = LaggingKeyedDispatchAlg::new(&mut mem, 3, &[1, 2], 2);
        let twin = check_strong(&alg, mem, &same_key_fan_in_lagging_scenario(), 16_000_000);
        assert!(!twin.is_bounded(), "{:?}", twin.outcome);
        assert_eq!(
            twin.is_certified(),
            lagging_verdict,
            "lagging twin and lagging bridged run must agree"
        );
    }

    // In the trace CI leg `SL2_TRACE_JSON` persists the E44 trace as
    // the adjudication artifact.
    trace::dump_env("e44");
    trace::reset();
}
