//! Conservation and fault-tolerance stress for the keyed service tier
//! (ISSUE 9): many submitters, many keys, one registry — per-key
//! counts must be *exact*, keys must never bleed into each other, and
//! a crash-stopped worker must only darken its own queues.
//!
//! The conservation tests run in every configuration; the crash-stop
//! test needs `--features armed` (CI runs it in both release armed
//! legs, then loops this suite 50 times under `armed`). Locality is
//! the theory behind the assertions: strong linearizability is closed
//! under disjoint composition, so per-key
//! exactness across the pool is what the paper's guarantee *means* at
//! service scale (DESIGN.md §12).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use sl2_service::{Backend, Request, Response, Service, ServiceOp};

/// Submitter threads (on top of the service's own worker pool).
const SUBMITTERS: usize = 4;

/// `dispatch.rs`'s `SPIN_BUDGET`: how long an idle worker polls before
/// it parks. The park-protocol stress draws its pauses around it.
const SPIN_BUDGET: Duration = Duration::from_micros(40);

/// Runs `f` on its own thread and panics unless it finishes within
/// `limit`: a lost wake-up must fail its test, not hang the suite.
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(out) => {
            body.join().expect("body already returned");
            out
        }
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: still running after {limit:?}"),
        // `f` panicked before sending: fail with its message.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().expect_err("sender dropped unsent"))
        }
    }
}

#[test]
fn per_key_counter_sums_are_exact_across_the_pool() {
    // 4 submitters × 64 keys × 25 incs each, interleaved across three
    // backends in one registry via a policy: every key must land on
    // exactly 100 — nothing lost in queues, nothing double-applied by
    // routing.
    const KEYS: u64 = 64;
    const PER: u64 = 25;
    let svc = Service::with_policy(256, 4, |k: &u64| match k % 3 {
        0 => Backend::Global,
        1 => Backend::Sharded { shards: 2 },
        _ => Backend::Combining { shards: 2 },
    });
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            let svc = &svc;
            s.spawn(move || {
                for i in 0..KEYS * PER {
                    svc.submit(Request {
                        key: i % KEYS,
                        op: ServiceOp::Inc,
                    });
                }
            });
        }
    });
    svc.drain();
    let mut total = 0u64;
    for k in 0..KEYS {
        let got = svc
            .registry()
            .get(&k)
            .expect("every key saw traffic")
            .read_count();
        assert_eq!(
            got,
            SUBMITTERS as u64 * PER,
            "key {k} lost or double-counted increments"
        );
        total += got;
    }
    assert_eq!(total, SUBMITTERS as u64 * KEYS * PER);
    assert_eq!(svc.registry().len(), KEYS as usize, "phantom keys appeared");
}

#[test]
fn keys_never_bleed_across_ops_or_backends() {
    // Writes, increments and snapshot updates aimed at disjoint keys:
    // each key's object must reflect exactly its own stream. The
    // cross-key reads go through the dispatch path (`call`), so the
    // check covers routing, not just registry lookup.
    let svc = Service::new(64, 3, Backend::Sharded { shards: 2 });
    std::thread::scope(|s| {
        let svc = &svc;
        s.spawn(move || {
            for v in 1..=40u64 {
                svc.submit(Request {
                    key: 1,
                    op: ServiceOp::WriteMax(v),
                });
            }
        });
        s.spawn(move || {
            for _ in 0..30 {
                svc.submit(Request {
                    key: 2,
                    op: ServiceOp::Inc,
                });
            }
        });
        s.spawn(move || {
            for v in 1..=20u64 {
                svc.submit(Request {
                    key: 3,
                    op: ServiceOp::Update { component: 1, v },
                });
            }
        });
    });
    svc.drain();
    assert_eq!(
        svc.call(Request {
            key: 1,
            op: ServiceOp::ReadMax
        }),
        Response::Value(40)
    );
    assert_eq!(
        svc.call(Request {
            key: 2,
            op: ServiceOp::ReadCount
        }),
        Response::Value(30)
    );
    assert_eq!(
        svc.call(Request {
            key: 3,
            op: ServiceOp::Scan
        }),
        Response::View(vec![0, 20, 0])
    );
    // The bleed matrix: every key sees zero through every *other*
    // key's lens.
    assert_eq!(
        svc.call(Request {
            key: 1,
            op: ServiceOp::ReadCount
        }),
        Response::Value(0),
        "writes to key 1 must not count as increments"
    );
    assert_eq!(
        svc.call(Request {
            key: 2,
            op: ServiceOp::ReadMax
        }),
        Response::Value(0),
        "increments on key 2 must not write key 2's max"
    );
    assert_eq!(
        svc.call(Request {
            key: 3,
            op: ServiceOp::ReadCount
        }),
        Response::Value(0),
        "snapshot updates on key 3 must not count"
    );
}

#[test]
fn cached_reads_lag_but_never_invent() {
    // Combining backend: cached reads ride the published fold, so
    // after a drain + one exact read they converge; mid-stream they
    // may lag but must never exceed the exact value (the §8 relation,
    // observed through the service seam).
    let svc = Service::new(16, 2, Backend::Combining { shards: 2 });
    for v in 1..=60u64 {
        svc.submit(Request {
            key: 5,
            op: ServiceOp::WriteMax(v),
        });
        if v % 10 == 0 {
            if let Response::Value(cached) = svc.call(Request {
                key: 5,
                op: ServiceOp::ReadMaxCached,
            }) {
                assert!(cached <= v, "cached read invented a value: {cached} > {v}");
            } else {
                panic!("cached read must return a value");
            }
        }
    }
    svc.drain();
    assert_eq!(
        svc.call(Request {
            key: 5,
            op: ServiceOp::ReadMax
        }),
        Response::Value(60)
    );
}

#[test]
fn shutdown_wakes_a_worker_on_its_way_to_sleep() {
    // The window is a worker that has read `closing == false` and not
    // yet entered `cv.wait`: construct, submit 0-2 requests, shut down,
    // over and over, so some shutdown lands in it. A lost wake-up hangs
    // the join; the watchdog turns that into a failure.
    within(Duration::from_secs(30), || {
        for i in 0..2_000u64 {
            let mut svc = Service::new(8, 3, Backend::Global);
            for k in 0..i % 3 {
                svc.submit(Request {
                    key: k,
                    op: ServiceOp::Inc,
                });
            }
            svc.shutdown();
            assert_eq!(svc.completed(), i % 3, "shutdown drains what was queued");
        }
    });
}

#[test]
fn park_protocol_loses_nothing_at_any_phase_of_the_worker() {
    // Submitters pause for 0, 1/2, 1, 2 and 10 spin budgets between
    // short bursts, so pushes land on a worker that is serving a batch,
    // polling, about to park, and parked. A push that skips the
    // wake-up of a parked worker, or a park that misses a push, strands
    // jobs: `drain` would hang (the watchdog) or a count come up short.
    const KEYS: u64 = 16;
    const PER: u64 = 50_000;
    const BURST: u64 = 8;
    const TIMED_EVERY: u64 = 5;
    let svc = within(Duration::from_secs(120), || {
        let svc = Service::new(64, 2, Backend::Global);
        std::thread::scope(|s| {
            for t in 0..SUBMITTERS as u64 {
                let svc = &svc;
                s.spawn(move || {
                    let mut seed = 0x5E41_0017u64 + t;
                    for i in 0..PER {
                        let req = Request {
                            key: i % KEYS,
                            op: ServiceOp::Inc,
                        };
                        if i % TIMED_EVERY == 0 {
                            svc.submit_timed(req, Instant::now());
                        } else {
                            svc.submit(req);
                        }
                        if i % BURST == 0 {
                            seed = sl2_primitives::labeled::mix(seed);
                            let halves = [0, 1, 2, 4, 20][(seed % 5) as usize];
                            let until = Instant::now() + SPIN_BUDGET * halves / 2;
                            while Instant::now() < until {
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        svc.drain();
        svc
    });
    let total = SUBMITTERS as u64 * PER;
    assert_eq!(svc.submitted(), total);
    assert_eq!(svc.completed(), total);
    for k in 0..KEYS {
        let got = svc
            .registry()
            .get(&k)
            .expect("key saw traffic")
            .read_count();
        assert_eq!(got, total / KEYS, "key {k}");
    }
    assert_eq!(
        svc.latency_histogram().count(),
        total / TIMED_EVERY,
        "one record per tracked submission, none for the rest"
    );
}

#[test]
fn per_key_order_holds_across_batch_boundaries() {
    // One thread interleaves monotone writes to 8 keys in long runs
    // (the worker takes them a batch at a time), then reads each key
    // back through the same queues. A read enqueued behind write `v`
    // that overtook it - inside a batch or across two - would return
    // less than `v`; the cached read may lag but never goes backwards.
    const KEYS: u64 = 8;
    const RUN: u64 = 200;
    let svc = Service::new(64, 3, Backend::Combining { shards: 2 });
    let read = |key, op| match svc.call(Request { key, op }) {
        Response::Value(v) => v,
        other => panic!("a read returns a value, got {other:?}"),
    };
    let mut cached_floor = [0u64; KEYS as usize];
    for v in 1..=10 * RUN {
        for key in 0..KEYS {
            svc.submit(Request {
                key,
                op: ServiceOp::WriteMax(v),
            });
        }
        if v % RUN == 0 {
            for key in 0..KEYS {
                let cached = read(key, ServiceOp::ReadMaxCached);
                let floor = &mut cached_floor[key as usize];
                assert!(
                    *floor <= cached && cached <= v,
                    "key {key}: {floor} <= {cached} <= {v}"
                );
                *floor = cached;
                assert_eq!(
                    read(key, ServiceOp::ReadMax),
                    v,
                    "key {key}: read overtook a write"
                );
            }
        }
    }
}

/// Crash-stop a worker mid-dispatch: its queues go dark (the stopping
/// failure DESIGN.md §10 documents), while every key routed to the
/// surviving workers stays fully live — locality under failure. The
/// victim crashes at the head of a batch it holds in hand, and the
/// whole batch is stranded with it: no job of it applied, none half.
#[cfg(feature = "armed")]
#[test]
fn crash_stopped_worker_leaves_other_keys_live() {
    use sl2_chaos::{crashed_count, install, release_crashed, FaultAction, FaultPlan};

    const WORKERS: usize = 4;
    const VICTIM: usize = 2;
    /// Jobs queued behind the victim's first while it stalls.
    const BATCH: usize = 8;
    let seed = 0x5E41_0009u64;
    let svc = Service::new(256, WORKERS, Backend::Global);
    // Scoped to this service's pool: lane 2 of the pool in the test
    // running beside this one must not crash with it. The victim's
    // first job stalls for milliseconds before it executes, so the
    // BATCH jobs submitted meanwhile are taken in one swap, and the
    // first of those is where it stops. (The stall only makes that
    // shape likely; every assertion below holds for any batching.)
    let dispatch = "service.dispatch";
    let _session = install(
        FaultPlan::new(seed)
            .on_pool(
                dispatch,
                svc.pool_id(),
                Some(VICTIM),
                1,
                FaultAction::Stall(1 << 20),
            )
            .on_pool(
                dispatch,
                svc.pool_id(),
                Some(VICTIM),
                2,
                FaultAction::CrashStop,
            ),
    );

    // Partition a key range by serving worker.
    let (victim_keys, live_keys): (Vec<u64>, Vec<u64>) =
        (0..64u64).partition(|&k| svc.route_of(k) == VICTIM);
    assert!(victim_keys.len() > BATCH, "routing should spread keys");
    assert!(live_keys.len() >= 16, "routing should spread keys");

    // The first job is served after its stall; the batch behind it is
    // sacrificial: the victim crash-stops at the dispatch point of its
    // first job with all of it unexecuted.
    for &k in &victim_keys[..=BATCH] {
        svc.submit(Request {
            key: k,
            op: ServiceOp::Inc,
        });
    }
    while crashed_count() == 0 {
        std::thread::yield_now();
    }

    // The rest of the pool keeps serving: exact conservation on every
    // live key, adjudicated through blocking calls (which also proves
    // the dispatch path itself is live, not just the registry).
    const PER: u64 = 20;
    for &k in &live_keys {
        for _ in 0..PER {
            svc.submit(Request {
                key: k,
                op: ServiceOp::Inc,
            });
        }
    }
    for &k in &live_keys {
        assert_eq!(
            svc.call(Request {
                key: k,
                op: ServiceOp::ReadCount
            }),
            Response::Value(PER),
            "chaos[seed={seed}]: live key {k} lost increments after the crash"
        );
    }

    // Crash-stop loses in-flight work whole (by design): the job served
    // before the crash counted once, the batch in hand not at all.
    let count_of = |k: &u64| svc.registry().get(k).map_or(0, |o| o.read_count());
    let counts: Vec<u64> = victim_keys[..=BATCH].iter().map(count_of).collect();
    let mut expected = vec![0; BATCH + 1];
    expected[0] = 1;
    assert_eq!(
        counts, expected,
        "chaos[seed={seed}]: the crashed worker's batch must be stranded whole"
    );
    // (A call returns once its reply is filled, a moment before its
    // worker counts it: give the last one that moment.)
    let served = 1 + live_keys.len() as u64 * (PER + 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.completed() < served && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(
        (svc.completed(), svc.submitted() - svc.completed()),
        (served, BATCH as u64),
        "chaos[seed={seed}]: served = the victim's first job and every live job and read"
    );
    assert_eq!(crashed_count(), 1, "chaos[seed={seed}]: exactly one crash");

    // Wake the parked victim so shutdown's join can complete; its
    // unwind is absorbed inside the worker thread.
    release_crashed();
    drop(svc);
}
