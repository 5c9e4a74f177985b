//! Seeded deterministic fault injection over the production forms
//! (ISSUE 7): crash-stop, panic, stall and yield-storm adversaries
//! driven through the `sl2_chaos` points compiled into the bignum /
//! sharded / combine layers.
//!
//! Compiled only under `--features armed` (CI runs it in release, in
//! both the DWCAS and `force_spinlock` configurations). Every
//! assertion message carries the plan seed: a failure is reproducible
//! by re-running the test with that seed alone — injected faults are
//! pure functions of `(seed, thread, label, per-thread hit count)`.
#![cfg(feature = "armed")]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sl2::prelude::*;
use sl2_chaos::{
    catch_crash, crashed_count, install, release_crashed, set_thread, FaultAction, FaultPlan,
};
use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};

/// Pinned seeds for the noise matrix. Failures print the seed; to
/// reproduce, re-run the test with the seed kept and the rest removed.
const MATRIX_SEEDS: [u64; 6] = [1, 2, 3, 42, 7777, 0xC0FFEE];

const THREADS: usize = 4;

#[test]
fn crash_stopped_combiner_is_reclaimed_and_survivors_finish() {
    // Acceptance run 1: the elected combiner crash-stops mid-sweep
    // (lease frozen in the lock, announcement left claimed).
    // Survivors must keep completing, reclaim the tenure, republish,
    // and resume ordinary combining — all while the victim stays
    // parked.
    let seed = 0xDEAD_0001u64;
    let _session =
        install(FaultPlan::new(seed).on("combine.mid_sweep", Some(0), 1, FaultAction::CrashStop));
    let m = CombiningMaxRegister::new(ShardedMaxRegister::new(THREADS, 2));
    let reclaimed = AtomicBool::new(false);
    let combined_after = AtomicBool::new(false);
    let high = AtomicU64::new(0);
    std::thread::scope(|s| {
        let victim = s.spawn(|| {
            set_thread(0);
            // Wins the uncontended election, starts sweeping, parks.
            let r = catch_crash(|| {
                m.apply(0, 5);
            });
            assert!(
                r.is_none(),
                "chaos[seed={seed}]: the victim must crash-stop"
            );
        });
        let survivors: Vec<_> = (1..THREADS)
            .map(|p| {
                let m = &m;
                let reclaimed = &reclaimed;
                let combined_after = &combined_after;
                let high = &high;
                s.spawn(move || {
                    set_thread(p);
                    while crashed_count() == 0 {
                        std::thread::yield_now();
                    }
                    let mut last_cached = 0u64;
                    for i in 1..=200u64 {
                        let v = 1_000 * p as u64 + i;
                        high.fetch_max(v, Ordering::SeqCst);
                        match m.apply(p, v) {
                            ApplyPath::Reclaimed { .. } => {
                                reclaimed.store(true, Ordering::SeqCst);
                            }
                            ApplyPath::Combined { .. } => {
                                if reclaimed.load(Ordering::SeqCst) {
                                    combined_after.store(true, Ordering::SeqCst);
                                }
                            }
                            ApplyPath::Direct => {}
                        }
                        let cached = m.read_cached();
                        assert!(
                            cached >= last_cached,
                            "chaos[seed={seed}]: cached fold regressed under recovery"
                        );
                        assert!(
                            cached <= high.load(Ordering::SeqCst).max(5),
                            "chaos[seed={seed}]: cached fold invented a value"
                        );
                        last_cached = cached;
                    }
                })
            })
            .collect();
        for h in survivors {
            h.join().expect("survivor panicked");
        }
        // Survivors are done: adjudicate the recovery before waking
        // the victim (its late unwind must not be what freed the lock).
        assert_eq!(crashed_count(), 1, "chaos[seed={seed}]: exactly one crash");
        assert!(
            reclaimed.load(Ordering::SeqCst),
            "chaos[seed={seed}]: no survivor reclaimed the dead tenure"
        );
        assert!(
            combined_after.load(Ordering::SeqCst),
            "chaos[seed={seed}]: combining never resumed after the reclaim"
        );
        release_crashed();
        victim
            .join()
            .expect("victim's crash unwind must be absorbed");
    });
    // Quiescent: every surviving write landed; the dead combiner's
    // announcement was swept by the rescuer (read_max covers 5
    // trivially). One refresh converges the cache.
    assert_eq!(
        m.read_max(),
        high.load(Ordering::SeqCst),
        "chaos[seed={seed}]: a survivor write was lost"
    );
    m.refresh(0);
    assert_eq!(
        m.read_cached(),
        m.read_max(),
        "chaos[seed={seed}]: quiescent refresh diverged"
    );
}

#[test]
fn overlapping_tenures_never_regress_the_cached_fold() {
    // A combiner stalls, alive, at `combine.pre_publish` with a stale
    // fold in hand. Survivors see its lease frozen, reclaim it and
    // publish far past it; then the stall ends and the stale fold is
    // published into the overlapping tenures. The cache is a Theorem-1
    // max register, so a reader that checks every read never sees it
    // go backwards. Every other thread yields each round, so the
    // stall's own periodic yields come back promptly on a small host.
    let seed = 0xDEAD_0004u64;
    let _session = install(FaultPlan::new(seed).on(
        "combine.pre_publish",
        Some(0),
        1,
        FaultAction::Stall(1 << 20),
    ));
    let m = CombiningMaxRegister::new(ShardedMaxRegister::new(THREADS, 2));
    let ready = AtomicU64::new(0);
    let reclaimed = AtomicBool::new(false);
    let stale_published = AtomicBool::new(false);
    let high = AtomicU64::new(5);
    std::thread::scope(|s| {
        s.spawn(|| {
            set_thread(0);
            while ready.load(Ordering::SeqCst) < (THREADS - 1) as u64 {
                std::thread::yield_now();
            }
            let path = m.apply(0, 5);
            let overlapped = reclaimed.load(Ordering::SeqCst);
            stale_published.store(true, Ordering::SeqCst);
            // Its sweep may also have claimed a survivor's first write.
            assert!(matches!(path, ApplyPath::Combined { .. }), "{path:?}");
            assert!(
                overlapped,
                "chaos[seed={seed}]: the stall ended before a survivor reclaimed"
            );
        });
        for p in 1..THREADS - 1 {
            let (m, ready, reclaimed, stale_published, high) =
                (&m, &ready, &reclaimed, &stale_published, &high);
            s.spawn(move || {
                set_thread(p);
                ready.fetch_add(1, Ordering::SeqCst);
                // Start once the stalled tenure is open.
                while !m.lock().is_held() && !stale_published.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let mut v = 1_000 * p as u64;
                while !stale_published.load(Ordering::SeqCst) {
                    v += 1;
                    high.fetch_max(v, Ordering::SeqCst);
                    if let ApplyPath::Reclaimed { .. } = m.apply(p, v) {
                        reclaimed.store(true, Ordering::SeqCst);
                    }
                    std::thread::yield_now();
                }
            });
        }
        s.spawn(|| {
            set_thread(THREADS - 1);
            ready.fetch_add(1, Ordering::SeqCst);
            let mut last = 0u64;
            loop {
                let done = stale_published.load(Ordering::SeqCst);
                let cached = m.read_cached();
                assert!(
                    cached >= last,
                    "chaos[seed={seed}]: cached fold regressed {last} -> {cached}"
                );
                assert!(
                    cached <= high.load(Ordering::SeqCst),
                    "chaos[seed={seed}]: cached fold invented a value"
                );
                last = cached;
                if done {
                    break;
                }
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(
        m.read_max(),
        high.load(Ordering::SeqCst),
        "chaos[seed={seed}]: a write was lost"
    );
    m.refresh(1);
    assert_eq!(
        m.read_cached(),
        m.read_max(),
        "chaos[seed={seed}]: quiescent refresh diverged"
    );
}

#[test]
fn panic_inside_the_wide_faa_spinlock_critical_section() {
    // Acceptance run 2: an injected panic *inside* the WideFaa
    // spinlock critical section (heap regime). The unwind must release
    // the lock through SpinGuard's Drop: every survivor completes and
    // the final value is exact. The panic message carries the seed.
    let seed = 0xDEAD_0002u64;
    let _session =
        install(FaultPlan::new(seed).on("wfaa.spin.critical", Some(0), 1, FaultAction::Panic));
    let r = Arc::new(WideFaa::with_value(BigNat::pow2(130)));
    std::thread::scope(|s| {
        {
            let r = Arc::clone(&r);
            s.spawn(move || {
                set_thread(0);
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    r.fetch_add_with(&BigNat::one(), |_| ());
                }));
                let msg = out.expect_err("the armed panic must fire inside the critical section");
                let msg = msg
                    .downcast_ref::<String>()
                    .expect("chaos panics carry String payloads");
                assert!(
                    msg.contains(&format!("seed={seed}")),
                    "seed missing from the injected panic: {msg}"
                );
            });
        }
        for t in 1..THREADS {
            let r = Arc::clone(&r);
            s.spawn(move || {
                set_thread(t);
                for _ in 0..200 {
                    r.fetch_add_with(&BigNat::one(), |_| ());
                }
            });
        }
    });
    // The panicking add aborted before its store; the survivors' 600
    // increments all landed.
    let mut want = BigNat::pow2(130);
    want += &BigNat::from(600u64);
    assert_eq!(
        r.load(),
        want,
        "chaos[seed={seed}]: the released lock lost survivor increments"
    );
}

#[test]
fn crash_stopped_writer_leaves_a_pending_op_and_survivors_linearize() {
    // The recorder differential under crash-stop: a writer parks
    // between its probe and its fetch&add (`sharded.inc.pre_add`), so
    // its increment never lands and its recorded operation stays
    // pending forever. The surviving threads' completed operations
    // must still linearize against the exact counter spec — the
    // checker is free to discard the pending increment.
    let seed = 0xDEAD_0003u64;
    let _session =
        install(FaultPlan::new(seed).on("sharded.inc.pre_add", Some(0), 1, FaultAction::CrashStop));
    let c = ShardedFetchInc::new(THREADS, 2);
    let rec = Recorder::<CounterSpec>::new(THREADS);
    std::thread::scope(|s| {
        let victim = s.spawn(|| {
            set_thread(0);
            let r = catch_crash(|| {
                rec.run_op(0, CounterOp::Inc, || {
                    c.inc(0);
                    CounterResp::Ok
                })
            });
            assert!(
                r.is_none(),
                "chaos[seed={seed}]: the writer must crash-stop"
            );
        });
        let survivors: Vec<_> = (1..THREADS)
            .map(|p| {
                let (c, rec) = (&c, &rec);
                s.spawn(move || {
                    set_thread(p);
                    while crashed_count() == 0 {
                        std::thread::yield_now();
                    }
                    rec.run_op(p, CounterOp::Inc, || {
                        c.inc(p);
                        CounterResp::Ok
                    });
                    rec.run_op(p, CounterOp::Read, || CounterResp::Value(c.read()));
                })
            })
            .collect();
        for h in survivors {
            h.join().expect("survivor panicked");
        }
        release_crashed();
        victim
            .join()
            .expect("victim's crash unwind must be absorbed");
    });
    let history = rec.into_history();
    assert!(history.is_well_formed());
    assert_eq!(
        history.pending_ops().len(),
        1,
        "chaos[seed={seed}]: the crashed inc must stay pending forever"
    );
    assert_eq!(history.complete_ops().len(), 2 * (THREADS - 1));
    let mut report = RecordReport::new();
    assert!(
        report.adjudicate("sharded_inc/crash_stop", "exact", &CounterSpec, &history),
        "chaos[seed={seed}]: survivors' history must linearize around the hole"
    );
}

#[test]
fn seeded_noise_matrix_preserves_the_counter_invariants() {
    // The chaos matrix: for each pinned seed, a noisy plan (30% point
    // yields, first publication of each thread stalled) drives a
    // threaded counter workload; the E28 invariants must hold under
    // every schedule the noise perturbs into existence. Failures
    // reproduce from the seed alone.
    for seed in MATRIX_SEEDS {
        let _session = install(FaultPlan::noisy(seed, 30).on(
            "combine.pre_publish",
            None,
            1,
            FaultAction::Stall(2_000),
        ));
        let c = CombiningCounter::new(ShardedFetchInc::new(THREADS, 2));
        let issued = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..THREADS {
                let (c, issued) = (&c, &issued);
                s.spawn(move || {
                    set_thread(p);
                    let mut mine = 0u64;
                    let mut last_cached = 0u64;
                    for _ in 0..150 {
                        issued.fetch_add(1, Ordering::SeqCst);
                        c.inc(p);
                        mine += 1;
                        assert!(
                            c.read_exact() >= mine,
                            "chaos[seed={seed}]: exact read under-reported own increments"
                        );
                        let cached = c.read_cached();
                        assert!(
                            cached >= last_cached,
                            "chaos[seed={seed}]: cached read regressed"
                        );
                        assert!(
                            cached <= issued.load(Ordering::SeqCst),
                            "chaos[seed={seed}]: cached read ran ahead"
                        );
                        last_cached = cached;
                    }
                });
            }
        });
        let total = issued.load(Ordering::SeqCst);
        assert_eq!(total, (THREADS * 150) as u64);
        assert_eq!(
            c.read_exact(),
            total,
            "chaos[seed={seed}]: quiescent conservation failed"
        );
        c.refresh(0);
        assert_eq!(
            c.read_cached(),
            total,
            "chaos[seed={seed}]: quiescent refresh diverged"
        );
    }
}
