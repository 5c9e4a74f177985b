//! Experiment E28: bounded-duration threaded stress over the combining
//! front-end (`std::thread::scope`), asserting the invariants the
//! checker certifies on bounded scenarios — plus the ones the cached
//! read keeps *despite* being refuted against the exact specs: cached
//! folds are monotone, never run ahead, and converge to the exact
//! value after a quiescent refresh.
//!
//! Durations are wall-clock-bounded (not iteration-bounded) so the
//! suite costs the same in debug and release; CI additionally runs
//! this file in release mode, where the loops cover orders of
//! magnitude more operations per window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sl2::prelude::*;
use sl2_sharded::{ShardedFetchInc, ShardedMaxRegister};

/// Per-phase stress window (matching `sharded_stress`).
const WINDOW: Duration = Duration::from_millis(200);

fn stress_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4)
}

#[test]
fn combined_counter_never_under_reports_its_own_tickets() {
    // The exact read must conserve increments end to end: every issued
    // increment is eventually visible, none is invented — the combining
    // election must not lose or double a unit on either path.
    let threads = stress_threads();
    let c = Arc::new(CombiningCounter::new(ShardedFetchInc::new(threads, 4)));
    let issued = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for p in 0..threads {
            let c = Arc::clone(&c);
            let issued = Arc::clone(&issued);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let deadline = Instant::now() + WINDOW;
                let mut mine = 0u64;
                while Instant::now() < deadline {
                    issued.fetch_add(1, Ordering::SeqCst);
                    c.inc(p);
                    mine += 1;
                    // A process can never observe fewer landed
                    // increments than it has itself completed.
                    assert!(
                        c.read_exact() >= mine,
                        "exact read under-reported the caller's own increments"
                    );
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        let c2 = Arc::clone(&c);
        let issued2 = Arc::clone(&issued);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut last_cached = 0;
            let mut last_exact = 0;
            while !stop2.load(Ordering::SeqCst) {
                let cached = c2.read_cached();
                let exact = c2.read_exact();
                assert!(cached >= last_cached, "cached read regressed");
                assert!(exact >= last_exact, "exact read regressed");
                assert!(
                    cached <= issued2.load(Ordering::SeqCst),
                    "cached read ran ahead of issued increments"
                );
                last_cached = cached;
                last_exact = exact;
            }
        });
    });
    let total = issued.load(Ordering::SeqCst);
    assert!(total > 0, "the window must fit some work");
    assert_eq!(c.read_exact(), total, "quiescent exact read conserves");
    c.refresh(0);
    assert_eq!(
        c.read_cached(),
        total,
        "quiescent refresh catches the cache up"
    );
}

#[test]
fn combined_max_register_reads_are_monotone_per_thread() {
    // Per-thread monotonicity across BOTH read paths, interleaved: a
    // thread that saw fold v (cached or stable) must never later see a
    // smaller one from either path — cached folds are behind stable
    // folds, but both are monotone and a stable read never drops below
    // a previously observed cached value.
    let threads = stress_threads();
    let m = Arc::new(CombiningMaxRegister::new(ShardedMaxRegister::new(
        threads, 4,
    )));
    let high_water = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for p in 0..threads {
            let m = Arc::clone(&m);
            let high_water = Arc::clone(&high_water);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let deadline = Instant::now() + WINDOW;
                let mut v = 0u64;
                while Instant::now() < deadline {
                    v += 1 + p as u64;
                    high_water.fetch_max(v, Ordering::SeqCst);
                    m.write_max(p, v);
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        for _ in 0..2 {
            let m = Arc::clone(&m);
            let high = Arc::clone(&high_water);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last_cached = 0;
                let mut flips = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    // Alternate paths so the monotonicity claim spans
                    // the cache/stable boundary.
                    let cached = m.read_cached();
                    assert!(
                        cached >= last_cached,
                        "cached fold regressed {last_cached} -> {cached}"
                    );
                    assert!(
                        cached <= high.load(Ordering::SeqCst),
                        "cached fold invented a value"
                    );
                    last_cached = cached;
                    let stable = m.read_max();
                    assert!(
                        stable >= cached,
                        "stable fold {stable} below an already-published {cached}"
                    );
                    flips += 1;
                }
                assert!(flips > 0);
            });
        }
    });
    // Quiescent: every write landed (combined or direct), so the
    // stable fold equals the high-water mark; one refresh brings the
    // cache to the same point.
    assert_eq!(m.read_max(), high_water.load(Ordering::SeqCst));
    m.refresh(0);
    assert_eq!(m.read_cached(), m.read_max());
}

#[test]
fn combined_and_plain_sharded_max_registers_agree_on_mirrored_ops() {
    // Differential harness: the combining front-end must add no
    // semantics to the exact read — mirror the same stream into a
    // plain sharded register and compare stable folds at every
    // synchronization point.
    let threads = stress_threads();
    let combined = Arc::new(CombiningMaxRegister::new(ShardedMaxRegister::new(
        threads, 4,
    )));
    let plain = Arc::new(ShardedMaxRegister::new(threads, 4));
    for round in 0..3u64 {
        std::thread::scope(|s| {
            for p in 0..threads {
                let combined = Arc::clone(&combined);
                let plain = Arc::clone(&plain);
                s.spawn(move || {
                    let deadline = Instant::now() + WINDOW / 4;
                    let mut v = round * 1000;
                    while Instant::now() < deadline {
                        v += 1 + p as u64;
                        combined.write_max(p, v);
                        plain.write_max(p, v);
                    }
                });
            }
        });
        assert_eq!(
            combined.read_max(),
            plain.read_max(),
            "round {round}: mirrored streams diverged"
        );
        combined.refresh(0);
        assert_eq!(
            combined.read_cached(),
            plain.read_max(),
            "round {round}: quiescent cache diverged"
        );
    }
}

#[test]
fn packed_control_lines_keep_their_sizes() {
    // ISSUE 22 packs the control words by writer — {lock cell, lease
    // generation, publication epoch}, {published fold}, {process p's
    // slot, p's suspicion} — one line each. A field added to any of them must
    // not silently spill it into a second line (or a header into the
    // lock's): these sizes are what the registry's per-key block is
    // laid out from.
    use std::mem::{align_of, size_of};
    assert_eq!(
        (size_of::<CombinerLock>(), align_of::<CombinerLock>()),
        (64, 64),
        "lock cell + generation + epoch: one line"
    );
    // Header line (inner object's header + the per-process array's),
    // lock line, published line; shard and process lines trail.
    assert_eq!(size_of::<CombiningMaxRegister>(), 3 * 64);
    assert_eq!(size_of::<CombiningCounter>(), 3 * 64);
    assert_eq!(align_of::<CombiningMaxRegister>(), 64);
    assert!(size_of::<ShardedMaxRegister>() + size_of::<PublicationArray>() <= 64);
    assert!(size_of::<ShardedFetchInc>() + size_of::<PublicationArray>() <= 64);
}

#[test]
fn two_writers_on_a_packed_registry_key_agree_with_plain_objects() {
    // The false-sharing guard's behavioural half: the same mirrored
    // differential as above, but through a registry key — whose
    // combining objects live in one arena block each, control words
    // packed, shard and process lines carved behind the header — with
    // exactly the two writers whose words now share lines.
    let reg: Registry<u64> = Registry::new(4, 2, Backend::Combining { shards: 2 });
    let obj = reg.get_or_insert(&7);
    let plain = ShardedMaxRegister::new_binary(2, 2);
    let issued = AtomicU64::new(0);
    for round in 0..3u64 {
        std::thread::scope(|s| {
            for p in 0..2usize {
                let (plain, issued) = (&plain, &issued);
                s.spawn(move || {
                    let deadline = Instant::now() + WINDOW / 4;
                    let mut v = round * 1_000_000;
                    let (mut last_max, mut last_count) = (0, 0);
                    while Instant::now() < deadline {
                        v += 1 + p as u64;
                        // Plain first, so it always covers the key.
                        plain.write_max(p, v);
                        obj.write_max(p, v);
                        obj.inc(p);
                        issued.fetch_add(1, Ordering::SeqCst);
                        // Both writers are preemptible mid-tenure, so
                        // wrongful reclaims overlap tenures; the cache
                        // is a max register, so no read regresses.
                        let cached = obj.read_max_cached();
                        assert!(cached <= plain.read_max(), "cached fold ran ahead");
                        assert!(cached >= last_max, "cached fold regressed");
                        let count = obj.read_count_cached();
                        assert!(count >= last_count, "cached count regressed");
                        (last_max, last_count) = (cached, count);
                    }
                });
            }
        });
        assert_eq!(obj.read_max(), plain.read_max(), "round {round}");
        assert_eq!(obj.read_count(), issued.load(Ordering::SeqCst));
        assert!(obj.read_count_cached() <= obj.read_count());
        let KeyedMax::Combining(m) = obj.max() else {
            panic!("the key is on the combining backend");
        };
        m.refresh(0);
        assert_eq!(obj.read_max_cached(), plain.read_max(), "round {round}");
    }
}

#[test]
fn abandoned_combiner_lock_degrades_boundedly_then_is_reclaimed() {
    // A combiner that crash-stops mid-tenure freezes its lease in the
    // lock and leaves its announcement behind. Survivors must (a) keep
    // completing on the direct path — bounded degradation, the cached
    // read merely lags; (b) reclaim the lock after RECLAIM_STRIKES
    // frozen sightings; (c) sweep the abandoned announcement exactly
    // once into a fresh fold; (d) resume ordinary combining.
    let m = CombiningMaxRegister::new(ShardedMaxRegister::new(4, 2));
    // The "crashed combiner": process 3 announces 77, wins the
    // election, and stops forever (a dropped `Lease` is the frozen
    // tenure a crash-stop leaves — release is explicit, Lease has no
    // Drop, exactly as no unwind runs through a parked thread).
    m.slots().publish(3, 77);
    let dead = m.lock().try_acquire().expect("fresh lock is free");
    let frozen = dead.id();
    drop(dead);
    assert_eq!(m.lock().holder(), frozen);

    // A refresh is a sighting under its caller's identity: process
    // 1's two observe the frozen lease and strike once, short of a
    // reclaim.
    for _ in 0..2 {
        assert!(
            !m.refresh(1),
            "below the strike count a refresh does not reclaim"
        );
    }
    assert_eq!(m.lock().holder(), frozen, "the lease stays frozen");

    // Two frozen sightings: direct-path completions, cache stalls.
    assert_eq!(m.apply(0, 10), ApplyPath::Direct);
    assert_eq!(m.apply(0, 20), ApplyPath::Direct);
    assert_eq!(m.read_cached(), 0, "no publisher: the cache lags, bounded");
    assert_eq!(
        m.read_max(),
        20,
        "direct path unaffected by the dead tenure"
    );

    // Third sighting: reclaim, recovery sweep, republication.
    match m.apply(0, 30) {
        ApplyPath::Reclaimed { applied } => {
            assert_eq!(applied, 1, "the abandoned announcement swept exactly once");
        }
        other => panic!("expected a reclaim on the third frozen sighting, got {other:?}"),
    }
    assert_eq!(m.lock().holder(), 0, "recovered tenure released");
    assert_eq!(
        m.read_max(),
        77,
        "the dead combiner's announcement was applied"
    );
    assert_eq!(m.read_cached(), 77, "recovery republished the full fold");

    // Ordinary combining resumes.
    assert!(matches!(m.apply(1, 99), ApplyPath::Combined { .. }));
    assert_eq!(m.read_cached(), 99);
}

#[test]
fn abandoned_counter_publisher_is_reclaimed_and_conserves() {
    // Same crash aftermath for the publication-combining counter:
    // increments stay wait-free throughout, refreshes count sightings
    // under their caller's identity, and the per-process reclaim
    // republishes without losing or doubling a unit.
    let c = CombiningCounter::new(ShardedFetchInc::new(4, 2));
    let dead = c.lock().try_acquire().expect("fresh lock is free");
    let frozen = dead.id();
    drop(dead);
    assert_eq!(c.lock().holder(), frozen);

    for _ in 0..2 {
        assert!(
            !c.refresh(1),
            "below the strike count a refresh does not reclaim"
        );
    }
    assert_eq!(c.lock().holder(), frozen, "the lease stays frozen");

    assert!(!c.inc_traced(0), "first frozen sighting: observe");
    assert!(!c.inc_traced(0), "second frozen sighting: strike");
    assert!(c.inc_traced(0), "third sighting reclaims and publishes");
    assert_eq!(c.lock().holder(), 0, "recovered tenure released");
    assert_eq!(c.read_exact(), 3, "no unit lost or doubled across recovery");
    assert_eq!(c.read_cached(), 3, "recovery caught the cache up");

    assert!(c.inc_traced(1), "publication combining resumes");
    assert_eq!(c.read_cached(), 4);
}

#[test]
fn combined_snapshot_cached_views_stay_untorn_under_churn() {
    // Writers keep their group pair equal; every cached hit is a
    // published stable scan, so the pair invariant must survive into
    // the cache (and the miss path is the stable scan itself).
    let groups = 3usize;
    let n = groups * 2;
    let snap = Arc::new(CombiningSnapshot::new(sl2_sharded::ShardedSnapshot::new(
        n, 2,
    )));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for g in 0..groups {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let deadline = Instant::now() + WINDOW;
                let mut v = 0u64;
                while Instant::now() < deadline {
                    v += 1;
                    snap.update(2 * g, v);
                    snap.update(2 * g + 1, v);
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        for refresher in 0..2 {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut buf = vec![0u64; n];
                let mut hits = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    if refresher == 0 {
                        snap.refresh();
                    }
                    let view = if snap.scan_cached_into(&mut buf) {
                        hits += 1;
                        buf.clone()
                    } else {
                        snap.scan()
                    };
                    for g in 0..groups {
                        let (a, b) = (view[2 * g], view[2 * g + 1]);
                        assert!(a == b || a == b + 1, "view tore group {g}: {view:?}");
                    }
                }
                if refresher == 0 {
                    assert!(hits > 0, "the refresher must hit its own cache");
                }
            });
        }
    });
}
