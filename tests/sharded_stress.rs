//! Experiment E22: bounded-duration threaded stress over the sharded
//! objects (`std::thread::scope`), asserting the exact-counter and
//! max-register invariants the checker certifies on bounded scenarios.
//!
//! Durations are wall-clock-bounded (not iteration-bounded) so the
//! suite costs the same in debug and release; CI additionally runs this
//! file in release mode, where the loops cover orders of magnitude more
//! operations per window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sl2::prelude::*;

/// Per-phase stress window. Debug-mode runs still execute tens of
/// thousands of operations in this span.
const WINDOW: Duration = Duration::from_millis(200);

fn stress_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4)
}

#[test]
fn exact_sharded_counter_never_loses_or_invents_increments() {
    let threads = stress_threads();
    let c = Arc::new(ShardedFetchInc::new(threads, 4));
    let issued = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for p in 0..threads {
            let c = Arc::clone(&c);
            let issued = Arc::clone(&issued);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let deadline = Instant::now() + WINDOW;
                while Instant::now() < deadline {
                    // Count before landing: `issued` is always ≥ the
                    // landed count, so reads may never exceed it.
                    issued.fetch_add(1, Ordering::SeqCst);
                    c.inc(p);
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        let c2 = Arc::clone(&c);
        let issued2 = Arc::clone(&issued);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut last = 0;
            while !stop2.load(Ordering::SeqCst) {
                let v = c2.read();
                assert!(v >= last, "exact read regressed {last} -> {v}");
                assert!(
                    v <= issued2.load(Ordering::SeqCst),
                    "exact read ran ahead of issued increments"
                );
                last = v;
            }
        });
    });
    let total = issued.load(Ordering::SeqCst);
    assert!(total > 0, "the window must fit some work");
    assert_eq!(c.read(), total, "quiescent exact read equals issued");
    assert_eq!(c.read_relaxed(), total, "quiescent relaxed read agrees");
}

#[test]
fn relaxed_sharded_counter_stays_within_its_lag_spec() {
    let threads = stress_threads();
    let c = Arc::new(RelaxedShardedCounter::new(threads, 4));
    let issued = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for p in 0..threads {
            let c = Arc::clone(&c);
            let issued = Arc::clone(&issued);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let deadline = Instant::now() + WINDOW;
                while Instant::now() < deadline {
                    issued.fetch_add(1, Ordering::SeqCst);
                    c.inc(p);
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        let c2 = Arc::clone(&c);
        let issued2 = Arc::clone(&issued);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut last = 0;
            while !stop2.load(Ordering::SeqCst) {
                // One-pass sweeps of monotone stripes are still
                // monotone between themselves, and never run ahead.
                let v = c2.read();
                assert!(v >= last, "relaxed read regressed {last} -> {v}");
                assert!(v <= issued2.load(Ordering::SeqCst), "read ran ahead");
                last = v;
            }
        });
    });
    assert_eq!(c.read_exact(), issued.load(Ordering::SeqCst));
}

#[test]
fn sharded_max_register_tracks_the_exact_maximum() {
    let threads = stress_threads();
    let m = Arc::new(ShardedMaxRegister::new(threads, 4));
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
                    v += 1 + p as u64; // distinct strides → distinct shards
                                       // Publish the intent first: the global high-water
                                       // mark is always ≥ every landed write.
                    high_water.fetch_max(v, Ordering::SeqCst);
                    m.write_max(p, v);
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        let m2 = Arc::clone(&m);
        let high2 = Arc::clone(&high_water);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut last = 0;
            while !stop2.load(Ordering::SeqCst) {
                let v = m2.read_max();
                assert!(v >= last, "max register regressed {last} -> {v}");
                assert!(
                    v <= high2.load(Ordering::SeqCst),
                    "read_max invented a value"
                );
                last = v;
            }
        });
    });
    // Quiescent: every published intent also landed before its thread
    // exited, so the fold must equal the high-water mark exactly.
    let v = m.read_max();
    assert!(v > 0, "the window must fit some work");
    assert_eq!(v, high_water.load(Ordering::SeqCst));
}

#[test]
fn sharded_snapshot_group_cuts_hold_under_churn() {
    // Writers keep both components of their own group equal; group
    // scans must never tear a pair, and whole-object stable scans must
    // observe per-group-equal views.
    let groups = 3usize;
    let n = groups * 2;
    let snap = Arc::new(ShardedSnapshot::new(n, 2));
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
        for reader in 0..2 {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if reader == 0 {
                        for g in 0..groups {
                            let view = snap.scan_group(g);
                            assert!(
                                view[0] == view[1] || view[0] == view[1] + 1,
                                "group {g} cut torn: {view:?}"
                            );
                        }
                    } else {
                        let view = snap.scan();
                        for g in 0..groups {
                            let (a, b) = (view[2 * g], view[2 * g + 1]);
                            assert!(
                                a == b || a == b + 1,
                                "stable whole-object scan tore group {g}: {view:?}"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn sharded_and_global_max_registers_agree_on_mirrored_ops() {
    // Differential harness: run the same operation stream against the
    // global Theorem-1 register and the sharded form; quiescent reads
    // must agree at every synchronization point.
    let threads = stress_threads();
    let sharded = Arc::new(ShardedMaxRegister::new(threads, 4));
    let global = Arc::new(SlMaxRegister::new(threads));
    for round in 0..3 {
        std::thread::scope(|s| {
            for p in 0..threads {
                let sharded = Arc::clone(&sharded);
                let global = Arc::clone(&global);
                s.spawn(move || {
                    let deadline = Instant::now() + WINDOW / 4;
                    let mut v = round * 1000;
                    while Instant::now() < deadline {
                        v += 1 + p as u64;
                        sharded.write_max(p, v);
                        global.write_max(p, v);
                    }
                });
            }
        });
        assert_eq!(
            sharded.read_max(),
            global.read_max(),
            "round {round}: mirrored streams diverged"
        );
    }
}

#[test]
fn unary_and_binary_lanes_agree_op_for_op() {
    // ISSUE 21: the lane encoding is a codec choice the algorithms
    // cannot observe. Seeded op sequences drive the paper's unary form
    // and the shipped binary form of each re-coded type side by side;
    // every ticket and every read must be identical (failures name
    // `seed:step`). The workspace suite re-runs under `force_spinlock`,
    // which puts both forms on the heap-regime code paths from the
    // first op.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sl2::core::algos::fetch_inc::WideFetchInc;
    let n = 3;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = [SlMaxRegister::new(n), SlMaxRegister::new_binary(n)];
        let wide = [WideFetchInc::new(n), WideFetchInc::new_binary(n)];
        let striped = [
            ShardedFetchInc::new(n, 2),
            ShardedFetchInc::new_binary(n, 2),
        ];
        for step in 0..1500 {
            let p = rng.gen_range(0..n);
            match rng.gen_range(0..6u32) {
                // Long enough that the unary registers migrate to the
                // heap regime mid-sequence; the binary ones never do.
                0 => {
                    let v = rng.gen_range(0..700u64);
                    max.iter().for_each(|m| m.write_max(p, v));
                }
                1 => assert_eq!(max[0].read_max(), max[1].read_max(), "{seed}:{step}"),
                2 => assert_eq!(wide[0].fetch_inc(p), wide[1].fetch_inc(p), "{seed}:{step}"),
                3 => assert_eq!(wide[0].read(), wide[1].read(), "{seed}:{step}"),
                4 => assert_eq!(striped[0].inc(p), striped[1].inc(p), "{seed}:{step}"),
                _ => {
                    assert_eq!(striped[0].read(), striped[1].read(), "{seed}:{step}");
                    assert_eq!(striped[0].read_relaxed(), striped[1].read_relaxed());
                }
            }
        }
        assert!(max[0].register_bits() > 128 && wide[0].register_bits() > 128);
        assert!(max[1].register_bits() <= 64 * n && wide[1].register_bits() <= 64 * n);
    }
}

#[test]
fn one_shard_max_register_keeps_u64_max() {
    // At one shard the quotient count of `u64::MAX` overflowed: debug
    // builds panicked and release builds dropped the write. Both the
    // registry's keyed form and the bare register must keep it.
    for backend in [
        Backend::Global,
        Backend::Sharded { shards: 1 },
        Backend::Sharded { shards: 2 },
    ] {
        let r: Registry<u64> = Registry::new(4, 2, backend);
        let key = r.get_or_insert(&1);
        key.write_max(0, 5);
        key.write_max(1, u64::MAX);
        assert_eq!(key.read_max(), u64::MAX, "{backend:?}");
    }
    let m = ShardedMaxRegister::new_binary(2, 1);
    m.write_max(0, 5);
    m.write_max(1, u64::MAX);
    assert_eq!(m.read_max(), u64::MAX);
    assert_eq!(m.read_max_relaxed(), u64::MAX);
    m.write_max(0, u64::MAX - 1);
    assert_eq!(m.read_max(), u64::MAX);
}
