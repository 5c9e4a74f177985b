//! PR-8 acceptance suite for the observability layer (`sl2_obs`).
//!
//! The ungated half pins the parts that are live in every build: the
//! log₂ histogram's percentile math against a sorted-vector reference,
//! merge conservation, and the `SL2_METRICS_JSON` JSON-lines export.
//! The `--features armed` half pins the armed registry: counter
//! conservation across per-thread shards, gauge max-folding, timer
//! drop-recording, and the hot-path probes actually firing from the
//! production objects.

use sl2::obs;
use sl2::obs::{Histogram, MetricsSnapshot};

/// Deterministic xorshift* value stream (no RNG deps in tests).
fn values(seed: u64, n: usize, bound: u64) -> Vec<u64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        })
        .collect()
}

/// The sorted-vector ceiling-rank reference the histogram approximates.
fn exact_quantile(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as u128 * num as u128).div_ceil(den as u128)).max(1) as usize;
    sorted[rank - 1]
}

#[test]
fn histogram_percentiles_bound_the_sorted_vector_reference() {
    // The histogram rounds values *up* to their log₂ bucket's upper
    // bound (then clamps by the exact max), so every reported
    // percentile must sit in [reference, 2·reference + 1] — never
    // below the true quantile, never more than one bucket above it.
    for (seed, bound) in [(7u64, 50_000u64), (11, 1_000), (13, 64), (17, 3)] {
        let vs = values(seed, 5_000, bound);
        let mut h = Histogram::new();
        for &v in &vs {
            h.record(v);
        }
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        assert_eq!(h.count(), 5_000);
        assert_eq!(h.max(), *sorted.last().expect("non-empty"));
        for (num, den, got) in [
            (50u64, 100u64, h.p50()),
            (99, 100, h.p99()),
            (999, 1_000, h.p999()),
        ] {
            let want = exact_quantile(&sorted, num, den);
            assert!(
                got >= want,
                "seed {seed}: p{num}/{den} = {got} below reference {want}"
            );
            assert!(
                got <= 2 * want + 1,
                "seed {seed}: p{num}/{den} = {got} beyond one bucket above {want}"
            );
            assert!(got <= h.max(), "percentile above the exact max");
        }
    }
}

#[test]
fn histogram_merge_conserves_every_observation() {
    // Recording a stream into S disjoint histograms and merging must
    // be indistinguishable from recording it into one — the invariant
    // the armed registry's merge-at-snapshot design rests on.
    let vs = values(23, 4_096, 1 << 20);
    let mut whole = Histogram::new();
    let mut shards = [Histogram::new(); 8];
    for (k, &v) in vs.iter().enumerate() {
        whole.record(v);
        shards[k % 8].record(v);
    }
    let mut merged = Histogram::new();
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(merged.count(), whole.count());
    assert_eq!(merged.max(), whole.max());
    for (num, den) in [(50, 100), (99, 100), (999, 1_000), (1, 1)] {
        assert_eq!(
            merged.value_at_quantile(num, den),
            whole.value_at_quantile(num, den),
            "merge changed p{num}/{den}"
        );
    }
}

#[test]
fn metrics_snapshot_serializes_json_lines() {
    // No env-var plumbing here: this binary is also the one CI points
    // SL2_METRICS_JSON at (see `armed::registry_snapshot_exports_when_
    // requested`), so mutating the variable from a parallel test would
    // race the artifact. `write_env` is just `fs::write(to_json_lines)`.
    let mut h = Histogram::new();
    for v in [3, 9, 2_000] {
        h.record(v);
    }
    let snap = MetricsSnapshot {
        counters: vec![("e2e.hits".into(), 42)],
        gauges: vec![("e2e.depth".into(), 7)],
        histograms: vec![("e2e.lat".into(), h)],
    };
    let body = snap.to_json_lines();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "one JSON line per metric: {body}");
    assert_eq!(
        lines[0],
        "{\"metric\":\"e2e.hits\",\"kind\":\"counter\",\"value\":42}"
    );
    assert_eq!(
        lines[1],
        "{\"metric\":\"e2e.depth\",\"kind\":\"gauge\",\"value\":7}"
    );
    assert!(lines[2].starts_with("{\"metric\":\"e2e.lat\",\"kind\":\"histogram\",\"count\":3,"));
    assert!(lines[2].contains("\"max\":2000"));
}

#[test]
fn the_armed_flag_matches_the_build() {
    assert_eq!(obs::armed(), cfg!(feature = "armed"));
    #[cfg(not(feature = "armed"))]
    assert!(
        obs::snapshot().is_empty(),
        "disarmed snapshots must stay empty"
    );
}

#[cfg(feature = "armed")]
mod armed {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn counters_are_conserved_across_thread_shards() {
        // 8 auto-slotted threads land on (up to) 8 distinct shards of
        // the striped counter cell; the snapshot's merge must see
        // every relaxed increment exactly once.
        let threads = 8;
        let per_thread = 1_000u64;
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..per_thread {
                        obs::count("obs.e2e.conserved");
                        obs::add("obs.e2e.weighted", k % 3);
                    }
                });
            }
        });
        let snap = obs::snapshot();
        assert_eq!(
            snap.counter("obs.e2e.conserved"),
            Some(threads as u64 * per_thread),
            "shard merge lost or duplicated increments"
        );
        // Per thread: sum of k % 3 over 0..1000 = 999.
        assert_eq!(snap.counter("obs.e2e.weighted"), Some(threads as u64 * 999));
    }

    #[test]
    fn gauges_hold_the_high_watermark() {
        for v in [3u64, 17, 5, 11] {
            obs::gauge("obs.e2e.peak", v);
        }
        assert_eq!(obs::snapshot().counter("obs.e2e.peak"), None);
        let snap = obs::snapshot();
        let peak = snap
            .gauges
            .iter()
            .find(|(l, _)| l == "obs.e2e.peak")
            .map(|(_, v)| *v);
        assert_eq!(peak, Some(17));
    }

    #[test]
    fn timers_record_into_their_histogram_on_drop() {
        {
            let _t = obs::time("obs.e2e.span");
            std::hint::black_box(values(3, 64, 100));
        }
        let snap = obs::snapshot();
        let h = snap
            .histogram("obs.e2e.span")
            .expect("timer label registered");
        assert_eq!(h.count(), 1, "one drop, one observation");
        assert!(h.p50() <= h.max());
    }

    #[test]
    fn registry_snapshot_exports_when_requested() {
        // CI's armed leg sets SL2_METRICS_JSON on exactly this suite and
        // uploads the result as metrics-report.jsonl; locally (var
        // unset) write_env is a no-op and only the serialization runs.
        obs::count("obs.e2e.export");
        let snap = obs::snapshot();
        assert!(snap.counter("obs.e2e.export").unwrap_or(0) >= 1);
        assert!(snap
            .to_json_lines()
            .contains("\"metric\":\"obs.e2e.export\""));
        snap.write_env();
        if let Ok(path) = std::env::var("SL2_METRICS_JSON") {
            let body = std::fs::read_to_string(&path).expect("metrics artifact written");
            assert!(body.contains("\"metric\":\"obs.e2e.export\""));
        }
    }

    #[test]
    fn queue_depth_gauges_cover_both_edges() {
        use sl2::prelude::*;

        // The PR-10 fix: `service.queue_depth` used to be an
        // enqueue-only gauge — a queue that filled and then drained
        // looked permanently deep. Both edges must now report:
        // enqueue-side depth (after push) and dequeue-side depth
        // (after pop), each a high-watermark, plus a dequeue counter
        // balancing `service.enqueue`'s chaos point.
        let mut svc = Service::new(64, 2, Backend::Global);
        for k in 0..16u64 {
            svc.submit(Request {
                key: k,
                op: ServiceOp::Inc,
            });
        }
        // A blocking call per worker queue drains everything ahead of
        // it, so by return both workers have popped at least once.
        for k in 0..16u64 {
            let _ = svc.call(Request {
                key: k,
                op: ServiceOp::ReadCount,
            });
        }
        svc.shutdown();

        let snap = obs::snapshot();
        let gauge = |label: &str| {
            snap.gauges
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v)
        };
        let enq_peak = gauge("service.queue_depth").expect("enqueue edge reported");
        let deq_peak = gauge("service.queue_depth.dequeue").expect("dequeue edge reported");
        assert!(enq_peak >= 1, "pushes must register depth");
        assert!(
            deq_peak < enq_peak,
            "depth-after-pop must sit strictly below depth-after-push \
             (dequeue {deq_peak} vs enqueue {enq_peak})"
        );
        let dequeues = snap.counter("service.dequeue").expect("dequeue counter");
        assert!(
            dequeues >= 32,
            "every executed request pops exactly once (saw {dequeues})"
        );
    }

    #[test]
    fn production_probes_fire_from_the_hot_paths() {
        use sl2::prelude::*;

        // Striped increments hit the per-shard op counters…
        let c = ShardedFetchInc::new(2, 2);
        for _ in 0..5 {
            c.inc(0); // shard 0
            c.inc(1); // shard 1
        }
        let snap = obs::snapshot();
        assert_eq!(snap.counter("sharded.shard.00.ops"), Some(5));
        assert_eq!(snap.counter("sharded.shard.01.ops"), Some(5));

        // …the spinlocked WideFaa twin counts acquisitions…
        let r = sl2_bignum::WideFaa::with_value_spinlocked(BigNat::one());
        let before = obs::snapshot().counter("faa.spin_acquire").unwrap_or(0);
        for _ in 0..7 {
            r.add(&BigNat::one());
        }
        let after = obs::snapshot().counter("faa.spin_acquire").unwrap_or(0);
        assert!(
            after >= before + 7,
            "7 spinlocked adds must acquire at least 7 times ({before} -> {after})"
        );

        // …and a quiescent combining write leaves an election + batch
        // trace.
        let m = CombiningMaxRegister::new(ShardedMaxRegister::new(2, 2));
        m.write_max(0, 5);
        let snap = obs::snapshot();
        let won = snap.counter("combine.election_won").unwrap_or(0);
        let direct = snap.counter("combine.direct_path").unwrap_or(0);
        assert!(
            won + direct >= 1,
            "an uncontended write either wins the election or goes direct"
        );
    }
}
