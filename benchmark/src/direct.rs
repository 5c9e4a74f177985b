//! `obj-direct`: no `Service` at all. `nproc` threads, thread `t` acting
//! as process `t`, run mix w70 straight onto `Registry::get_or_insert`
//! and the `KeyObject` methods. `registry`, `core`, `sharded`, `combine`
//! and `bignum` do all the work and `dispatch` none: a dispatch change
//! must not move this workload, and a change to the heap regime of the
//! zipf head's unary counters has to.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use sl2::service::Registry;

use crate::gen::{self, Op, Zipf};
use crate::service::{apply, policy, trace_stride, Model};
use crate::spans::{self, Name, SpanBuf};
use crate::stats::{self, LIMIT_OCTAVE};
use crate::{probes, Ctx, Round};

/// Measured ops per thread per round (fixed: per-op cost depends on how
/// many ops a key has absorbed).
const OPS_PER_THREAD: usize = 1_500_000;
const KEYSPACE: u32 = 1 << 16;
/// Every 16th op is timed; the clock pair would otherwise be a third of
/// a ~600 ns op.
const STAMP_EVERY: usize = 16;

/// What one thread hands back: its measured interval and, per stamped
/// op, `[start, after lookup, end]` in ns since the round's epoch (the
/// middle stamp is taken in traced rounds only).
struct Lane {
    started: u64,
    ended: u64,
    stamps: Vec<(usize, [u64; 3])>,
}

fn run_lane(
    registry: &Registry<u64>,
    lane: usize,
    warm: &[Op],
    ops: &[Op],
    warmed: &Barrier,
    epoch: Instant,
    traced: bool,
) -> Lane {
    for &op in warm {
        black_box(apply(registry.get_or_insert(&(op.key as u64)), lane, op));
    }
    let mut stamps = Vec::with_capacity(ops.len() / STAMP_EVERY + 1);
    let now = || epoch.elapsed().as_nanos() as u64;
    warmed.wait();
    let started = now();
    for (i, &op) in ops.iter().enumerate() {
        let key = op.key as u64;
        if i % STAMP_EVERY != 0 {
            black_box(apply(registry.get_or_insert(&key), lane, op));
            continue;
        }
        let t0 = now();
        let obj = registry.get_or_insert(&key);
        let t1 = if traced { now() } else { t0 };
        black_box(apply(obj, lane, op));
        stamps.push((i, [t0, t1, now()]));
    }
    Lane {
        started,
        ended: now(),
        stamps,
    }
}

pub fn round(ctx: &Ctx, round: u64, traced: bool) -> Round {
    let setup_started = Instant::now();
    let threads = ctx.place.nproc();
    let zipf = Zipf::new(KEYSPACE);
    let inputs: Vec<(Vec<Op>, Vec<Op>)> = (0..threads as u64)
        .map(|t| {
            (
                gen::ops(
                    gen::stream(ctx.seed, round, 2 * t),
                    OPS_PER_THREAD / 10,
                    &zipf,
                    gen::W70,
                ),
                gen::ops(
                    gen::stream(ctx.seed, round, 2 * t + 1),
                    OPS_PER_THREAD,
                    &zipf,
                    gen::W70,
                ),
            )
        })
        .collect();
    let registry: Registry<u64> = Registry::with_policy(KEYSPACE as usize, threads, policy);
    let warmed = Barrier::new(threads + 1);
    let epoch = Instant::now();

    let (setup_s, lanes) = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(t, (warm, ops))| {
                let (registry, warmed, cpus) = (&registry, &warmed, &ctx.place.cpus);
                let pinned = ctx.pinned;
                s.spawn(move || {
                    if pinned {
                        assert!(crate::pin::pin_current_thread(&cpus[t..=t]));
                    }
                    run_lane(registry, t, warm, ops, warmed, epoch, traced)
                })
            })
            .collect();
        warmed.wait();
        let setup_s = ctx.setup_elapsed(round, setup_started);
        let lanes: Vec<Lane> = handles
            .into_iter()
            .map(|h| h.join().expect("a lane panicked"))
            .collect();
        (setup_s, lanes)
    });

    let started = lanes.iter().map(|l| l.started).min().unwrap_or(0);
    let ended = lanes.iter().map(|l| l.ended).max().unwrap_or(0);
    let wall_s = (ended - started) as f64 / 1e9;
    let n = (threads * OPS_PER_THREAD) as u64;

    let mut stamped: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.stamps.iter().map(|(_, s)| s[2] - s[0]))
        .collect();
    stamped.sort_unstable();
    let p50 = stats::percentile(&stamped, 1, 2) as f64;
    let p99 = stats::percentile(&stamped, 99, 100) as f64;
    let limit = (1u64 << LIMIT_OCTAVE) - 1;
    let within = stamped.partition_point(|&v| v <= limit) as f64 / stamped.len() as f64;

    // The audit: the generator's own tally of every thread's ops
    // (built here, off the measured path), against what every key
    // reads back. The verdict lands `verdict_s` after the first op.
    let audit_started = Instant::now();
    let mut model = Model::new(KEYSPACE);
    for (warm, ops) in &inputs {
        warm.iter().chain(ops).for_each(|&op| model.apply(op));
    }
    let failed = model.audit(&registry);
    let verdict_s = wall_s + audit_started.elapsed().as_secs_f64();

    let mut out = Round {
        measured_s: wall_s,
        attempted: n,
        failed,
        samples: stamped.len() as u64,
        primary: wall_s * 1e9 / n as f64,
        end_to_end: vec![
            ("setup_s", setup_s),
            ("throughput_ops_s", n as f64 / wall_s),
            ("lat_p50_ns", p50),
            ("lat_p99_ns", p99),
            ("within_limit_share", within),
            ("verdict_s", verdict_s),
        ],
        per_layer: Vec::new(),
        trace: None,
    };
    if !traced {
        return out;
    }

    // Spans for an even subset of the stamped ops: here the request is
    // the op itself, so root self time is the clock, not a hand-off.
    let stride = trace_stride(stamped.len());
    let mut spans = SpanBuf::with_capacity(3 * (stamped.len() / stride + 1));
    for (t, lane) in lanes.iter().enumerate() {
        for &(i, [t0, t1, t2]) in lane.stamps.iter().step_by(stride) {
            let op = inputs[t].1[i];
            let root = spans.push(0, Name::Request, t0, t2, t as u32);
            // A first touch is a lookup that had to allocate the entry;
            // from outside, a racing lane makes that unknowable per op,
            // so direct lookups are all filed as hits.
            spans.push(root, Name::RegistryLookup, t0, t1, 0);
            spans.push(root, Name::ObjectOp, t1, t2, spans::op_tag(op.key, op.kind));
        }
    }
    let mut layer = probes::span_metrics(spans.spans());
    layer.extend([
        ("registry.keys", registry.len() as f64),
        (
            "bignum.hot_key_count",
            registry.get(&0).map_or(0, |o| o.read_count()) as f64,
        ),
    ]);
    out.per_layer = layer;
    out.trace = Some((
        spans,
        vec![format!(
            "{{\"summary\":\"round {round}\",\"lat_p50_ns\":{p50},\"threads\":{threads},\"traced_every\":{}}}",
            stride * STAMP_EVERY
        )],
    ));
    out
}
