//! The three `Service` workloads. One generator thread on its own CPU
//! drives `workers` service threads on the others; what differs is how
//! the dispatch layer is used:
//!
//! * `svc-open-50k` — paced arrivals into an idle service: every
//!   request pays enqueue, worker wake and execute;
//! * `svc-pipe-256` — 256 requests always in flight: the worker never
//!   parks, so the cost is queue push/pop, stamp, histogram, counters;
//! * `svc-call` — blocking round trips: a completion cell and two
//!   wake-ups per call, and the objects' read side.
//!
//! Op counts per round are fixed, never wall-clock-bounded: the paper's
//! unary counters make an op's cost depend on how many ops its key has
//! already absorbed, so only equal-sized rounds on fresh state compare.

use std::hint::{black_box, spin_loop};
use std::time::{Duration, Instant};

use sl2::service::{Backend, KeyObject, Registry, Response, Service};

use crate::gen::{self, Kind, Mix, Op, Zipf};
use crate::spans::{self, Name, SpanBuf};
use crate::stats::{self, LIMIT_OCTAVE};
use crate::{alloc, probes, Ctx, Round};

/// Which service workload a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Open,
    Pipe,
    Call,
}

/// Fixed sizing of one round.
struct Sizing {
    ops: usize,
    keyspace: u32,
    mix: Mix,
}

/// Requests in flight on `svc-pipe-256` (and in every warm-up pass, so
/// both stay valid once the queue is bounded: depth 256 is never
/// refused).
pub const WINDOW: u64 = 256;

/// Open-loop arrival rate.
pub const OPEN_RATE: u64 = 50_000;

/// Arrivals per open-loop window: ten windows a round, ~100 ms each.
/// The generator copies the service histogram at each window edge;
/// `svc-call` cuts its own samples into tenths the same way.
const P99_WINDOW: usize = 5_000;

/// Requests traced per round: enough for a p99 with 160 samples beyond
/// it, few enough that the span file stays a few MB.
const TRACED_PER_ROUND: usize = 16_384;

impl Shape {
    fn sizing(self) -> Sizing {
        match self {
            // 1 s of arrivals per round.
            Shape::Open => Sizing {
                ops: 50_000,
                keyspace: 1 << 16,
                mix: gen::W70,
            },
            Shape::Pipe => Sizing {
                ops: 1_000_000,
                keyspace: 1 << 12,
                mix: gen::CHEAP,
            },
            Shape::Call => Sizing {
                ops: 25_000,
                keyspace: 1 << 16,
                mix: gen::R90,
            },
        }
    }

    /// Octave edge `within_limit_share` counts up to: 65 535 ns where a
    /// request meets an idle or single-caller service, 524 287 ns where
    /// it queues behind a window of 256.
    fn limit_octave(self) -> usize {
        match self {
            Shape::Open | Shape::Call => LIMIT_OCTAVE,
            Shape::Pipe => 19,
        }
    }
}

/// All three backend tiers serve every workload.
pub fn policy(key: &u64) -> Backend {
    match key % 3 {
        0 => Backend::Global,
        1 => Backend::Sharded { shards: 2 },
        _ => Backend::Combining { shards: 2 },
    }
}

/// Runs `op` on `obj` as serving lane `lane` — what
/// `dispatch::Shared::execute` does, for the inline replay and for
/// `obj-direct`.
pub fn apply(obj: &KeyObject, lane: usize, op: Op) -> u64 {
    match op.kind {
        Kind::Inc => {
            obj.inc(lane);
            0
        }
        Kind::WriteMax => {
            obj.write_max(lane, op.arg as u64);
            0
        }
        Kind::ReadMax => obj.read_max(),
        Kind::ReadCount => obj.read_count(),
        Kind::ReadMaxCached => obj.read_max_cached(),
        Kind::ReadCountCached => obj.read_count_cached(),
        Kind::Update => {
            obj.update(0, op.arg as u64);
            0
        }
        Kind::Scan => obj.scan().len() as u64,
    }
}

/// The generator's own per-key sequential model: what every key must
/// read after the run, and (for `svc-call`) what every response must be.
#[derive(Debug, Clone, Copy, Default)]
struct KeyModel {
    touched: bool,
    incs: u64,
    max: u64,
    component0: u64,
    cached_max_seen: u64,
    cached_count_seen: u64,
}

#[derive(Debug)]
pub struct Model {
    keys: Vec<KeyModel>,
}

impl Model {
    pub fn new(keyspace: u32) -> Self {
        Model {
            keys: vec![KeyModel::default(); keyspace as usize],
        }
    }

    pub fn apply(&mut self, op: Op) {
        let k = &mut self.keys[op.key as usize];
        k.touched = true;
        match op.kind {
            Kind::Inc => k.incs += 1,
            Kind::WriteMax => k.max = k.max.max(op.arg as u64),
            Kind::Update => k.component0 = op.arg as u64,
            _ => {}
        }
    }

    /// Applies `op` and checks the response a sequential caller got:
    /// exact reads equal the model, cached reads never exceed it and
    /// never go backwards.
    pub fn check(&mut self, op: Op, resp: &Response) -> bool {
        self.apply(op);
        let k = &mut self.keys[op.key as usize];
        match (op.kind, resp) {
            (Kind::Inc | Kind::WriteMax | Kind::Update, Response::Ok) => true,
            (Kind::ReadMax, Response::Value(v)) => *v == k.max,
            (Kind::ReadCount, Response::Value(v)) => *v == k.incs,
            (Kind::ReadMaxCached, Response::Value(v)) => {
                let ok = *v <= k.max && *v >= k.cached_max_seen;
                k.cached_max_seen = *v;
                ok
            }
            (Kind::ReadCountCached, Response::Value(v)) => {
                let ok = *v <= k.incs && *v >= k.cached_count_seen;
                k.cached_count_seen = *v;
                ok
            }
            (Kind::Scan, Response::View(view)) => view.first() == Some(&k.component0),
            _ => false,
        }
    }

    pub fn distinct_keys(&self) -> u64 {
        self.keys.iter().filter(|k| k.touched).count() as u64
    }

    /// Reads every touched key back: each missing increment, wrong
    /// maximum or missing key is a failed op.
    pub fn audit(&self, registry: &Registry<u64>) -> u64 {
        let mut failed = 0u64;
        for (key, k) in self.keys.iter().enumerate().filter(|(_, k)| k.touched) {
            match registry.get(&(key as u64)) {
                None => failed += 1,
                Some(obj) => {
                    failed += obj.read_count().abs_diff(k.incs);
                    failed += u64::from(obj.read_max() != k.max);
                }
            }
        }
        failed + (registry.len() as u64).abs_diff(self.distinct_keys())
    }
}

/// Which requests of a round carry spans: every `stride`-th.
pub fn trace_stride(ops: usize) -> usize {
    ops.div_ceil(TRACED_PER_ROUND).max(1)
}

/// What the traced measured pass saw at its submits.
#[derive(Debug, Default)]
struct SubmitProbe {
    idle_arrivals: u64,
    probed: u64,
    backlog_peak: u64,
}

impl SubmitProbe {
    fn observe(&mut self, in_flight: u64) {
        self.probed += 1;
        self.idle_arrivals += u64::from(in_flight == 0);
        self.backlog_peak = self.backlog_peak.max(in_flight);
    }
}

/// Submits `ops` through a window of `WINDOW` in flight, untracked, and
/// drains: the warm-up pass (materializes the zipf head).
fn warm_up(svc: &Service, ops: &[Op], model: &mut Model) {
    let base = svc.submitted();
    let mut done = svc.completed();
    for (i, &op) in ops.iter().enumerate() {
        let sent = base + i as u64;
        while sent - done >= WINDOW {
            spin_loop();
            done = svc.completed();
        }
        model.apply(op);
        svc.submit(op.request());
    }
    svc.drain();
}

/// One round of a service workload: fresh service, warm-up, the
/// measured pass, audit, and (traced) the inline replay.
pub fn round(ctx: &Ctx, shape: Shape, round: u64, traced: bool) -> Round {
    let setup_started = Instant::now();
    let size = shape.sizing();
    let workers = ctx.place.workers;

    // Inputs, from the seed alone.
    let zipf = Zipf::new(size.keyspace);
    let warm = gen::ops(
        gen::stream(ctx.seed, round, 0),
        size.ops / 10,
        &zipf,
        size.mix,
    );
    let ops = gen::ops(gen::stream(ctx.seed, round, 1), size.ops, &zipf, size.mix);
    let offsets = match shape {
        Shape::Open => gen::poisson_offsets(gen::stream(ctx.seed, round, 2), size.ops, OPEN_RATE),
        _ => Vec::new(),
    };
    let stride = trace_stride(size.ops);
    let mut spans = SpanBuf::with_capacity(if traced {
        3 * (size.ops / stride + 1)
    } else {
        0
    });
    // The generator's own latency samples, in order: every open-loop
    // submit call, every `call` round trip, per-request ns of every
    // block of `WINDOW` pipelined submits.
    let mut client_ns: Vec<u64> = Vec::with_capacity(match shape {
        Shape::Open | Shape::Call => size.ops,
        Shape::Pipe => size.ops / WINDOW as usize + 1,
    });
    let mut model = Model::new(size.keyspace);

    // Workers inherit the constructing thread's affinity; the generator
    // then goes back to its own CPU.
    assert!(crate::pin::pin_current_thread(ctx.place.worker_set()));
    let svc = Service::with_policy(size.keyspace as usize, workers, policy);
    assert!(crate::pin::pin_current_thread(ctx.place.generator()));
    warm_up(&svc, &warm, &mut model);
    let warm_sent = svc.submitted();
    let setup_s = ctx.setup_elapsed(round, setup_started);

    // The measured pass.
    let mut probe = SubmitProbe::default();
    let mut windows: Vec<sl2::obs::Histogram> = Vec::with_capacity(size.ops / P99_WINDOW + 1);
    let mut failed = 0u64;
    let mut late = 0u64;
    let mut stalled = 0u64;
    let allocs_before = alloc::count();
    let started = Instant::now();
    let generated;
    match shape {
        Shape::Open => {
            let mean_gap = Duration::from_nanos(1_000_000_000 / OPEN_RATE);
            let epoch = started + Duration::from_micros(100);
            for (i, (&op, &offset)) in ops.iter().zip(&offsets).enumerate() {
                let scheduled = epoch + Duration::from_nanos(offset);
                let mut now = Instant::now();
                while now < scheduled {
                    spin_loop();
                    now = Instant::now();
                }
                late += u64::from(now.duration_since(scheduled) > mean_gap);
                model.apply(op);
                if i % P99_WINDOW == 0 && i > 0 {
                    windows.push(svc.latency_histogram());
                }
                if traced {
                    probe.observe(warm_sent + i as u64 - svc.completed());
                }
                let t0 = Instant::now();
                svc.submit_timed(op.request(), scheduled);
                let t1 = Instant::now();
                client_ns.push(t1.duration_since(t0).as_nanos() as u64);
                if traced && i % stride == 0 {
                    spans.push(0, Name::Request, spans.at(t0), spans.at(t1), 0);
                }
            }
            generated = epoch.elapsed();
        }
        Shape::Pipe => {
            let mut done = svc.completed();
            let mut block_started = started;
            for (i, &op) in ops.iter().enumerate() {
                let sent = warm_sent + i as u64;
                if sent - done >= WINDOW {
                    stalled += 1;
                    loop {
                        done = svc.completed();
                        if sent - done < WINDOW {
                            break;
                        }
                        spin_loop();
                    }
                }
                model.apply(op);
                let spanned = traced && i % stride == 0;
                if spanned {
                    probe.observe(sent - svc.completed());
                }
                let t0 = Instant::now();
                svc.submit_timed(op.request(), t0);
                if (i + 1) % WINDOW as usize == 0 {
                    let block = t0.duration_since(block_started).as_nanos() as u64;
                    client_ns.push(block / WINDOW);
                    block_started = t0;
                }
                if spanned {
                    let t1 = Instant::now();
                    spans.push(0, Name::Request, spans.at(t0), spans.at(t1), 0);
                }
            }
            generated = started.elapsed();
        }
        Shape::Call => {
            for (i, &op) in ops.iter().enumerate() {
                if traced {
                    probe.observe(warm_sent + i as u64 - svc.completed());
                }
                let t0 = Instant::now();
                let resp = svc.call(op.request());
                let t1 = Instant::now();
                client_ns.push(t1.duration_since(t0).as_nanos() as u64);
                if traced && i % stride == 0 {
                    spans.push(0, Name::Request, spans.at(t0), spans.at(t1), 0);
                }
                failed += u64::from(!model.check(op, &resp));
            }
            generated = started.elapsed();
        }
    }
    let drain_started = Instant::now();
    svc.drain();
    let drain_ns = drain_started.elapsed().as_nanos() as f64;
    let wall = started.elapsed();
    let allocs_served = alloc::count() - allocs_before;

    // The audit: every key reads back what the generator tallied. The
    // verdict on the round's outputs lands here, `verdict_s` after its
    // first measured op.
    failed += model.audit(svc.registry());
    let verdict_s = started.elapsed().as_secs_f64();

    let n = size.ops as u64;
    let hist = svc.latency_histogram();
    let cum = stats::cumulative_at_edges(&hist);
    if shape != Shape::Call {
        // Every request that never reached the histogram is a failed
        // op (and misses the limit below).
        failed += n.abs_diff(hist.count());
    }

    // Latency, as a user of this workload sees it. Tails and limits are
    // taken per ~100 ms window, the window a quarter in from the best:
    // over a whole second they are the host's. This VM stalls for
    // 1-15 ms several times a second, so 3-8% of any second's open-loop
    // requests sit behind a stall (the whole-round sojourn p99 reads
    // 0.5-6 ms from round to round); a stall spoils its own window only.
    let limit = (1u64 << shape.limit_octave()) - 1;
    let quiet =
        |windows: Vec<f64>, lower_is_better| stats::best_quartile(&windows, lower_is_better);
    let (p50, p99, within) = match shape {
        // Median: scheduled -> completion, from the service histogram.
        // Tail: the submit call, which is what an open-loop client
        // itself waits for. (The sojourn tail is not gateable here even
        // per window: when the host gets busier the quiet-window
        // sojourn p99 goes from 55 us to 200 us with the program
        // unchanged. A stall hits one submit but every request queued
        // behind it.) Limit: completions, per window of arrivals.
        Shape::Open => {
            windows.push(hist);
            let shares = stats::window_edge_counts(&windows)
                .iter()
                .map(|w| w[shape.limit_octave()].min(P99_WINDOW as u64) as f64 / P99_WINDOW as f64)
                .collect();
            (
                stats::interpolated_quantile(&cum, 0.50),
                quiet(
                    stats::windowed_percentile(&client_ns, P99_WINDOW, 99, 100),
                    true,
                ),
                quiet(shares, false),
            )
        }
        // A pipelining client sees how fast its window is accepted:
        // ns per request over each block of 256 submits, a round's
        // ~3 900 blocks being one window. (The sojourn behind them is a
        // queue-depth regime — 6 us when the worker keeps up, 200 us
        // when it does not — that flips between rounds, and a single
        // submit's p99 sits on the cliff between the mutex fast path,
        // 1.3 us at p95, and a futex wait, 9 us at p99.5.) The limit
        // still counts completions, so a lost request misses it.
        Shape::Pipe => {
            client_ns.sort_unstable();
            (
                stats::percentile(&client_ns, 1, 2) as f64,
                stats::percentile(&client_ns, 99, 100) as f64,
                cum[shape.limit_octave()].min(n) as f64 / n as f64,
            )
        }
        // The blocking caller's own round trips, exactly.
        Shape::Call => {
            let tenth = size.ops / 10;
            let shares = client_ns
                .chunks_exact(tenth)
                .map(|w| w.iter().filter(|&&v| v <= limit).count() as f64 / tenth as f64)
                .collect();
            let p99 = quiet(stats::windowed_percentile(&client_ns, tenth, 99, 100), true);
            client_ns.sort_unstable();
            (
                stats::percentile(&client_ns, 1, 2) as f64,
                p99,
                quiet(shares, false),
            )
        }
    };

    let mut out = Round {
        measured_s: wall.as_secs_f64(),
        attempted: n,
        failed,
        samples: client_ns.len() as u64,
        primary: match shape {
            Shape::Pipe => wall.as_nanos() as f64 / n as f64,
            _ => p50,
        },
        end_to_end: vec![
            ("setup_s", setup_s),
            ("throughput_ops_s", n as f64 / wall.as_secs_f64()),
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

    // The inline replay: the identical request sequence on a fresh
    // registry with the same policy, on this thread. Per-key FIFO makes
    // the replayed per-key state sequence equal the served one, so its
    // spans are the object-side cost of the very requests served above.
    let registry: Registry<u64> = Registry::with_policy(size.keyspace as usize, workers, policy);
    for &op in &warm {
        let lane = svc.route_of(op.key as u64);
        black_box(apply(registry.get_or_insert(&(op.key as u64)), lane, op));
    }
    let replay_allocs_before = alloc::count();
    let replay_started = Instant::now();
    let mut children = Vec::with_capacity(size.ops / stride + 1);
    for (i, &op) in ops.iter().enumerate() {
        let key = op.key as u64;
        let lane = svc.route_of(key);
        if i % stride == 0 {
            let parent = (i / stride) as u64 + 1;
            let resident = registry.len();
            let t0 = spans.now();
            let obj = registry.get_or_insert(&key);
            let t1 = spans.now();
            black_box(apply(obj, lane, op));
            let t2 = spans.now();
            let first_touch = u32::from(registry.len() > resident);
            spans.push(parent, Name::RegistryLookup, t0, t1, first_touch);
            spans.push(
                parent,
                Name::ObjectOp,
                t1,
                t2,
                spans::op_tag(op.key, op.kind),
            );
            children.push((t2 - t0) as f64);
        } else {
            black_box(apply(registry.get_or_insert(&key), lane, op));
        }
    }
    let replay_ns = replay_started.elapsed().as_nanos() as f64;
    let allocs_replayed = alloc::count() - replay_allocs_before;

    let mut layer = probes::span_metrics(spans.spans());
    let request_ns = spans
        .spans()
        .iter()
        .filter(|s| s.name == Name::Request)
        .map(|s| s.duration())
        .collect();
    let submit_ns = stats::median_ns(request_ns).unwrap_or(0.0);
    let handoff_ns = match shape {
        // The caller sees the whole round trip, so the request span's
        // self time is the hand-off.
        Shape::Call => stats::median_ns(spans::root_self_times(spans.spans())).unwrap_or(0.0),
        // Fire-and-forget: the generator cannot see a completion, so
        // the request side is the service's own sojourn median.
        Shape::Open | Shape::Pipe => {
            (stats::interpolated_quantile(&cum, 0.50) - stats::median(&children)).max(0.0)
        }
    };
    let allocs_per_request = allocs_served.saturating_sub(allocs_replayed) as f64 / n as f64;
    layer.extend([
        ("dispatch.handoff_ns", handoff_ns),
        (
            "dispatch.idle_arrival_share",
            probe.idle_arrivals as f64 / probe.probed.max(1) as f64,
        ),
        ("dispatch.backlog_peak", probe.backlog_peak as f64),
        ("dispatch.drain_ns", drain_ns),
        ("dispatch.route_ns", probes::route_ns(&svc, size.keyspace)),
        ("registry.keys", svc.registry().len() as f64),
        (
            "bignum.hot_key_count",
            svc.registry().get(&0).map_or(0, |o| o.read_count()) as f64,
        ),
        ("loadgen.offered_rps", n as f64 / generated.as_secs_f64()),
    ]);
    match shape {
        Shape::Call => layer.push(("dispatch.allocs_per_call", allocs_per_request)),
        Shape::Open | Shape::Pipe => {
            layer.extend([
                ("dispatch.submit_ns", submit_ns),
                ("dispatch.allocs_per_submit", allocs_per_request),
                ("dispatch.sojourn_p99_ns", hist.p99() as f64),
                ("dispatch.sojourn_max_ns", hist.max() as f64),
            ]);
        }
    }
    match shape {
        Shape::Open => layer.push(("loadgen.late_share", late as f64 / n as f64)),
        Shape::Pipe => layer.extend([
            (
                "dispatch.job_overhead_ns",
                (wall.as_nanos() as f64 - replay_ns) / n as f64,
            ),
            ("dispatch.window_stall_share", stalled as f64 / n as f64),
        ]),
        Shape::Call => {}
    }
    out.per_layer = layer;
    out.trace = Some((
        spans,
        vec![format!(
            "{{\"summary\":\"round {round}\",\"dispatch.handoff_ns\":{handoff_ns},\"request_p50_ns\":{submit_ns},\"lat_p50_ns\":{p50},\"traced_every\":{stride}}}"
        )],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_checks_a_sequential_caller_and_audits_the_registry() {
        let zipf = Zipf::new(64);
        let ops = gen::ops(3, 4_000, &zipf, gen::R90);
        let registry: Registry<u64> = Registry::with_policy(64, 1, policy);
        let mut model = Model::new(64);
        for &op in &ops {
            let obj = registry.get_or_insert(&(op.key as u64));
            let resp = match op.kind {
                Kind::Inc | Kind::WriteMax | Kind::Update => {
                    apply(obj, 0, op);
                    Response::Ok
                }
                Kind::Scan => Response::View(obj.scan()),
                _ => Response::Value(apply(obj, 0, op)),
            };
            assert!(model.check(op, &resp), "{op:?} -> {resp:?}");
        }
        assert_eq!(model.audit(&registry), 0);
        // A lost increment and a value never written are both caught.
        let hot = Op {
            key: 0,
            kind: Kind::Inc,
            arg: 0,
        };
        model.apply(hot);
        assert_eq!(model.audit(&registry), 1);
        let read = Op {
            key: 0,
            kind: Kind::ReadMax,
            arg: 0,
        };
        assert!(!model.check(read, &Response::Value(9_999)));
    }

    #[test]
    fn stride_caps_traced_requests_per_round() {
        assert_eq!(trace_stride(1_000), 1);
        assert_eq!(trace_stride(100_000), 7);
        assert!(1_000_000 / trace_stride(1_000_000) <= TRACED_PER_ROUND);
    }
}
