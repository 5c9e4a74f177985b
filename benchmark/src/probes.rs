//! Per-layer numbers for the traced run, all timed from outside: read
//! off the recorded spans, or taken by calling a layer's public
//! functions in a tight loop.

use std::hint::black_box;
use std::time::Instant;

use sl2::bignum::{BigNat, WideFaa};
use sl2::obs::Histogram;
use sl2::service::Service;

use crate::gen::{self, Kind, Rng, Zipf};
use crate::report::layer_name;
use crate::spans::{Name, Span, BACKENDS};
use crate::stats;

const CALLS: u32 = 1 << 16;

/// Mean ns of one call of `f` over `CALLS` back-to-back calls.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..CALLS {
        f();
    }
    started.elapsed().as_nanos() as f64 / CALLS as f64
}

/// `registry.*` and the per-backend object metrics, read off the
/// `registry.lookup` and `object.op` spans. A cell with no span (an op
/// kind the workload's mix does not draw) is left out.
pub fn span_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let lookups = |first_touch: u32| {
        stats::median_ns(
            spans
                .iter()
                .filter(|s| s.name == Name::RegistryLookup && s.tag == first_touch)
                .map(Span::duration)
                .collect(),
        )
    };
    out.extend(lookups(0).map(|v| ("registry.hit_ns", v)));
    out.extend(lookups(1).map(|v| ("registry.insert_ns", v)));
    for (b, backend) in BACKENDS.iter().enumerate() {
        let of_backend = |s: &&Span| s.name == Name::ObjectOp && s.tag as usize / 8 == b;
        for kind in Kind::ALL {
            let cached = matches!(kind, Kind::ReadMaxCached | Kind::ReadCountCached);
            // Only the combining backend has a cached path of its own;
            // `update`/`scan` are 3% of one mix and carry no metric.
            if matches!(kind, Kind::Update | Kind::Scan) || (cached && *backend != "combine") {
                continue;
            }
            let cell = spans
                .iter()
                .filter(of_backend)
                .filter(|s| s.tag % 8 == kind as u32)
                .map(Span::duration)
                .collect();
            if let Some(v) = stats::median_ns(cell) {
                out.push((layer_name(&format!("{backend}.{}_ns", kind.name())), v));
            }
        }
        let mut all: Vec<u64> = spans
            .iter()
            .filter(of_backend)
            .map(Span::duration)
            .collect();
        if !all.is_empty() {
            all.sort_unstable();
            out.push((
                layer_name(&format!("{backend}.op_p99_ns")),
                stats::percentile(&all, 99, 100) as f64,
            ));
        }
    }
    out
}

/// `Service::route_of`, per call.
pub fn route_ns(svc: &Service, keyspace: u32) -> f64 {
    let mut key = 0u64;
    per_call_ns(|| {
        key = (key + 1) % keyspace as u64;
        black_box(svc.route_of(black_box(key)));
    })
}

/// The probes that need no workload state: one clock pair, key
/// generation, `Histogram::record`, and `WideFaa` in both regimes.
pub fn standalone(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // One `Instant::now()` pair: what every span median includes.
    let pairs: Vec<u64> = (0..4096)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as u64
        })
        .collect();
    out.push(("loadgen.clock_ns", stats::median_ns(pairs).unwrap_or(0.0)));

    let zipf = Zipf::new(1 << 16);
    let started = Instant::now();
    black_box(gen::ops(seed, CALLS as usize, &zipf, gen::W70));
    out.push((
        "loadgen.keygen_ns",
        started.elapsed().as_nanos() as f64 / CALLS as f64,
    ));

    // `Histogram::record`, which every tracked job pays under a mutex.
    let mut rng = Rng::new(seed);
    let values: Vec<u64> = (0..CALLS).map(|_| rng.below(1 << 20)).collect();
    let mut hist = Histogram::new();
    let mut next = values.iter().cycle();
    let record_ns = per_call_ns(|| black_box(&mut hist).record(*next.next().unwrap_or(&0)));
    out.push(("obs.hist_record_ns", record_ns));
    black_box(hist.count());

    // `WideFaa` below 2^127 (lock-free inline) and at 16 384 bits (the
    // heap regime the zipf head's unary counters live in). The read is
    // the unary decode the counters do: a population count.
    // The heap delta is a high unary bit, as a hot counter's `inc` adds.
    let regimes = [
        (
            WideFaa::new(),
            BigNat::from(1u64),
            "bignum.faa_inline_ns",
            "bignum.read_inline_ns",
        ),
        (
            WideFaa::with_value(BigNat::pow2(16_384)),
            BigNat::pow2(16_000),
            "bignum.faa_heap_ns",
            "bignum.read_heap_ns",
        ),
    ];
    for (reg, delta, faa, read) in regimes {
        out.push((faa, per_call_ns(|| reg.add(black_box(&delta)))));
        out.push((
            read,
            per_call_ns(|| {
                black_box(reg.read_with(|v| v.count_ones()));
            }),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{op_tag, SpanBuf};

    #[test]
    fn span_metrics_read_medians_per_backend_and_op() {
        let mut buf = SpanBuf::with_capacity(16);
        for (i, d) in [10u64, 30, 20].into_iter().enumerate() {
            let root = buf.push(0, Name::Request, 0, 100, 0);
            buf.push(
                root,
                Name::RegistryLookup,
                0,
                5 + i as u64,
                u32::from(i == 0),
            );
            // Key 3 is `core`, key 5 is `combine`.
            buf.push(root, Name::ObjectOp, 0, d, op_tag(3, Kind::Inc));
            buf.push(
                root,
                Name::ObjectOp,
                0,
                2 * d,
                op_tag(5, Kind::ReadMaxCached),
            );
        }
        let m: std::collections::BTreeMap<_, _> = span_metrics(buf.spans()).into_iter().collect();
        assert_eq!(m["core.inc_ns"], 20.0);
        assert_eq!(m["core.op_p99_ns"], 30.0);
        assert_eq!(m["combine.read_max_cached_ns"], 40.0);
        assert_eq!(m["registry.insert_ns"], 5.0);
        assert_eq!(m["registry.hit_ns"], 6.0);
        assert!(!m.contains_key("sharded.inc_ns"), "no span, no metric");
    }

    #[test]
    fn standalone_probes_name_only_per_layer_metrics() {
        for (name, value) in standalone(1) {
            assert_eq!(layer_name(name), name);
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        }
    }
}
