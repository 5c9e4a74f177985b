//! The benchmark's vocabulary — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics — and the two output
//! forms: human rows that carry their conditions, and the one-line
//! result the driver reads.
//!
//! `BENCHMARK.json` at the repo root is `manifest_json()` verbatim; a
//! unit test holds the two together.

use std::collections::BTreeMap;

/// A workload and the reason it exists (one line; `benchmark/README.md`
/// has the long form).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "svc-open-50k",
        "open loop, Poisson 50k req/s, mix w70: the worker is ~5% busy, so a request pays enqueue, worker wake and execute; the object op is ~2% of the sojourn, dispatch the rest",
    ),
    (
        "svc-pipe-256",
        "closed loop, 256 in flight, cheap mix, 4096 keys: dispatch as queue push/pop, per-job stamp, histogram mutex and counters rather than wake-ups; the highest sustainable rate",
    ),
    (
        "svc-call",
        "closed loop, depth 1, blocking Service::call, mix r90: per-call completion cell and two wake-ups, and the objects' read side; every response checked",
    ),
    (
        "obj-direct",
        "no Service: nproc threads straight onto Registry and KeyObject, mix w70: registry, core, sharded, combine and bignum do all the work, dispatch none",
    ),
    (
        "checker",
        "exec only, one thread: the 64-record corpus memo-on, memo-off minus three records, and seeded KeyedDispatchAlg histories through is_linearizable, half with a planted bug",
    ),
];

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Bounds are sized from spreads measured on the 2-vCPU container
/// (README, "Observed spreads"): pinned single-thread compute there is
/// bimodal by ~20% over seconds, so run-to-run inter-quartile ranges of
/// 4-14% are the floor for anything CPU-bound, and a tighter bound
/// would reject changes for the neighbour's behaviour.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_ns",
        unit: "ns",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_ns",
        unit: "ns",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "within_limit_share",
        unit: "share",
        lower_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "verdict_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.10,
    },
];

/// A per-layer metric: `layer.name`, with the direction an optimisation
/// of that layer should push it. No bound — these locate a change, they
/// do not gate it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: false,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // dispatch: crates/service/src/dispatch.rs
    lower("dispatch.submit_ns", "ns"),
    lower("dispatch.handoff_ns", "ns"),
    lower("dispatch.idle_arrival_share", "share"),
    lower("dispatch.job_overhead_ns", "ns"),
    lower("dispatch.window_stall_share", "share"),
    lower("dispatch.backlog_peak", "count"),
    lower("dispatch.drain_ns", "ns"),
    lower("dispatch.route_ns", "ns"),
    lower("dispatch.allocs_per_call", "count"),
    lower("dispatch.allocs_per_submit", "count"),
    lower("dispatch.sojourn_p99_ns", "ns"),
    lower("dispatch.sojourn_max_ns", "ns"),
    // registry
    lower("registry.hit_ns", "ns"),
    lower("registry.insert_ns", "ns"),
    lower("registry.keys", "count"),
    // objects, one set per backend crate
    lower("core.inc_ns", "ns"),
    lower("core.write_max_ns", "ns"),
    lower("core.read_max_ns", "ns"),
    lower("core.read_count_ns", "ns"),
    lower("core.op_p99_ns", "ns"),
    lower("sharded.inc_ns", "ns"),
    lower("sharded.write_max_ns", "ns"),
    lower("sharded.read_max_ns", "ns"),
    lower("sharded.read_count_ns", "ns"),
    lower("sharded.op_p99_ns", "ns"),
    lower("combine.inc_ns", "ns"),
    lower("combine.write_max_ns", "ns"),
    lower("combine.read_max_ns", "ns"),
    lower("combine.read_count_ns", "ns"),
    lower("combine.op_p99_ns", "ns"),
    lower("combine.read_max_cached_ns", "ns"),
    lower("combine.read_count_cached_ns", "ns"),
    // bignum
    lower("bignum.faa_inline_ns", "ns"),
    lower("bignum.read_inline_ns", "ns"),
    lower("bignum.faa_heap_ns", "ns"),
    lower("bignum.read_heap_ns", "ns"),
    lower("bignum.hot_key_count", "count"),
    // obs
    lower("obs.hist_record_ns", "ns"),
    // exec
    lower("exec.dag_nodes", "count"),
    lower("exec.tree_nodes", "count"),
    lower("exec.max_depth", "count"),
    higher("exec.lin_histories", "count"),
    higher("exec.lin_ops_max", "count"),
    lower("exec.dag_s", "s"),
    lower("exec.tree_s", "s"),
    lower("exec.lin_s", "s"),
    higher("exec.tree_nodes_per_s", "1/s"),
    higher("exec.memo_hit_rate", "share"),
    // loadgen: the benchmark itself
    lower("loadgen.late_share", "share"),
    higher("loadgen.offered_rps", "1/s"),
    lower("loadgen.keygen_ns", "ns"),
    lower("loadgen.clock_ns", "ns"),
    lower("loadgen.trace_overhead_share", "share"),
];

/// The static name in `PER_LAYER` equal to `name` (metrics assembled
/// from a backend and an op name go through here, so a typo is a panic
/// in the first traced run, not a silently missing row).
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .name
}

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const RUN_SECONDS: u64 = 15;

fn better(lower_is_better: bool) -> &'static str {
    if lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.lower_is_better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.lower_is_better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The conditions a number was taken under; printed on every row.
#[derive(Debug, Clone)]
pub struct Conditions {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub nproc: usize,
    pub workers: usize,
    pub pinned: bool,
    pub rustc: String,
    pub profile: &'static str,
    pub revision: String,
}

impl Conditions {
    fn suffix(&self) -> String {
        format!(
            "nproc={} workers={} pinned={} seed={} traced={} rustc={} profile={} rev={}",
            self.nproc,
            self.workers,
            self.pinned,
            self.seed,
            self.traced,
            self.rustc,
            self.profile,
            self.revision
        )
    }
}

/// One run's numbers: metric name to `(value, samples)`, in table
/// order when printed.
pub type Values = BTreeMap<&'static str, (f64, u64)>;

/// Prints one human row per metric of the table (`-` where this
/// workload does not exercise the metric), each with its unit, sample
/// count and the run's conditions.
pub fn print_rows(cond: &Conditions, table: &[(&'static str, &'static str)], values: &Values) {
    for &(name, unit) in table {
        match values.get(name) {
            Some(&(value, samples)) => println!(
                "{} {name} {} {unit} samples={samples} {}",
                cond.workload,
                number(value),
                cond.suffix()
            ),
            None => println!(
                "{} {name} - {unit} samples=0 {}",
                cond.workload,
                cond.suffix()
            ),
        }
    }
}

/// A value with all its digits, in a form JSON accepts.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite numbers");
    format!("{v}")
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every metric of the table present (0 where this
/// workload does not exercise a per-layer metric).
pub fn result_line(
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).map_or(0.0, |v| v.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest_this_binary_prints() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn vocabulary_meets_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert_eq!(PER_LAYER.len(), 53);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut values = Values::new();
        values.insert("setup_s", (0.8127, 5));
        let line = result_line(1000, 0, &end_to_end_table(), &values);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", m.name)), "{}", m.name);
        }
        let line = result_line(7, 2, &per_layer_table(), &Values::new());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 2,"));
        for m in PER_LAYER {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 0,", m.name)));
        }
    }
}
