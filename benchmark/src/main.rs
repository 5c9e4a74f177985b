//! The repo's one benchmark: five workloads, each in a fresh process,
//! every number timed from outside the crates under test.
//!
//! ```text
//! sl2_benchmark                      every workload, untraced then traced
//! sl2_benchmark --workload W --seed N --seconds S --trace 0|1|DIR
//! sl2_benchmark aa [--runs N]        two sets of runs, spread against bound
//! sl2_benchmark manifest             the contents of BENCHMARK.json
//! ```
//!
//! A run is a sequence of equal, fixed-size rounds on fresh state,
//! repeated until `--seconds` of measured time have passed; a reported
//! number is the round an eighth of the way in from the run's best
//! (`stats::best_round` says why not the median).
//! `--trace` alternates traced and untraced rounds in one process,
//! reports the per-layer metrics from the traced ones, and writes
//! round 0's spans. `benchmark/README.md` explains the workloads and
//! the metrics.

mod alloc;
mod checker;
mod direct;
mod gen;
mod pin;
mod probes;
mod report;
mod service;
mod spans;
mod stats;

use std::io::BufWriter;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pin::Placement;
use report::{Conditions, Values, END_TO_END, PER_LAYER, WORKLOADS};
use service::Shape;
use spans::SpanBuf;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What every round of a run shares.
pub struct Ctx {
    pub seed: u64,
    pub place: Placement,
    pub pinned: bool,
    /// Process start, as near as `main` can see it.
    pub started: Instant,
}

impl Ctx {
    /// Set-up time of a round: from its start to its first measured op.
    /// Round 0 counts from process start instead, so argument parsing,
    /// placement and first-touch page faults are in it.
    pub fn setup_elapsed(&self, round: u64, round_started: Instant) -> f64 {
        let from = if round == 0 {
            self.started
        } else {
            round_started
        };
        from.elapsed().as_secs_f64()
    }
}

/// One round's outcome.
pub struct Round {
    /// Wall time of the measured pass; rounds repeat until these sum to
    /// `--seconds`.
    pub measured_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Samples behind this round's latency numbers.
    pub samples: u64,
    /// The number trace overhead compares (lower is better).
    pub primary: f64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Traced rounds only.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Traced rounds only: the spans, and summary lines for the file.
    pub trace: Option<(SpanBuf, Vec<String>)>,
}

/// Per-layer counts that are a function of the seed alone: reported
/// from round 0 (a median over a wall-clock-dependent number of rounds
/// would not repeat).
const EXACT_COUNTS: &[&str] = &[
    "registry.keys",
    "bignum.hot_key_count",
    "exec.dag_nodes",
    "exec.tree_nodes",
    "exec.max_depth",
    "exec.lin_histories",
    "exec.lin_ops_max",
];

/// Layers a workload exercises; a metric of any other layer is not
/// emitted for it, so the workloads separate the layers by construction.
fn layers_of(workload: &str) -> &'static [&'static str] {
    match workload {
        "obj-direct" => &[
            "registry", "core", "sharded", "combine", "bignum", "loadgen",
        ],
        "checker" => &["exec", "loadgen"],
        _ => &[
            "dispatch", "registry", "core", "sharded", "combine", "bignum", "obs", "loadgen",
        ],
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().replace(' ', "_"))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
) -> ExitCode {
    let started = Instant::now();
    let place = Placement::detect();
    // Generator on the first CPU, workers on the rest; both masks must
    // be accepted for the placement to count.
    let pinned = place.nproc() >= 2
        && pin::pin_current_thread(place.worker_set())
        && pin::pin_current_thread(place.generator());
    let shape = match workload {
        "svc-open-50k" => Some(Shape::Open),
        "svc-pipe-256" => Some(Shape::Pipe),
        "svc-call" => Some(Shape::Call),
        _ => None,
    };
    if shape.is_some() && !pinned {
        eprintln!(
            "{workload}: nproc={} pinned=false: generator and workers cannot be placed on \
             separate CPUs, and unpinned service latency is bimodal (2 us or 40 us by \
             scheduler luck); refusing to publish service numbers",
            place.nproc()
        );
        return ExitCode::from(2);
    }
    let workers = if shape.is_some() { place.workers } else { 0 };
    let ctx = Ctx {
        seed,
        place,
        pinned,
        started,
    };

    // Rounds. A traced run alternates traced (even) and untraced (odd)
    // rounds so one process yields both sides of the overhead ratio.
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut measured = 0.0;
    loop {
        let index = rounds.len() as u64;
        let traced = trace.is_some() && index.is_multiple_of(2);
        alloc::set_enabled(traced);
        let round = match shape {
            Some(shape) => service::round(&ctx, shape, index, traced),
            None if workload == "obj-direct" => direct::round(&ctx, index, traced),
            None => checker::round(&ctx, index, traced),
        };
        alloc::set_enabled(false);
        measured += round.measured_s;
        rounds.push((traced, round));
        if measured >= seconds && (trace.is_none() || rounds.len() >= 2) {
            break;
        }
    }

    let attempted: u64 = rounds.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    let column = |traced: bool, pick: &dyn Fn(&Round) -> Option<f64>| -> Vec<f64> {
        rounds
            .iter()
            .filter(|(t, _)| *t == traced)
            .filter_map(|(_, r)| pick(r))
            .collect()
    };
    let named = |list: &[(&'static str, f64)], name: &str| {
        list.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    };

    let mut values = Values::new();
    let table;
    if let Some(dir) = &trace {
        table = report::per_layer_table();
        let traced_rounds = rounds.iter().filter(|(t, _)| *t).count() as u64;
        for m in PER_LAYER {
            let col = column(true, &|r| named(&r.per_layer, m.name));
            if col.is_empty() {
                continue;
            }
            let value = if EXACT_COUNTS.contains(&m.name) {
                col[0]
            } else {
                stats::best_round(&col, m.lower_is_better)
            };
            values.insert(m.name, (value, col.len() as u64));
        }
        if workload != "checker" {
            for (name, value) in probes::standalone(seed) {
                values.insert(name, (value, 1));
            }
        }
        let traced_primary = stats::best_round(&column(true, &|r| Some(r.primary)), true);
        let untraced_primary = stats::best_round(&column(false, &|r| Some(r.primary)), true);
        values.insert(
            "loadgen.trace_overhead_share",
            (traced_primary / untraced_primary - 1.0, traced_rounds),
        );
        let layers = layers_of(workload);
        values.retain(|name, _| layers.contains(&name.split('.').next().unwrap_or("")));

        // Round 0's spans, with the numbers they reproduce.
        if let Some((
            _,
            Round {
                trace: Some((spans, trailer)),
                ..
            },
        )) = rounds.first()
        {
            let path = dir.join(format!("{workload}.spans.jsonl"));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|f| spans.write_jsonl(&mut BufWriter::new(f), trailer));
            match written {
                Ok(()) => println!(
                    "{workload} trace {} spans={}",
                    path.display(),
                    spans.spans().len()
                ),
                Err(e) => {
                    eprintln!("{workload}: cannot write {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            }
        }
    } else {
        table = report::end_to_end_table();
        let latency_samples: u64 = rounds.iter().map(|(_, r)| r.samples).sum();
        for m in END_TO_END {
            // One set-up and one audit a round; the rest rest on the
            // rounds' latency samples.
            let samples = match m.name {
                "setup_s" | "verdict_s" => rounds.len() as u64,
                _ => latency_samples,
            };
            let col = column(false, &|r| named(&r.end_to_end, m.name));
            let value = stats::best_round(&col, m.lower_is_better);
            if !col.is_empty() {
                values.insert(m.name, (value, samples));
            }
        }
        values.insert("peak_rss_mb", (peak_rss_mb(), 1));
    }

    // Asked for after the rounds, so two tool start-ups stay out of
    // round 0's set-up time.
    let cond = Conditions {
        workload,
        seed,
        traced: trace.is_some(),
        nproc: ctx.place.nproc(),
        workers,
        pinned,
        rustc: tool_output("rustc", &["--version"]),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        revision: tool_output(
            "git",
            &[
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "rev-parse",
                "--short",
                "HEAD",
            ],
        ),
    };
    report::print_rows(&cond, &table, &values);
    println!(
        "{workload} failed_share {} share samples={attempted} rounds={}",
        failed as f64 / attempted.max(1) as f64,
        rounds.len()
    );
    println!(
        "{}",
        report::result_line(attempted, failed, &table, &values)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{workload}: {failed} of {attempted} ops failed their audit");
        ExitCode::from(1)
    }
}

/// Re-runs this binary on one workload in a fresh process (so thread
/// placement and allocator state never leak between workloads) and
/// returns its standard output, or `None` if it failed.
fn child(workload: &str, seed: u64, seconds: f64, trace: &str, echo: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn self");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if echo {
        print!("{text}");
    }
    out.status.success().then_some(text)
}

/// `"name": {"value": X` in a result line this binary printed.
fn value_in(result: &str, name: &str) -> Option<f64> {
    let tail = result.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            ok &= child(workload, seed, seconds, trace, true).is_some();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed its audit or refused to run");
        ExitCode::from(1)
    }
}

/// Two sets of `runs` runs of every workload on the same build: per
/// end-to-end metric both medians, both inter-quartile ranges as a
/// share of the median, the shift of the second median in the worse
/// direction, the bound, and PASS/FAIL.
fn run_aa(runs: u64, seconds: f64) -> ExitCode {
    assert!(runs >= 2, "aa needs at least two runs per set");
    let mut sets: Vec<Vec<Vec<String>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for (workload, _) in WORKLOADS {
            let mut results = Vec::new();
            for seed in 1..=runs {
                eprintln!("aa: set {} {workload} seed {seed}", ["A", "B"][set]);
                match child(workload, seed, seconds, "0", false) {
                    Some(text) => results.push(text.lines().last().unwrap_or("").to_string()),
                    None => return ExitCode::from(1),
                }
            }
            per_workload.push(results);
        }
        sets.push(per_workload);
    }
    println!("workload metric median_a iqr_a median_b iqr_b shift bound verdict");
    let mut ok = true;
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let side = |set: usize| {
                let v: Vec<f64> = sets[set][w]
                    .iter()
                    .filter_map(|line| value_in(line, m.name))
                    .collect();
                let (q1, q3) = stats::quartiles(&v);
                let median = stats::median(&v);
                (median, (q3 - q1) / median)
            };
            let ((med_a, iqr_a), (med_b, iqr_b)) = (side(0), side(1));
            let worse = if m.lower_is_better {
                med_b / med_a - 1.0
            } else {
                1.0 - med_b / med_a
            };
            // Set-up time is exempt from the spread rule, not from the
            // shift rule.
            let steady = m.name == "setup_s" || (iqr_a <= m.bound && iqr_b <= m.bound);
            let pass = steady && worse <= m.bound;
            ok &= pass;
            println!(
                "{workload} {} {med_a:.6} {:.2}% {med_b:.6} {:.2}% {:+.2}% {:.0}% {}",
                m.name,
                100.0 * iqr_a,
                100.0 * iqr_b,
                100.0 * worse,
                100.0 * m.bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: sl2_benchmark [aa|manifest] [--workload NAME] [--seed N] \
         [--seconds S] [--trace 0|1|DIR] [--runs N]\nworkloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(64)
}

fn main() -> ExitCode {
    let mut mode = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = report::RUN_SECONDS as f64;
    let mut trace = None;
    let mut runs = 5u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "aa" | "manifest" => mode = Some(arg),
            "--workload" => {
                let name = value();
                match WORKLOADS.iter().find(|w| w.0 == name) {
                    Some(w) => workload = Some(w.0),
                    None => return usage(&format!("unknown workload {name:?}")),
                }
            }
            "--seed" => match value().parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => seconds = v,
                _ => return usage("--seconds takes a number in (0, 600]"),
            },
            "--runs" => match value().parse() {
                Ok(v) if (2..=100).contains(&v) => runs = v,
                _ => return usage("--runs takes a whole number in 2..=100"),
            },
            "--trace" => {
                trace = match value().as_str() {
                    "0" => None,
                    // Inside the checkout, and ignored by git.
                    "1" => Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("trace-out")),
                    "" => return usage("--trace takes 0, 1 or a directory"),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    match (mode.as_deref(), workload) {
        (Some("manifest"), _) => {
            print!("{}", report::manifest_json());
            ExitCode::SUCCESS
        }
        (Some("aa"), _) => run_aa(runs, seconds),
        (_, Some(workload)) => run_workload(workload, seed, seconds, trace),
        (_, None) => run_all(seed, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_values_parse_back() {
        let mut values = Values::new();
        values.insert("setup_s", (0.8127, 1));
        values.insert("lat_p50_ns", (19_250.5, 1));
        let line = report::result_line(10, 0, &report::end_to_end_table(), &values);
        assert_eq!(value_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(value_in(&line, "lat_p50_ns"), Some(19_250.5));
        assert_eq!(value_in(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(value_in(&line, "no_such_metric"), None);
    }

    #[test]
    fn every_layer_a_workload_lists_has_metrics_and_obj_direct_has_no_dispatch() {
        for (workload, _) in WORKLOADS {
            for layer in layers_of(workload) {
                assert!(
                    PER_LAYER
                        .iter()
                        .any(|m| m.name.split('.').next() == Some(layer)),
                    "{workload}: {layer}"
                );
            }
        }
        assert!(!layers_of("obj-direct").contains(&"dispatch"));
        assert!(!layers_of("checker").contains(&"dispatch"));
        for name in EXACT_COUNTS {
            assert_eq!(report::layer_name(name), *name);
        }
    }
}
