//! Guards the build-system wiring itself: the example, integration-test,
//! workspace-member and vendored-shim sets are pinned, so a file added or
//! dropped without updating the README and CI fails here instead of
//! rotting, the feature-gated instrumentation layers must stay gated, and
//! every step-machine twin must have a pinned record.
//!
//! Cargo auto-discovers both examples and test suites, so it is enough
//! to pin the expected sets against what is on disk. Performance is
//! judged by one referee, `BENCHMARK.json` plus `benchmark/`: CI must
//! audit every workload it declares and leave it byte-identical, and
//! nothing outside the historical records may point back at the bench
//! stack it replaced.

use std::collections::BTreeSet;
use std::path::Path;

/// The seven runnable examples the README promises.
const EXPECTED_EXAMPLES: &[&str] = &[
    "figure1",
    "quickstart",
    "randomized_coin",
    "relaxed_queue",
    "set_agreement",
    "universal_of",
    "work_queue",
];

/// The root integration-test suites, as wired into CI. Cargo
/// auto-discovers these, so a stray file still *compiles* — what rots
/// is the CI wiring around the special ones: `chaos_stress` and `trace`
/// are empty without `--features armed`, and `corpus` / `recorder` only emit
/// their JSON artifacts when CI exports the matching env var.
const EXPECTED_TESTS: &[&str] = &[
    "agreement_e2e",
    "alloc_counter",
    "chaos_stress",
    "checker_props",
    "combine_stress",
    "corpus",
    "figure1",
    "non_sl_witnesses",
    "obs",
    "recorder",
    "service_stress",
    "sharded_stress",
    "sweeps",
    "target_coverage",
    "towers",
    "trace",
];

/// The root manifest's `[workspace] members`: the twelve crates and the
/// three vendored shims. The benchmark is a package of its own.
const EXPECTED_MEMBERS: &[&str] = &[
    "crates/agreement",
    "crates/bignum",
    "crates/chaos",
    "crates/combine",
    "crates/core",
    "crates/exec",
    "crates/obs",
    "crates/primitives",
    "crates/service",
    "crates/sharded",
    "crates/spec",
    "crates/trace",
    "vendor/parking_lot",
    "vendor/proptest",
    "vendor/rand",
];

/// The offline shims under `vendor/`, one per external crate the tree
/// uses (the root manifest's header names the same three).
const EXPECTED_VENDOR: &[&str] = &["parking_lot", "proptest", "rand"];

/// The workloads `BENCHMARK.json` declares, each of which CI audits.
const EXPECTED_WORKLOADS: &[&str] = &[
    "svc-open-50k",
    "svc-pipe-256",
    "svc-call",
    "obj-direct",
    "checker",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read_repo_file(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel))
        .unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

/// Every file under `dir` (recursively) whose extension is in `exts`.
fn files_with_extensions(dir: &Path, exts: &[&str], out: &mut Vec<std::path::PathBuf>) {
    for entry in
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
    {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files_with_extensions(&path, exts, out);
        } else if path
            .extension()
            .is_some_and(|ext| exts.iter().any(|e| ext == *e))
        {
            out.push(path);
        }
    }
}

fn rust_file_stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .map(|p| {
            p.file_stem()
                .expect("rs file has a stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn all_seven_examples_exist_on_disk() {
    let found = rust_file_stems(&repo_root().join("examples"));
    let expected: BTreeSet<String> = EXPECTED_EXAMPLES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "examples/ drifted from the documented set; update EXPECTED_EXAMPLES, \
         the README, and CI together"
    );
}

#[test]
fn ci_runs_every_example() {
    // One step per example (`run: cargo run --release --example NAME`)
    // or the `for e in …` loop over the rest.
    let ci = read_repo_file(".github/workflows/ci.yml");
    let mut run = BTreeSet::new();
    for line in ci.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("for e in ") {
            run.extend(rest.split(';').next().unwrap_or("").split_whitespace());
        } else if let Some(name) = line.strip_prefix("run: cargo run --release --example ") {
            run.insert(name.trim());
        }
    }
    assert!(
        ci.contains("cargo run --release --example \"$e\" || exit 1"),
        "CI's example loop must run each example and fail on its exit code"
    );
    let expected: BTreeSet<&str> = EXPECTED_EXAMPLES.iter().copied().collect();
    assert_eq!(
        run, expected,
        "CI must run every example the README promises"
    );
}

#[test]
fn integration_test_suites_match_the_documented_set() {
    let found = rust_file_stems(&repo_root().join("tests"));
    let expected: BTreeSet<String> = EXPECTED_TESTS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "tests/ drifted from the documented set; update EXPECTED_TESTS and the \
         CI workflow together"
    );
}

/// The feature names a manifest's `[features]` table declares, or
/// `None` if it has no such table.
fn declared_features(manifest: &str) -> Option<BTreeSet<String>> {
    let mut lines = manifest
        .lines()
        .skip_while(|line| line.trim() != "[features]");
    lines.next()?;
    Some(
        lines
            .take_while(|line| !line.starts_with('['))
            .filter(|line| line.starts_with(|c: char| c.is_ascii_alphabetic()))
            .filter_map(|line| line.split_once('='))
            .map(|(name, _)| name.trim().to_string())
            .collect(),
    )
}

#[test]
fn instrumentation_arms_through_one_feature() {
    // chaos, obs and trace arm together under the root's `armed`, which
    // turns on one feature in each of the three leaf crates; Cargo's
    // feature unification arms every call site above them. A forwarding
    // feature in a middle crate would bring back configurations CI does
    // not run, so only these manifests may declare features at all.
    let set =
        |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
    let allowed = [
        ("", set(&["force_spinlock", "armed"])),
        ("crates/bignum", set(&["force_spinlock"])),
        ("crates/chaos", set(&["chaos"])),
        ("crates/obs", set(&["obs"])),
        ("crates/trace", set(&["trace"])),
    ];
    for member in std::iter::once("").chain(EXPECTED_MEMBERS.iter().copied()) {
        let path = Path::new(member).join("Cargo.toml");
        let found = declared_features(&read_repo_file(&path.to_string_lossy()));
        let expected = allowed
            .iter()
            .find(|(m, _)| *m == member)
            .map(|(_, f)| f.clone());
        assert_eq!(
            found,
            expected,
            "{} declares the wrong features; arm instrumentation through the \
             root's `armed` only",
            path.display()
        );
    }

    // CI runs every root configuration, each over the whole workspace:
    // a root-only `cargo test` skips the armed crates' own unit tests.
    let ci = read_repo_file(".github/workflows/ci.yml");
    let configurations: BTreeSet<Vec<&str>> = ci
        .lines()
        .filter_map(|line| line.split_once("cargo test ").map(|(_, args)| args))
        .filter(|args| args.split_whitespace().any(|w| w == "--workspace"))
        .map(|args| {
            let features = args.split_once("--features ").map(|(_, rest)| rest);
            let mut features: Vec<&str> = features
                .and_then(|rest| rest.split_whitespace().next())
                .map_or(vec![], |f| f.split(',').collect());
            features.sort_unstable();
            features
        })
        .collect();
    for expected in [
        vec![],
        vec!["force_spinlock"],
        vec!["armed"],
        vec!["armed", "force_spinlock"],
    ] {
        assert!(
            configurations.contains(&expected),
            "CI runs no `cargo test --workspace` with features {expected:?}"
        );
    }
}

/// Panics unless `file` still contains every one of `needles`.
fn assert_keeps(file: &str, needles: &[&str]) {
    let src = read_repo_file(file);
    for needle in needles {
        assert!(src.contains(needle), "{file} lost `{needle}`");
    }
}

#[test]
fn obs_probe_layer_stays_feature_gated() {
    // The armed registry compiles only under `armed`, and the disarmed
    // stubs stay empty `#[inline(always)]` bodies and ZSTs — that pair
    // is what licenses probes in the §3 hot paths (DESIGN.md §11).
    assert_keeps(
        "crates/obs/src/lib.rs",
        &[
            "#[cfg(feature = \"obs\")]\nmod armed;",
            "pub fn count(_label: &'static str) {}",
            "pub struct Timer(());",
        ],
    );
}

#[test]
fn trace_layer_stays_feature_gated() {
    // The armed rings compile only under `armed`, the disarmed entry
    // points stay empty bodies (tests/alloc_counter.rs pins them
    // allocation-free), and the trace suite never runs in a default
    // build.
    assert_keeps(
        "crates/trace/src/lib.rs",
        &[
            "#[cfg(feature = \"trace\")]\nmod armed;",
            "pub fn event(_label: &'static str, _payload: u64) {}",
            "pub struct SpanGuard(());",
        ],
    );
    assert_keeps("tests/trace.rs", &["#![cfg(feature = \"armed\")]"]);
}

#[test]
fn chaos_suite_stays_feature_gated() {
    // The chaos adversaries never arm in a default build: the injection
    // engine compiles only under `armed`, `point` stays an empty stub,
    // and the whole suite hangs off the same feature. Without the suite
    // gate, a default run would lean on chaos points compiled to no-ops,
    // and every injection would silently do nothing.
    assert_keeps(
        "crates/chaos/src/lib.rs",
        &[
            "#[cfg(feature = \"chaos\")]\nmod active",
            "pub fn point(_label: &'static str) {}",
        ],
    );
    assert_keeps("tests/chaos_stress.rs", &["#![cfg(feature = \"armed\")]"]);
}

#[test]
fn workspace_members_match_the_documented_set() {
    let manifest = read_repo_file("Cargo.toml");
    let start = manifest
        .find("members = [")
        .expect("root Cargo.toml lists workspace members");
    let block = &manifest[start..];
    let block = &block[..block.find(']').expect("members list is closed")];
    let found: BTreeSet<String> = block
        .lines()
        .skip(1)
        .map(|line| line.trim().trim_end_matches(',').trim_matches('"'))
        .filter(|member| !member.is_empty())
        .map(str::to_string)
        .collect();
    let expected: BTreeSet<String> = EXPECTED_MEMBERS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "workspace members drifted from the documented set; update \
         EXPECTED_MEMBERS, the README crate map and the Cargo.toml layering \
         header together"
    );
}

#[test]
fn vendored_shims_match_the_documented_set() {
    let found: BTreeSet<String> = std::fs::read_dir(repo_root().join("vendor"))
        .expect("vendor/ readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| {
            p.file_name()
                .expect("dir has a name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let expected: BTreeSet<String> = EXPECTED_VENDOR.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, expected,
        "vendor/ drifted from the documented shims; update EXPECTED_VENDOR, \
         the README vendor paragraph and the Cargo.toml header together"
    );
}

#[test]
fn no_manifest_registers_bench_targets() {
    // `benchmark/` is the only performance harness, and it builds as a
    // package of its own; a `[[bench]]` block or bench profile in the
    // workspace would be a second, unrefereed one.
    let mut manifests = vec![repo_root().join("Cargo.toml")];
    for member in EXPECTED_MEMBERS {
        manifests.push(repo_root().join(member).join("Cargo.toml"));
    }
    for path in manifests {
        let manifest = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for section in ["[[bench]]", "[profile.bench]"] {
            assert!(
                !manifest.lines().any(|line| line.trim() == section),
                "{} declares {section}; performance claims go through benchmark/",
                path.display()
            );
        }
    }
}

#[test]
fn ci_audits_every_benchmark_workload_and_leaves_the_referee_untouched() {
    let manifest = read_repo_file("BENCHMARK.json");
    for workload in EXPECTED_WORKLOADS {
        assert!(
            manifest.contains(&format!("{{\"name\": \"{workload}\", \"why\"")),
            "BENCHMARK.json no longer declares the {workload} workload"
        );
    }
    assert_eq!(
        manifest.matches("\"why\":").count(),
        EXPECTED_WORKLOADS.len(),
        "BENCHMARK.json declares a workload EXPECTED_WORKLOADS does not name"
    );

    let ci = read_repo_file(".github/workflows/ci.yml");
    let audited: BTreeSet<&str> = ci
        .lines()
        .filter_map(|line| line.trim().strip_prefix("for w in "))
        .flat_map(|rest| rest.split(';').next().unwrap_or("").split_whitespace())
        .collect();
    let expected: BTreeSet<&str> = EXPECTED_WORKLOADS.iter().copied().collect();
    assert_eq!(
        audited, expected,
        "CI's benchmark audit loop must run every workload BENCHMARK.json declares"
    );
    assert!(
        ci.contains("git diff --exit-code -- benchmark BENCHMARK.json"),
        "CI must fail when a build rewrites the frozen benchmark (its Cargo.lock)"
    );
    let check = ci
        .lines()
        .find(|line| line.trim_start().starts_with("jq -s -e") && line.contains("TRAJECTORY.jsonl"))
        .expect("CI must check every line of TRAJECTORY.jsonl (slurped, `jq -s -e`)");
    for field in [
        "pr",
        "experiment",
        "parent",
        "workload",
        "conditions",
        "medians",
    ] {
        assert!(
            check.contains(&format!("has(\"{field}\")")),
            "CI's trajectory check must require `{field}` on every line"
        );
    }
    assert!(
        check.contains("all(.medians.parent, .medians.change;")
            && check.contains("type == \"number\""),
        "CI's trajectory check must require numeric parent and change medians"
    );
}

#[test]
fn nothing_points_back_at_the_retired_bench_stack() {
    // The per-target bench harness, its vendored shim, its gate and the
    // per-PR snapshot files were replaced by `benchmark/`. Only the
    // historical records (CHANGES.md, ROADMAP.md, EXPERIMENTS.md) and the
    // frozen benchmark itself may still name them. The needles are split
    // so this file does not match itself.
    let needles = [
        concat!("sl2_", "bench"),
        concat!("BENCH_", "PR"),
        concat!("SL2_", "BENCH"),
        concat!("crite", "rion"),
        concat!("cargo ", "bench"),
    ];
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor", ".github"] {
        files_with_extensions(&root.join(dir), &["rs", "toml", "md", "yml"], &mut files);
    }
    for file in ["Cargo.toml", "README.md", "DESIGN.md"] {
        files.push(root.join(file));
    }

    let mut hits = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (lineno, line) in text.lines().enumerate() {
            for needle in needles {
                // `sl2_benchmark`, the referee's binary, is not a hit.
                let hit = line.match_indices(needle).any(|(at, _)| {
                    !line[at + needle.len()..]
                        .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                });
                if hit {
                    let rel = path.strip_prefix(root).unwrap_or(path);
                    hits.push(format!("{}:{}: {needle}", rel.display(), lineno + 1));
                }
            }
        }
    }
    assert!(
        hits.is_empty(),
        "stale pointers to the retired bench stack; point them at benchmark/ or \
         the EXPERIMENTS.md row instead:\n{}",
        hits.join("\n")
    );
}

#[test]
fn shared_tables_are_defined_once() {
    // One label interner and one JSON escaper (`sl2_primitives::labeled`)
    // and one spec-state interner, the spec table both referees own. A
    // second copy drifts from the first.
    let mut files = Vec::new();
    files_with_extensions(&repo_root().join("crates"), &["rs"], &mut files);
    let read = |p| std::fs::read_to_string(p).expect("readable");
    let sources: Vec<String> = files.iter().map(read).collect();
    for needle in [
        "struct LabelTable",
        "fn json_escape(",
        "struct SpecTable",
        "fn intern(",
        "struct Lanes",
        "enum Target",
    ] {
        let defs: usize = sources.iter().map(|s| s.matches(needle).count()).sum();
        assert_eq!(defs, 1, "`{needle}` must be defined once under crates/");
    }
    // One lane codec (`sl2_bignum::Lanes`): the §3 production objects
    // build `Lanes`, never a bare `Layout` beside their own encoding.
    let mut production = Vec::new();
    for dir in ["crates/core/src/algos", "crates/sharded/src"] {
        files_with_extensions(&repo_root().join(dir), &["rs"], &mut production);
    }
    production.retain(|p| !p.ends_with("machines.rs"));
    for path in &production {
        let text = read(path);
        let named = text
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| word == "Layout");
        let rel = path.strip_prefix(repo_root()).unwrap_or(path);
        assert!(!named, "{} names `Layout`; build `Lanes`", rel.display());
    }
    // The strong checker reaches the spec only through that table.
    let strong = read_repo_file("crates/exec/src/strong.rs");
    for call in ["spec.accept(", "spec.step("] {
        assert!(!strong.contains(call), "strong.rs calls `{call}`");
    }
}

#[test]
fn twins_move_lanes_only_through_the_shared_lane_write() {
    // `sl2_exec::lanes::LaneWrite` is the one twin step that moves a
    // lane. In the twin crates a wide fetch&add may only read, so every
    // `wide_adjust(` there passes zero adjustments; a hand-copied
    // probe-then-add fails here.
    let root = repo_root();
    let mut files = Vec::new();
    for krate in ["core", "sharded", "combine", "service"] {
        files_with_extensions(
            &root.join("crates").join(krate).join("src"),
            &["rs"],
            &mut files,
        );
    }
    let needle = "wide_adjust(";
    let (mut calls, mut writes) = (0, Vec::new());
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable");
        for (at, _) in text.match_indices(needle) {
            // The argument list up to the matching `)`, whitespace
            // dropped, split at top-level commas.
            let (mut depth, mut args, mut arg) = (1, Vec::new(), String::new());
            for c in text[at + needle.len()..].chars() {
                match c {
                    '(' => depth += 1,
                    ')' if depth == 1 => break,
                    ')' => depth -= 1,
                    ',' if depth == 1 => {
                        args.push(std::mem::take(&mut arg));
                        continue;
                    }
                    c if c.is_whitespace() => continue,
                    _ => {}
                }
                arg.push(c);
            }
            args.push(arg);
            args.retain(|a| !a.is_empty());
            calls += 1;
            if args[1..] != ["&BigNat::zero()", "&BigNat::zero()"] {
                let line = text[..at].lines().count();
                let rel = path.strip_prefix(root).unwrap_or(path);
                writes.push(format!("{}:{line}: {}", rel.display(), args.join(", ")));
            }
        }
    }
    assert!(calls > 0, "no twin reads a wide register?");
    assert!(
        writes.is_empty(),
        "twins move lanes by hand; build the write from sl2_exec::lanes::LaneWrite:\n{}",
        writes.join("\n")
    );
}

#[test]
fn combining_tenures_share_one_guard_one_publication_and_one_twin_step() {
    // Every combining tenure, in production and in the twins, goes
    // through one constructor, one publication and one pair of shared
    // twin steps, so a change to the publish protocol lands in one
    // place on each side.
    let root = repo_root();
    let mut files = Vec::new();
    files_with_extensions(&root.join("crates/combine/src"), &["rs"], &mut files);
    let code = |path: &Path| {
        let text = std::fs::read_to_string(path).expect("readable");
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text[..end].to_string()
    };
    let sites = |needle: &str| -> Vec<String> {
        let mut out = Vec::new();
        for path in &files {
            let text = code(path);
            for (at, _) in text.match_indices(needle) {
                let line = text[..at].lines().count();
                let rel = path.strip_prefix(root).unwrap_or(path);
                out.push(format!("{}:{line}", rel.display()));
            }
        }
        out
    };
    let tenures = sites("Tenure {");
    assert_eq!(tenures.len(), 1, "one `Tenure` constructor: {tenures:?}");
    let publishes = sites("published.publish(");
    assert_eq!(publishes.len(), 1, "one publication routine: {publishes:?}");

    // In the twins, the lock is swapped only by the shared election
    // (`impl Elect`) or publish-then-unlock (`impl Release`) step, and
    // the cache is written only by `impl Release`'s `max_write`: no
    // swap or plain write may reach it, so it cannot go backwards.
    let machines = code(&root.join("crates/combine/src/machines.rs"));
    let span = |header: &str| {
        let start = machines
            .find(header)
            .unwrap_or_else(|| panic!("{header} is gone"));
        let end = start + machines[start..].find("\n}\n").expect("impl block ends");
        start..end
    };
    let (elect, release) = (span("impl Elect {"), span("impl Release {"));
    let (mut writes, mut stray) = (Vec::new(), Vec::new());
    for verb in ["mem.swap(", "mem.write(", "mem.max_write("] {
        for (at, _) in machines.match_indices(verb) {
            let args = &machines[at + verb.len()..];
            let cell = args[..args.find(',').expect("two arguments")].trim();
            let line = machines[..at].lines().count();
            let allowed = if cell.ends_with("cache") {
                verb == "mem.max_write(" && release.contains(&at)
            } else if cell.ends_with("lock") {
                verb == "mem.swap(" && (elect.contains(&at) || release.contains(&at))
            } else {
                continue;
            };
            writes.push(line);
            if !allowed {
                stray.push(format!("machines.rs:{line}: {verb}{cell}, …)"));
            }
        }
    }
    assert!(writes.len() >= 3, "no twin writes the lock and the cache?");
    assert!(
        stray.is_empty(),
        "twins write the lock or cache by hand; use the shared `Elect` or `Release` step \
         (the cache only through `max_write`):\n{}",
        stray.join("\n")
    );
}

#[test]
fn every_twin_has_a_pinned_record() {
    // Each `pub struct …Alg` step-machine factory in the twin crates
    // is built by some record of `sl2::records`, the one list the corpus
    // suite pins and Figure 1 renders from, so no twin's verdict lives
    // only in a unit test. `UniversalAlg` is the one exemption: its
    // execution tree is infinite, and its livelock witness is a unit
    // test of its own.
    let root = repo_root();
    let mut files = Vec::new();
    for krate in ["core", "sharded", "combine", "service"] {
        files_with_extensions(
            &root.join("crates").join(krate).join("src"),
            &["rs"],
            &mut files,
        );
    }
    let records = read_repo_file("src/records.rs");
    // A call `Name::…` on a code line, whole name only: `MaxRegAlg::`
    // inside `ShardedMaxRegAlg::`, or in a comment, builds nothing.
    let builds = |name: &str| {
        let call = format!("{name}::");
        let mut code = records
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"));
        code.any(|line| {
            line.match_indices(&call)
                .any(|(at, _)| !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
        })
    };
    let (mut twins, mut missing) = (0, Vec::new());
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable");
        for line in text.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub struct ") else {
                continue;
            };
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.ends_with("Alg") || name == "UniversalAlg" {
                continue;
            }
            twins += 1;
            if !builds(&name) {
                let rel = path.strip_prefix(root).unwrap_or(path);
                missing.push(format!("{}: {name}", rel.display()));
            }
        }
    }
    assert!(twins > 0, "no step-machine factories found?");
    assert!(
        missing.is_empty(),
        "twins no record in src/records.rs builds; pin a record for each:\n{}",
        missing.join("\n")
    );
}

/// Whether a `!` negates the receiver of the `.is_certified()` call
/// at byte `at` of `line`: walk back over the receiver (a path with
/// balanced call parentheses), then past `(` and spaces, and look for
/// a `!` that is not a macro's.
fn negates_call(line: &str, at: usize) -> bool {
    let b = line.as_bytes();
    let mut i = at;
    while i > 0 {
        match b[i - 1] {
            c if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b':' => i -= 1,
            b')' | b']' => {
                let mut depth = 0;
                while i > 0 {
                    i -= 1;
                    match b[i] {
                        b')' | b']' => depth += 1,
                        b'(' | b'[' => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                }
            }
            _ => break,
        }
    }
    let head = line[..i].trim_end_matches(|c: char| c == '(' || c.is_whitespace());
    head.strip_suffix('!')
        .is_some_and(|rest| !rest.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

#[test]
fn the_strong_checker_has_one_entry_point() {
    // `check_strong` is the one strong-checker entry point and returns
    // the three-way `StrongOutcome`; the panicking two-outcome wrappers
    // and the two objects no code called stay gone. A refuted
    // assertion reads `is_refuted()`: `!is_certified()` would accept
    // `Bounded`.
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        files_with_extensions(&root.join(dir), &["rs", "toml", "md"], &mut files);
    }
    files.retain(|p| !p.ends_with("tests/target_coverage.rs"));
    let gone = [
        "check_strong_with",
        "check_strong_outcome",
        "StrongReport",
        ".strongly_linearizable",
        "FetchAdd128",
        "DoubleCollectSnapshot",
    ];
    let (mut entry_points, mut hits) = (0, Vec::new());
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable");
        entry_points += text.matches("pub fn check_strong<").count();
        let rel = path.strip_prefix(root).unwrap_or(path);
        for (lineno, line) in text.lines().enumerate() {
            for needle in gone.iter().filter(|n| line.contains(**n)) {
                hits.push(format!("{}:{}: {needle}", rel.display(), lineno + 1));
            }
            if line
                .match_indices(".is_certified()")
                .any(|(at, _)| negates_call(line, at))
            {
                hits.push(format!(
                    "{}:{}: !….is_certified()",
                    rel.display(),
                    lineno + 1
                ));
            }
        }
    }
    assert_eq!(
        entry_points, 1,
        "`pub fn check_strong<` must be defined once"
    );
    assert!(
        hits.is_empty(),
        "retired checker API, dead objects or a negated certificate:\n{}",
        hits.join("\n")
    );
}

#[test]
fn negated_certificates_are_told_from_macro_bangs() {
    for (line, negated) in [
        ("assert!(out.is_certified());", false),
        ("assert!(!out.is_certified());", true),
        ("    !report.outcome().is_certified(),", true),
        ("assert!(!(out.is_certified()));", true),
        ("assert!(!check(&a, m, &s, 9).is_certified());", true),
        ("assert_eq!(out.is_certified(), shards == 1);", false),
        ("x != out.is_certified()", false),
    ] {
        let at = line.find(".is_certified()").expect("a call");
        assert_eq!(negates_call(line, at), negated, "{line}");
    }
}
