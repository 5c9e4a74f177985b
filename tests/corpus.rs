//! Experiments E23/E28/E57: the batch re-certification of every pinned
//! record, under the parallel driver.
//!
//! Every semantic claim this repo ships is a record in one list,
//! `sl2::records::all` — the Theorem-1/9 certificate families (E2, E7,
//! E18), the AGM/Treiber/CAS boundary (E11), the sharded frontier
//! adjudication at S ∈ {1, 2, 4} (E20–E21), the combining adjudication
//! (E27), the binary-encoding twins (E31), the service dispatch twin
//! (E43), the other twins (snapshots, relaxed counters, abandoned-lock
//! fronts, binary dispatch), the Figure-1 scenarios those families lack
//! and the edges no family above covers (`fig1/…`), the AAC and
//! multiword fetch&add baselines, and the combining cache's retired
//! two-swap publication, planted. This suite drives that list three ways and
//! asserts they agree record for record: parallel memo-on (the CI
//! configuration), serial memo-on, and parallel memo-off. The twins whose
//! lanes go through the shared `LaneEncoding` codec are additionally
//! run as *binary siblings* (the encoding `KeyObject` ships) and must
//! explore exactly their unary records' graphs. `examples/figure1`
//! renders Figure 1 from the same list.
//!
//! When `SL2_CORPUS_JSON` is set, the parallel memo-on `CorpusReport`
//! is written there as JSON lines — CI's corpus step uploads it and
//! diffs its shape against the fixture; the benchmark's `checker`
//! workload times its own copy of the first 64 records.
//!
//! `tests/data/corpus_shape.jsonl` is the one fixture. It pins the
//! search itself, record by record: the deterministic fields of the
//! memo-on report plus the memo-off node count (`"corpus":"shape"`
//! lines, in list order), and every refutation's witness as printed
//! (`"corpus":"witness"` lines). Its first 64 shape and 16 witness
//! lines were generated before the E50 engine rewrite, and the twins'
//! 25 shape lines before the twins moved onto the shared steps of
//! `sl2_exec::lanes`, so an engine change that keeps it green explores
//! the same graphs and prints the same refutations. Each comparing
//! test first writes what it computed to
//! `$CARGO_TARGET_TMPDIR/corpus_shape.<kind>.jsonl`; after a deliberate
//! change to the list, concatenating the two files (shape, then
//! witness) is the new fixture.

use sl2::prelude::*;
use sl2::records::{self, Only, Parallel, Serial, Witnesses};
use sl2_core::baselines::agm_stack::AgmStackAlg;
use sl2_spec::fifo::StackOp;

/// Global node budget of each re-certification pass; the memo-on pass
/// spends well under a million nodes and the memo-off pass ~22M (16M of
/// them in the two `ALLOWED_BOUNDED_OFF` anchors), so this is headroom,
/// not a cliff — but a runaway scenario surfaces as a `Bounded` record
/// instead of an eaten CI hour. Sized ≥ `corpus_threads() × the 8M
/// per-scenario limit`: the parallel driver *reserves* each scenario's
/// allowance up front, so anything smaller could transiently starve a
/// concurrent worker into a `Bounded` record the serial driver would
/// have decided.
const NODE_BUDGET: usize = 256_000_000;

/// Records the memo-off differential pass is allowed to leave
/// `Bounded`. Tree-mode exploration of the combining write protocol is
/// the extreme end of the E24 DAG/tree separation: the
/// `combining_stable_s1/fan_in` anchor re-explores ~53M states
/// un-memoized (its canonical-key DAG is ~2.4k) and the refuted `s2`
/// twin ~104M — both were run to completion once at a 256M budget and
/// agreed with the memo-on verdicts (DESIGN.md §8). `Bounded` makes no
/// semantic claim either way, so these two records cannot *disagree*
/// with the memo-on pass — but pinning the exemption list keeps a
/// genuine disagreement from hiding behind budget exhaustion.
const ALLOWED_BOUNDED_OFF: &[&str] = &["combining_stable_s1/fan_in", "combining_stable_s2/fan_in"];

fn options(memoize: bool) -> CorpusOptions {
    CorpusOptions {
        per_scenario_limit: 8_000_000,
        memo: if memoize {
            MemoMode::Canonical
        } else {
            MemoMode::Off
        },
    }
}

/// The pinned search shapes and witnesses (see the module docs).
const SHAPE_FIXTURE: &str = include_str!("data/corpus_shape.jsonl");

/// The top-level `(key, raw value)` pairs of one flat fixture line
/// (values: numbers, `null`, strings, arrays of those).
fn json_fields(line: &str) -> Vec<(&str, &str)> {
    let body = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not a JSON object: {line}"));
    let (mut fields, mut start, mut depth) = (Vec::new(), 0, 0);
    let (mut in_string, mut escaped) = (false, false);
    for (i, c) in body.char_indices().chain([(body.len(), ',')]) {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            ',' if !in_string && depth == 0 => {
                let (key, value) = body[start..i]
                    .split_once(':')
                    .unwrap_or_else(|| panic!("not a field: {}", &body[start..i]));
                fields.push((key.trim_matches('"'), value));
                start = i + 1;
            }
            _ => {}
        }
    }
    fields
}

/// Compares `actual` against the fixture's lines of `kind`, naming the
/// first record and field that differ.
fn assert_matches_fixture(kind: &str, actual: &[String]) {
    let written = format!("{}/corpus_shape.{kind}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&written, actual.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("cannot write {written}: {e}"));
    let tag = format!("{{\"corpus\":\"{kind}\",");
    let expected: Vec<&str> = SHAPE_FIXTURE
        .lines()
        .filter(|l| l.starts_with(&tag))
        .collect();
    for (want, got) in expected.iter().zip(actual) {
        let (want, got) = (json_fields(want), json_fields(got));
        let name = got[1].1;
        assert_eq!(want[1].1, name, "{kind} record order (computed: {written})");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(
                w, g,
                "{kind} {name}: field {:?} differs from tests/data/corpus_shape.jsonl \
                 (computed: {written})",
                g.0
            );
        }
        assert_eq!(want.len(), got.len(), "{kind} {name}: field count");
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "{kind} line count (computed: {written})"
    );
}

/// One `"corpus":"shape"` fixture line per record: the deterministic
/// fields of the memo-on record plus the memo-off node count.
fn shape_lines(on: &CorpusReport, off: &CorpusReport) -> Vec<String> {
    on.records
        .iter()
        .zip(&off.records)
        .map(|(a, b)| {
            let off_nodes = match b.verdict {
                CorpusVerdict::Bounded => "null".to_string(),
                _ => b.nodes.to_string(),
            };
            format!(
                "{{\"corpus\":\"shape\",\"name\":{:?},\"verdict\":\"{}\",\"nodes\":{},\
                 \"memo_hits\":{},\"memo_misses\":{},\"max_depth\":{},\
                 \"witness_steps\":{},\"off_nodes\":{off_nodes}}}",
                a.name,
                a.verdict.as_str(),
                a.nodes,
                a.stats.memo_hits,
                a.stats.memo_misses,
                a.stats.max_depth,
                a.witness_steps,
            )
        })
        .collect()
}

/// `(name, certified?)` for every individually pinned record; the
/// `thm1/` and `thm9/` families and the positive Figure-1 families
/// (`fig1/` outside Theorem 17) are additionally blanket-asserted
/// certified.
fn pinned_verdicts() -> Vec<(&'static str, bool)> {
    vec![
        // E18 deep tower past the old 1024-op packing limit.
        ("thm1/tower_h1100", true),
        // E11: linearizable-but-not-strongly AGM vs the CAS routes.
        ("agm/witness_scenario", false),
        ("agm/single_pusher", true),
        ("treiber/witness_scenario", true),
        ("treiber/single_pusher", true),
        ("cas_queue/witness_scenario", true),
        // E20: the sharded frontier boundary, bracketed at S ∈ {1,2,4}.
        ("sharded_s1/frontier_safe", true),
        ("sharded_s1/fan_in", true), // the S = 1 control
        ("sharded_s2/frontier_safe", true),
        ("sharded_s2/fan_in", false),
        ("sharded_s4/frontier_safe", true), // the PR-4 acceptance anchor
        ("sharded_s4/fan_in", false),
        // E31: the PR-6 binary lane encoding reproduces the table bit
        // for bit — the frontier argument never looked at how lane
        // values were coded into lane bits.
        ("sharded_binary_s1/frontier_safe", true),
        ("sharded_binary_s1/fan_in", true), // the S = 1 control
        ("sharded_binary_s2/frontier_safe", true),
        ("sharded_binary_s2/fan_in", false),
        ("sharded_binary_s4/frontier_safe", true),
        ("sharded_binary_s4/fan_in", false),
        // E21: the counter ladder — the independent-reader fan-in
        // breaks both read modes (the stable collect retries but the
        // frontier race survives it, as for the max register); the
        // reader-fused pair passes both.
        ("counter_naive/fan_in", false),
        ("counter_naive/inc_read_pair", true),
        ("counter_exact/fan_in", false),
        ("counter_exact/inc_read_pair", true),
        // E27: the combining adjudication. Stable reads keep the PR-3
        // boundary through the front-end (frontier-safe certified at
        // both shard counts, fan-in certified only at the S = 1
        // control); cached reads are refuted at *every* shard count —
        // staleness needs no collect frontier.
        ("combining_stable_s1/frontier_safe", true),
        ("combining_stable_s1/fan_in", true),
        ("combining_stable_s2/frontier_safe", true),
        ("combining_stable_s2/fan_in", false),
        ("combining_cached_s1/frontier_safe", false),
        ("combining_cached_s1/fan_in", false),
        ("combining_cached_s2/frontier_safe", false),
        ("combining_cached_s2/fan_in", false),
        // E27, counter side: the publication-combining counter's
        // increments are the plain striped path, so its stable reads
        // certify even the single-stripe fan-in; the cached read is
        // refuted on both shapes.
        ("combining_counter_stable/fan_in", true),
        ("combining_counter_stable/inc_read_pair", true),
        ("combining_counter_cached/fan_in", false),
        ("combining_counter_cached/inc_read_pair", false),
        // E43: the ISSUE-9 service dispatch twin. Exact routing
        // certifies both shapes — strong linearizability is local, and
        // the shared enqueue ticket + routing read do not break the
        // disjoint composition. Cached routing is refuted on *both*
        // shapes against the exact keyed spec (a direct-path write
        // completes unpublished, so even the cross-key reader can be
        // shown a completed write's absence) and certified against the
        // per-key k = 2 lagging spec — staleness is bounded per key,
        // and writes to other keys cannot age a key's window.
        ("service_exact/cross_key", true),
        ("service_exact/fan_in", true),
        ("service_cached/cross_key", false),
        ("service_cached/fan_in", false),
        ("service_lagging_k2/cross_key", true),
        ("service_lagging_k2/fan_in", true),
        // E57: Theorem 17 on the relaxations — [11]'s queue and stack
        // with multiplicity are refuted.
        ("fig1/thm17_mult/queue", false),
        ("fig1/thm17_mult/stack", false),
        // E57: the AAC max register [6], Theorem 1's comparison: a third
        // process observes the trie race, two cannot. The naive
        // multiword fetch&add (§6's open problem) is not even
        // linearizable inside its carry window.
        ("aac/witness_scenario", false),
        ("aac/two_process", true),
        ("multiword_faa/carry_window", false),
    ]
}

/// A serial driver over a fresh report.
fn serial(memoize: bool) -> Serial {
    Serial {
        opts: options(memoize),
        report: CorpusReport::new(NODE_BUDGET),
    }
}

/// Worker count for the parallel driver in this suite (and in CI's
/// corpus-smoke step): bounded so small runners don't oversubscribe.
fn corpus_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(4)
}

#[test]
fn corpus_recertifies_every_shipped_verdict() {
    // The CI configuration: the parallel driver, memo on; then the
    // serial memo-on control, and the memo-off control, which is most
    // of this suite's time, on the parallel driver too.
    let parallel = |memoize: bool| Parallel {
        opts: options(memoize),
        threads: corpus_threads(),
        report: CorpusReport::new(NODE_BUDGET),
    };
    let (mut on, mut serial_on, mut off) = (parallel(true), serial(true), parallel(false));
    records::all(&mut on);
    records::all(&mut serial_on);
    records::all(&mut off);
    let (on, serial, off) = (on.report, serial_on.report, off.report);

    // Parallel and serial drivers agree record-for-record (the budget
    // is headroom, not a constraint, so worker scheduling cannot show
    // through), and the two sound memoization modes agree too.
    assert_eq!(on.records.len(), serial.records.len());
    assert_eq!(on.records.len(), off.records.len());
    for ((a, s), b) in on.records.iter().zip(&serial.records).zip(&off.records) {
        assert_eq!(a.name, s.name, "parallel vs serial record order");
        assert_eq!(
            a.verdict, s.verdict,
            "parallel vs serial disagree on {}",
            a.name
        );
        assert_eq!(
            a.nodes, s.nodes,
            "parallel vs serial node counts differ on {}",
            a.name
        );
        assert_eq!(
            a.stats, s.stats,
            "parallel vs serial search stats differ on {}",
            a.name
        );
        assert_eq!(a.name, b.name);
        if b.verdict == CorpusVerdict::Bounded {
            assert!(
                ALLOWED_BOUNDED_OFF.contains(&a.name.as_str()),
                "{}: memo-off ran out of budget outside the documented \
                 tree-mode exemptions",
                a.name
            );
        } else {
            assert_eq!(
                a.verdict, b.verdict,
                "memo-on vs memo-off disagree on {}",
                a.name
            );
        }
    }

    // No scenario ran out of budget, and the budget was respected.
    assert_eq!(on.count(CorpusVerdict::Bounded), 0, "{:?}", on.records);
    assert!(on.nodes_spent <= on.node_budget);

    // Pinned claims reproduce.
    for (name, certified) in pinned_verdicts() {
        let rec = on.get(name).unwrap_or_else(|| panic!("missing {name}"));
        let expect = if certified {
            CorpusVerdict::Certified
        } else {
            CorpusVerdict::Refuted
        };
        assert_eq!(rec.verdict, expect, "{name}: {rec:?}");
    }

    // Blanket family expectations: every Theorem-1 / Theorem-9 family
    // member and every positive Figure-1 record is certified.
    for rec in &on.records {
        let fig1_positive =
            rec.name.starts_with("fig1/") && !rec.name.starts_with("fig1/thm17_mult/");
        if rec.name.starts_with("thm1/") || rec.name.starts_with("thm9/") || fig1_positive {
            assert_eq!(
                rec.verdict,
                CorpusVerdict::Certified,
                "{}: {rec:?}",
                rec.name
            );
        }
    }

    // Every refutation carries a non-trivial witness path.
    for rec in &on.records {
        if rec.verdict == CorpusVerdict::Refuted {
            assert!(rec.witness_steps > 0, "{}: empty witness", rec.name);
        }
    }

    // PR-8: the search-shape accounting is sound on every row. The
    // engine counts a node exactly when a feasible entry misses the
    // memo, so `nodes == memo_misses` is an invariant, the hit rate is
    // a probability, and any decided scenario pushed at least one
    // frame.
    for rec in &on.records {
        assert_eq!(
            rec.nodes, rec.stats.memo_misses,
            "{}: explored nodes must equal memo misses",
            rec.name
        );
        let rate = rec.memo_hit_rate();
        assert!(
            (0.0..=1.0).contains(&rate),
            "{}: hit rate {rate} out of range",
            rec.name
        );
        assert!(
            rec.stats.max_depth > 0,
            "{}: decided a scenario without pushing a frame",
            rec.name
        );
    }
    // The canonical-key DAG actually shares states (DESIGN.md §5): the
    // memo-on pass must see hits somewhere, and the memo-off pass can
    // never see any.
    assert!(
        on.records.iter().any(|r| r.stats.memo_hits > 0),
        "memo-on pass recorded zero hits across the whole corpus"
    );
    for rec in &off.records {
        assert_eq!(
            rec.stats.memo_hits, 0,
            "{}: memo-off pass cannot hit a memo table",
            rec.name
        );
    }

    // PR-24: the search shape is pinned per record, not in aggregate —
    // the graph explored (memo on) and the tree (memo off) are the ones
    // the fixture's generating commit explored.
    assert_matches_fixture("shape", &shape_lines(&on, &off));

    // The S = 4 acceptance anchor certified within the shared budget.
    let anchor = on.get("sharded_s4/frontier_safe").expect("anchor present");
    assert!(anchor.nodes > 0 && anchor.nodes < on.node_budget);

    // Machine-readable artifact for CI's corpus re-certification step.
    if let Ok(path) = std::env::var("SL2_CORPUS_JSON") {
        std::fs::write(&path, on.to_json_lines())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
}

/// Records the binary-sibling tree pass leaves out: the two
/// `ALLOWED_BOUNDED_OFF` anchors and the one other record that alone is
/// most of a memo-off pass (the three the benchmark's tree phase skips).
/// All three still compare memo-on.
const SIBLING_TREE_SKIPS: &[&str] = &[
    "combining_stable_s1/fan_in",
    "combining_stable_s2/fan_in",
    "combining_stable_s2/frontier_safe",
];

#[test]
fn binary_siblings_explore_their_unary_records_graphs() {
    // Lane states of the two encodings are in bijection (same probe,
    // same single fetch&add, a different picture of the same lane
    // value), so the checker must see the same graph: verdict, DAG
    // nodes (memo on), tree nodes (memo off) and search shape equal
    // record for record. Any difference is a bug in the codec or in a
    // twin's use of it.
    for (memoize, skip) in [(true, &[][..]), (false, SIBLING_TREE_SKIPS)] {
        let run = |encoding| {
            let mut driver = Only {
                keep: |name: &str| !skip.contains(&name),
                inner: serial(memoize),
            };
            records::recoded(&mut driver, encoding);
            driver.inner.report
        };
        let (unary, binary) = (run(LaneEncoding::Unary), run(LaneEncoding::Binary));
        assert_eq!(unary.records.len(), binary.records.len());
        assert_eq!(unary.count(CorpusVerdict::Bounded), 0, "memo={memoize}");
        for (u, b) in unary.records.iter().zip(&binary.records) {
            assert_eq!(u.name, b.name);
            assert_eq!(u.verdict, b.verdict, "{} memo={memoize}", u.name);
            assert_eq!(u.nodes, b.nodes, "{} memo={memoize}", u.name);
            assert_eq!(u.stats, b.stats, "{} memo={memoize}", u.name);
            assert_eq!(u.witness_steps, b.witness_steps, "{}", u.name);
        }
    }
}

#[test]
fn corpus_dedup_collapses_isomorphic_members() {
    // The fan-in families generate process-permuted duplicates; dedup
    // must collapse them and the report must surface the count.
    let corpus = records::max_register_corpus();
    assert!(corpus.deduped() > 0, "families produce no duplicates?");
    let report = corpus.run(|mem| MaxRegAlg::new(mem, 3), &options(true), NODE_BUDGET);
    assert_eq!(report.deduped, corpus.deduped());
    assert_eq!(report.records.len(), corpus.len());
}

#[test]
fn corpus_budget_starvation_reports_bounded() {
    // Budget exhaustion is a recorded outcome, not a panic: with a
    // near-zero shared budget every scenario lands Bounded (the first
    // may sneak a node in).
    let report =
        records::max_register_corpus().run(|mem| MaxRegAlg::new(mem, 3), &options(true), 2);
    assert!(report.count(CorpusVerdict::Bounded) >= report.records.len() - 1);
    assert!(report.nodes_spent <= 3);
}

#[test]
fn refuted_records_replay_and_print_what_the_fixture_pins() {
    // Witness fidelity over the whole corpus: every refuted record's
    // witness replays step for step, and its `schedule`/`path`/`detail`
    // are byte-identical to the fixture's — a refutation reads the same
    // whatever the engine's internal representation.
    let mut witnesses = Witnesses {
        opts: options(true),
        lines: Vec::new(),
    };
    records::all(&mut witnesses);
    assert_eq!(witnesses.lines.len(), 29, "the list pins 29 refutations");
    assert_matches_fixture("witness", &witnesses.lines);
}

#[test]
fn combining_cached_refutation_witness_replays() {
    // The E27 acceptance point: the cached-read refutation is not just
    // a verdict — its witness is a complete branch that replays
    // step-for-step against a fresh front-end.
    for shards in [1usize, 2] {
        let scenario = cached_fan_in_max_scenario();
        let mut mem = SimMemory::new();
        let alg = CombiningMaxRegAlg::new(&mut mem, 3, shards, ReadMode::Cached);
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        let w = out.witness().expect("cached read refuted");
        validate_witness(&alg, mem, &scenario, w).unwrap_or_else(|e| panic!("S={shards}: {e}"));
    }
}

#[test]
fn service_cached_refutation_witness_replays() {
    // The ISSUE-9 acceptance point: the dispatch twin flows through
    // the same witness discipline as every other refutation — and the
    // replay holds in both memo modes (the witness is a complete
    // branch either way, not truncated at a memo hit).
    for memo in [true, false] {
        let scenario = same_key_fan_in_scenario();
        let mut mem = SimMemory::new();
        let alg = KeyedDispatchAlg::new(&mut mem, 3, &[1, 2], RouteMode::Cached);
        let out = check_strong(
            &alg,
            mem.clone(),
            &scenario,
            StrongOptions::with_limit(8_000_000).memoize(memo),
        );
        let w = out.witness().expect("cached dispatch refuted");
        validate_witness(&alg, mem, &scenario, w).unwrap_or_else(|e| panic!("memo={memo}: {e}"));
    }
}

#[test]
fn service_exact_certification_replays_memo_off() {
    // The certified polarity, differentially: the memo-off tree search
    // agrees with the memo-on DAG verdict on the exact-mode twin.
    for memo in [true, false] {
        let scenario = cross_key_scenario();
        let mut mem = SimMemory::new();
        let alg = KeyedDispatchAlg::new(&mut mem, 3, &[1, 2], RouteMode::Exact);
        let out = check_strong(
            &alg,
            mem,
            &scenario,
            StrongOptions::with_limit(8_000_000).memoize(memo),
        );
        assert!(out.is_certified(), "memo={memo}: exact twin must certify");
    }
}

#[test]
fn refutation_witnesses_replay_against_their_scenarios() {
    // Witness feasibility for the corpus refutations, end to end: the
    // schedule replays step-for-step against a fresh algorithm
    // instance (PR-4 witnesses are complete, not truncated at memo
    // hits).
    for shards in [2usize, 4] {
        let scenario = fan_in_max_scenario(shards);
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::new(&mut mem, 3, shards);
        let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
        let w = out.witness().expect("fan-in refuted");
        validate_witness(&alg, mem, &scenario, w).unwrap_or_else(|e| panic!("S={shards}: {e}"));
    }
    let mut mem = SimMemory::new();
    let alg = AgmStackAlg::new(&mut mem);
    let scenario = Scenario::new(vec![
        vec![StackOp::Push(1)],
        vec![StackOp::Push(2)],
        vec![StackOp::Pop, StackOp::Pop],
    ]);
    let out = check_strong(&alg, mem.clone(), &scenario, 8_000_000);
    let w = out.witness().expect("AGM refuted");
    validate_witness(&alg, mem, &scenario, w).expect("AGM witness must replay");
}
