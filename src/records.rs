//! Every pinned checker record, defined once.
//!
//! A record is a named scenario run against one step-machine twin:
//! `family/member`, checked by `check_strong` and pinned, record by
//! record, in `tests/data/corpus_shape.jsonl`. [`all`] hands every
//! batch of records to a [`Driver`]; the drivers decide what a batch
//! becomes. [`Serial`] and [`Parallel`] check it into a
//! [`CorpusReport`] (the corpus suite runs both, memo on and memo off,
//! and compares); [`Witnesses`] replays and renders each refutation;
//! [`crate::figure1`] checks the Figure-1 families and measures their
//! step bounds. Only the facade sees every twin, so the list lives
//! here.
//!
//! The list runs in four parts, in fixture order: the records whose
//! twins have one lane encoding ([`fixed`]), those that take a
//! [`LaneEncoding`] ([`recoded`], run unary), the other twins'
//! records ([`twins`]), and the paper's remaining claims and baselines
//! ([`claims`]). The benchmark's `checker` workload keeps its own copy
//! of the first two parts. One object is planted here rather than
//! shipped: the combining cache's retired two-swap publication
//! ([`claims`] pins its refutation).

use sl2_bignum::LaneEncoding;
use sl2_combine::{
    cached_fan_in_lagging_scenario, cached_fan_in_max_scenario, combining_frontier_safe_scenario,
    CombiningCounterAlg, CombiningMaxRegAlg, ReadMode,
};
use sl2_core::baselines::aac_max_register::AacMaxRegAlg;
use sl2_core::baselines::agm_stack::AgmStackAlg;
use sl2_core::baselines::cas_queue::CasQueueAlg;
use sl2_core::baselines::multiplicity::{MultQueueAlg, MultStackAlg};
use sl2_core::baselines::multiword_faa::MultiwordFaaAlg;
use sl2_core::baselines::treiber_stack::TreiberStackAlg;
use sl2_core::machines::fetch_inc::FetchIncAlg;
use sl2_core::machines::fetch_inc_composed::FetchIncComposedAlg;
use sl2_core::machines::max_register::MaxRegAlg;
use sl2_core::machines::multishot_ts::MultiShotTasAlg;
use sl2_core::machines::readable_ts::ReadableTasAlg;
use sl2_core::machines::rw_max_register::RwMaxRegAlg;
use sl2_core::machines::simple::SimpleAlg;
use sl2_core::machines::sl_set::SlSetAlg;
use sl2_core::machines::snapshot::SnapshotAlg;
use sl2_exec::machine::{OpMachine, Step};
use sl2_exec::mem::{Cell, Loc};
use sl2_exec::{
    check_strong, fan_in, validate_witness, Algorithm, CorpusOptions, CorpusReport, Scenario,
    ScenarioCorpus, SimMemory, StrongOptions,
};
use sl2_service::machines::{
    cross_key_lagging_scenario, cross_key_scenario, same_key_fan_in_lagging_scenario,
    same_key_fan_in_scenario, KeyedDispatchAlg, LaggingKeyedDispatchAlg, RouteMode,
};
use sl2_sharded::{
    fan_in_max_scenario, frontier_safe_max_scenario, ShardedCounterAlg, ShardedMaxRegAlg,
    ShardedSnapshotAlg, WholeReadMode,
};
use sl2_spec::counters::{CounterOp, CounterSpec, FaaOp, FetchIncOp, FetchIncSpec};
use sl2_spec::fifo::{QueueOp, StackOp, StackSpec};
use sl2_spec::keyed::{KeyedMaxSpec, LaggingKeyedMaxSpec};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
use sl2_spec::put_take::SetOp;
use sl2_spec::snapshot::SnapOp;
use sl2_spec::tas::TasOp;
use sl2_spec::Spec;

/// What becomes of each batch of records: one corpus over one spec,
/// every member checked against the algorithm `make` builds in a
/// fresh memory.
pub trait Driver {
    /// Takes one batch.
    fn drive<A, F>(&mut self, corpus: &ScenarioCorpus<A::Spec>, make: F)
    where
        A: Algorithm,
        <A::Spec as Spec>::Op: Sync,
        F: Fn(&mut SimMemory) -> A + Sync;
}

/// Checks every record in turn into `report`.
#[derive(Debug)]
pub struct Serial {
    /// Per-record node limit and memoization mode.
    pub opts: CorpusOptions,
    /// The records so far.
    pub report: CorpusReport,
}

impl Driver for Serial {
    fn drive<A, F>(&mut self, corpus: &ScenarioCorpus<A::Spec>, make: F)
    where
        A: Algorithm,
        <A::Spec as Spec>::Op: Sync,
        F: Fn(&mut SimMemory) -> A + Sync,
    {
        corpus.run_into(make, &self.opts, &mut self.report);
    }
}

/// Checks each batch over `threads` workers into `report`
/// ([`ScenarioCorpus::run_parallel_into`]); the report keeps record
/// order.
#[derive(Debug)]
pub struct Parallel {
    /// Per-record node limit and memoization mode.
    pub opts: CorpusOptions,
    /// Worker count.
    pub threads: usize,
    /// The records so far.
    pub report: CorpusReport,
}

impl Driver for Parallel {
    fn drive<A, F>(&mut self, corpus: &ScenarioCorpus<A::Spec>, make: F)
    where
        A: Algorithm,
        <A::Spec as Spec>::Op: Sync,
        F: Fn(&mut SimMemory) -> A + Sync,
    {
        corpus.run_parallel_into(make, &self.opts, self.threads, &mut self.report);
    }
}

/// Checks every record directly and, for each refutation, replays the
/// witness against a fresh instance and renders it as one
/// `"corpus":"witness"` fixture line.
///
/// # Panics
///
/// Panics if a witness does not replay.
#[derive(Debug)]
pub struct Witnesses {
    /// Per-record node limit and memoization mode.
    pub opts: CorpusOptions,
    /// One line per refuted record, in record order.
    pub lines: Vec<String>,
}

impl Driver for Witnesses {
    fn drive<A, F>(&mut self, corpus: &ScenarioCorpus<A::Spec>, make: F)
    where
        A: Algorithm,
        <A::Spec as Spec>::Op: Sync,
        F: Fn(&mut SimMemory) -> A + Sync,
    {
        let options = StrongOptions {
            node_limit: self.opts.per_scenario_limit,
            memo: self.opts.memo,
        };
        for (name, scenario) in corpus.entries() {
            let mut mem = SimMemory::new();
            let alg = make(&mut mem);
            let out = check_strong(&alg, mem.clone(), scenario, options);
            let Some(w) = out.witness() else { continue };
            validate_witness(&alg, mem, scenario, w)
                .unwrap_or_else(|e| panic!("{name}: witness does not replay: {e}"));
            // `Debug` of these strings and vectors is valid JSON
            // (labels hold no control characters).
            self.lines.push(format!(
                "{{\"corpus\":\"witness\",\"name\":{name:?},\"schedule\":{:?},\
                 \"path\":{:?},\"detail\":{:?}}}",
                w.schedule, w.path, w.detail,
            ));
        }
    }
}

/// Hands `inner` only the records whose name `keep` accepts.
#[derive(Debug)]
pub struct Only<P, D> {
    /// The filter, on record names.
    pub keep: P,
    /// The driver that takes what passes.
    pub inner: D,
}

impl<P: Fn(&str) -> bool, D: Driver> Driver for Only<P, D> {
    fn drive<A, F>(&mut self, corpus: &ScenarioCorpus<A::Spec>, make: F)
    where
        A: Algorithm,
        <A::Spec as Spec>::Op: Sync,
        F: Fn(&mut SimMemory) -> A + Sync,
    {
        let mut kept = ScenarioCorpus::without_dedup();
        for (name, scenario) in corpus.entries() {
            if (self.keep)(name) {
                kept.push(name.clone(), scenario.clone());
            }
        }
        self.inner.drive(&kept, make);
    }
}

/// Every pinned record, in fixture order.
pub fn all<D: Driver>(d: &mut D) {
    fixed(d);
    recoded(d, LaneEncoding::Unary);
    twins(d);
    claims(d);
}

/// Theorem 1 max register: symmetric, fan-in, and tower families —
/// every member certified (E2/E18). The 1100-op tower crosses the old
/// 1024-ops-per-process packing limit on purpose.
pub fn max_register_corpus() -> ScenarioCorpus<MaxRegisterSpec> {
    let alphabet = [MaxOp::Write(1), MaxOp::Write(3), MaxOp::Read];
    let mut corpus = ScenarioCorpus::new();
    corpus.symmetric_family("thm1", &[2], &alphabet, 2);
    corpus.fan_in_family("thm1", &alphabet, 2, &[MaxOp::Read]);
    corpus.tower_family(
        "thm1",
        &[MaxOp::Write(2), MaxOp::Read],
        &[4, 6],
        &[vec![MaxOp::Write(5)]],
    );
    corpus.tower_family("thm1", &[MaxOp::Write(2), MaxOp::Read], &[1100], &[]);
    corpus
}

/// Theorem 9 fetch&increment: the E7/E18 mixes — every member
/// certified.
fn fetch_inc_corpus() -> ScenarioCorpus<FetchIncSpec> {
    let alphabet = [FetchIncOp::FetchInc, FetchIncOp::Read];
    let mut corpus = ScenarioCorpus::new();
    corpus.symmetric_family("thm9", &[2], &alphabet, 2);
    corpus.fan_in_family("thm9", &alphabet, 2, &[FetchIncOp::Read]);
    corpus
}

/// A corpus of the given records, process-permuted members kept.
fn records<S: Spec, N: Into<String>>(
    entries: impl IntoIterator<Item = (N, Scenario<S>)>,
) -> ScenarioCorpus<S> {
    let mut corpus = ScenarioCorpus::without_dedup();
    for (name, scenario) in entries {
        corpus.push(name, scenario);
    }
    corpus
}

/// A corpus of one record.
fn one<S: Spec>(name: &str, scenario: Scenario<S>) -> ScenarioCorpus<S> {
    records([(name, scenario)])
}

/// The E11 stack scenarios, named per algorithm under test.
fn stack_corpus(prefix: &str) -> ScenarioCorpus<StackSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push(
        format!("{prefix}/witness_scenario"),
        Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Push(2)],
            vec![StackOp::Pop, StackOp::Pop],
        ]),
    );
    corpus.push(
        format!("{prefix}/single_pusher"),
        Scenario::new(vec![
            vec![StackOp::Push(1)],
            vec![StackOp::Pop, StackOp::Pop],
        ]),
    );
    corpus
}

/// The §6 anchors of the sharded max register at one shard count,
/// under `prefix`.
fn sharded_corpus(prefix: &str, shards: usize) -> ScenarioCorpus<MaxRegisterSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push(
        format!("{prefix}_s{shards}/frontier_safe"),
        frontier_safe_max_scenario(shards),
    );
    corpus.push(
        format!("{prefix}_s{shards}/fan_in"),
        fan_in_max_scenario(shards),
    );
    corpus
}

/// The sharded counter adjudication (E21), named per read mode. Home
/// shards depend on process indices, so these corpora keep
/// process-permuted members.
fn counter_corpus<S: Spec<Op = CounterOp>>(prefix: &str) -> ScenarioCorpus<S> {
    records([
        (
            format!("{prefix}/fan_in"),
            fan_in::<S>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]),
        ),
        (
            format!("{prefix}/inc_read_pair"),
            Scenario::new(vec![
                vec![CounterOp::Inc, CounterOp::Read],
                vec![CounterOp::Inc],
            ]),
        ),
    ])
}

/// The combining max-register adjudication at one shard count (E27):
/// the frontier-safe and fan-in anchors, routed through the combining
/// front-end, named per read mode.
fn combining_corpus(shards: usize, mode: ReadMode) -> ScenarioCorpus<MaxRegisterSpec> {
    let tag = match mode {
        ReadMode::Cached => "cached",
        ReadMode::Stable => "stable",
    };
    let mut corpus = ScenarioCorpus::new();
    corpus.push(
        format!("combining_{tag}_s{shards}/frontier_safe"),
        combining_frontier_safe_scenario(shards),
    );
    corpus.push(
        format!("combining_{tag}_s{shards}/fan_in"),
        cached_fan_in_max_scenario(),
    );
    corpus
}

/// The service dispatch twin (E43): the cross-key and same-key
/// anchors against the exact keyed spec, named per route mode.
fn service_corpus(tag: &str) -> ScenarioCorpus<KeyedMaxSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push(format!("service_{tag}/cross_key"), cross_key_scenario());
    corpus.push(format!("service_{tag}/fan_in"), same_key_fan_in_scenario());
    corpus
}

/// The cached twin under the per-key lagging spec (window k = 2).
fn service_lagging_corpus() -> ScenarioCorpus<LaggingKeyedMaxSpec> {
    let mut corpus = ScenarioCorpus::new();
    corpus.push("service_lagging_k2/cross_key", cross_key_lagging_scenario());
    corpus.push(
        "service_lagging_k2/fan_in",
        same_key_fan_in_lagging_scenario(),
    );
    corpus
}

/// The records whose twins have one lane encoding (or, for the sharded
/// max register, carry their own binary records): Theorem 9, the E11
/// stack/queue boundary and the §6 sharded anchors at S ∈ {1, 2, 4}.
pub fn fixed<D: Driver>(d: &mut D) {
    d.drive(&fetch_inc_corpus(), FetchIncAlg::new);
    d.drive(&stack_corpus("agm"), AgmStackAlg::new);
    d.drive(&stack_corpus("treiber"), TreiberStackAlg::new);
    for shards in [1usize, 2, 4] {
        d.drive(&sharded_corpus("sharded", shards), |mem| {
            ShardedMaxRegAlg::new(mem, 3, shards)
        });
    }
    // The binary lane encoding (E31): same anchors, same verdicts.
    for shards in [1usize, 2, 4] {
        d.drive(&sharded_corpus("sharded_binary", shards), |mem| {
            ShardedMaxRegAlg::binary(mem, 3, shards)
        });
    }
    d.drive(
        &one(
            "cas_queue/witness_scenario",
            Scenario::new(vec![
                vec![QueueOp::Enq(1)],
                vec![QueueOp::Enq(2)],
                vec![QueueOp::Deq, QueueOp::Deq],
            ]),
        ),
        CasQueueAlg::new,
    );
}

/// The records of the twins that take a [`LaneEncoding`]: `Unary` is
/// the shipped record set, `Binary` its siblings under the same names.
pub fn recoded<D: Driver>(d: &mut D, encoding: LaneEncoding) {
    d.drive(&max_register_corpus(), |mem| {
        MaxRegAlg::with_encoding(mem, 3, encoding)
    });
    d.drive(&counter_corpus("counter_naive"), |mem| {
        ShardedCounterAlg::naive(mem, 3, 2).with_encoding(encoding)
    });
    d.drive(&counter_corpus("counter_exact"), |mem| {
        ShardedCounterAlg::exact(mem, 3, 2).with_encoding(encoding)
    });
    // The combining layer (E27): stable-read anchors certified,
    // cached-read anchors refuted, at S ∈ {1, 2}.
    for shards in [1usize, 2] {
        for mode in [ReadMode::Stable, ReadMode::Cached] {
            d.drive(&combining_corpus(shards, mode), |mem| {
                CombiningMaxRegAlg::new(mem, 3, shards, mode).with_encoding(encoding)
            });
        }
    }
    d.drive(&counter_corpus("combining_counter_stable"), |mem| {
        CombiningCounterAlg::stable(mem, 3, 1).with_encoding(encoding)
    });
    d.drive(&counter_corpus("combining_counter_cached"), |mem| {
        CombiningCounterAlg::cached(mem, 3, 1).with_encoding(encoding)
    });
    // The service dispatch twin (E43): exact routing certifies (strong
    // linearizability is local, and stays so with the shared
    // enqueue/route steps interleaved); cached routing is refuted
    // against the exact keyed spec and certified against the per-key
    // k = 2 lagging spec — the §8 law one layer up.
    for (tag, mode) in [("exact", RouteMode::Exact), ("cached", RouteMode::Cached)] {
        d.drive(&service_corpus(tag), |mem| {
            KeyedDispatchAlg::new(mem, 3, &[1, 2], mode).with_encoding(encoding)
        });
    }
    d.drive(&service_lagging_corpus(), |mem| {
        LaggingKeyedDispatchAlg::new(mem, 3, &[1, 2], 2).with_encoding(encoding)
    });
}

/// The other twins, each on the scenarios its unit tests use (Theorem
/// 2's also on the crossed pairs `figure1` checked): the
/// Theorem 2 and sharded snapshots, the relaxed counters, the
/// abandoned-lock front-ends and the binary dispatch twin.
pub fn twins<D: Driver>(d: &mut D) {
    let update = |i: usize, v: u64| SnapOp::Update { i, v };
    let race = Scenario::new(vec![
        vec![update(0, 2), update(0, 1)],
        vec![SnapOp::Scan, SnapOp::Scan],
    ]);
    let three = Scenario::new(vec![
        vec![update(0, 1)],
        vec![update(1, 2)],
        vec![SnapOp::Scan, SnapOp::Scan],
    ]);
    let group_local = Scenario::new(vec![vec![update(0, 3), SnapOp::Scan], vec![update(1, 7)]]);
    let torn_cut = Scenario::new(vec![
        vec![update(0, 1)],
        vec![SnapOp::Scan],
        vec![update(2, 7)],
    ]);
    // Each process updates its own component, then scans.
    let crossed = Scenario::new(vec![
        vec![update(0, 7), SnapOp::Scan],
        vec![update(1, 3), SnapOp::Scan],
    ]);
    d.drive(
        &records([
            ("snapshot/update_scan_race", race),
            ("snapshot/crossed_pairs", crossed),
        ]),
        |mem| SnapshotAlg::new(mem, 2),
    );
    d.drive(&one("snapshot/three_processes", three), |mem| {
        SnapshotAlg::new(mem, 3)
    });
    for (tag, mode) in [
        ("stable", WholeReadMode::Stable),
        ("naive", WholeReadMode::Naive),
    ] {
        let name = |shape: &str| format!("sharded_snapshot_{tag}/{shape}");
        d.drive(&one(&name("group_local"), group_local.clone()), |mem| {
            ShardedSnapshotAlg::new(mem, 4, 2, mode)
        });
        d.drive(&one(&name("torn_cut"), torn_cut.clone()), |mem| {
            ShardedSnapshotAlg::new(mem, 3, 2, mode)
        });
    }
    for (tag, encoding) in [
        ("counter_relaxed", LaneEncoding::Unary),
        ("counter_relaxed_binary", LaneEncoding::Binary),
    ] {
        d.drive(&counter_corpus(tag), |mem| {
            ShardedCounterAlg::relaxed(mem, 3, 2, 2).with_encoding(encoding)
        });
    }
    d.drive(
        &one(
            "combining_max_relaxed/fan_in",
            cached_fan_in_lagging_scenario(),
        ),
        |mem| CombiningMaxRegAlg::relaxed(mem, 3, 1, ReadMode::Cached, 2),
    );
    d.drive(&counter_corpus("combining_counter_relaxed"), |mem| {
        CombiningCounterAlg::relaxed(mem, 3, 1, 2)
    });
    for (tag, recovery) in [("abandoned", false), ("abandoned_recovery", true)] {
        d.drive(&counter_corpus(&format!("{tag}_lagging")), |mem| {
            let alg = CombiningCounterAlg::relaxed(mem, 3, 1, 2).abandon_lock(mem);
            if recovery {
                alg.with_recovery()
            } else {
                alg
            }
        });
        d.drive(&counter_corpus(&format!("{tag}_exact")), |mem| {
            let alg = CombiningCounterAlg::cached(mem, 3, 1).abandon_lock(mem);
            if recovery {
                alg.with_recovery()
            } else {
                alg
            }
        });
    }
    for (tag, mode) in [
        ("exact_binary", RouteMode::Exact),
        ("cached_binary", RouteMode::Cached),
    ] {
        d.drive(&service_corpus(tag), |mem| {
            KeyedDispatchAlg::new(mem, 3, &[1, 2], mode).with_encoding(LaneEncoding::Binary)
        });
    }
}

/// The scenarios `figure1` checked on its own before it rendered from
/// these records: those the Theorem 1 and 9 families lack, then the
/// edges no family above covers (`fig1/<edge>/…`, except where noted);
/// and the baselines: the AAC max register \[6\], Theorem 1's
/// comparison, and the naive multiword fetch&add, §6's open problem.
pub fn claims<D: Driver>(d: &mut D) {
    // Theorem 1: a two-read fan-in, and a three-process run whose
    // third process is idle.
    d.drive(
        &records([
            (
                "thm1/fan_in_two_reads",
                Scenario::new(vec![
                    vec![MaxOp::Write(2)],
                    vec![MaxOp::Write(5)],
                    vec![MaxOp::Read, MaxOp::Read],
                ]),
            ),
            (
                "thm1/mixed_three",
                Scenario::new(vec![
                    vec![MaxOp::Write(3), MaxOp::Read],
                    vec![MaxOp::Write(1), MaxOp::Write(4)],
                    vec![],
                ]),
            ),
        ]),
        |mem| MaxRegAlg::new(mem, 3),
    );
    // Two publishers and a double reader on the shipped binary lanes:
    // the shape that refutes the two-swap cache below.
    d.drive(&one("thm1/two_publishers", two_publishers()), |mem| {
        MaxRegAlg::with_encoding(mem, 3, LaneEncoding::Binary)
    });
    // Theorem 9: two increments against a read and an increment.
    d.drive(
        &one(
            "thm9/mixed_pair",
            Scenario::new(vec![
                vec![FetchIncOp::FetchInc, FetchIncOp::FetchInc],
                vec![FetchIncOp::Read, FetchIncOp::FetchInc],
            ]),
        ),
        FetchIncAlg::new,
    );
    // Theorem 3: snapshot → simple types, counter instance.
    d.drive(
        &records([
            (
                "fig1/thm3/inc_read_pair",
                Scenario::new(vec![
                    vec![CounterOp::Inc, CounterOp::Read],
                    vec![CounterOp::Inc],
                ]),
            ),
            (
                "fig1/thm3/incs_vs_reads",
                Scenario::new(vec![
                    vec![CounterOp::Inc, CounterOp::Inc],
                    vec![CounterOp::Read, CounterOp::Read],
                ]),
            ),
        ]),
        |mem| SimpleAlg::new(mem, 2, CounterSpec),
    );
    // Theorem 5: test&set → readable test&set.
    d.drive(
        &records([
            (
                "fig1/thm5/two_setters_reader",
                Scenario::new(vec![
                    vec![TasOp::TestAndSet],
                    vec![TasOp::TestAndSet],
                    vec![TasOp::Read, TasOp::Read],
                ]),
            ),
            (
                "fig1/thm5/crossed",
                Scenario::new(vec![
                    vec![TasOp::TestAndSet, TasOp::Read],
                    vec![TasOp::Read, TasOp::TestAndSet],
                ]),
            ),
        ]),
        ReadableTasAlg::new,
    );
    // Theorem 6 / Corollary 7: readable multi-shot test&set.
    d.drive(
        &records([
            (
                "fig1/thm6/reset_race",
                Scenario::new(vec![
                    vec![TasOp::TestAndSet, TasOp::Reset],
                    vec![TasOp::TestAndSet],
                ]),
            ),
            (
                "fig1/thm6/reset_reader",
                Scenario::new(vec![
                    vec![TasOp::TestAndSet],
                    vec![TasOp::Reset],
                    vec![TasOp::Read, TasOp::Read],
                ]),
            ),
        ]),
        MultiShotTasAlg::new,
    );
    // Corollary 8's ingredient: the lock-free r/w max register [18, 27].
    d.drive(
        &one(
            "fig1/cor8/write_read_pair",
            Scenario::new(vec![
                vec![MaxOp::Write(2), MaxOp::Read],
                vec![MaxOp::Write(5)],
            ]),
        ),
        |mem| RwMaxRegAlg::new(mem, 2),
    );
    // Theorem 9 ∘ Theorem 5 in one machine: fetch&increment from raw
    // test&set, the readable test&sets inlined.
    d.drive(
        &records([
            (
                "fig1/thm9_5/fan_in",
                Scenario::new(vec![
                    vec![FetchIncOp::FetchInc],
                    vec![FetchIncOp::FetchInc],
                    vec![FetchIncOp::Read],
                ]),
            ),
            (
                "fig1/thm9_5/mixed_pair",
                Scenario::new(vec![
                    vec![FetchIncOp::FetchInc, FetchIncOp::FetchInc],
                    vec![FetchIncOp::Read, FetchIncOp::FetchInc],
                ]),
            ),
        ]),
        FetchIncComposedAlg::new,
    );
    // Theorem 10: the put/take set.
    d.drive(
        &records([
            (
                "fig1/thm10/put_take",
                Scenario::new(vec![vec![SetOp::Put(1)], vec![SetOp::Take]]),
            ),
            (
                "fig1/thm10/put_take_take",
                Scenario::new(vec![vec![SetOp::Put(5), SetOp::Take], vec![SetOp::Take]]),
            ),
        ]),
        SlSetAlg::new,
    );
    // Theorem 17 on the relaxations: the [11]-style queue and stack
    // with multiplicity are linearizable w.r.t. their relaxed specs,
    // and refuted strongly linearizable (racing collect timestamps).
    // Two processes suffice; the figure's old three-process scenario
    // refutes memo-on but runs past 8M states memo-off.
    d.drive(
        &one(
            "fig1/thm17_mult/queue",
            Scenario::new(vec![
                vec![QueueOp::Enq(1)],
                vec![QueueOp::Enq(2), QueueOp::Deq],
            ]),
        ),
        |mem| MultQueueAlg::new(mem, 2),
    );
    d.drive(
        &one(
            "fig1/thm17_mult/stack",
            Scenario::new(vec![
                vec![StackOp::Push(1)],
                vec![StackOp::Push(2), StackOp::Pop, StackOp::Pop],
            ]),
        ),
        |mem| MultStackAlg::new(mem, 2),
    );
    // The AAC trie over 0..4: refuted once a third process observes
    // the race, certified with two.
    d.drive(
        &records([
            (
                "aac/witness_scenario",
                Scenario::new(vec![
                    vec![MaxOp::Write(1)],
                    vec![MaxOp::Write(2)],
                    vec![MaxOp::Read],
                ]),
            ),
            (
                "aac/two_process",
                Scenario::new(vec![
                    vec![MaxOp::Write(2), MaxOp::Read],
                    vec![MaxOp::Write(3), MaxOp::Read],
                ]),
            ),
        ]),
        |mem| AacMaxRegAlg::new(mem, 2),
    );
    // The carry chain: 3 + 2 crosses the narrow word, and a read
    // between the borrow and the carry sees 1, a value the object
    // never holds.
    d.drive(
        &one(
            "multiword_faa/carry_window",
            Scenario::new(vec![vec![FaaOp::Add(3), FaaOp::Add(2)], vec![FaaOp::Read]]),
        ),
        MultiwordFaaAlg::new,
    );
    // The combining cache's retired publication: a read between the
    // swap of 3 and the swap back of 5 returns 3 after Publish(5) has
    // completed.
    d.drive(
        &one("two_swap_cache/two_publishers", two_publishers()),
        TwoSwapCacheAlg::new,
    );
}

/// `[[Publish(5)], [Publish(3)], [Read, Read]]`: two publications of
/// folds, the larger first, against a reader that reads twice.
fn two_publishers() -> Scenario<MaxRegisterSpec> {
    Scenario::new(vec![
        vec![MaxOp::Write(5)],
        vec![MaxOp::Write(3)],
        vec![MaxOp::Read, MaxOp::Read],
    ])
}

/// The combining cache before it became a Theorem-1 max register: one
/// swap word, whose publication swaps the fold in and then swaps a
/// displaced larger fold back.
#[derive(Debug, Clone)]
struct TwoSwapCacheAlg {
    cache: Loc,
}

impl TwoSwapCacheAlg {
    fn new(mem: &mut SimMemory) -> Self {
        TwoSwapCacheAlg {
            cache: mem.alloc(Cell::Swap(0)),
        }
    }
}

impl Algorithm for TwoSwapCacheAlg {
    type Spec = MaxRegisterSpec;
    type Machine = TwoSwapCacheMachine;

    fn spec(&self) -> MaxRegisterSpec {
        MaxRegisterSpec
    }

    fn machine(&self, _process: usize, op: &MaxOp) -> TwoSwapCacheMachine {
        match *op {
            MaxOp::Write(fold) => TwoSwapCacheMachine::Publish(self.cache, fold),
            MaxOp::Read => TwoSwapCacheMachine::Read(self.cache),
        }
    }
}

/// One publication or read of the two-swap cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TwoSwapCacheMachine {
    /// Swap the fold in.
    Publish(Loc, u64),
    /// The swap displaced this larger fold: swap it back.
    Repair(Loc, u64),
    /// One read of the cache word.
    Read(Loc),
}

impl OpMachine for TwoSwapCacheMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match *self {
            TwoSwapCacheMachine::Publish(cache, fold) => match mem.swap(cache, fold) {
                prev if prev > fold => {
                    *self = TwoSwapCacheMachine::Repair(cache, prev);
                    Step::Pending
                }
                _ => Step::Ready(MaxResp::Ok),
            },
            TwoSwapCacheMachine::Repair(cache, prev) => {
                mem.swap(cache, prev);
                Step::Ready(MaxResp::Ok)
            }
            TwoSwapCacheMachine::Read(cache) => Step::Ready(MaxResp::Value(mem.read(cache))),
        }
    }
}
