//! Property tests for the verification substrate itself: the
//! linearizability and strong-linearizability checkers must be sound
//! on randomly generated scenarios.

use proptest::prelude::*;
use sl2::prelude::*;
use sl2_exec::history::{History, OpId};
use sl2_exec::lin::validate_linearization;
use sl2_exec::mem::Cell;
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

/// Atomic max register machine: every operation is one step. Such an
/// object is strongly linearizable on EVERY scenario — if the checker
/// ever disagrees, the checker is broken.
#[derive(Debug, Clone)]
struct AtomicMax {
    loc: sl2_exec::Loc,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum AtomicMaxMachine {
    Write(sl2_exec::Loc, u64),
    Read(sl2_exec::Loc),
}

impl sl2_exec::OpMachine for AtomicMaxMachine {
    type Resp = MaxResp;
    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match *self {
            AtomicMaxMachine::Write(loc, v) => {
                mem.max_write(loc, v);
                Step::Ready(MaxResp::Ok)
            }
            AtomicMaxMachine::Read(loc) => Step::Ready(MaxResp::Value(mem.max_read(loc))),
        }
    }
}

impl Algorithm for AtomicMax {
    type Spec = MaxRegisterSpec;
    type Machine = AtomicMaxMachine;
    fn spec(&self) -> MaxRegisterSpec {
        MaxRegisterSpec
    }
    fn machine(&self, _p: usize, op: &MaxOp) -> AtomicMaxMachine {
        match op {
            MaxOp::Write(v) => AtomicMaxMachine::Write(self.loc, *v),
            MaxOp::Read => AtomicMaxMachine::Read(self.loc),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = MaxOp> {
    prop_oneof![(1u64..5).prop_map(MaxOp::Write), Just(MaxOp::Read),]
}

fn scenario_strategy() -> impl Strategy<Value = Vec<Vec<MaxOp>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 0..3), 2..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Soundness: atomic objects are strongly linearizable on every
    /// scenario.
    #[test]
    fn atomic_objects_always_pass_strong_check(ops in scenario_strategy()) {
        let mut mem = SimMemory::new();
        let alg = AtomicMax { loc: mem.alloc(Cell::AMaxReg(0)) };
        let scenario = Scenario::new(ops);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        prop_assert!(out.is_certified(), "{:?}", out.outcome);
    }

    /// Soundness: every history the Theorem 1 machine produces under a
    /// random schedule is linearizable, and the linearization the
    /// checker returns validates.
    #[test]
    fn theorem1_histories_linearize_and_validate(
        ops in scenario_strategy(),
        seed in 0u64..1000,
    ) {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 3);
        let scenario = Scenario::new({
            let mut v = ops;
            v.resize(3, Vec::new());
            v.truncate(3);
            v
        });
        let exec = sl2_exec::sched::run(
            &alg,
            mem,
            &scenario,
            &mut RandomSched::seeded(seed),
            &CrashPlan::none(3),
        );
        let lin = linearize(&MaxRegisterSpec, &exec.history);
        prop_assert!(lin.is_some(), "history: {:?}", exec.history);
        prop_assert_eq!(
            &lin,
            &reference_differential::reference_linearize(&MaxRegisterSpec, &exec.history)
        );
        validate_linearization(&MaxRegisterSpec, &exec.history, &lin.expect("checked"))
            .map_err(TestCaseError::fail)?;
    }

    /// Completeness-ish: corrupting a completed response in a real
    /// history makes it non-linearizable whenever the corruption
    /// contradicts the running maximum.
    #[test]
    fn corrupted_histories_are_rejected(seed in 0u64..500) {
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(3), MaxOp::Read],
            vec![MaxOp::Write(1)],
        ]);
        let exec = sl2_exec::sched::run(
            &alg,
            mem,
            &scenario,
            &mut RandomSched::seeded(seed),
            &CrashPlan::none(2),
        );
        // Rebuild the history with the Read's response inflated beyond
        // any written value: never linearizable.
        let mut h: History<MaxRegisterSpec> = History::new();
        for ev in exec.history.events() {
            match ev {
                sl2_exec::history::Event::Invoke { id, process, op } => {
                    h.invoke(*id, *process, *op)
                }
                sl2_exec::history::Event::Return { id, resp } => {
                    let resp = match resp {
                        MaxResp::Value(_) => MaxResp::Value(99),
                        other => *other,
                    };
                    h.ret(*id, resp);
                }
            }
        }
        prop_assert!(!is_linearizable(&MaxRegisterSpec, &h));
    }

    /// The execution-tree explorer and the scheduler runner agree:
    /// every history produced by a random schedule also appears in the
    /// exhaustive enumeration.
    #[test]
    fn random_schedules_are_a_subset_of_the_tree(seed in 0u64..200) {
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2)],
            vec![MaxOp::Read],
        ]);
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 2);
        let exec = sl2_exec::sched::run(
            &alg,
            mem.clone(),
            &scenario,
            &mut RandomSched::seeded(seed),
            &CrashPlan::none(2),
        );
        // Histories in the tree use canonical (process-derived) op
        // ids; compare on the event *shapes* instead.
        let shape = |h: &History<MaxRegisterSpec>| -> Vec<String> {
            h.events()
                .iter()
                .map(|e| match e {
                    sl2_exec::history::Event::Invoke { process, op, .. } => {
                        format!("I{process}{op:?}")
                    }
                    sl2_exec::history::Event::Return { resp, .. } => format!("R{resp:?}"),
                })
                .collect()
        };
        let target = shape(&exec.history);
        let mut found = false;
        for_each_history(&alg, mem, &scenario, 1_000_000, &mut |h| {
            if shape(h) == target {
                found = true;
            }
        });
        prop_assert!(found, "missing history shape {target:?}");
    }
}

#[test]
fn checker_witness_replays_to_a_real_execution() {
    // The strong-checker witness for the AGM stack describes a genuine
    // schedule prefix: its length is meaningful and mentions only real
    // processes.
    use sl2_core::baselines::agm_stack::AgmStackAlg;
    use sl2_spec::fifo::StackOp;
    let mut mem = SimMemory::new();
    let alg = AgmStackAlg::new(&mut mem);
    let scenario = Scenario::new(vec![
        vec![StackOp::Push(1)],
        vec![StackOp::Push(2)],
        vec![StackOp::Pop, StackOp::Pop],
    ]);
    let out = check_strong(&alg, mem, &scenario, 16_000_000);
    let witness = out.witness().expect("AGM refuted");
    for event in &witness.path {
        assert!(
            event.starts_with("p0") || event.starts_with("p1") || event.starts_with("p2"),
            "unexpected event: {event}"
        );
    }
}

#[test]
fn op_ids_in_enumerated_histories_are_canonical() {
    // PR 4 widened the OpId packing from 1024 to 2^32 per-process
    // operations: process 1's first op now sits at 1 << 32.
    let scenario: Scenario<MaxRegisterSpec> =
        Scenario::new(vec![vec![MaxOp::Write(1)], vec![MaxOp::Read]]);
    let mut mem = SimMemory::new();
    let alg = MaxRegAlg::new(&mut mem, 2);
    for_each_history(&alg, mem, &scenario, 100_000, &mut |h| {
        let ids: Vec<OpId> = h.ops().iter().map(|r| r.id).collect();
        for id in ids {
            assert!(id.0 == 0 || id.0 == 1 << 32, "canonical ids: {id:?}");
        }
    });
}

// ---------------------------------------------------------------------
// E24 differential: the corpus run with memoization on vs off must
// produce identical verdicts AND witnesses of identical feasibility —
// and every certification must survive the for_each_history
// cross-check (a certified scenario cannot have a non-linearizable
// history; a refuted one must carry a replayable witness).
// ---------------------------------------------------------------------

mod memo_differential {
    use super::*;
    use sl2_exec::{
        check_strong, validate_witness, CorpusOptions, CorpusReport, CorpusVerdict, MemoMode,
        ScenarioCorpus, StrongOptions,
    };

    /// Non-atomic counter increment (read; write): the refutation-rich
    /// half of the differential corpus.
    #[derive(Debug, Clone)]
    struct RacyCounter {
        loc: sl2_exec::Loc,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum RacyMachine {
        IncRead(sl2_exec::Loc),
        IncWrite(sl2_exec::Loc, u64),
        Read(sl2_exec::Loc),
    }

    impl OpMachine for RacyMachine {
        type Resp = sl2_spec::counters::CounterResp;
        fn step(&mut self, mem: &mut SimMemory) -> Step<Self::Resp> {
            use sl2_spec::counters::CounterResp;
            match *self {
                RacyMachine::IncRead(loc) => {
                    let v = mem.read(loc);
                    *self = RacyMachine::IncWrite(loc, v);
                    Step::Pending
                }
                RacyMachine::IncWrite(loc, v) => {
                    mem.write(loc, v + 1);
                    Step::Ready(CounterResp::Ok)
                }
                RacyMachine::Read(loc) => Step::Ready(CounterResp::Value(mem.read(loc))),
            }
        }
    }

    impl Algorithm for RacyCounter {
        type Spec = sl2_spec::counters::CounterSpec;
        type Machine = RacyMachine;
        fn spec(&self) -> Self::Spec {
            sl2_spec::counters::CounterSpec
        }
        fn machine(&self, _p: usize, op: &sl2_spec::counters::CounterOp) -> RacyMachine {
            use sl2_spec::counters::CounterOp;
            match op {
                CounterOp::Inc => RacyMachine::IncRead(self.loc),
                CounterOp::Read => RacyMachine::Read(self.loc),
            }
        }
    }

    fn racy_counter(mem: &mut SimMemory) -> RacyCounter {
        RacyCounter {
            loc: mem.alloc(Cell::Reg(0)),
        }
    }

    fn counter_corpus() -> ScenarioCorpus<sl2_spec::counters::CounterSpec> {
        use sl2_spec::counters::CounterOp;
        let mut corpus = ScenarioCorpus::new();
        corpus.symmetric_family("racy", &[2, 3], &[CounterOp::Inc, CounterOp::Read], 1);
        corpus.fan_in_family(
            "racy",
            &[CounterOp::Inc, CounterOp::Read],
            2,
            &[CounterOp::Read],
        );
        corpus
    }

    fn max_corpus() -> ScenarioCorpus<MaxRegisterSpec> {
        let mut corpus = ScenarioCorpus::new();
        corpus.symmetric_family("thm1", &[2], &[MaxOp::Write(2), MaxOp::Read], 2);
        corpus
    }

    /// Runs one `(make, corpus)` pair through the full differential:
    /// memo-on/memo-off verdict equality, witness feasibility in both
    /// modes, and the history cross-check on every verdict.
    fn differential<A, F>(make: F, corpus: &ScenarioCorpus<A::Spec>)
    where
        A: Algorithm,
        F: Fn(&mut SimMemory) -> A,
    {
        let opts = |memoize| CorpusOptions {
            per_scenario_limit: 4_000_000,
            memo: if memoize {
                MemoMode::Canonical
            } else {
                MemoMode::Off
            },
        };
        let mut on = CorpusReport::new(usize::MAX);
        corpus.run_into(&make, &opts(true), &mut on);
        let mut off = CorpusReport::new(usize::MAX);
        corpus.run_into(&make, &opts(false), &mut off);
        for ((a, b), (name, scenario)) in on.records.iter().zip(&off.records).zip(corpus.entries())
        {
            assert_eq!(a.verdict, b.verdict, "memo ablation disagrees on {name}");
            match a.verdict {
                CorpusVerdict::Certified => {
                    // Cross-check: certified ⇒ every complete history
                    // of the scenario is linearizable.
                    let mut mem = SimMemory::new();
                    let alg = make(&mut mem);
                    let spec = alg.spec();
                    for_each_history(&alg, mem, scenario, 4_000_000, &mut |h| {
                        assert!(
                            is_linearizable(&spec, h),
                            "{name}: certified but history {h:?} is not linearizable"
                        );
                    });
                }
                CorpusVerdict::Refuted => {
                    // Cross-check: both modes' witnesses replay as real
                    // schedules reaching the dying step.
                    for memoize in [true, false] {
                        let mut mem = SimMemory::new();
                        let alg = make(&mut mem);
                        let out = check_strong(
                            &alg,
                            mem.clone(),
                            scenario,
                            StrongOptions::with_limit(4_000_000).memoize(memoize),
                        );
                        let w = out.witness().expect("refuted scenarios carry witnesses");
                        assert_eq!(w.path.len(), w.schedule.len());
                        validate_witness(&alg, mem, scenario, w).unwrap_or_else(|e| {
                            panic!("{name} (memoize={memoize}): witness does not replay: {e}")
                        });
                    }
                }
                CorpusVerdict::Bounded => panic!("{name}: differential corpus hit the budget"),
            }
        }
    }

    #[test]
    fn corpus_verdicts_and_witnesses_agree_across_memo_modes() {
        differential(racy_counter, &counter_corpus());
        differential(|mem| MaxRegAlg::new(mem, 3), &max_corpus());
    }

    /// Every scenario of 2–3 processes with 1–2 operations each and at
    /// most `max_ops` in all, over `alphabet`, in a fixed order.
    fn small_scenarios<O: Clone>(alphabet: &[O], max_ops: usize) -> Vec<Vec<Vec<O>>> {
        let mut lists: Vec<Vec<O>> = alphabet.iter().map(|o| vec![o.clone()]).collect();
        for a in alphabet {
            for b in alphabet {
                lists.push(vec![a.clone(), b.clone()]);
            }
        }
        let mut out: Vec<Vec<Vec<O>>> = Vec::new();
        let mut partial: Vec<Vec<Vec<O>>> = vec![Vec::new()];
        for processes in 1..=3 {
            partial = partial
                .iter()
                .flat_map(|s| {
                    lists.iter().filter_map(move |l| {
                        let total: usize = s.iter().map(Vec::len).sum::<usize>() + l.len();
                        (total <= max_ops).then(|| s.iter().cloned().chain([l.clone()]).collect())
                    })
                })
                .collect();
            if processes >= 2 {
                out.extend(partial.iter().cloned());
            }
        }
        out
    }

    /// Checks every [`small_scenarios`] member of `alphabet` with at
    /// most `max_ops` operations in both memo modes, asserting they
    /// agree scenario by scenario, and returns `(scenarios, refuted,
    /// digest)`: the digest folds the refuted members' positions, so it
    /// pins which ones are refuted.
    fn refutations<A: Algorithm>(
        make: impl Fn(&mut SimMemory) -> A,
        alphabet: &[<A::Spec as sl2_spec::Spec>::Op],
        max_ops: usize,
    ) -> (usize, usize, u64) {
        let scenarios = small_scenarios(alphabet, max_ops);
        let (mut refuted, mut digest) = (0, 0xcbf2_9ce4_8422_2325u64);
        for (i, ops) in scenarios.iter().enumerate() {
            let scenario = Scenario::new(ops.clone());
            let verdicts: Vec<bool> = [true, false]
                .map(|memoize| {
                    let mut mem = SimMemory::new();
                    let alg = make(&mut mem);
                    let options = StrongOptions::with_limit(1_000_000).memoize(memoize);
                    let out = check_strong(&alg, mem, &scenario, options);
                    assert!(!out.is_bounded(), "{ops:?} memoize={memoize}: bounded");
                    out.is_refuted()
                })
                .into();
            assert_eq!(verdicts[0], verdicts[1], "memo modes disagree on {ops:?}");
            if verdicts[0] {
                refuted += 1;
                digest = (digest ^ i as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        (scenarios.len(), refuted, digest)
    }

    #[test]
    fn generated_families_reproduce_the_unreduced_verdicts() {
        // An independent differential for the search's reductions (lazy
        // linearization in both memo modes, sleep sets memo-off): every
        // small scenario of each family, checked in both modes. The
        // sharded twins refute at S = 2; their counts and digests were
        // computed by the engine before either reduction and reproduce
        // the refuted column of ROADMAP item 15's table (232 of 1 232
        // and 20 of 92). The array, CAS and combining twins write cells
        // of their own (a pushed node, a lane) between shared steps, so
        // sleep sets over independent cells act on them; theirs were
        // computed memo-on by the engine before sleep sets looked at
        // which cell a step touched.
        use sl2_combine::{CombiningCounterAlg, CombiningMaxRegAlg, ReadMode};
        use sl2_core::baselines::agm_stack::AgmStackAlg;
        use sl2_core::baselines::cas_queue::CasQueueAlg;
        use sl2_core::baselines::treiber_stack::TreiberStackAlg;
        use sl2_spec::counters::CounterOp;
        use sl2_spec::fifo::{QueueOp, StackOp};
        let max = refutations(
            |mem| ShardedMaxRegAlg::new(mem, 3, 2),
            &[
                MaxOp::Write(1),
                MaxOp::Write(2),
                MaxOp::Write(3),
                MaxOp::Read,
            ],
            4,
        );
        assert_eq!(
            max,
            (1_232, 232, 15_303_947_530_520_003_896),
            "ShardedMaxRegAlg S=2"
        );
        let counter = refutations(
            |mem| ShardedCounterAlg::exact(mem, 3, 2),
            &[CounterOp::Inc, CounterOp::Read],
            4,
        );
        assert_eq!(
            counter,
            (92, 20, 12_435_206_701_303_467_307),
            "ShardedCounterAlg::exact S=2"
        );
        let stack = [StackOp::Push(1), StackOp::Push(2), StackOp::Pop];
        assert_eq!(
            refutations(AgmStackAlg::new, &stack, 4),
            (414, 162, 15_999_331_921_705_914_903),
            "AgmStackAlg"
        );
        // Memo-off, ≤ 3 ops: 95 195 507 nodes while only quiet steps
        // slept, 154 217 since independent cells do.
        assert_eq!(
            refutations(TreiberStackAlg::new, &stack, 3),
            (90, 0, 14_695_981_039_346_656_037),
            "TreiberStackAlg"
        );
        assert_eq!(
            refutations(
                CasQueueAlg::new,
                &[QueueOp::Enq(1), QueueOp::Enq(2), QueueOp::Deq],
                4
            ),
            (414, 0, 14_695_981_039_346_656_037),
            "CasQueueAlg"
        );
        // ~0.7 s each in release, ~4 s each in a debug build: CI's
        // release run of this suite checks them.
        if !cfg!(debug_assertions) {
            assert_eq!(
                refutations(
                    |mem| CombiningMaxRegAlg::new(mem, 3, 1, ReadMode::Cached),
                    &[MaxOp::Write(1), MaxOp::Write(2), MaxOp::Read],
                    3
                ),
                (90, 20, 7_012_378_477_342_534_497),
                "CombiningMaxRegAlg cached S=1"
            );
            assert_eq!(
                refutations(
                    |mem| CombiningCounterAlg::cached(mem, 3, 1),
                    &[CounterOp::Inc, CounterOp::Read],
                    4
                ),
                (92, 37, 735_509_880_977_349_618),
                "CombiningCounterAlg::cached"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// Randomized differential: generated scenarios over the racy
        /// counter (verdicts of both kinds) run memoized and
        /// unmemoized; verdicts agree and refutation witnesses replay
        /// in both modes.
        #[test]
        fn random_scenarios_agree_across_memo_modes(
            ops in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![
                        Just(sl2_spec::counters::CounterOp::Inc),
                        Just(sl2_spec::counters::CounterOp::Read),
                    ],
                    0..3,
                ),
                2..4,
            )
        ) {
            let scenario = Scenario::new(ops);
            let mut verdicts = Vec::new();
            for memoize in [true, false] {
                let mut mem = SimMemory::new();
                let alg = racy_counter(&mut mem);
                let out = check_strong(
                    &alg,
                    mem.clone(),
                    &scenario,
                    StrongOptions::with_limit(4_000_000).memoize(memoize),
                );
                prop_assert!(!out.is_bounded(), "{:?}", out.outcome);
                if let Some(w) = out.witness() {
                    validate_witness(&alg, mem, &scenario, w)
                        .map_err(TestCaseError::fail)?;
                }
                verdicts.push(out.is_certified());
            }
            prop_assert_eq!(verdicts[0], verdicts[1], "memo ablation flipped a verdict");
        }
    }
}

// ---------------------------------------------------------------------
// Nondeterministic-spec positive controls: deterministic single-step
// machines checked against the *relaxed* multiplicity queue spec. Both
// resolution policies (exact dequeue; greedy duplication) must pass —
// if the checker mishandles multi-outcome specs, these fail.
// ---------------------------------------------------------------------

mod relaxed_controls {
    use sl2::prelude::*;
    use sl2_exec::mem::Cell;
    use sl2_spec::fifo::{QueueOp, QueueResp};
    use sl2_spec::relaxed::MultiplicityQueueSpec;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    struct AtomicRelaxedQueue {
        loc: sl2_exec::Loc,
        duplicate: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum QMachine {
        Enq(sl2_exec::Loc, u64),
        Deq(sl2_exec::Loc, bool),
    }

    impl OpMachine for QMachine {
        type Resp = QueueResp;
        fn step(&mut self, mem: &mut SimMemory) -> Step<QueueResp> {
            match *self {
                QMachine::Enq(loc, v) => {
                    mem.queue_enq(loc, v);
                    Step::Ready(QueueResp::Ok)
                }
                QMachine::Deq(loc, dup) => {
                    let got = if dup {
                        mem.queue_deq_dup(loc)
                    } else {
                        mem.queue_deq(loc)
                    };
                    Step::Ready(match got {
                        Some(v) => QueueResp::Item(v),
                        None => QueueResp::Empty,
                    })
                }
            }
        }
    }

    impl Algorithm for AtomicRelaxedQueue {
        type Spec = MultiplicityQueueSpec;
        type Machine = QMachine;
        fn spec(&self) -> MultiplicityQueueSpec {
            MultiplicityQueueSpec
        }
        fn machine(&self, _p: usize, op: &QueueOp) -> QMachine {
            match op {
                QueueOp::Enq(v) => QMachine::Enq(self.loc, *v),
                QueueOp::Deq => QMachine::Deq(self.loc, self.duplicate),
            }
        }
    }

    fn fresh(duplicate: bool) -> (SimMemory, AtomicRelaxedQueue) {
        let mut mem = SimMemory::new();
        let loc = mem.alloc(Cell::AQueue {
            items: VecDeque::new(),
            last: None,
        });
        (mem, AtomicRelaxedQueue { loc, duplicate })
    }

    fn scenarios() -> Vec<Scenario<MultiplicityQueueSpec>> {
        vec![
            Scenario::new(vec![
                vec![QueueOp::Enq(1)],
                vec![QueueOp::Enq(2)],
                vec![QueueOp::Deq, QueueOp::Deq],
            ]),
            Scenario::new(vec![
                vec![QueueOp::Enq(1), QueueOp::Deq],
                vec![QueueOp::Deq],
                vec![QueueOp::Deq],
            ]),
            Scenario::new(vec![
                vec![QueueOp::Enq(1), QueueOp::Enq(2)],
                vec![QueueOp::Deq, QueueOp::Deq, QueueOp::Deq],
            ]),
        ]
    }

    #[test]
    fn exact_atomic_queue_is_sl_wrt_multiplicity_spec() {
        for scenario in scenarios() {
            let (mem, alg) = fresh(false);
            let out = check_strong(&alg, mem, &scenario, 4_000_000);
            assert!(out.is_certified(), "{scenario:?}: {:?}", out.outcome);
        }
    }

    #[test]
    fn greedily_duplicating_atomic_queue_is_sl_wrt_multiplicity_spec() {
        for scenario in scenarios() {
            let (mem, alg) = fresh(true);
            let out = check_strong(&alg, mem, &scenario, 4_000_000);
            assert!(out.is_certified(), "{scenario:?}: {:?}", out.outcome);
        }
    }

    #[test]
    fn exact_atomic_queue_is_not_sl_wrt_exact_spec_control() {
        // Control of the control: the duplicating machine checked
        // against the EXACT queue spec must fail (its duplicate
        // responses are simply wrong there).
        use sl2_spec::fifo::QueueSpec;

        #[derive(Debug, Clone)]
        struct DupVsExact(AtomicRelaxedQueue);
        impl Algorithm for DupVsExact {
            type Spec = QueueSpec;
            type Machine = QMachine;
            fn spec(&self) -> QueueSpec {
                QueueSpec
            }
            fn machine(&self, p: usize, op: &QueueOp) -> QMachine {
                self.0.machine(p, op)
            }
        }

        let (mem, alg) = fresh(true);
        let scenario = Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Enq(2)],
            vec![QueueOp::Deq, QueueOp::Deq],
        ]);
        let out = check_strong(&DupVsExact(alg), mem, &scenario, 4_000_000);
        assert!(
            out.is_refuted(),
            "duplicates must violate the exact queue spec"
        );
    }
}

// ---------------------------------------------------------------------
// The reference differential: `linearize` against the bitmask
// Wing–Gong search it replaced, kept below verbatim as the reference
// implementation. On every input the two return the identical
// `Option<Linearization>` — same order, same responses assigned to
// pending ops — because the cursor search visits the same nodes in the
// same order (DESIGN.md §7 "The history checker").
// ---------------------------------------------------------------------

mod reference_differential {
    use super::*;
    use rand::{Rng, SeedableRng};
    use sl2_exec::history::{Event, OpRecord};
    use sl2_exec::lin::Linearization;
    use sl2_exec::sched;
    use sl2_spec::keyed::{KeyedMaxOp, KeyedMaxSpec, LaggingKeyedMaxSpec};
    use sl2_spec::Spec;
    use std::collections::HashSet;

    /// Searches for a linearization of `history` against `spec`.
    ///
    /// Returns `Some(linearization)` if one exists, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the history has more than 128 operations (the checker is
    /// meant for bounded scenarios).
    pub fn reference_linearize<S: Spec>(
        spec: &S,
        history: &History<S>,
    ) -> Option<Linearization<S>> {
        let ops = history.ops();
        assert!(ops.len() <= 128, "checker supports at most 128 operations");
        debug_assert!(history.is_well_formed(), "ill-formed history");

        // Precedence matrix: must[i] = bitmask of ops that must precede op i.
        let n = ops.len();
        let mut must = vec![0u128; n];
        for (i, a) in ops.iter().enumerate() {
            for (j, b) in ops.iter().enumerate() {
                if i != j && history.precedes(a, b) {
                    must[j] |= 1u128 << i;
                }
            }
        }
        let complete_mask: u128 = ops
            .iter()
            .enumerate()
            .filter(|(_, r)| r.returned.is_some())
            .fold(0, |m, (i, _)| m | (1u128 << i));

        let mut visited: HashSet<(u128, S::State)> = HashSet::new();
        let mut chosen: Vec<(usize, S::Resp)> = Vec::new();
        if dfs(
            spec,
            &ops,
            &must,
            complete_mask,
            0,
            spec.initial(),
            &mut visited,
            &mut chosen,
        ) {
            Some(
                chosen
                    .iter()
                    .map(|(i, r)| (ops[*i].id, ops[*i].op.clone(), r.clone()))
                    .collect(),
            )
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs<S: Spec>(
        spec: &S,
        ops: &[OpRecord<S>],
        must: &[u128],
        complete_mask: u128,
        placed: u128,
        state: S::State,
        visited: &mut HashSet<(u128, S::State)>,
        chosen: &mut Vec<(usize, S::Resp)>,
    ) -> bool {
        if complete_mask & !placed == 0 {
            // All complete ops placed; pending ops may be dropped.
            return true;
        }
        if !visited.insert((placed, state.clone())) {
            return false;
        }
        for (i, rec) in ops.iter().enumerate() {
            let bit = 1u128 << i;
            if placed & bit != 0 {
                continue;
            }
            // Every operation that must precede i has to be placed already.
            if must[i] & !placed != 0 {
                continue;
            }
            match &rec.returned {
                Some((resp, _)) => {
                    for next in spec.accept(&state, &rec.op, resp) {
                        chosen.push((i, resp.clone()));
                        if dfs(
                            spec,
                            ops,
                            must,
                            complete_mask,
                            placed | bit,
                            next,
                            visited,
                            chosen,
                        ) {
                            return true;
                        }
                        chosen.pop();
                    }
                }
                None => {
                    // A pending op may linearize with any legal outcome.
                    for (next, resp) in spec.step(&state, &rec.op) {
                        chosen.push((i, resp.clone()));
                        if dfs(
                            spec,
                            ops,
                            must,
                            complete_mask,
                            placed | bit,
                            next,
                            visited,
                            chosen,
                        ) {
                            return true;
                        }
                        chosen.pop();
                    }
                }
            }
        }
        false
    }

    /// `linearize` and the reference agree exactly, and
    /// `is_linearizable` (per key where the spec has keys) agrees with
    /// both; returns the linearization, validated.
    pub fn agrees<S: Spec>(spec: &S, history: &History<S>) -> Option<Linearization<S>> {
        let lin = linearize(spec, history);
        assert_eq!(
            lin,
            reference_linearize(spec, history),
            "history: {history:?}"
        );
        assert_eq!(
            is_linearizable(spec, history),
            lin.is_some(),
            "verdict, history: {history:?}"
        );
        if let Some(lin) = &lin {
            validate_linearization(spec, history, lin).expect("valid");
        }
        lin
    }

    /// Tallies what a differential exercised: verdicts of each kind, and
    /// linearizations that took a pending op with an assigned response.
    #[derive(Debug, Default)]
    struct Coverage {
        accepted: usize,
        rejected: usize,
        pending_placed: usize,
    }

    impl Coverage {
        fn add<S: Spec>(&mut self, history: &History<S>, lin: Option<Linearization<S>>) {
            let Some(lin) = lin else {
                self.rejected += 1;
                return;
            };
            self.accepted += 1;
            let pending = history.pending_ops();
            if lin
                .iter()
                .any(|(id, _, _)| pending.iter().any(|r| r.id == *id))
            {
                self.pending_placed += 1;
            }
        }
    }

    /// `history` with the return event at index `at` answering `resp`.
    fn with_return<S: Spec>(history: &History<S>, at: usize, resp: S::Resp) -> History<S> {
        let mut out = History::new();
        for (j, e) in history.events().iter().enumerate() {
            match e {
                Event::Invoke { id, process, op } => out.invoke(*id, *process, op.clone()),
                Event::Return { id, .. } if j == at => out.ret(*id, resp.clone()),
                Event::Return { id, resp } => out.ret(*id, resp.clone()),
            }
        }
        out
    }

    /// Indices of the return events whose response satisfies `pred`.
    fn returns<S: Spec>(history: &History<S>, pred: impl Fn(&S::Resp) -> bool) -> Vec<usize> {
        let events = history.events().iter().enumerate();
        events
            .filter(|(_, e)| matches!(e, Event::Return { resp, .. } if pred(resp)))
            .map(|(at, _)| at)
            .collect()
    }

    /// One seeded run of `alg` over `ops` under a random schedule, with
    /// the processes in `crashes` halting after a few steps.
    fn run<A: Algorithm>(
        make: impl Fn(&mut SimMemory) -> A,
        ops: Vec<Vec<<A::Spec as Spec>::Op>>,
        seed: u64,
        crashes: &[(usize, u64)],
    ) -> History<A::Spec> {
        let n = ops.len();
        let plan = crashes
            .iter()
            .fold(CrashPlan::none(n), |plan, &(p, steps)| {
                plan.crash_after(p, steps)
            });
        let mut mem = SimMemory::new();
        let alg = make(&mut mem);
        let scenario = Scenario::new(ops);
        sched::run(&alg, mem, &scenario, &mut RandomSched::seeded(seed), &plan).history
    }

    /// A benchmark-shaped op list: 3 processes × `per` keyed ops over
    /// keys {1, 2}, values 1..=8.
    fn keyed_ops(rng: &mut rand::rngs::StdRng, per: usize) -> Vec<Vec<KeyedMaxOp>> {
        let mut op = || {
            let key = rng.gen_range(1..3u64);
            match rng.gen_range(0..2u32) {
                0 => KeyedMaxOp::Write {
                    key,
                    v: rng.gen_range(1..9u64),
                },
                _ => KeyedMaxOp::Read { key },
            }
        };
        (0..3).map(|_| (0..per).map(|_| op()).collect()).collect()
    }

    fn keyed_twin(mem: &mut SimMemory) -> KeyedDispatchAlg {
        KeyedDispatchAlg::new(mem, 3, &[1, 2], RouteMode::Exact)
    }

    /// A value no generated write carries.
    const NEVER_WRITTEN: u64 = 9_999;

    #[test]
    fn benchmark_shaped_keyed_histories_match_the_reference() {
        // The `checker` workload's `lin` phase: 3 × 20 ops of the
        // dispatch twin, every other history with one read rewritten
        // to a value nobody wrote.
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let mut planted = 0;
        for i in 0..2_000 {
            let ops = keyed_ops(&mut rng, 20);
            let mut history = run(keyed_twin, ops, rng.gen(), &[]);
            let reads = returns(&history, |r| matches!(r, MaxResp::Value(_)));
            let plant = i % 2 == 1 && !reads.is_empty();
            if plant {
                let at = reads[rng.gen_range(0..reads.len())];
                history = with_return(&history, at, MaxResp::Value(NEVER_WRITTEN));
                planted += 1;
            }
            let lin = agrees(&KeyedMaxSpec, &history);
            assert_eq!(lin.is_some(), !plant, "history {i}");
        }
        assert!(planted >= 950, "{planted} planted");
    }

    /// Up to two crashes among `procs` processes, each after
    /// 0..`max_steps` steps.
    fn crashes(rng: &mut rand::rngs::StdRng, procs: usize, max_steps: u64) -> Vec<(usize, u64)> {
        let n = rng.gen_range(0..3usize);
        (0..n)
            .map(|_| (rng.gen_range(0..procs), rng.gen_range(0..max_steps)))
            .collect()
    }

    #[test]
    fn crash_pending_histories_match_the_reference() {
        // Crash-stopped processes leave pending ops, which may be
        // dropped or linearized with an assigned response; a corrupted
        // read makes some of these histories non-linearizable.
        let mut seen = Coverage::default();
        for seed in 0..500 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let crashes = crashes(&mut rng, 3, 12);
            let mut history = run(keyed_twin, keyed_ops(&mut rng, 6), seed, &crashes);
            let reads = returns(&history, |r| matches!(r, MaxResp::Value(_)));
            let corrupt = rng.gen_range(0..4u64);
            if corrupt > 0 && !reads.is_empty() {
                let at = reads[rng.gen_range(0..reads.len())];
                history = with_return(&history, at, MaxResp::Value(corrupt));
            }
            seen.add(&history, agrees(&KeyedMaxSpec, &history));
        }
        assert!(
            seen.rejected >= 100 && seen.accepted >= 100 && seen.pending_placed >= 40,
            "{seen:?}"
        );
    }

    /// `procs` processes × `per` keyed ops over keys 1..=`keys`, values
    /// 1..=8. Each process's first two ops take two different keys below
    /// `keys`, so key `keys` is first invoked after ops on two others.
    fn wide_keyed_ops(
        rng: &mut rand::rngs::StdRng,
        procs: u64,
        per: u64,
        keys: u64,
    ) -> Vec<Vec<KeyedMaxOp>> {
        let mut op = |p: u64, j: u64| {
            let key = match j {
                0 | 1 => 1 + (p + j) % (keys - 1),
                _ => rng.gen_range(1..keys + 1),
            };
            match rng.gen_range(0..2u32) {
                0 => KeyedMaxOp::Write {
                    key,
                    v: rng.gen_range(1..9u64),
                },
                _ => KeyedMaxOp::Read { key },
            }
        };
        (0..procs)
            .map(|p| (0..per).map(|j| op(p, j)).collect())
            .collect()
    }

    /// Whether some process's ops on some key are all pending: the
    /// partition links a row whose only entries place nothing.
    fn a_key_only_pending_for_a_process<S: Spec>(spec: &S, history: &History<S>) -> bool {
        let complete = history.complete_ops();
        history.pending_ops().iter().any(|pending| {
            let key = spec.key_of(&pending.op);
            !complete
                .iter()
                .any(|c| c.process == pending.process && spec.key_of(&c.op) == key)
        })
    }

    /// History `seed` of a keyed twin over `keys` keys and `procs`
    /// processes, `per` ops each, with crashes; with the generator after
    /// drawing it, and its crashes.
    fn wide_keyed_run<A: Algorithm<Spec = S>, S: Spec<Op = KeyedMaxOp>>(
        make: impl Fn(&mut SimMemory) -> A,
        (keys, procs, per): (u64, usize, u64),
        seed: u64,
    ) -> (rand::rngs::StdRng, Vec<(usize, u64)>, History<S>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let crashes = crashes(&mut rng, procs, 4 * per);
        let ops = wide_keyed_ops(&mut rng, procs as u64, per, keys);
        let history = run(make, ops, seed, &crashes);
        (rng, crashes, history)
    }

    /// Seeded histories of a keyed twin over `keys` keys and `procs`
    /// processes, with crashes; every other one has a complete read
    /// rewritten to a value nobody wrote, and must be refuted. Returns
    /// the coverage, and how many histories met a key first invoked
    /// after two others and a key only pending for some process.
    fn wide_keyed_differential<A: Algorithm<Spec = S>, S: Spec<Op = KeyedMaxOp, Resp = MaxResp>>(
        make: impl Fn(&mut SimMemory) -> A,
        spec: &S,
        (keys, procs, per): (u64, usize, u64),
        histories: u64,
    ) -> (Coverage, usize, usize) {
        let (mut seen, mut late, mut only_pending) = (Coverage::default(), 0, 0);
        for seed in 0..histories {
            let (mut rng, _, mut history) = wide_keyed_run(&make, (keys, procs, per), seed);
            let reads = returns(&history, |r| matches!(r, MaxResp::Value(_)));
            let plant = seed % 2 == 1 && !reads.is_empty();
            if plant {
                let at = reads[rng.gen_range(0..reads.len())];
                history = with_return(&history, at, MaxResp::Value(NEVER_WRITTEN));
            }
            let lin = agrees(spec, &history);
            if plant {
                assert!(lin.is_none(), "planted history {seed}: {history:?}");
            }
            let invoked = history.ops();
            late += usize::from(invoked.iter().any(|o| spec.key_of(&o.op) == Some(keys)));
            only_pending += usize::from(a_key_only_pending_for_a_process(spec, &history));
            seen.add(&history, lin);
        }
        (seen, late, only_pending)
    }

    #[test]
    fn many_keys_and_processes_histories_match_the_reference() {
        // Six keys over four processes, with crash-pending ops: the
        // per-key partition meets rows (key, process) that are empty,
        // hold only pending ops, or start after other keys' ops.
        let keys: Vec<u64> = (1..=6).collect();
        let twin = |mem: &mut SimMemory| KeyedDispatchAlg::new(mem, 4, &keys, RouteMode::Exact);
        let (seen, late, only_pending) =
            wide_keyed_differential(twin, &KeyedMaxSpec, (6, 4, 5), 300);
        assert!(
            seen.accepted >= 140 && seen.rejected >= 140 && late >= 200 && only_pending >= 80,
            "{seen:?}, late key in {late}, a key only pending in {only_pending}"
        );
    }

    #[test]
    fn lagging_keyed_histories_match_the_reference() {
        // Cached reads judged against the 2-stale keyed spec: keyed and
        // nondeterministic, so a read may take any of its key's window.
        let keys: Vec<u64> = (1..=4).collect();
        let twin = |mem: &mut SimMemory| LaggingKeyedDispatchAlg::new(mem, 4, &keys, 2);
        let spec = LaggingKeyedMaxSpec { k: 2 };
        let (seen, late, only_pending) = wide_keyed_differential(twin, &spec, (4, 4, 4), 300);
        assert!(
            seen.accepted >= 100 && seen.rejected >= 150 && late >= 200 && only_pending >= 80,
            "{seen:?}, late key in {late}, a key only pending in {only_pending}"
        );
    }

    #[test]
    fn a_two_write_window_is_too_narrow_for_four_processes() {
        // The cached path's staleness grows with the processes that race
        // on a key: `k = 2` certifies the corpus's 2–3-process scenarios,
        // but of the 150 unplanted histories of the test above (the even
        // seeds), 28 are refuted at `k = 2`, 15 of them crash-free.
        // Every crash-free one linearizes at `k = 4`, and every one at
        // `k = 5`, so a lagging spec for this path needs a `k` derived
        // from the process count.
        let keys: Vec<u64> = (1..=4).collect();
        let twin = |mem: &mut SimMemory| LaggingKeyedDispatchAlg::new(mem, 4, &keys, 2);
        let lags = |history: &History<LaggingKeyedMaxSpec>, k| {
            is_linearizable(&LaggingKeyedMaxSpec { k }, history)
        };
        let (mut refuted, mut crash_free_refuted) = (0, 0);
        let (mut crash_free_k, mut every_k) = (0, 0);
        for seed in (0..300).step_by(2) {
            let (_, crashes, history) = wide_keyed_run(twin, (4, 4, 4), seed);
            let k = (0..)
                .find(|&k| lags(&history, k))
                .expect("some window fits");
            refuted += usize::from(k > 2);
            every_k = every_k.max(k);
            if crashes.is_empty() {
                crash_free_refuted += usize::from(k > 2);
                crash_free_k = crash_free_k.max(k);
            }
        }
        assert_eq!(
            (refuted, crash_free_refuted, crash_free_k, every_k),
            (28, 15, 4, 5),
            "(refuted at k = 2, of them crash-free, smallest k for every crash-free one, for all)"
        );
    }

    #[test]
    fn nondeterministic_spec_histories_match_the_reference() {
        // The multiplicity queue (a dequeue may repeat the head) and
        // the put/take set (a take may return any item), from their
        // algorithms under random schedules and crashes, with one
        // response rewritten in most runs.
        use sl2_spec::fifo::{QueueOp, QueueResp};
        use sl2_spec::put_take::{SetOp, SetResp};
        let (mut queue, mut set) = (Coverage::default(), Coverage::default());
        for seed in 0..300 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let crashes = crashes(&mut rng, 3, 16);
            let rewrite = rng.gen_range(0..4u64);
            let mut coin = || rng.gen_range(0..2u32) == 0;
            let queue_ops: Vec<Vec<QueueOp>> = (0..3u64)
                .map(|p| {
                    (0..3u64)
                        .map(|i| {
                            if coin() {
                                QueueOp::Enq(1 + (p + i) % 3)
                            } else {
                                QueueOp::Deq
                            }
                        })
                        .collect()
                })
                .collect();
            let mut history = run(|mem| MultQueueAlg::new(mem, 3), queue_ops, seed, &crashes);
            let deqs = returns(&history, |r| *r != QueueResp::Ok);
            if rewrite > 0 && !deqs.is_empty() {
                let at = deqs[seed as usize % deqs.len()];
                let resp = if rewrite == 3 {
                    QueueResp::Empty
                } else {
                    QueueResp::Item(rewrite)
                };
                history = with_return(&history, at, resp);
            }
            let spec = sl2_spec::relaxed::MultiplicityQueueSpec;
            queue.add(&history, agrees(&spec, &history));

            let set_ops: Vec<Vec<SetOp>> = (0..3u64)
                .map(|p| {
                    (0..3u64)
                        .map(|i| {
                            if coin() {
                                SetOp::Put(1 + (p + i) % 3)
                            } else {
                                SetOp::Take
                            }
                        })
                        .collect()
                })
                .collect();
            let mut history = run(SlSetAlg::new, set_ops, seed, &crashes);
            let takes = returns(&history, |r| *r != SetResp::Ok);
            if rewrite > 0 && !takes.is_empty() {
                let at = takes[seed as usize % takes.len()];
                let resp = if rewrite == 3 {
                    SetResp::Empty
                } else {
                    SetResp::Item(rewrite)
                };
                history = with_return(&history, at, resp);
            }
            let spec = sl2_spec::put_take::PutTakeSetSpec;
            set.add(&history, agrees(&spec, &history));
        }
        for seen in [&queue, &set] {
            assert!(
                seen.rejected >= 50 && seen.accepted >= 50 && seen.pending_placed >= 20,
                "queue {queue:?}, set {set:?}"
            );
        }
    }
}
