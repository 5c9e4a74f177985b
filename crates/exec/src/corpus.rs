//! Batch corpus driver for the strong-linearizability checker.
//!
//! The per-module tests certify or refute one hand-picked scenario at
//! a time; the ROADMAP's "batch `check_strong` tree exploration across
//! scenarios" direction is this module: a [`ScenarioCorpus`] enumerates
//! whole scenario *families* (symmetric races, fan-ins, towers),
//! deduplicates isomorphic members by canonical form, and runs the
//! checker across the lot under one shared node budget, producing a
//! machine-readable [`CorpusReport`] — the artifact the E23
//! re-certification test and the E25 checker-throughput bench consume.
//!
//! A corpus is typed by the specification its scenarios target, so one
//! report can accumulate runs over many object families
//! ([`ScenarioCorpus::run_into`] appends to a shared report): that is
//! how `tests/corpus.rs` re-runs every certificate and refutation the
//! repo has shipped (E1–E22) under the PR-4 engine in one pass.
//!
//! Budgets are cooperative: each scenario gets at most
//! [`CorpusOptions::per_scenario_limit`] search states *and* no more
//! than what is left of the report's global budget; a scenario that
//! runs out is recorded as [`CorpusVerdict::Bounded`] — never a panic,
//! never a silent skip.

use std::collections::HashSet;

use sl2_spec::Spec;
use sl2_trace::json_escape;

use crate::machine::Algorithm;
use crate::mem::SimMemory;
use crate::scenarios::{fan_in, symmetric, tower};
use crate::sched::Scenario;
use crate::strong::{check_strong, MemoMode, Outcome, SearchStats, StrongOptions};

/// Tuning knobs for a corpus run.
#[derive(Debug, Clone, Copy)]
pub struct CorpusOptions {
    /// Node cap per scenario (further capped by the report's remaining
    /// global budget).
    pub per_scenario_limit: usize,
    /// Memoization mode handed to every check (see
    /// [`MemoMode`]; the differential tests run the same corpus at
    /// `Canonical` and `Off` and assert identical verdicts).
    pub memo: MemoMode,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            per_scenario_limit: 8_000_000,
            memo: MemoMode::Canonical,
        }
    }
}

/// Per-scenario verdict in a corpus run (the serializable summary of
/// [`Outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusVerdict {
    /// A prefix-closed linearization function exists.
    Certified,
    /// Refuted with a witness.
    Refuted,
    /// Budget ran out before a verdict.
    Bounded,
}

impl CorpusVerdict {
    /// Lower-case wire form used in the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            CorpusVerdict::Certified => "certified",
            CorpusVerdict::Refuted => "refuted",
            CorpusVerdict::Bounded => "bounded",
        }
    }
}

/// One scenario's row in a [`CorpusReport`].
#[derive(Debug, Clone)]
pub struct CorpusRecord {
    /// Scenario name (`family/member` by convention).
    pub name: String,
    /// Number of processes.
    pub processes: usize,
    /// Total operations across processes.
    pub total_ops: usize,
    /// The verdict.
    pub verdict: CorpusVerdict,
    /// Search states the check explored.
    pub nodes: usize,
    /// Steps in the refutation witness (0 unless refuted).
    pub witness_steps: usize,
    /// Search-shape counters from the check (memo hits/misses, max
    /// explicit-stack depth) — zeroed for rows that never entered the
    /// engine (e.g. budget exhausted before the run).
    pub stats: SearchStats,
}

impl CorpusRecord {
    /// Fraction of feasible entries the check answered from its memo
    /// table (see [`SearchStats::memo_hit_rate`]).
    pub fn memo_hit_rate(&self) -> f64 {
        self.stats.memo_hit_rate()
    }
}

/// Machine-readable result of one or more corpus runs sharing a node
/// budget. Serialized as JSON lines by [`CorpusReport::to_json_lines`]
/// (CI uploads it as the corpus-smoke artifact; EXPERIMENTS.md E24/E25
/// record the numbers).
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Global node budget shared by every scenario run into this
    /// report.
    pub node_budget: usize,
    /// Nodes spent so far across all runs.
    pub nodes_spent: usize,
    /// Isomorphic scenarios dropped by corpus dedup (summed over the
    /// corpora run into this report).
    pub deduped: usize,
    /// One record per scenario, in run order.
    pub records: Vec<CorpusRecord>,
}

impl CorpusReport {
    /// An empty report with the given global node budget.
    pub fn new(node_budget: usize) -> Self {
        CorpusReport {
            node_budget,
            nodes_spent: 0,
            deduped: 0,
            records: Vec::new(),
        }
    }

    /// Budget still available to scenarios run into this report.
    pub fn remaining(&self) -> usize {
        self.node_budget.saturating_sub(self.nodes_spent)
    }

    /// Number of records with the given verdict.
    pub fn count(&self, verdict: CorpusVerdict) -> usize {
        self.records.iter().filter(|r| r.verdict == verdict).count()
    }

    /// Looks a record up by name.
    pub fn get(&self, name: &str) -> Option<&CorpusRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Serializes the report as JSON lines: one object per scenario
    /// plus a trailing summary object.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{{\"corpus\":\"scenario\",\"name\":\"{}\",\"processes\":{},\
                 \"total_ops\":{},\"verdict\":\"{}\",\"nodes\":{},\
                 \"witness_steps\":{},\"memo_hits\":{},\"memo_misses\":{},\
                 \"memo_hit_rate\":{:.4},\"max_depth\":{}}}\n",
                json_escape(&r.name),
                r.processes,
                r.total_ops,
                r.verdict.as_str(),
                r.nodes,
                r.witness_steps,
                r.stats.memo_hits,
                r.stats.memo_misses,
                r.memo_hit_rate(),
                r.stats.max_depth,
            ));
        }
        out.push_str(&format!(
            "{{\"corpus\":\"summary\",\"scenarios\":{},\"certified\":{},\
             \"refuted\":{},\"bounded\":{},\"nodes_spent\":{},\
             \"node_budget\":{},\"deduped\":{}}}\n",
            self.records.len(),
            self.count(CorpusVerdict::Certified),
            self.count(CorpusVerdict::Refuted),
            self.count(CorpusVerdict::Bounded),
            self.nodes_spent,
            self.node_budget,
            self.deduped,
        ));
        out
    }
}

/// A named, deduplicated batch of scenarios over one specification.
///
/// Dedup treats scenarios as equal up to process renaming (the
/// canonical form sorts the per-process operation lists), which is
/// sound exactly when the algorithm under check is process-symmetric —
/// every §3 construction is, since lanes are assigned *by* process
/// index and rename with it. For process-*asymmetric* algorithms
/// (e.g. the sharded counter, where which processes share a home
/// shard depends on their indices; or the single-writer snapshot,
/// where `Update{i}` must run on process `i`), build the corpus with
/// [`ScenarioCorpus::without_dedup`].
#[derive(Debug, Clone)]
pub struct ScenarioCorpus<S: Spec> {
    entries: Vec<(String, Scenario<S>)>,
    seen: HashSet<String>,
    dedup: bool,
    deduped: usize,
}

impl<S: Spec> Default for ScenarioCorpus<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Spec> ScenarioCorpus<S> {
    /// An empty corpus with canonical-form dedup on.
    pub fn new() -> Self {
        ScenarioCorpus {
            entries: Vec::new(),
            seen: HashSet::new(),
            dedup: true,
            deduped: 0,
        }
    }

    /// An empty corpus that keeps process-permuted duplicates (for
    /// process-asymmetric algorithms — see the type docs).
    pub fn without_dedup() -> Self {
        ScenarioCorpus {
            dedup: false,
            ..Self::new()
        }
    }

    /// Number of (distinct) scenarios in the corpus.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Isomorphic scenarios dropped so far.
    pub fn deduped(&self) -> usize {
        self.deduped
    }

    /// The scenarios, in insertion order.
    pub fn entries(&self) -> &[(String, Scenario<S>)] {
        &self.entries
    }

    /// Adds one scenario; returns `false` (and drops it) when dedup
    /// recognizes an isomorphic member already present.
    pub fn push(&mut self, name: impl Into<String>, scenario: Scenario<S>) -> bool {
        if self.dedup && !self.seen.insert(canonical_form(&scenario)) {
            self.deduped += 1;
            return false;
        }
        self.entries.push((name.into(), scenario));
        true
    }

    /// Family: `n`-process symmetric races for every `n` in
    /// `processes` and every length-`ops_per_process` operation list
    /// over `alphabet` (all processes run the same list). Returns how
    /// many distinct scenarios were added.
    pub fn symmetric_family(
        &mut self,
        prefix: &str,
        processes: &[usize],
        alphabet: &[S::Op],
        ops_per_process: usize,
    ) -> usize {
        let mut added = 0;
        for (i, list) in tuples(alphabet, ops_per_process).into_iter().enumerate() {
            for &n in processes {
                if self.push(
                    format!("{prefix}/sym_n{n}_{i}"),
                    symmetric::<S>(n, list.clone()),
                ) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Family: fan-ins of `writers` single-op processes (every tuple
    /// over `writer_alphabet`) racing one reader process running
    /// `reader_ops`. Returns how many distinct scenarios were added.
    pub fn fan_in_family(
        &mut self,
        prefix: &str,
        writer_alphabet: &[S::Op],
        writers: usize,
        reader_ops: &[S::Op],
    ) -> usize {
        let mut added = 0;
        for (i, tuple) in tuples(writer_alphabet, writers).into_iter().enumerate() {
            if self.push(
                format!("{prefix}/fan_in_{i}"),
                fan_in::<S>(tuple, reader_ops.to_vec()),
            ) {
                added += 1;
            }
        }
        added
    }

    /// Family: towers — process 0 runs `block` cycled out to each
    /// height in `heights`, racing the fixed `rivals` processes. Deep
    /// towers are what the explicit-stack engine exists for (and, past
    /// 1024 operations, what the widened [`crate::OpId`] packing
    /// exists for). Returns how many distinct scenarios were added.
    pub fn tower_family(
        &mut self,
        prefix: &str,
        block: &[S::Op],
        heights: &[usize],
        rivals: &[Vec<S::Op>],
    ) -> usize {
        let mut added = 0;
        for &h in heights {
            if self.push(format!("{prefix}/tower_h{h}"), tower::<S>(block, h, rivals)) {
                added += 1;
            }
        }
        added
    }

    /// Runs the whole corpus against `make`'s algorithm (fresh memory
    /// per scenario), appending one record per scenario to `report`
    /// and drawing on its shared node budget.
    pub fn run_into<A, F>(&self, make: F, options: &CorpusOptions, report: &mut CorpusReport)
    where
        A: Algorithm<Spec = S>,
        F: Fn(&mut SimMemory) -> A,
    {
        for (name, scenario) in &self.entries {
            let limit = options.per_scenario_limit.min(report.remaining());
            let rec = check_record(name, scenario, &make, options.memo, limit);
            report.nodes_spent += rec.nodes;
            report.records.push(rec);
        }
        report.deduped += self.deduped;
    }

    /// [`ScenarioCorpus::run_into`] with a fresh report of its own.
    pub fn run<A, F>(&self, make: F, options: &CorpusOptions, node_budget: usize) -> CorpusReport
    where
        A: Algorithm<Spec = S>,
        F: Fn(&mut SimMemory) -> A,
    {
        let mut report = CorpusReport::new(node_budget);
        self.run_into(make, options, &mut report);
        report
    }

    /// Parallel [`ScenarioCorpus::run_into`]: corpus records are
    /// independent (each check builds its own algorithm in its own
    /// fresh memory), so they split over `threads` OS workers. The
    /// report keeps **entry order** regardless of completion order,
    /// and the global node budget is enforced by **reservation**: a
    /// worker atomically withdraws `per_scenario_limit.min(remaining)`
    /// tokens before its check, runs under that limit, and refunds
    /// what the check did not use — so concurrent workers can never
    /// collectively overdraw the budget (the serial driver's
    /// invariant, preserved up to the engine's existing +1-node
    /// overshoot on `Bounded` outcomes).
    ///
    /// Determinism: reservations can transiently hold up to
    /// `threads × per_scenario_limit` of the budget, so give the
    /// report at least that much headroom — then every scenario
    /// decides within its own limit, verdicts are independent of
    /// worker scheduling, and the report equals the serial driver's
    /// record for record (the shipped corpora size their budgets this
    /// way and E23 asserts zero `Bounded` records). Under genuine
    /// budget starvation, *which* scenarios land `Bounded` depends on
    /// reservation order, which worker scheduling controls — only
    /// those starved records may differ from the serial driver's.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel_into<A, F>(
        &self,
        make: F,
        options: &CorpusOptions,
        threads: usize,
        report: &mut CorpusReport,
    ) where
        A: Algorithm<Spec = S>,
        F: Fn(&mut SimMemory) -> A + Sync,
        S::Op: Sync,
    {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        assert!(threads > 0, "the parallel driver needs at least one worker");
        let next = AtomicUsize::new(0);
        let remaining = AtomicUsize::new(report.remaining());
        let slots: Vec<Mutex<Option<CorpusRecord>>> =
            (0..self.entries.len()).map(|_| Mutex::new(None)).collect();
        let make = &make;
        let workers = threads.min(self.entries.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some((name, scenario)) = self.entries.get(i) else {
                        break;
                    };
                    // Reserve the scenario's node allowance up front
                    // (atomic withdraw), refund the unused part after.
                    let mut limit = 0usize;
                    let _ = remaining.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
                        limit = options.per_scenario_limit.min(r);
                        Some(r - limit)
                    });
                    let rec = check_record(name, scenario, make, options.memo, limit);
                    remaining.fetch_add(limit.saturating_sub(rec.nodes), Ordering::SeqCst);
                    *slots[i].lock().expect("record slot never poisoned") = Some(rec);
                });
            }
        });
        for slot in slots {
            let rec = slot
                .into_inner()
                .expect("record slot never poisoned")
                .expect("every claimed entry writes its record");
            report.nodes_spent += rec.nodes;
            report.records.push(rec);
        }
        report.deduped += self.deduped;
    }

    /// [`ScenarioCorpus::run_parallel_into`] with a fresh report of
    /// its own.
    pub fn run_parallel<A, F>(
        &self,
        make: F,
        options: &CorpusOptions,
        threads: usize,
        node_budget: usize,
    ) -> CorpusReport
    where
        A: Algorithm<Spec = S>,
        F: Fn(&mut SimMemory) -> A + Sync,
        S::Op: Sync,
    {
        let mut report = CorpusReport::new(node_budget);
        self.run_parallel_into(make, options, threads, &mut report);
        report
    }
}

/// Process-renaming-invariant canonical form: the sorted per-process
/// operation lists, rendered.
fn canonical_form<S: Spec>(scenario: &Scenario<S>) -> String {
    let mut lists: Vec<String> = scenario.ops.iter().map(|l| format!("{l:?}")).collect();
    lists.sort();
    lists.join(" | ")
}

/// Every length-`len` tuple over `alphabet`, in lexicographic order.
fn tuples<T: Clone>(alphabet: &[T], len: usize) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                alphabet.iter().map(move |a| {
                    let mut next = prefix.clone();
                    next.push(a.clone());
                    next
                })
            })
            .collect();
    }
    out
}

/// Checks one scenario with a fresh algorithm in fresh memory under
/// `limit` nodes and records the outcome; a zero limit records
/// `Bounded` without a check.
fn check_record<A, F>(
    name: &str,
    scenario: &Scenario<A::Spec>,
    make: &F,
    memo: MemoMode,
    limit: usize,
) -> CorpusRecord
where
    A: Algorithm,
    F: Fn(&mut SimMemory) -> A,
{
    let (verdict, nodes, witness_steps, stats) = if limit == 0 {
        (CorpusVerdict::Bounded, 0, 0, SearchStats::default())
    } else {
        let mut mem = SimMemory::new();
        let alg = make(&mut mem);
        let options = StrongOptions {
            node_limit: limit,
            memo,
        };
        let out = check_strong(&alg, mem, scenario, options);
        match out.outcome {
            Outcome::Certified => (CorpusVerdict::Certified, out.nodes, 0, out.stats),
            Outcome::Refuted(w) => (CorpusVerdict::Refuted, out.nodes, w.path.len(), out.stats),
            Outcome::Bounded => (CorpusVerdict::Bounded, out.nodes, 0, out.stats),
        }
    };
    CorpusRecord {
        name: name.to_string(),
        processes: scenario.processes(),
        total_ops: scenario.total_ops(),
        verdict,
        nodes,
        witness_steps,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{OpMachine, Step};
    use crate::mem::Cell;
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};

    #[derive(Debug, Clone)]
    struct AtomicMax {
        loc: crate::mem::Loc,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum AtomicMaxMachine {
        Write(crate::mem::Loc, u64),
        Read(crate::mem::Loc),
    }

    impl OpMachine for AtomicMaxMachine {
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

    fn make(mem: &mut SimMemory) -> AtomicMax {
        AtomicMax {
            loc: mem.alloc(Cell::AMaxReg(0)),
        }
    }

    #[test]
    fn dedup_drops_process_permutations() {
        let mut corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        assert!(corpus.push(
            "a",
            Scenario::new(vec![vec![MaxOp::Write(1)], vec![MaxOp::Read]])
        ));
        // The same scenario with the processes swapped is isomorphic.
        assert!(!corpus.push(
            "b",
            Scenario::new(vec![vec![MaxOp::Read], vec![MaxOp::Write(1)]])
        ));
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.deduped(), 1);

        let mut keep_all = ScenarioCorpus::<MaxRegisterSpec>::without_dedup();
        keep_all.push(
            "a",
            Scenario::new(vec![vec![MaxOp::Write(1)], vec![MaxOp::Read]]),
        );
        keep_all.push(
            "b",
            Scenario::new(vec![vec![MaxOp::Read], vec![MaxOp::Write(1)]]),
        );
        assert_eq!(keep_all.len(), 2);
    }

    #[test]
    fn families_enumerate_and_name_members() {
        let mut corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        let alphabet = [MaxOp::Write(1), MaxOp::Read];
        let added = corpus.symmetric_family("max", &[2], &alphabet, 2);
        assert_eq!(added, 4, "2^2 lists over a 2-op alphabet");
        corpus.fan_in_family("max", &alphabet, 2, &[MaxOp::Read]);
        corpus.tower_family("max", &alphabet, &[4, 8], &[vec![MaxOp::Read]]);
        assert!(corpus
            .entries()
            .iter()
            .any(|(name, _)| name == "max/tower_h8"));
        // fan_in over {Write(1), Read} × 2 writers: 4 tuples, but
        // (Write,Read) and (Read,Write) are process-permutations.
        assert_eq!(corpus.deduped(), 1);
    }

    #[test]
    fn run_reports_verdicts_and_respects_the_budget() {
        let mut corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        corpus.symmetric_family("max", &[2], &[MaxOp::Write(1), MaxOp::Read], 2);
        let report = corpus.run(make, &CorpusOptions::default(), 1_000_000);
        assert_eq!(report.records.len(), corpus.len());
        assert_eq!(report.count(CorpusVerdict::Certified), corpus.len());
        assert!(report.nodes_spent > 0 && report.nodes_spent <= report.node_budget);

        // A starved budget yields Bounded records, not panics.
        let starved = corpus.run(make, &CorpusOptions::default(), 1);
        assert!(starved.count(CorpusVerdict::Bounded) >= corpus.len() - 1);
    }

    #[test]
    fn parallel_driver_matches_serial_record_for_record() {
        let mut corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        corpus.symmetric_family("max", &[2, 3], &[MaxOp::Write(1), MaxOp::Read], 2);
        corpus.fan_in_family("max", &[MaxOp::Write(1), MaxOp::Read], 2, &[MaxOp::Read]);
        // Budget ≥ threads × per_scenario_limit: reservations never
        // starve a concurrent worker, so parallel ≡ serial exactly.
        let budget = 4 * CorpusOptions::default().per_scenario_limit;
        let serial = corpus.run(make, &CorpusOptions::default(), budget);
        for threads in [1usize, 2, 4] {
            let parallel = corpus.run_parallel(make, &CorpusOptions::default(), threads, budget);
            assert_eq!(parallel.records.len(), serial.records.len());
            for (a, b) in parallel.records.iter().zip(&serial.records) {
                assert_eq!(a.name, b.name, "entry order must be preserved");
                assert_eq!(a.verdict, b.verdict, "{}: parallel vs serial", a.name);
                assert_eq!(
                    a.nodes, b.nodes,
                    "{}: node counts are deterministic",
                    a.name
                );
            }
            assert_eq!(parallel.nodes_spent, serial.nodes_spent);
            assert_eq!(parallel.deduped, serial.deduped);
        }
    }

    #[test]
    fn parallel_driver_respects_a_starved_budget() {
        let mut corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        corpus.symmetric_family("max", &[2], &[MaxOp::Write(1), MaxOp::Read], 2);
        let report = corpus.run_parallel(make, &CorpusOptions::default(), 4, 1);
        assert_eq!(report.records.len(), corpus.len());
        // Reservation-based budgeting: exactly one worker can withdraw
        // the single node; everyone else reserves zero and lands
        // Bounded without spending anything.
        assert!(
            report.count(CorpusVerdict::Bounded) >= corpus.len() - 1,
            "a one-node budget must bound nearly everything: {:?}",
            report.records
        );
        assert!(
            report.nodes_spent <= 2,
            "workers must not collectively overdraw the budget \
             (engine overshoot on a Bounded run is at most one node): {}",
            report.nodes_spent
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn parallel_driver_rejects_zero_workers() {
        let corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        let _ = corpus.run_parallel(make, &CorpusOptions::default(), 0, 1_000);
    }

    #[test]
    fn json_lines_carry_every_record_and_a_summary() {
        let mut corpus = ScenarioCorpus::<MaxRegisterSpec>::new();
        corpus.push(
            "max/solo",
            Scenario::new(vec![vec![MaxOp::Write(1), MaxOp::Read]]),
        );
        let report = corpus.run(make, &CorpusOptions::default(), 100_000);
        let json = report.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"max/solo\""));
        assert!(lines[0].contains("\"verdict\":\"certified\""));
        assert!(lines[1].contains("\"corpus\":\"summary\""));
        assert!(lines[1].contains("\"certified\":1"));
    }
}
