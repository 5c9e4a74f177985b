//! Experiment E1: regenerate **Figure 1** of the paper as a
//! machine-checked table.
//!
//! Figure 1 maps which objects have strongly-linearizable
//! implementations from which primitives (solid arrows wait-free,
//! dashed lock-free). Each edge names a family of pinned records
//! ([`crate::records`]): a positive edge is *verified* when every
//! record of its family is certified; Theorem 17's negative is
//! *witnessed* when any is refuted. Steps per operation are measured
//! over ten random schedules per record.

use std::collections::HashMap;

use sl2_exec::sched::{run, CrashPlan, RandomSched};
use sl2_exec::{Algorithm, CorpusOptions, CorpusReport, CorpusVerdict, ScenarioCorpus, SimMemory};
use sl2_spec::Spec;

use crate::records::{self, Driver, Only};

/// Progress property of an edge, as drawn in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Solid arrow.
    WaitFree,
    /// Dashed arrow.
    LockFree,
}

/// One edge of the figure and the records that referee it.
#[derive(Debug)]
pub struct Edge {
    /// Short identifier (theorem / corollary).
    pub claim: &'static str,
    /// Base objects (arrow tail).
    pub from: &'static str,
    /// Implemented object (arrow head).
    pub to: &'static str,
    /// Solid vs dashed arrow.
    pub progress: Progress,
    /// Whether the paper asserts the edge exists (`true`) or proves it
    /// cannot (`false`).
    pub positive: bool,
    /// Name prefix of the edge's record family.
    pub family: &'static str,
}

#[rustfmt::skip]
const fn edge(claim: &'static str, from: &'static str, to: &'static str, progress: Progress, positive: bool, family: &'static str) -> Edge {
    Edge { claim, from, to, progress, positive, family }
}

/// The figure's edges, in table order. Theorem 17 covers the
/// relaxations too (\[11\]'s queue and stack with multiplicity), and the
/// compare&swap stack and queue are the consensus-number-∞ contrast
/// of \[16, 24\].
#[rustfmt::skip]
pub const EDGES: [Edge; 13] = {
    use Progress::{LockFree as Lf, WaitFree as Wf};
    [
        edge("Thm 1", "fetch&add", "max register", Wf, true, "thm1/"),
        edge("Thm 2", "fetch&add", "snapshot", Wf, true, "snapshot/"),
        edge("Thm 3", "snapshot", "simple types (counter)", Wf, true, "fig1/thm3/"),
        edge("Thm 5", "test&set", "readable test&set", Wf, true, "fig1/thm5/"),
        edge("Thm 6 / Cor 7", "readable test&set + max register", "multi-shot test&set", Wf, true, "fig1/thm6/"),
        edge("Cor 8 ([18,27])", "read/write registers", "max register (lock-free)", Lf, true, "fig1/cor8/"),
        edge("Thm 9", "readable test&set", "fetch&increment", Lf, true, "thm9/"),
        edge("Thm 9 ∘ Thm 5", "test&set (raw, inlined)", "fetch&increment", Lf, true, "fig1/thm9_5/"),
        edge("Thm 10", "test&set + fetch&increment", "set (put/take)", Lf, true, "fig1/thm10/"),
        edge("Thm 17 (AGM [2])", "fetch&add + swap", "stack", Lf, false, "agm/"),
        edge("Thm 17 ([11])", "read/write registers", "queue w/ multiplicity", Wf, false, "fig1/thm17_mult/"),
        edge("[24] contrast", "compare&swap", "stack (Treiber)", Lf, true, "treiber/"),
        edge("[24] contrast", "compare&swap", "queue", Lf, true, "cas_queue/"),
    ]
};

/// Verdict for one edge of the figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every record of the family certified.
    VerifiedSl {
        /// States the checker explored, summed over the family.
        checker_nodes: usize,
        /// Largest per-operation step count observed (progress bound).
        max_op_steps: u64,
    },
    /// A record of the family was refuted (negative results).
    RefutedSl {
        /// The first refuted record.
        record: String,
        /// Steps in its refutation witness.
        witness_steps: usize,
    },
}

/// One row of the regenerated figure.
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// The edge.
    pub edge: &'static Edge,
    /// What the checker found.
    pub verdict: Verdict,
}

impl EdgeReport {
    /// Whether the machine-checked verdict agrees with the paper.
    pub fn matches_paper(&self) -> bool {
        matches!(
            (&self.verdict, self.edge.positive),
            (Verdict::VerifiedSl { .. }, true) | (Verdict::RefutedSl { .. }, false)
        )
    }
}

/// Checks each record memo-on into `report` and records its largest
/// per-operation step count over schedule seeds 0–9.
struct Checked {
    report: CorpusReport,
    steps: HashMap<String, u64>,
}

impl Driver for Checked {
    fn drive<A, F>(&mut self, corpus: &ScenarioCorpus<A::Spec>, make: F)
    where
        A: Algorithm,
        <A::Spec as Spec>::Op: Sync,
        F: Fn(&mut SimMemory) -> A + Sync,
    {
        corpus.run_into(&make, &CorpusOptions::default(), &mut self.report);
        for (name, scenario) in corpus.entries() {
            let mut mem = SimMemory::new();
            let alg = make(&mut mem);
            let crashes = CrashPlan::none(scenario.processes());
            let steps = (0..10)
                .map(|seed| {
                    let mut sched = RandomSched::seeded(seed);
                    run(&alg, mem.clone(), scenario, &mut sched, &crashes).max_op_steps()
                })
                .max();
            self.steps.insert(name.clone(), steps.unwrap_or(0));
        }
    }
}

/// Runs the Figure 1 evaluation: checks every edge's record family.
///
/// # Panics
///
/// Panics if a family is empty or one of its records lands `Bounded`
/// (a verdict needs every record decided).
pub fn evaluate() -> Vec<EdgeReport> {
    let mut driver = Only {
        keep: |name: &str| EDGES.iter().any(|e| name.starts_with(e.family)),
        inner: Checked {
            report: CorpusReport::new(usize::MAX),
            steps: HashMap::new(),
        },
    };
    records::all(&mut driver);
    let Checked { report, steps } = driver.inner;
    let verdict = |edge: &'static Edge| {
        let family: Vec<_> = (report.records.iter())
            .filter(|r| r.name.starts_with(edge.family))
            .collect();
        assert!(!family.is_empty(), "{}: no records", edge.family);
        for r in &family {
            assert_ne!(r.verdict, CorpusVerdict::Bounded, "{}: undecided", r.name);
        }
        let verdict = match family.iter().find(|r| r.verdict == CorpusVerdict::Refuted) {
            Some(r) => Verdict::RefutedSl {
                record: r.name.clone(),
                witness_steps: r.witness_steps,
            },
            None => Verdict::VerifiedSl {
                checker_nodes: family.iter().map(|r| r.nodes).sum(),
                max_op_steps: family.iter().map(|r| steps[&r.name]).max().unwrap_or(0),
            },
        };
        EdgeReport { edge, verdict }
    };
    EDGES.iter().map(verdict).collect()
}

/// Formats the evaluation as the figure's table, each column as wide
/// as its widest cell.
pub fn render(rows: &[EdgeReport]) -> String {
    let mut table = vec![["claim", "from", "to", "arrow", "paper", "checker"].map(String::from)];
    for r in rows {
        let arrow = match r.edge.progress {
            Progress::WaitFree => "wait-free",
            Progress::LockFree => "lock-free",
        };
        let paper = if r.edge.positive { "SL" } else { "not SL" };
        let checker = match &r.verdict {
            Verdict::VerifiedSl {
                checker_nodes,
                max_op_steps,
            } => format!("SL ✓ ({checker_nodes} states, ≤{max_op_steps} steps/op)"),
            Verdict::RefutedSl { .. } => "not SL ✗ (witness found)".to_owned(),
        };
        let e = r.edge;
        table.push([e.claim, e.from, e.to, arrow, paper, &checker].map(String::from));
    }
    let mut widths = [0; 6];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = cell.chars().count().max(*w);
        }
    }
    let line = |cells: Vec<String>, sep: &str| cells.join(sep).trim_end().to_owned() + "\n";
    let pad = |row: &[String; 6]| {
        (row.iter().zip(widths))
            .map(|(c, w)| format!("{c:<w$}"))
            .collect()
    };
    let mut out = line(pad(&table[0]), " | ");
    out += &line(widths.iter().map(|w| "-".repeat(*w)).collect(), "-+-");
    for row in &table[1..] {
        out += &line(pad(row), " | ");
    }
    out
}
