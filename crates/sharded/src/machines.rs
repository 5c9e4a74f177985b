//! Step-machine forms of the sharded objects, for the
//! strong-linearizability checker.
//!
//! These machines are the referee's copy of `sl2_sharded`: the same
//! shard maps ([`Sharding`]) and per-shard §3 algorithms as the
//! production forms, but with every base-object operation exposed as
//! one [`OpMachine::step`] so `check_strong` can enumerate the
//! execution tree. The whole-object read paths come in both
//! granularities of honesty ([`WholeReadMode`]): the stable collect the
//! production forms use, and the naive one-pass read whose refutation
//! (`tests/non_sl_witnesses.rs`) is the reason the production counter
//! read either loops for stability or is specified as k-lagging.
//!
//! Adjudicated verdicts (each pinned by a test; the argument is
//! DESIGN.md §6):
//!
//! * 2-shard [`ShardedMaxRegAlg`], writer+reader and
//!   single-hot-shard scenarios — strongly linearizable (a prefix-closed
//!   `L` exists);
//! * fan-in scenarios that complete a write behind the reader's
//!   collect frontier while another shard can still change — **not**
//!   strongly linearizable, for the stable and naive readers alike;
//! * [`ShardedCounterAlg`] with the naive sum read — linearizable on
//!   every history (an inc-only sweep's value is bracketed by the
//!   landed counts at its two ends) but **not** strongly linearizable
//!   against the exact counter (`Witness`), yet strongly linearizable
//!   against [`LaggingCounterSpec`] on the same scenarios.
//!
//! [`LaggingCounterSpec`]: sl2_spec::relaxed::LaggingCounterSpec

use std::rc::Rc;

use sl2_bignum::{BigNat, LaneEncoding, Lanes, Target};
use sl2_exec::lanes::{Collect, LaneWrite, Reduce};
use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_primitives::Sharding;
use sl2_spec::counters::{CounterOp, CounterResp};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
use sl2_spec::snapshot::{SnapOp, SnapResp, SnapshotSpec};
use sl2_spec::Spec;

pub use sl2_exec::lanes::WholeReadMode;

/// `shards` fresh wide registers.
fn alloc_shards(mem: &mut SimMemory, shards: usize) -> Rc<[Loc]> {
    (0..shards)
        .map(|_| mem.alloc(Cell::Wide(BigNat::zero())))
        .collect()
}

// ---------------------------------------------------------------------
// Canonical adjudication scenarios
// ---------------------------------------------------------------------

/// The frontier-*safe* sharded max-register scenario at `shards`
/// shards: both writes land in shard 0 (values `shards` and
/// `2·shards`, i.e. residue 0) and the reader is fused with the first
/// writer, so no shard can change behind an independent reader's
/// collect frontier. Certified at every `S` — one of the corpus's
/// re-certification points (E23; DESIGN.md §6/§7).
pub fn frontier_safe_max_scenario(shards: usize) -> sl2_exec::sched::Scenario<MaxRegisterSpec> {
    let s = shards as u64;
    sl2_exec::sched::Scenario::new(vec![
        vec![MaxOp::Write(s), MaxOp::Read],
        vec![MaxOp::Write(2 * s)],
    ])
}

/// The fan-in sharded max-register scenario at ≥ 2 shards: two writers
/// whose values take distinct residues race one independent reader, so
/// a write can complete behind the reader's frontier while a shard
/// ahead of it can still change. Refuted for every `S ≥ 2` (and the
/// `S = 1` control is certified) — the other corpus re-certification
/// point.
pub fn fan_in_max_scenario(_shards: usize) -> sl2_exec::sched::Scenario<MaxRegisterSpec> {
    sl2_exec::scenarios::fan_in::<MaxRegisterSpec>(
        vec![MaxOp::Write(1), MaxOp::Write(2)],
        vec![MaxOp::Read],
    )
}

// ---------------------------------------------------------------------
// Sharded max register
// ---------------------------------------------------------------------

/// Factory for the value-sharded max register
/// ([`crate::ShardedMaxRegister`]'s checkable twin).
#[derive(Debug, Clone)]
pub struct ShardedMaxRegAlg {
    shards: Rc<[Loc]>,
    lanes: Lanes,
    sharding: Sharding,
    mode: WholeReadMode,
}

impl ShardedMaxRegAlg {
    /// Allocates `shards` wide registers for `n` processes, with the
    /// production stable-collect read and unary lanes.
    pub fn new(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        Self::with_mode(mem, n, shards, WholeReadMode::Stable)
    }

    /// As [`ShardedMaxRegAlg::new`] with an explicit read mode (unary
    /// lanes).
    pub fn with_mode(mem: &mut SimMemory, n: usize, shards: usize, mode: WholeReadMode) -> Self {
        Self::with_encoding(mem, n, shards, mode, LaneEncoding::Unary)
    }

    /// The [`crate::ShardedMaxRegister::new_binary`] twin: log-width
    /// binary lanes, production stable-collect read. The corpus
    /// re-certifies the PR-3/PR-5 scenario families against this twin
    /// so the re-encoded registers inherit adjudicated verdicts rather
    /// than assumed ones.
    pub fn binary(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        Self::with_encoding(mem, n, shards, WholeReadMode::Stable, LaneEncoding::Binary)
    }

    /// Fully explicit constructor: read mode and lane encoding.
    pub fn with_encoding(
        mem: &mut SimMemory,
        n: usize,
        shards: usize,
        mode: WholeReadMode,
        encoding: LaneEncoding,
    ) -> Self {
        ShardedMaxRegAlg {
            shards: alloc_shards(mem, shards),
            lanes: Lanes::new(n, encoding),
            sharding: Sharding::new(shards),
            mode,
        }
    }
}

impl Algorithm for ShardedMaxRegAlg {
    type Spec = MaxRegisterSpec;
    type Machine = ShardedMaxRegMachine;

    fn spec(&self) -> MaxRegisterSpec {
        MaxRegisterSpec
    }

    fn machine(&self, process: usize, op: &MaxOp) -> ShardedMaxRegMachine {
        match *op {
            MaxOp::Write(v) => {
                // The quotient encoding of the production form.
                let (home, count) = self.sharding.to_quotient(v);
                ShardedMaxRegMachine::Write(LaneWrite::new(
                    self.shards[home],
                    self.lanes,
                    process,
                    Target::AtLeast(count),
                ))
            }
            MaxOp::Read => ShardedMaxRegMachine::Read {
                sharding: self.sharding,
                collect: Collect::new(Rc::clone(&self.shards), self.lanes, Reduce::Fold, self.mode),
            },
        }
    }
}

/// Step machine for the sharded max register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShardedMaxRegMachine {
    /// `writeMax`: raise the own lane of the home shard to the value's
    /// quotient count.
    Write(LaneWrite),
    /// `readMax`: collecting the per-shard folds, then decoding the
    /// largest quotient count.
    Read {
        /// The quotient map.
        sharding: Sharding,
        /// The collect.
        collect: Collect,
    },
}

impl OpMachine for ShardedMaxRegMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match self {
            ShardedMaxRegMachine::Write(w) => w.step(mem).map(|()| MaxResp::Ok),
            ShardedMaxRegMachine::Read { sharding, collect } => collect
                .step(mem)
                .map(|pass| MaxResp::Value(sharding.max_from_quotients(&pass))),
        }
    }
}

// ---------------------------------------------------------------------
// Sharded counter
// ---------------------------------------------------------------------

/// Factory for the process-striped counter, generic over the
/// specification it is judged against: [`sl2_spec::counters::CounterSpec`]
/// for exact-counter claims, [`sl2_spec::relaxed::LaggingCounterSpec`]
/// for the relaxed read.
#[derive(Debug, Clone)]
pub struct ShardedCounterAlg<S> {
    shards: Rc<[Loc]>,
    lanes: Lanes,
    sharding: Sharding,
    mode: WholeReadMode,
    spec: S,
}

impl<S> ShardedCounterAlg<S>
where
    S: Spec<Op = CounterOp, Resp = CounterResp>,
{
    /// Allocates `shards` wide registers for `n` processes; reads use
    /// `mode` and claims are judged against `spec`. Lanes count in
    /// unary (the paper's form) unless re-coded with
    /// [`ShardedCounterAlg::with_encoding`].
    pub fn with_spec(
        mem: &mut SimMemory,
        n: usize,
        shards: usize,
        mode: WholeReadMode,
        spec: S,
    ) -> Self {
        ShardedCounterAlg {
            shards: alloc_shards(mem, shards),
            lanes: Lanes::new(n, LaneEncoding::Unary),
            sharding: Sharding::new(shards),
            mode,
            spec,
        }
    }

    /// Re-codes the lanes ([`LaneEncoding::Binary`] is the twin of the
    /// shipped `ShardedFetchInc::new_binary`).
    pub fn with_encoding(mut self, encoding: LaneEncoding) -> Self {
        self.lanes.encoding = encoding;
        self
    }
}

impl ShardedCounterAlg<sl2_spec::counters::CounterSpec> {
    /// The production exact counter: stable-collect reads, judged
    /// against the exact counter specification.
    pub fn exact(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        Self::with_spec(
            mem,
            n,
            shards,
            WholeReadMode::Stable,
            sl2_spec::counters::CounterSpec,
        )
    }

    /// The naive sum-read counter judged against the *exact*
    /// specification — the refutation target of
    /// `tests/non_sl_witnesses.rs`.
    pub fn naive(mem: &mut SimMemory, n: usize, shards: usize) -> Self {
        Self::with_spec(
            mem,
            n,
            shards,
            WholeReadMode::Naive,
            sl2_spec::counters::CounterSpec,
        )
    }
}

impl ShardedCounterAlg<sl2_spec::relaxed::LaggingCounterSpec> {
    /// The naive sum-read counter judged against the honest k-lagging
    /// specification.
    pub fn relaxed(mem: &mut SimMemory, n: usize, shards: usize, k: u64) -> Self {
        Self::with_spec(
            mem,
            n,
            shards,
            WholeReadMode::Naive,
            sl2_spec::relaxed::LaggingCounterSpec { k },
        )
    }
}

impl<S> Algorithm for ShardedCounterAlg<S>
where
    S: Spec<Op = CounterOp, Resp = CounterResp>,
{
    type Spec = S;
    type Machine = ShardedCounterMachine;

    fn spec(&self) -> S {
        self.spec.clone()
    }

    fn machine(&self, process: usize, op: &CounterOp) -> ShardedCounterMachine {
        match op {
            CounterOp::Inc => ShardedCounterMachine::Inc(LaneWrite::new(
                self.shards[self.sharding.of_process(process)],
                self.lanes,
                process,
                Target::Increment,
            )),
            CounterOp::Read => ShardedCounterMachine::Sum(Collect::new(
                Rc::clone(&self.shards),
                self.lanes,
                Reduce::Sum,
                self.mode,
            )),
        }
    }
}

/// Step machine for the sharded counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShardedCounterMachine {
    /// `inc`: raise the own lane of the home shard by one.
    Inc(LaneWrite),
    /// `read`: collecting per-shard counts.
    Sum(Collect),
}

impl OpMachine for ShardedCounterMachine {
    type Resp = CounterResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<CounterResp> {
        match self {
            ShardedCounterMachine::Inc(w) => w.step(mem).map(|()| CounterResp::Ok),
            ShardedCounterMachine::Sum(c) => c
                .step(mem)
                .map(|pass| CounterResp::Value(pass.iter().sum())),
        }
    }
}

// ---------------------------------------------------------------------
// Sharded snapshot
// ---------------------------------------------------------------------

/// Factory for the lane-group-sharded snapshot
/// ([`crate::ShardedSnapshot`]'s checkable twin).
#[derive(Debug, Clone)]
pub struct ShardedSnapshotAlg {
    groups: Rc<[Loc]>,
    n: usize,
    group_width: usize,
    mode: WholeReadMode,
}

impl ShardedSnapshotAlg {
    /// Allocates one wide register per lane group of `group_width`
    /// components (the last group may be narrower, as in
    /// [`crate::ShardedSnapshot`]); whole-object scans use `mode`.
    pub fn new(mem: &mut SimMemory, n: usize, group_width: usize, mode: WholeReadMode) -> Self {
        assert!(n > 0 && group_width > 0, "empty snapshot or group");
        ShardedSnapshotAlg {
            groups: alloc_shards(mem, n.div_ceil(group_width)),
            n,
            group_width,
            mode,
        }
    }
}

impl Algorithm for ShardedSnapshotAlg {
    type Spec = SnapshotSpec;
    type Machine = ShardedSnapshotMachine;

    fn spec(&self) -> SnapshotSpec {
        SnapshotSpec::new(self.n)
    }

    fn machine(&self, process: usize, op: &SnapOp) -> ShardedSnapshotMachine {
        match op {
            SnapOp::Update { i, v } => {
                assert_eq!(
                    *i, process,
                    "single-writer snapshot: process {process} cannot update component {i}"
                );
                let (k, local) = (i / self.group_width, i % self.group_width);
                let width = self.group_width.min(self.n - k * self.group_width);
                ShardedSnapshotMachine::Update(LaneWrite::new(
                    self.groups[k],
                    Lanes::new(width, LaneEncoding::Binary),
                    local,
                    Target::Exactly(*v),
                ))
            }
            SnapOp::Scan => ShardedSnapshotMachine::Scan(Collect::new(
                Rc::clone(&self.groups),
                Lanes::new(self.group_width, LaneEncoding::Binary),
                Reduce::View(self.n),
                self.mode,
            )),
        }
    }
}

/// Step machine for the sharded snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShardedSnapshotMachine {
    /// `update`: rewrite the own lane of the owning group.
    Update(LaneWrite),
    /// `scan`: collecting group views.
    Scan(Collect),
}

impl OpMachine for ShardedSnapshotMachine {
    type Resp = SnapResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<SnapResp> {
        match self {
            ShardedSnapshotMachine::Update(w) => w.step(mem).map(|()| SnapResp::Ok),
            ShardedSnapshotMachine::Scan(c) => c.step(mem).map(SnapResp::View),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::machine::run_solo;
    use sl2_exec::scenarios::{fan_in, symmetric};
    use sl2_exec::sched::Scenario;
    use sl2_exec::strong::check_strong;
    use sl2_exec::{for_each_history, is_linearizable};
    use sl2_spec::counters::CounterSpec;
    use sl2_spec::relaxed::LaggingCounterSpec;

    // -- solo semantics ------------------------------------------------

    #[test]
    fn max_register_solo_semantics() {
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::new(&mut mem, 2, 2);
        let (r, steps) = run_solo(&mut alg.machine(0, &MaxOp::Write(4)), &mut mem);
        assert_eq!(r, MaxResp::Ok);
        assert_eq!(steps, 2);
        run_solo(&mut alg.machine(1, &MaxOp::Write(7)), &mut mem);
        let (r, steps) = run_solo(&mut alg.machine(0, &MaxOp::Read), &mut mem);
        assert_eq!(r, MaxResp::Value(7));
        assert_eq!(steps, 4, "two stable 2-shard collects");
        // A stale write probes its home shard once and stops.
        let (_, steps) = run_solo(&mut alg.machine(1, &MaxOp::Write(5)), &mut mem);
        assert_eq!(steps, 1);
    }

    #[test]
    fn counter_solo_semantics_exact_and_naive_agree() {
        let mut mem = SimMemory::new();
        let exact = ShardedCounterAlg::exact(&mut mem, 3, 2);
        let naive = ShardedCounterAlg::naive(&mut mem, 3, 2);
        for p in 0..3 {
            run_solo(&mut exact.machine(p, &CounterOp::Inc), &mut mem);
        }
        let (r, _) = run_solo(&mut exact.machine(0, &CounterOp::Read), &mut mem);
        assert_eq!(r, CounterResp::Value(3));
        // The naive alg allocated its own shards in the same memory;
        // run its incs and read against those.
        run_solo(&mut naive.machine(1, &CounterOp::Inc), &mut mem);
        let (r, steps) = run_solo(&mut naive.machine(0, &CounterOp::Read), &mut mem);
        assert_eq!(r, CounterResp::Value(1));
        assert_eq!(steps, 2, "naive read is one pass over 2 shards");
    }

    #[test]
    fn snapshot_solo_semantics() {
        let mut mem = SimMemory::new();
        let alg = ShardedSnapshotAlg::new(&mut mem, 3, 2, WholeReadMode::Stable);
        run_solo(
            &mut alg.machine(0, &SnapOp::Update { i: 0, v: 5 }),
            &mut mem,
        );
        run_solo(
            &mut alg.machine(2, &SnapOp::Update { i: 2, v: 9 }),
            &mut mem,
        );
        let (r, _) = run_solo(&mut alg.machine(1, &SnapOp::Scan), &mut mem);
        assert_eq!(r, SnapResp::View(vec![5, 0, 9]));
    }

    // -- checker verdicts (the DESIGN.md §6 table) ---------------------

    #[test]
    fn two_shard_max_register_writer_reader_is_strongly_linearizable() {
        // p0 writes into shard 0 and then reads; p1 writes into shard 1
        // (the last shard in collect order). Every completed write is
        // either caught by the reader's in-flight collect or forces a
        // retry, so a prefix-closed L exists.
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::new(&mut mem, 2, 2);
        let scenario = Scenario::new(vec![
            vec![MaxOp::Write(2), MaxOp::Read],
            vec![MaxOp::Write(5)],
        ]);
        let out = check_strong(&alg, mem, &scenario, 8_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn two_shard_max_register_single_hot_shard_is_strongly_linearizable() {
        // Both writes land in shard 0; shard 1 can never change, so the
        // reader's collect frontier cannot be outrun.
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::new(&mut mem, 3, 2);
        let scenario =
            fan_in::<MaxRegisterSpec>(vec![MaxOp::Write(4), MaxOp::Write(2)], vec![MaxOp::Read]);
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn exact_counter_inc_read_pair_is_strongly_linearizable() {
        let mut mem = SimMemory::new();
        let alg = ShardedCounterAlg::exact(&mut mem, 2, 2);
        let scenario = Scenario::new(vec![
            vec![CounterOp::Inc, CounterOp::Read],
            vec![CounterOp::Inc],
        ]);
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn naive_counter_is_linearizable_but_not_strongly() {
        // The frontier race: the reader passes shard 0, p0's inc lands
        // there and completes, p1's inc may still land in shard 1 ahead
        // of the sweep. Every single history remains linearizable — an
        // inc-only sum sweep is bracketed by the landed counts at its
        // two ends, so its value is always attained at some instant
        // inside it — but no linearization choice survives every
        // future, the same shape as the AGM stack witness (E11).
        let mut mem = SimMemory::new();
        let alg = ShardedCounterAlg::naive(&mut mem, 3, 2);
        let scenario =
            fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
        for_each_history(&alg, mem.clone(), &scenario, 4_000_000, &mut |h| {
            assert!(is_linearizable(&CounterSpec, h), "history: {h:?}");
        });
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_refuted());
    }

    #[test]
    fn naive_counter_meets_the_lagging_spec() {
        // Same machine, same scenarios — judged against the honest
        // k-lagging specification, the checker certifies it.
        let mut mem = SimMemory::new();
        let alg = ShardedCounterAlg::relaxed(&mut mem, 3, 2, 2);
        let scenario = fan_in::<LaggingCounterSpec>(
            vec![CounterOp::Inc, CounterOp::Inc],
            vec![CounterOp::Read],
        );
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn naive_cross_group_scan_is_not_even_linearizable() {
        // Torn cut: the scan reads group 0, p0's update lands there and
        // completes, p2's update lands in group 1 ahead of the sweep —
        // the view pairs a pre-U0 group 0 with a post-U2 group 1, which
        // contradicts U0 completing before U2 began. Unlike the
        // inc-only counter sweep, snapshot views name *which* component
        // changed, so the tear is visible to plain linearizability.
        let mut mem = SimMemory::new();
        let alg = ShardedSnapshotAlg::new(&mut mem, 3, 2, WholeReadMode::Naive);
        let scenario = Scenario::new(vec![
            vec![SnapOp::Update { i: 0, v: 1 }],
            vec![SnapOp::Scan],
            vec![SnapOp::Update { i: 2, v: 7 }],
        ]);
        let mut bad = 0usize;
        for_each_history(&alg, mem.clone(), &scenario, 4_000_000, &mut |h| {
            if !is_linearizable(&SnapshotSpec::new(3), h) {
                bad += 1;
            }
        });
        assert!(bad > 0, "the torn cut must surface in some history");
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_refuted());
    }

    #[test]
    fn sharded_snapshot_group_local_scenario_is_strongly_linearizable() {
        // Updates confined to group 0 (components 0 and 1); group 1 is
        // frozen, so whole-object stable scans cannot be outrun.
        let mut mem = SimMemory::new();
        let alg = ShardedSnapshotAlg::new(&mut mem, 4, 2, WholeReadMode::Stable);
        let scenario = Scenario::new(vec![
            vec![SnapOp::Update { i: 0, v: 3 }, SnapOp::Scan],
            vec![SnapOp::Update { i: 1, v: 7 }],
        ]);
        let out = check_strong(&alg, mem, &scenario, 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    // -- S = 4 re-certification points (E23 corpus anchors) ------------

    #[test]
    fn four_shard_frontier_safe_scenario_is_strongly_linearizable() {
        // The PR-4 acceptance scenario: at S = 4 the reader folds four
        // shards per collect pass, yet both writes land in shard 0 and
        // the reader is fused with a writer — no shard can change
        // behind the frontier, so the certificate survives the wider
        // collect.
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::new(&mut mem, 2, 4);
        let out = check_strong(&alg, mem, &frontier_safe_max_scenario(4), 16_000_000);
        assert!(out.is_certified(), "{:?}", out.outcome);
    }

    #[test]
    fn four_shard_fan_in_is_refuted_like_two_shard() {
        // The frontier refutation is not an S = 2 artifact: residues 1
        // and 2 land in distinct shards at S = 4 too, and the same
        // complete-behind-the-frontier branch kills every prefix-closed
        // L. The witness replays (PR-4: witnesses are complete paths).
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::new(&mut mem, 3, 4);
        let scenario = fan_in_max_scenario(4);
        let out = check_strong(&alg, mem.clone(), &scenario, 64_000_000);
        assert!(out.is_refuted());
        let witness = out.witness().expect("refutation carries a witness");
        sl2_exec::validate_witness(&alg, mem, &scenario, witness)
            .expect("fan-in witness must replay");
    }

    #[test]
    fn frontier_scenarios_bracket_the_boundary_at_every_shard_count() {
        // One sweep over S ∈ {1, 2, 4}: frontier-safe certified at all
        // three; fan-in certified only at the S = 1 control.
        for shards in [1usize, 2, 4] {
            let mut mem = SimMemory::new();
            let alg = ShardedMaxRegAlg::new(&mut mem, 2, shards);
            let out = check_strong(&alg, mem, &frontier_safe_max_scenario(shards), 16_000_000);
            assert!(
                out.is_certified(),
                "frontier-safe S={shards}: {:?}",
                out.outcome
            );

            let mut mem = SimMemory::new();
            let alg = ShardedMaxRegAlg::new(&mut mem, 3, shards);
            let out = check_strong(&alg, mem, &fan_in_max_scenario(shards), 64_000_000);
            assert!(!out.is_bounded(), "fan-in S={shards}");
            assert_eq!(out.is_certified(), shards == 1, "fan-in S={shards}");
        }
    }

    // -- binary lane encoding twins (PR 6) ------------------------------

    #[test]
    fn binary_max_register_solo_semantics_match_unary() {
        // Same ops through both encodings: identical responses, and the
        // binary writer keeps the two-step probe/adjust shape.
        let mut mem = SimMemory::new();
        let unary = ShardedMaxRegAlg::new(&mut mem, 2, 2);
        let binary = ShardedMaxRegAlg::binary(&mut mem, 2, 2);
        for (p, v) in [(0usize, 4u64), (1, 7), (0, 1000)] {
            let (ru, su) = run_solo(&mut unary.machine(p, &MaxOp::Write(v)), &mut mem);
            let (rb, sb) = run_solo(&mut binary.machine(p, &MaxOp::Write(v)), &mut mem);
            assert_eq!(ru, rb);
            assert_eq!(su, sb, "write({v}) step shape");
        }
        let (ru, _) = run_solo(&mut unary.machine(1, &MaxOp::Read), &mut mem);
        let (rb, _) = run_solo(&mut binary.machine(1, &MaxOp::Read), &mut mem);
        assert_eq!(ru, MaxResp::Value(1000));
        assert_eq!(ru, rb);
        // A stale binary write probes its home shard once and stops.
        let (_, steps) = run_solo(&mut binary.machine(1, &MaxOp::Write(5)), &mut mem);
        assert_eq!(steps, 1);
    }

    #[test]
    fn binary_frontier_scenarios_bracket_the_boundary_like_unary() {
        // The PR-3/PR-5 verdict table is encoding-independent: per-lane
        // decoded values stay monotone under the probe-then-adjust
        // write, so the frontier argument (and its refutation) carries
        // over verbatim. Frontier-safe certified at S ∈ {1, 2, 4};
        // fan-in certified only at the S = 1 control.
        for shards in [1usize, 2, 4] {
            let mut mem = SimMemory::new();
            let alg = ShardedMaxRegAlg::binary(&mut mem, 2, shards);
            let out = check_strong(&alg, mem, &frontier_safe_max_scenario(shards), 16_000_000);
            assert!(
                out.is_certified(),
                "binary frontier-safe S={shards}: {:?}",
                out.outcome
            );

            let mut mem = SimMemory::new();
            let alg = ShardedMaxRegAlg::binary(&mut mem, 3, shards);
            let out = check_strong(&alg, mem, &fan_in_max_scenario(shards), 64_000_000);
            assert!(!out.is_bounded(), "binary fan-in S={shards}");
            assert_eq!(out.is_certified(), shards == 1, "binary fan-in S={shards}");
        }
    }

    #[test]
    fn binary_fan_in_refutation_witness_replays() {
        // Refutations must stay actionable under the re-encoding: the
        // witness is a complete path and must replay step-for-step.
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::binary(&mut mem, 3, 4);
        let scenario = fan_in_max_scenario(4);
        let out = check_strong(&alg, mem.clone(), &scenario, 64_000_000);
        assert!(out.is_refuted());
        let witness = out.witness().expect("refutation carries a witness");
        sl2_exec::validate_witness(&alg, mem, &scenario, witness)
            .expect("binary fan-in witness must replay");
    }

    #[test]
    fn binary_writes_stay_linearizable_on_all_fan_in_histories() {
        // Plain linearizability holds on every history even where
        // strong linearizability fails — the refutation is about
        // commitment, not about a wrong value ever being read.
        let mut mem = SimMemory::new();
        let alg = ShardedMaxRegAlg::binary(&mut mem, 3, 2);
        let scenario = fan_in_max_scenario(2);
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            assert!(is_linearizable(&MaxRegisterSpec, h), "history: {h:?}");
        });
    }

    // -- randomized differential cover ---------------------------------

    #[test]
    fn stable_reads_match_exact_counts_on_all_histories() {
        let mut mem = SimMemory::new();
        let alg = ShardedCounterAlg::exact(&mut mem, 2, 2);
        let scenario = symmetric::<CounterSpec>(2, vec![CounterOp::Inc, CounterOp::Read]);
        for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
            assert!(is_linearizable(&CounterSpec, h), "history: {h:?}");
        });
    }
}
