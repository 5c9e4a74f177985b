//! Experiment E11: the linearizable-but-NOT-strongly-linearizable
//! witnesses, machine-checked.
//!
//! The paper's related work asserts (and \[9\] proves by example) that
//! the AGM wait-free stack \[2\] is linearizable but not strongly
//! linearizable. The checker reproduces that counterexample — and, on
//! the very same scenario, certifies the compare&swap implementations,
//! exhibiting the consensus-number boundary of Theorem 17.

use sl2::prelude::*;
use sl2_core::baselines::agm_stack::AgmStackAlg;
use sl2_core::baselines::cas_queue::CasQueueAlg;
use sl2_core::baselines::treiber_stack::TreiberStackAlg;
use sl2_spec::counters::{CounterOp, CounterSpec};
use sl2_spec::fifo::{QueueOp, StackOp, StackSpec};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec};

fn witness_scenario() -> Scenario<StackSpec> {
    Scenario::new(vec![
        vec![StackOp::Push(1)],
        vec![StackOp::Push(2)],
        vec![StackOp::Pop, StackOp::Pop],
    ])
}

#[test]
fn agm_stack_every_history_linearizable_but_not_strongly() {
    // Linearizable on every interleaving of the witness scenario...
    let mut mem = SimMemory::new();
    let alg = AgmStackAlg::new(&mut mem);
    let mut histories = 0usize;
    for_each_history(
        &alg,
        mem.clone(),
        &witness_scenario(),
        4_000_000,
        &mut |h| {
            histories += 1;
            assert!(is_linearizable(&StackSpec, h), "history: {h:?}");
        },
    );
    assert!(histories > 100, "the scenario has real interleaving depth");

    // ...yet no prefix-closed linearization function exists.
    let out = check_strong(&alg, mem, &witness_scenario(), 16_000_000);
    assert!(out.is_refuted());
    let witness = out.witness().expect("refutation carries a witness");
    // The witness pins the failure to the push/push/pop race.
    assert!(
        witness.path.iter().any(|e| e.contains("Push")),
        "witness path: {:?}",
        witness.path
    );
}

#[test]
fn treiber_stack_passes_the_same_scenario() {
    let mut mem = SimMemory::new();
    let alg = TreiberStackAlg::new(&mut mem);
    let out = check_strong(&alg, mem, &witness_scenario(), 32_000_000);
    assert!(
        out.is_certified(),
        "Treiber (CAS) must pass: {:?}",
        out.outcome
    );
}

#[test]
fn cas_queue_passes_the_queue_shaped_scenario() {
    let mut mem = SimMemory::new();
    let alg = CasQueueAlg::new(&mut mem);
    let scenario = Scenario::new(vec![
        vec![QueueOp::Enq(1)],
        vec![QueueOp::Enq(2)],
        vec![QueueOp::Deq, QueueOp::Deq],
    ]);
    let out = check_strong(&alg, mem, &scenario, 16_000_000);
    assert!(out.is_certified(), "CAS queue must pass: {:?}", out.outcome);
}

#[test]
fn agm_witness_is_robust_to_scenario_variations() {
    // The refutation is not an artifact of one magic scenario: a
    // variant with an extra pop also fails.
    let mut mem = SimMemory::new();
    let alg = AgmStackAlg::new(&mut mem);
    let scenario = Scenario::new(vec![
        vec![StackOp::Push(1), StackOp::Pop],
        vec![StackOp::Push(2)],
        vec![StackOp::Pop, StackOp::Pop],
    ]);
    let out = check_strong(&alg, mem, &scenario, 32_000_000);
    assert!(out.is_refuted());
}

// ---------------------------------------------------------------------
// Sharded-composition witnesses (PR 3): the checker as design referee.
// DESIGN.md §6 walks through why each verdict falls the way it does.
// ---------------------------------------------------------------------

#[test]
fn naive_sum_read_sharded_counter_yields_a_witness() {
    // The ISSUE-3 refutation target: striped increments with a one-pass
    // sum read. Every history is linearizable (an inc-only sweep's
    // value is bracketed by the landed counts at its ends), but once an
    // increment completes behind the reader's sweep frontier while
    // another shard ahead of it can still change, no linearization
    // choice survives every future — the AGM-stack shape, reproduced by
    // a counter.
    let mut mem = SimMemory::new();
    let alg = ShardedCounterAlg::naive(&mut mem, 3, 2);
    let scenario =
        fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
    for_each_history(&alg, mem.clone(), &scenario, 4_000_000, &mut |h| {
        assert!(
            is_linearizable(&CounterSpec, h),
            "sum sweeps stay linearizable per history: {h:?}"
        );
    });
    let out = check_strong(&alg, mem, &scenario, 16_000_000);
    assert!(out.is_refuted());
    let witness = out.witness().expect("refutation carries a witness");
    assert!(!witness.path.is_empty());
}

#[test]
fn exact_sharded_counter_passes_where_the_naive_read_fails() {
    // Same stripes, stable-collect read: the reader retries whenever a
    // shard moved under it, so a prefix-closed L exists on the same
    // fan-in shape (reader fused with a writer process).
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
fn sharded_max_register_fan_in_breaks_even_the_stable_read() {
    // The boundary of the §6 composition argument: two writers whose
    // values hash to different shards plus an independent reader. A
    // write can complete in shard 0 behind the reader's final collect
    // (stability cannot see it), while shard 1 ahead of the frontier
    // can still change — so neither linearizing the read early nor
    // appending it late survives every future, even though the read
    // collects until stable.
    let mut mem = SimMemory::new();
    let alg = ShardedMaxRegAlg::new(&mut mem, 3, 2);
    let scenario =
        fan_in::<MaxRegisterSpec>(vec![MaxOp::Write(2), MaxOp::Write(5)], vec![MaxOp::Read]);
    let out = check_strong(&alg, mem, &scenario, 32_000_000);
    assert!(out.is_refuted());
    let witness = out.witness().expect("refutation carries a witness");
    assert!(
        witness.path.iter().any(|e| e.contains("Write")),
        "witness path: {:?}",
        witness.path
    );
}

#[test]
fn sharded_max_register_same_scenario_single_shard_passes() {
    // Control for the fan-in refutation: identical scenario, S = 1 —
    // the read is a (repeated) probe of the one register every write
    // lands in, and strong linearizability returns. Sharding, not the
    // collect loop, is what broke it.
    let mut mem = SimMemory::new();
    let alg = ShardedMaxRegAlg::new(&mut mem, 3, 1);
    let scenario =
        fan_in::<MaxRegisterSpec>(vec![MaxOp::Write(2), MaxOp::Write(5)], vec![MaxOp::Read]);
    let out = check_strong(&alg, mem, &scenario, 32_000_000);
    assert!(out.is_certified(), "{:?}", out.outcome);
}

// ---------------------------------------------------------------------
// Witness completeness (PR 4): refutation witnesses must be complete
// branches — replayable from the root, step for step, down to the
// actual dying step. The pre-PR-4 checker truncated the path wherever
// a memoized-false subtree was reused (and could even report a
// leftover path from an exploratory branch of a *certification*); the
// engine now re-walks the failing branch through the memo instead.
// ---------------------------------------------------------------------

#[test]
fn agm_witness_is_complete_and_memoization_independent() {
    let mut mem = SimMemory::new();
    let alg = AgmStackAlg::new(&mut mem);
    let scenario = witness_scenario();
    let mut witnesses = Vec::new();
    for memoize in [true, false] {
        let out = check_strong(
            &alg,
            mem.clone(),
            &scenario,
            StrongOptions::with_limit(16_000_000).memoize(memoize),
        );
        let w = out.witness().expect("AGM refuted").clone();
        // Feasibility: the schedule replays against a fresh execution
        // and reproduces every rendered event, including the last.
        assert_eq!(w.path.len(), w.schedule.len());
        validate_witness(&alg, mem.clone(), &scenario, &w)
            .unwrap_or_else(|e| panic!("memoize={memoize}: {e}"));
        // Completeness: the branch ends at the step whose completion
        // no linearization extension survives — a completion event,
        // not a mid-operation step where a cached verdict was reused.
        assert!(
            w.path.last().expect("non-empty").contains("→"),
            "dying step must be a completion: {:?}",
            w.path
        );
        witnesses.push(w);
    }
    assert_eq!(
        witnesses[0].path, witnesses[1].path,
        "witness must not depend on memoization"
    );
    assert_eq!(witnesses[0].schedule, witnesses[1].schedule);
}

#[test]
fn sharded_witness_is_complete_and_memoization_independent() {
    let mut mem = SimMemory::new();
    let alg = ShardedCounterAlg::naive(&mut mem, 3, 2);
    let scenario =
        fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
    let mut witnesses = Vec::new();
    for memoize in [true, false] {
        let out = check_strong(
            &alg,
            mem.clone(),
            &scenario,
            StrongOptions::with_limit(16_000_000).memoize(memoize),
        );
        let w = out.witness().expect("naive counter refuted").clone();
        validate_witness(&alg, mem.clone(), &scenario, &w)
            .unwrap_or_else(|e| panic!("memoize={memoize}: {e}"));
        assert!(
            w.path.last().expect("non-empty").contains("→"),
            "dying step must be a completion: {:?}",
            w.path
        );
        witnesses.push(w);
    }
    assert_eq!(witnesses[0].path, witnesses[1].path);
}

// ---------------------------------------------------------------------
// Combining-layer witnesses (PR 5): the cached read's staleness,
// machine-checked. DESIGN.md §8 walks the adjudication.
// ---------------------------------------------------------------------

#[test]
fn combined_cached_max_read_yields_a_witness_even_at_one_shard() {
    // The ISSUE-5 refutation target: a writer that loses the combiner
    // election completes on the direct path without republishing, and
    // a later 1-load cached read returns the pre-election fold. The
    // refutation needs no collect frontier — it holds at S = 1, where
    // the *sharded* fan-in control was certified (PR 3) and the
    // combining *stable* read still certifies: the cache, not
    // sharding, is what the fast path trades away.
    let mut mem = SimMemory::new();
    let alg = CombiningMaxRegAlg::new(&mut mem, 3, 1, ReadMode::Cached);
    let scenario = cached_fan_in_max_scenario();
    let out = check_strong(&alg, mem, &scenario, 8_000_000);
    assert!(out.is_refuted());
    let witness = out.witness().expect("refutation carries a witness");
    assert!(
        witness.path.iter().any(|e| e.contains("Write")),
        "witness path: {:?}",
        witness.path
    );

    // Control: identical scenario, stable read — certified.
    let mut mem = SimMemory::new();
    let alg = CombiningMaxRegAlg::new(&mut mem, 3, 1, ReadMode::Stable);
    let out = check_strong(&alg, mem, &cached_fan_in_max_scenario(), 16_000_000);
    assert!(out.is_certified(), "{:?}", out.outcome);
}

#[test]
fn combined_cached_witness_is_complete_and_memoization_independent() {
    // The PR-4 witness discipline, applied to the new layer: the
    // cached-read refutation replays step-for-step from the root, with
    // memoization on and off, and the two runs agree.
    let mut mem = SimMemory::new();
    let alg = CombiningCounterAlg::cached(&mut mem, 3, 1);
    let scenario =
        fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
    let mut witnesses = Vec::new();
    for memoize in [true, false] {
        let out = check_strong(
            &alg,
            mem.clone(),
            &scenario,
            StrongOptions::with_limit(16_000_000).memoize(memoize),
        );
        let w = out.witness().expect("cached counter refuted").clone();
        assert_eq!(w.path.len(), w.schedule.len());
        validate_witness(&alg, mem.clone(), &scenario, &w)
            .unwrap_or_else(|e| panic!("memoize={memoize}: {e}"));
        assert!(
            w.path.last().expect("non-empty").contains("→"),
            "dying step must be a completion: {:?}",
            w.path
        );
        witnesses.push(w);
    }
    assert_eq!(
        witnesses[0].path, witnesses[1].path,
        "witness must not depend on memoization"
    );
    assert_eq!(witnesses[0].schedule, witnesses[1].schedule);
}

#[test]
fn combined_cached_reads_meet_their_window_specs_strongly() {
    // The other half of the adjudication: judged against the honest
    // relaxed windows, the same machines on the same scenarios are
    // certified — LaggingCounterSpec for the counter (the PR-3
    // pattern, one layer up) and the new LaggingMaxSpec for the max
    // register.
    let mut mem = SimMemory::new();
    let alg = CombiningCounterAlg::relaxed(&mut mem, 3, 1, 2);
    let scenario =
        fan_in::<LaggingCounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
    let out = check_strong(&alg, mem, &scenario, 16_000_000);
    assert!(out.is_certified(), "{:?}", out.outcome);

    let mut mem = SimMemory::new();
    let alg = CombiningMaxRegAlg::relaxed(&mut mem, 3, 1, ReadMode::Cached, 2);
    let out = check_strong(&alg, mem, &cached_fan_in_lagging_scenario(), 16_000_000);
    assert!(out.is_certified(), "{:?}", out.outcome);
}

#[test]
fn certifications_carry_no_leftover_witness() {
    // The pre-PR-4 checker could attach an exploratory witness to a
    // *passing* report; a certificate now has no witness to carry.
    let mut mem = SimMemory::new();
    let alg = TreiberStackAlg::new(&mut mem);
    let out = check_strong(&alg, mem, &witness_scenario(), 32_000_000);
    assert!(out.is_certified(), "{:?}", out.outcome);
}

#[test]
fn agm_stack_smallest_scenarios_are_fine() {
    // Strong linearizability only breaks once the future can
    // distinguish linearization orders: single-pusher scenarios pass.
    let mut mem = SimMemory::new();
    let alg = AgmStackAlg::new(&mut mem);
    let scenario = Scenario::new(vec![
        vec![StackOp::Push(1)],
        vec![StackOp::Pop, StackOp::Pop],
    ]);
    let out = check_strong(&alg, mem, &scenario, 8_000_000);
    assert!(
        out.is_certified(),
        "one pusher cannot create the ambiguity: {:?}",
        out.outcome
    );
}
