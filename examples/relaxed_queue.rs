//! The §5 boundary, relaxed: a queue **with multiplicity** built from
//! read/write registers only (\[11\] style), demonstrated end to end.
//!
//! The paper proves (Theorem 17) that queues — and their multiplicity
//! relaxations — have *no* lock-free strongly-linearizable
//! implementation from consensus-number-2 primitives. Relaxing to
//! multiplicity instead buys implementability from plain registers,
//! at the price of duplicate dequeues in concurrent windows. This
//! example shows all three facets:
//!
//! 1. the checker confirms every bounded history linearizes w.r.t. the
//!    relaxed specification;
//! 2. the checker *refutes* strong linearizability, with a witness
//!    (racing collect-based timestamps — the same future-dependence
//!    shape as the AGM stack counterexample);
//! 3. real threads hammer the production form, measuring how often the
//!    multiplicity relaxation actually fires.
//!
//! ```sh
//! cargo run --release --example relaxed_queue
//! ```

use sl2::prelude::*;
use sl2_spec::fifo::QueueOp;
use sl2_spec::relaxed::MultiplicityQueueSpec;

fn main() {
    println!("== queue with multiplicity, from read/write registers only ==\n");

    // 1. Linearizable w.r.t. the relaxed spec on a bounded scenario.
    let mut mem = SimMemory::new();
    let alg = MultQueueAlg::new(&mut mem, 2);
    let scenario = Scenario::new(vec![
        vec![QueueOp::Enq(1)],
        vec![QueueOp::Deq, QueueOp::Deq],
    ]);
    let mut histories = 0usize;
    for_each_history(&alg, mem, &scenario, 4_000_000, &mut |h| {
        histories += 1;
        assert!(is_linearizable(&MultiplicityQueueSpec, h));
    });
    println!(
        "exhaustive check: {histories} interleavings of enq ∥ deq·deq — all linearizable \
         w.r.t. the multiplicity spec"
    );

    // 2. Not strongly linearizable: racing enqueues with tied
    //    timestamps keep a completed enqueue's order future-dependent.
    let mut mem = SimMemory::new();
    let alg = MultQueueAlg::new(&mut mem, 3);
    let scenario = Scenario::new(vec![
        vec![QueueOp::Enq(1)],
        vec![QueueOp::Enq(2)],
        vec![QueueOp::Deq, QueueOp::Deq],
    ]);
    let out = check_strong(&alg, mem, &scenario, 12_000_000);
    assert!(out.is_refuted());
    let witness = out.witness().expect("refutation carries a witness");
    println!(
        "\nstrong linearizability: REFUTED in {} search states (as Theorem 17 demands)",
        out.nodes
    );
    println!("witness schedule prefix:");
    for line in witness.path.iter().take(8) {
        println!("  {line}");
    }
    println!("  … {}", witness.detail);

    // 3. Production form under real contention: count duplicates.
    const THREADS: usize = 4;
    const PER: usize = 2000;
    let q = MultQueue::new(THREADS, THREADS * PER + 8);
    let got: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|p| {
                let q = &q;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER {
                        q.enq(p, ((p * PER + i) % 60000) as u64);
                        if let Some(v) = q.deq(p) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<u64> = got.iter().flatten().copied().collect();
    let returned = all.len();
    all.sort_unstable();
    let dups = all.windows(2).filter(|w| w[0] == w[1]).count();
    println!(
        "\nproduction run: {THREADS} threads × {PER} enq+deq → {returned} items returned, \
         {dups} duplicated ({:.2}%) — the relaxation fires only in overlapping windows",
        100.0 * dups as f64 / returned.max(1) as f64
    );

    // Sequential drain never duplicates.
    let q = MultQueue::new(2, 64);
    for v in 0..8 {
        q.enq(0, v);
    }
    let drained: Vec<u64> = std::iter::from_fn(|| q.deq(1)).collect();
    assert_eq!(drained, (0..8).collect::<Vec<_>>());
    println!("sequential drain: exact FIFO, no duplicates — {drained:?}");
}
