//! E35: the threaded-history recorder differential (ISSUE 7).
//!
//! The recorder observes *production* objects — real threads, real
//! memory — and its verdicts must agree in polarity with what the
//! checker proved exhaustively on the step-machine twins (E26–E29):
//! the combining counter's cached read is refutable against the exact
//! spec and certified against the k-lagging window. Here the same
//! staleness is **staged** on the production `CombiningCounter` (the
//! publication lock held by a "combiner" that never publishes, so
//! every inc completes on the direct path), recorded, and adjudicated
//! by the linearizability checker on both specs.
//!
//! When `SL2_RECORDER_JSON` is set, the adjudication report is written
//! there as JSON lines — CI uploads it next to the corpus report.

use sl2::prelude::*;
use sl2_sharded::ShardedFetchInc;
use sl2_spec::counters::{CounterOp, CounterResp, CounterSpec};

#[test]
fn recorded_staleness_matches_the_machine_verdicts() {
    let mut report = RecordReport::new();

    // -- Run 1: staged staleness on the production counter ------------
    // Hold the publication lock (the dead-combiner shape): both incs
    // lose their elections and complete unpublished; the cached read
    // then returns the pre-election fold with both incs already
    // returned — the exact refutation in the flesh.
    let c = CombiningCounter::new(ShardedFetchInc::new(3, 2));
    let held = c.lock().try_acquire().expect("fresh lock is free");
    let rec = Recorder::<CounterSpec>::new(3);
    rec.run_op(0, CounterOp::Inc, || {
        c.inc(0);
        CounterResp::Ok
    });
    rec.run_op(1, CounterOp::Inc, || {
        c.inc(1);
        CounterResp::Ok
    });
    rec.run_op(2, CounterOp::Read, || CounterResp::Value(c.read_cached()));
    assert!(c.lock().release(held), "the staged tenure releases cleanly");
    let stale = rec.into_history();
    assert_eq!(stale.complete_ops().len(), 3);

    let exact_verdict = report.adjudicate(
        "combining_counter/cached_stale",
        "exact",
        &CounterSpec,
        &stale,
    );
    assert!(
        !exact_verdict,
        "a cached read of 0 after two completed incs must refute the exact spec"
    );
    let lagging_verdict = report.adjudicate(
        "combining_counter/cached_stale",
        "lagging_k2",
        &LaggingCounterSpec { k: 2 },
        &stale.retyped::<LaggingCounterSpec>(),
    );
    assert!(
        lagging_verdict,
        "the same staleness is in-window for the k=2 lagging spec"
    );

    // -- Run 2: the machine twins agree in polarity -------------------
    // The exhaustive adjudication of the same shape (every
    // interleaving of the checkable twin) has the same signs: refuted
    // exact, certified lagging. One recorded run can never *witness*
    // more than the tree contains — the differential claim is
    // polarity, not equality of coverage.
    let mut mem = SimMemory::new();
    let alg = CombiningCounterAlg::cached(&mut mem, 3, 1);
    let scenario =
        fan_in::<CounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
    let machine_exact = check_strong(&alg, mem, &scenario, 8_000_000);
    assert!(!machine_exact.is_bounded(), "{:?}", machine_exact.outcome);
    assert_eq!(
        machine_exact.is_certified(),
        exact_verdict,
        "recorded exact verdict diverged from the step-machine verdict"
    );

    let mut mem = SimMemory::new();
    let alg = CombiningCounterAlg::relaxed(&mut mem, 3, 1, 2);
    let scenario =
        fan_in::<LaggingCounterSpec>(vec![CounterOp::Inc, CounterOp::Inc], vec![CounterOp::Read]);
    let machine_lagging = check_strong(&alg, mem, &scenario, 8_000_000);
    assert!(
        !machine_lagging.is_bounded(),
        "{:?}",
        machine_lagging.outcome
    );
    assert_eq!(
        machine_lagging.is_certified(),
        lagging_verdict,
        "recorded lagging verdict diverged from the step-machine verdict"
    );

    // -- Run 3: the exact read path, concurrently ---------------------
    // Without the staged dead tenure, real threads through read_exact
    // must linearize against the exact spec.
    let c = CombiningCounter::new(ShardedFetchInc::new(4, 2));
    let rec = Recorder::<CounterSpec>::new(4);
    std::thread::scope(|s| {
        for p in 0..3usize {
            let (c, rec) = (&c, &rec);
            s.spawn(move || {
                for _ in 0..20 {
                    rec.run_op(p, CounterOp::Inc, || {
                        c.inc(p);
                        CounterResp::Ok
                    });
                }
            });
        }
        let (c, rec) = (&c, &rec);
        s.spawn(move || {
            for _ in 0..20 {
                rec.run_op(3, CounterOp::Read, || CounterResp::Value(c.read_exact()));
            }
        });
    });
    let exact_run = rec.into_history();
    assert_eq!(exact_run.pending_ops().len(), 0);
    assert!(
        report.adjudicate(
            "combining_counter/exact_reads",
            "exact",
            &CounterSpec,
            &exact_run
        ),
        "exact reads from real threads must linearize"
    );

    // -- Run 4: cached reads honestly, against their honest spec ------
    // The same concurrent shape but over read_cached, judged against
    // the k-lagging window with k = the number of incrementors (at
    // most that many increments are in flight past the cache at once
    // here, since each inc republishes when it wins).
    let c = CombiningCounter::new(ShardedFetchInc::new(4, 2));
    let rec = Recorder::<LaggingCounterSpec>::new(4);
    std::thread::scope(|s| {
        for p in 0..3usize {
            let (c, rec) = (&c, &rec);
            s.spawn(move || {
                for _ in 0..20 {
                    rec.run_op(p, CounterOp::Inc, || {
                        c.inc(p);
                        CounterResp::Ok
                    });
                }
            });
        }
        let (c, rec) = (&c, &rec);
        s.spawn(move || {
            for _ in 0..20 {
                rec.run_op(3, CounterOp::Read, || CounterResp::Value(c.read_cached()));
            }
        });
    });
    let cached_run = rec.into_history();
    assert!(
        report.adjudicate(
            "combining_counter/cached_reads",
            "lagging_k3",
            &LaggingCounterSpec { k: 3 },
            &cached_run,
        ),
        "cached reads must stay within their honest window"
    );

    // Machine-readable artifact for CI (next to the corpus report).
    assert_eq!(report.runs.len(), 4);
    assert_eq!(
        report.passed(),
        3,
        "exactly the staged exact refutation fails"
    );
    report.write_env();
}

#[test]
fn production_length_histories_check_on_the_default_stack() {
    // 3 threads × 5 000 ops on the shipped max register, recorded and
    // checked on this test thread's default stack: the checker's search
    // is an explicit stack over per-process cursors, with no bound on
    // history length.
    use sl2::exec::history::Event;
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec, MaxResp};
    const PER: u64 = 5_000;
    let m = SlMaxRegister::new_binary(3);
    let rec = Recorder::<MaxRegisterSpec>::new(3);
    std::thread::scope(|s| {
        for p in 0..3usize {
            let (m, rec) = (&m, &rec);
            s.spawn(move || {
                for i in 0..PER {
                    if i % 2 == 0 {
                        // Every written value is ≡ p (mod 10), p < 3.
                        let v = 10 * i + p as u64;
                        rec.run_op(p, MaxOp::Write(v), || {
                            m.write_max(p, v);
                            MaxResp::Ok
                        });
                    } else {
                        rec.run_op(p, MaxOp::Read, || MaxResp::Value(m.read_max()));
                    }
                }
            });
        }
    });
    let history = rec.into_history();
    assert_eq!(history.len(), 2 * 3 * PER as usize);
    let lin = linearize(&MaxRegisterSpec, &history).expect("the shipped register linearizes");
    assert_eq!(lin.len(), 3 * PER as usize);

    // The same history with one mid-run read answering a value nobody
    // wrote (≡ 7 mod 10) is rejected.
    let reads: Vec<usize> = (0..history.len())
        .filter(|&at| {
            matches!(
                history.events()[at],
                Event::Return {
                    resp: MaxResp::Value(_),
                    ..
                }
            )
        })
        .collect();
    let planted = reads[reads.len() / 2];
    let mut bad = History::new();
    for (at, e) in history.events().iter().enumerate() {
        match e {
            Event::Invoke { id, process, op } => bad.invoke(*id, *process, *op),
            Event::Return { id, .. } if at == planted => bad.ret(*id, MaxResp::Value(10 * PER + 7)),
            Event::Return { id, resp } => bad.ret(*id, *resp),
        }
    }
    assert!(!is_linearizable(&MaxRegisterSpec, &bad));
}
