//! Systematic sweeps: strong-linearizability checks over generated
//! scenario families, and crash injection at every step of every
//! process.
//!
//! The per-module tests pick a handful of hand-written scenarios; these
//! sweeps enumerate whole families, so a regression in any construction
//! has many chances to surface.

use sl2::prelude::*;
use sl2_exec::sched::{run, FixedSchedule, Scheduler};
use sl2_spec::counters::{CounterSpec, FetchIncOp};
use sl2_spec::max_register::{MaxOp, MaxRegisterSpec};
use sl2_spec::put_take::SetOp;
use sl2_spec::snapshot::{SnapOp, SnapshotSpec};
use sl2_spec::tas::TasOp;

/// Strong-checks `alg` on every scenario; panics with the scenario on
/// failure.
fn assert_all_sl<A, F>(make: F, scenarios: Vec<Scenario<A::Spec>>, limit: usize)
where
    A: Algorithm,
    F: Fn(&mut SimMemory) -> A,
{
    for scenario in scenarios {
        let mut mem = SimMemory::new();
        let alg = make(&mut mem);
        let out = check_strong(&alg, mem, &scenario, limit);
        assert!(
            out.is_certified(),
            "scenario {scenario:?} refuted: {:?}",
            out.outcome
        );
    }
}

#[test]
fn sweep_max_register_two_process_families() {
    // All combinations of one op per process from a small op alphabet,
    // for two processes, plus a reader variant.
    let alphabet = [MaxOp::Write(1), MaxOp::Write(3), MaxOp::Read];
    let mut scenarios = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                scenarios.push(Scenario::new(vec![vec![*a, *b], vec![*c]]));
            }
        }
    }
    assert_all_sl(|mem| MaxRegAlg::new(mem, 2), scenarios, 8_000_000);
}

#[test]
fn sweep_snapshot_update_scan_families() {
    let mut scenarios = Vec::new();
    for v0 in [1u64, 2] {
        for v1 in [3u64, 4] {
            scenarios.push(Scenario::new(vec![
                vec![SnapOp::Update { i: 0, v: v0 }, SnapOp::Scan],
                vec![SnapOp::Update { i: 1, v: v1 }, SnapOp::Scan],
            ]));
            scenarios.push(Scenario::new(vec![
                vec![
                    SnapOp::Update { i: 0, v: v0 },
                    SnapOp::Update { i: 0, v: v1 },
                ],
                vec![SnapOp::Scan, SnapOp::Scan],
            ]));
        }
    }
    assert_all_sl(|mem| SnapshotAlg::new(mem, 2), scenarios, 8_000_000);
}

#[test]
fn sweep_readable_tas_all_two_op_scenarios() {
    let alphabet = [TasOp::TestAndSet, TasOp::Read];
    let mut scenarios = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                for d in &alphabet {
                    scenarios.push(Scenario::new(vec![vec![*a, *b], vec![*c, *d]]));
                }
            }
        }
    }
    assert_all_sl(ReadableTasAlg::new, scenarios, 8_000_000);
}

#[test]
fn sweep_multishot_tas_with_resets() {
    let alphabet = [TasOp::TestAndSet, TasOp::Read, TasOp::Reset];
    let mut scenarios = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                scenarios.push(Scenario::new(vec![vec![*a, *b], vec![*c]]));
            }
        }
    }
    assert_all_sl(MultiShotTasAlg::new, scenarios, 8_000_000);
}

#[test]
fn sweep_fetch_inc_mixes() {
    let alphabet = [FetchIncOp::FetchInc, FetchIncOp::Read];
    let mut scenarios = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                scenarios.push(Scenario::new(vec![vec![*a, *b], vec![*c]]));
                scenarios.push(Scenario::new(vec![vec![*a], vec![*b], vec![*c]]));
            }
        }
    }
    assert_all_sl(FetchIncAlg::new, scenarios, 12_000_000);
}

#[test]
fn sweep_fetch_inc_composed_mixes() {
    // Theorem 9 ∘ Theorem 5 (readable test&set base objects inlined):
    // the composed machine must survive the same scenario family as
    // the modular form.
    let alphabet = [FetchIncOp::FetchInc, FetchIncOp::Read];
    let mut scenarios = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                scenarios.push(Scenario::new(vec![vec![*a, *b], vec![*c]]));
                scenarios.push(Scenario::new(vec![vec![*a], vec![*b], vec![*c]]));
            }
        }
    }
    assert_all_sl(FetchIncComposedAlg::new, scenarios, 12_000_000);
}

#[test]
fn sweep_mult_queue_linearizable_under_adversaries() {
    // The multiplicity queue is NOT strongly linearizable (checked in
    // its module); this sweep covers the positive half of its contract
    // across a scenario family: linearizability w.r.t. the relaxed
    // spec under random and bursty adversaries.
    use sl2_spec::fifo::QueueOp;
    use sl2_spec::relaxed::MultiplicityQueueSpec;
    let mut scenarios = Vec::new();
    for a in [QueueOp::Enq(1), QueueOp::Deq] {
        for b in [QueueOp::Enq(2), QueueOp::Deq] {
            for c in [QueueOp::Enq(3), QueueOp::Deq] {
                scenarios.push(Scenario::new(vec![vec![a, b], vec![c, QueueOp::Deq]]));
                scenarios.push(Scenario::new(vec![vec![a], vec![b], vec![c]]));
            }
        }
    }
    for scenario in scenarios {
        let n = scenario.processes();
        let mut base = SimMemory::new();
        let alg = MultQueueAlg::new(&mut base, n);
        for seed in 0..40u64 {
            let exec = run(
                &alg,
                base.clone(),
                &scenario,
                &mut RandomSched::seeded(seed),
                &CrashPlan::none(n),
            );
            assert!(
                is_linearizable(&MultiplicityQueueSpec, &exec.history),
                "scenario {scenario:?} seed {seed}: {:?}",
                exec.history
            );
            let exec = run(
                &alg,
                base.clone(),
                &scenario,
                &mut BurstSched::seeded(seed, 8),
                &CrashPlan::none(n),
            );
            assert!(
                is_linearizable(&MultiplicityQueueSpec, &exec.history),
                "burst scenario {scenario:?} seed {seed}: {:?}",
                exec.history
            );
        }
    }
}

#[test]
fn sweep_set_put_take_mixes() {
    let mut scenarios = Vec::new();
    for a in [SetOp::Put(1), SetOp::Take] {
        for b in [SetOp::Put(2), SetOp::Take] {
            for c in [SetOp::Put(3), SetOp::Take] {
                scenarios.push(Scenario::new(vec![vec![a, b], vec![c]]));
            }
        }
    }
    assert_all_sl(SlSetAlg::new, scenarios, 16_000_000);
}

#[test]
fn sweep_simple_type_counter_three_processes() {
    use sl2_spec::counters::CounterOp;
    let alphabet = [CounterOp::Inc, CounterOp::Read];
    let mut scenarios = Vec::new();
    for a in &alphabet {
        for b in &alphabet {
            for c in &alphabet {
                scenarios.push(Scenario::new(vec![vec![*a], vec![*b], vec![*c]]));
            }
        }
    }
    assert_all_sl(
        |mem| SimpleAlg::new(mem, 3, CounterSpec),
        scenarios,
        16_000_000,
    );
}

// ---------------------------------------------------------------------
// Crash injection: kill each process after each possible step count;
// the surviving history must stay linearizable (strong linearizability
// on the full tree already implies this — these runs cross-check the
// runner against the checker).
// ---------------------------------------------------------------------

fn crash_sweep<A, F>(make: F, scenario: Scenario<A::Spec>, spec: A::Spec, max_steps: u64)
where
    A: Algorithm,
    F: Fn(&mut SimMemory) -> A,
{
    let n = scenario.processes();
    for victim in 0..n {
        for crash_at in 1..=max_steps {
            for seed in 0..5u64 {
                let mut mem = SimMemory::new();
                let alg = make(&mut mem);
                let exec = run(
                    &alg,
                    mem,
                    &scenario,
                    &mut RandomSched::seeded(seed),
                    &CrashPlan::none(n).crash_after(victim, crash_at),
                );
                assert!(exec.history.is_well_formed());
                assert!(
                    is_linearizable(&spec, &exec.history),
                    "victim={victim} crash_at={crash_at} seed={seed}: {:?}",
                    exec.history
                );
            }
        }
    }
}

#[test]
fn crash_sweep_max_register() {
    crash_sweep(
        |mem| MaxRegAlg::new(mem, 3),
        Scenario::new(vec![
            vec![MaxOp::Write(5), MaxOp::Read],
            vec![MaxOp::Write(2)],
            vec![MaxOp::Read, MaxOp::Write(7)],
        ]),
        MaxRegisterSpec,
        4,
    );
}

#[test]
fn crash_sweep_snapshot() {
    crash_sweep(
        |mem| SnapshotAlg::new(mem, 3),
        Scenario::new(vec![
            vec![SnapOp::Update { i: 0, v: 1 }, SnapOp::Scan],
            vec![SnapOp::Update { i: 1, v: 2 }],
            vec![SnapOp::Scan],
        ]),
        SnapshotSpec::new(3),
        4,
    );
}

#[test]
fn crash_sweep_readable_tas() {
    crash_sweep(
        ReadableTasAlg::new,
        Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Read],
            vec![TasOp::TestAndSet],
            vec![TasOp::Read, TasOp::Read],
        ]),
        sl2_spec::tas::ReadableTasSpec,
        3,
    );
}

#[test]
fn crash_sweep_multishot_tas() {
    crash_sweep(
        MultiShotTasAlg::new,
        Scenario::new(vec![
            vec![TasOp::TestAndSet, TasOp::Reset],
            vec![TasOp::TestAndSet],
            vec![TasOp::Read, TasOp::Read],
        ]),
        sl2_spec::tas::MultiShotTasSpec,
        4,
    );
}

#[test]
fn crash_sweep_set() {
    crash_sweep(
        SlSetAlg::new,
        Scenario::new(vec![
            vec![SetOp::Put(1), SetOp::Take],
            vec![SetOp::Put(2)],
            vec![SetOp::Take],
        ]),
        sl2_spec::put_take::PutTakeSetSpec,
        6,
    );
}

#[test]
fn crash_sweep_mult_queue() {
    use sl2_spec::fifo::QueueOp;
    crash_sweep(
        |mem| MultQueueAlg::new(mem, 3),
        Scenario::new(vec![
            vec![QueueOp::Enq(1), QueueOp::Deq],
            vec![QueueOp::Enq(2)],
            vec![QueueOp::Deq],
        ]),
        sl2_spec::relaxed::MultiplicityQueueSpec,
        8,
    );
}

#[test]
fn crash_sweep_fetch_inc_composed() {
    crash_sweep(
        FetchIncComposedAlg::new,
        Scenario::new(vec![
            vec![FetchIncOp::FetchInc, FetchIncOp::Read],
            vec![FetchIncOp::FetchInc],
            vec![FetchIncOp::Read],
        ]),
        sl2_spec::counters::FetchIncSpec,
        4,
    );
}

#[test]
fn crash_sweep_simple_counter() {
    crash_sweep(
        |mem| SimpleAlg::new(mem, 2, CounterSpec),
        Scenario::new(vec![
            vec![
                sl2_spec::counters::CounterOp::Inc,
                sl2_spec::counters::CounterOp::Read,
            ],
            vec![sl2_spec::counters::CounterOp::Inc],
        ]),
        CounterSpec,
        3,
    );
}

// ---------------------------------------------------------------------
// Scripted-schedule determinism: the same fixed schedule yields the
// same history (the substrate is deterministic end to end).
// ---------------------------------------------------------------------

#[test]
fn fixed_schedules_are_deterministic() {
    let scenario = Scenario::new(vec![
        vec![TasOp::TestAndSet, TasOp::Read],
        vec![TasOp::TestAndSet],
    ]);
    let script = vec![0, 1, 0, 1, 0, 1, 0, 1];
    let run_once = || {
        let mut mem = SimMemory::new();
        let alg = ReadableTasAlg::new(&mut mem);
        run(
            &alg,
            mem,
            &scenario,
            &mut FixedSchedule::new(script.clone()),
            &CrashPlan::none(2),
        )
        .history
    };
    assert_eq!(run_once(), run_once());
}

/// FNV-1a (64-bit): a hash that is the same on every build and
/// platform, unlike std's `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `alg` on `scenario` under every scheduler kind, once without
/// crashes and once with process 1 crashed after its first step (which
/// leaves its first operation pending), and hashes each `Execution`:
/// events, per-operation and per-process step counts, final memory.
fn execution_digests<A: Algorithm>(
    make: impl Fn(&mut SimMemory) -> A,
    scenario: &Scenario<A::Spec>,
) -> Vec<u64> {
    let n = scenario.processes();
    let mut digests = Vec::new();
    for crashed in [false, true] {
        let scheds: [Box<dyn Scheduler>; 4] = [
            Box::new(RoundRobin::default()),
            Box::new(RandomSched::seeded(7)),
            Box::new(BurstSched::seeded(7, 4)),
            Box::new(FixedSchedule::new(vec![2, 2, 0, 1, 1, 0, 2, 1, 0, 0, 2, 1])),
        ];
        for mut sched in scheds {
            let crashes = if crashed {
                CrashPlan::none(n).crash_after(1, 1)
            } else {
                CrashPlan::none(n)
            };
            let mut mem = SimMemory::new();
            let alg = make(&mut mem);
            let exec = run(&alg, mem, scenario, sched.as_mut(), &crashes);
            assert_eq!(exec.history.pending_ops().len(), usize::from(crashed));
            let rendered = format!(
                "{:?}|{:?}|{:?}|{:?}",
                exec.history.events(),
                exec.op_steps,
                exec.proc_steps,
                exec.mem
            );
            digests.push(fnv1a(rendered.as_bytes()));
        }
    }
    digests
}

#[test]
fn seeded_executions_are_pinned_byte_for_byte() {
    // Computed before `run` was rewritten to step its machines in place;
    // any change to a pick, a step count, an event or a memory cell
    // moves a digest.
    let max_ops = Scenario::new(vec![
        vec![MaxOp::Write(3), MaxOp::Read, MaxOp::Write(6)],
        vec![MaxOp::Write(7), MaxOp::Read],
        vec![MaxOp::Read, MaxOp::Write(2), MaxOp::Read],
    ]);
    let keyed = Scenario::new(vec![
        vec![
            KeyedMaxOp::Write { key: 1, v: 3 },
            KeyedMaxOp::Read { key: 1 },
            KeyedMaxOp::Write { key: 2, v: 5 },
        ],
        vec![
            KeyedMaxOp::Write { key: 1, v: 7 },
            KeyedMaxOp::Read { key: 2 },
        ],
        vec![
            KeyedMaxOp::Read { key: 2 },
            KeyedMaxOp::Write { key: 2, v: 2 },
            KeyedMaxOp::Read { key: 1 },
        ],
    ]);
    let found = [
        execution_digests(
            |mem| KeyedDispatchAlg::new(mem, 3, &[1, 2], RouteMode::Exact),
            &keyed,
        ),
        execution_digests(|mem| MaxRegAlg::new(mem, 3), &max_ops),
        execution_digests(|mem| ShardedMaxRegAlg::new(mem, 3, 2), &max_ops),
    ];
    let pinned: [[u64; 8]; 3] = [
        // KeyedDispatchAlg
        [
            0x1fcb_24ab_07b6_dc3f,
            0x1a6d_3132_dac8_4c16,
            0xca28_46e1_fa4b_2b8a,
            0x7e32_339c_33b0_e340,
            0x1ab6_3f07_b6f9_9570,
            0xc870_794f_56aa_5752,
            0xc402_91e7_6860_4091,
            0x5355_bd28_3dce_22b4,
        ],
        // MaxRegAlg
        [
            0xf070_3ec6_d03b_5a8f,
            0x77ec_5d35_1285_abbc,
            0x8412_97ea_495f_0b60,
            0x5876_644b_9d52_db17,
            0xbffe_1332_1ceb_1bf1,
            0xa73b_6a7e_3695_f336,
            0x61f3_e9a2_8145_72bc,
            0x8990_e543_980b_059d,
        ],
        // ShardedMaxRegAlg, two shards
        [
            0x0b84_cce9_63b1_5336,
            0x0786_61a6_f4b2_8c1e,
            0xad28_8a80_ab9b_566a,
            0x706f_a9cc_6b02_7061,
            0x7b36_abb4_0f51_3920,
            0xea3d_9376_69d1_fd07,
            0x0184_b159_15d8_d554,
            0x89eb_3fd8_fd85_c403,
        ],
    ];
    assert_eq!(found, pinned.map(Vec::from));
}
