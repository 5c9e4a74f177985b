//! Stress coverage for the PR-6 lock-free inline regime: migration
//! under contention across the 2^127 tag boundary and the 2^128 inline
//! limit, and seeded differential workloads that must land the
//! lock-free register and its spinlocked twin on bit-identical values.
//!
//! Under `--features force_spinlock` the same suite runs with every
//! register on the portable locked path — the assertions are mode-
//! independent by construction, which is exactly the differential
//! guarantee ISSUE 6 asks for (the CI fallback leg runs this file in
//! both configurations).

use std::sync::Arc;

use sl2_bignum::{BigNat, LaneEncoding, Lanes, WideFaa};

/// xorshift64* — deterministic per-seed op streams with no external RNG
/// crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn contended_migration_crossing_the_tag_boundary_is_exact() {
    // 8 threads × 128 adds of 2^120 sum to exactly 2^127: the crossing
    // into the tagged regime happens mid-race, with every thread
    // hammering the cell as the migration CAS lands. No increment may
    // be lost on either side of the boundary.
    let r = Arc::new(WideFaa::new());
    let delta = BigNat::pow2(120);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let r = Arc::clone(&r);
            let delta = delta.clone();
            s.spawn(move || {
                for _ in 0..16 {
                    r.fetch_add(&delta);
                }
            });
        }
    });
    assert_eq!(r.load(), BigNat::pow2(127));
    assert_eq!(r.bit_len(), 128);
    assert!(
        !r.is_inline_lock_free(),
        "a register at 2^127 must have migrated"
    );
    // The migrated register keeps full fetch&add semantics.
    assert_eq!(r.fetch_add(&BigNat::one()), BigNat::pow2(127));
}

#[test]
fn contended_migration_crossing_two_to_the_128_is_exact() {
    // 8 threads × 100 adds of 2^124 = 800·2^124 ≈ 2^133.6 — the race
    // crosses both the tag bit and BigNat's own inline limit while
    // threads from before the migration are still mid-operation.
    let r = Arc::new(WideFaa::new());
    let delta = BigNat::pow2(124);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let r = Arc::clone(&r);
            let delta = delta.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    r.fetch_add(&delta);
                }
            });
        }
    });
    let mut want = BigNat::zero();
    for _ in 0..800 {
        want += &delta;
    }
    assert_eq!(r.load(), want);
    assert!(!r.load().is_inline(), "800·2^124 needs more than 128 bits");
}

#[test]
fn contended_adjusts_migrate_without_losing_lane_bits() {
    // Each thread owns one lane of a 4-process layout and bounces its
    // own lane value up and down with fetch_adjust while a heap-sized
    // add from thread 0 forces migration mid-race. Single-writer lanes
    // mean the final per-lane values are deterministic.
    let lanes = Lanes::new(4, LaneEncoding::Binary);
    let r = Arc::new(WideFaa::new());
    std::thread::scope(|s| {
        for t in 0..4usize {
            let r = Arc::clone(&r);
            s.spawn(move || {
                let mut lane = 0u64;
                for step in 1..=200u64 {
                    // Deterministic walk: mostly up, every 5th step dips.
                    let next = if step % 5 == 0 { step - 1 } else { step };
                    let (pos, neg) = lanes.adjustments(t, lane, next);
                    r.adjust(&pos, &neg);
                    lane = next;
                    if t == 0 && step == 100 {
                        // Force the inline→heap migration mid-workload.
                        r.add(&BigNat::pow2(1000));
                    }
                }
            });
        }
    });
    let v = r.load();
    assert!(v.bit(1000), "the migration-forcing bit must survive");
    for t in 0..4usize {
        // Final lane value: 200 is divisible by 5, so the last step
        // dipped to 199.
        let mut lane = BigNat::zero();
        for g in v.one_bits().filter(|g| g % 4 == t && *g < 1000) {
            lane.set_bit(g / 4, true);
        }
        assert_eq!(lane, BigNat::from(199u64), "lane {t}");
    }
}

#[test]
fn seeded_threaded_workload_is_bit_identical_to_the_spinlocked_twin() {
    // The differential harness: the same seeded, single-writer-per-lane
    // workload runs against a default register and a spinlocked twin.
    // Every op commutes across lanes (adds/adjusts touch only the
    // caller's lane), so the final image is schedule-independent — any
    // divergence is a lost or torn update in one of the two
    // implementations.
    let lanes = Lanes::new(8, LaneEncoding::Binary);
    let run = |reg: &Arc<WideFaa>| {
        std::thread::scope(|s| {
            for t in 0..8usize {
                let reg = Arc::clone(reg);
                s.spawn(move || {
                    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (t as u64 + 1));
                    let mut lane = 0u64;
                    for _ in 0..400 {
                        match rng.next() % 4 {
                            0 | 1 => {
                                // Grow the lane (unary-ish add).
                                let next = lane + 1 + rng.next() % 3;
                                let (pos, neg) = lanes.adjustments(t, lane, next);
                                reg.adjust(&pos, &neg);
                                lane = next;
                            }
                            2 => {
                                // Rewrite the lane downward.
                                let next = lane / 2;
                                let (pos, neg) = lanes.adjustments(t, lane, next);
                                reg.adjust(&pos, &neg);
                                lane = next;
                            }
                            _ => {
                                // Probe; the decoded own-lane value must
                                // match the thread's local shadow.
                                let got = reg.read_with(|v| lanes.decode(t, v));
                                assert_eq!(got, lane, "thread {t} lane probe");
                            }
                        }
                    }
                });
            }
        });
        reg.load()
    };

    let lock_free = Arc::new(WideFaa::new());
    let spinlocked = Arc::new(WideFaa::with_value_spinlocked(BigNat::zero()));
    let a = run(&lock_free);
    let b = run(&spinlocked);
    assert_eq!(a, b, "lock-free and spinlocked runs diverged");
    assert_eq!(lanes.view(&a), lanes.view(&b));
}

#[test]
fn mixed_fleet_of_lock_free_and_spinlocked_registers_agree_under_load() {
    // Same seeded workload applied in lockstep to both flavors from the
    // same threads: after every batch the two registers must agree.
    let a = Arc::new(WideFaa::new());
    let b = Arc::new(WideFaa::with_value_spinlocked(BigNat::zero()));
    std::thread::scope(|s| {
        for t in 0..6usize {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            s.spawn(move || {
                let mut rng = Rng(0xdead_beef ^ (t as u64).wrapping_mul(0x1234_5678));
                for _ in 0..500 {
                    // Own-lane add at a 20-bit stride: commutative, and
                    // six lanes of 500 small adds stay inline (each
                    // lane's running sum is below 2^19).
                    let small = rng.next() % 1000;
                    let mut delta = BigNat::zero();
                    for bit in 0..10 {
                        if (small >> bit) & 1 == 1 {
                            delta.set_bit(t * 20 + bit, true);
                        }
                    }
                    a.add(&delta);
                    b.add(&delta);
                }
            });
        }
    });
    assert_eq!(a.load(), b.load());
    assert_eq!(a.bit_len(), b.bit_len());
}
