//! Experiment E12 — the Discussion's "extremely large values": cost
//! and growth of the wide fetch&add register.
//!
//! Series:
//! * `faa_at_width/*` — one fetch&add against a register already `w`
//!   bits wide (the per-operation cost of the unary/interleaved
//!   encodings as history accumulates). The small widths (8–64 bits)
//!   sit entirely on the inline-`u128` fast path;
//! * `read_at_width/*` — the `fetch&add(R, 0)` probe at the same
//!   widths;
//! * `inline_vs_heap/*` — the representation ablation: the same
//!   operation just below and just above the 128-bit spill boundary,
//!   plus the fixed-width `FetchAdd128` as the bounded reference point;
//! * `borrowed_probe/*` — the borrowed probe (`read_with`) against the
//!   snapshot-then-decode route it replaced;
//! * `lockfree_vs_spin/*` — the PR-6 contention sweep: the DWCAS
//!   inline path vs the spinlocked twin at widths 64/96/128/256 across
//!   1..=16 threads (E30);
//! * `stall_recovery/*` — E30's stall-adversarial half: fast threads'
//!   makespan while one client stalls at its linearization point,
//!   lock-free vs spinlocked (the series that measures what the
//!   progress guarantee buys — see `bench_stall_recovery`);
//! * `register_growth` (printed table) — register width after k
//!   max-register writes, the quantity the Discussion proposes to
//!   shrink to O(log n) bits in future work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sl2_bench::{parallel_duration, parallel_latency, record_percentiles_json};
use sl2_bignum::FetchAdd128;
use sl2_bignum::{BigNat, Layout, WideFaa};
use sl2_core::algos::max_register::SlMaxRegister;
use sl2_core::algos::MaxRegister;
use std::hint::black_box;
use std::time::Duration;

fn bench_faa_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("faa_at_width");
    for bits in [8usize, 16, 32, 64, 1_024, 16_384, 262_144] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let reg = WideFaa::with_value(BigNat::pow2(bits - 1));
            let delta = BigNat::one();
            b.iter(|| black_box(reg.fetch_add(&delta)));
        });
    }
    group.finish();
}

fn bench_read_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_at_width");
    for bits in [8usize, 16, 32, 64, 1_024, 16_384, 262_144] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let reg = WideFaa::with_value(BigNat::pow2(bits - 1));
            b.iter(|| black_box(reg.load()));
        });
    }
    group.finish();
}

/// The inline/heap representation ablation. `inline_120` and
/// `heap_192` run the *same* `fetch_add` against values on either side
/// of the 128-bit boundary; the gap is the cost of heap cloning (the
/// returned snapshot) that the inline form never pays. `add_heap_192`
/// shows the write-only form recovering most of that gap (in-place
/// carry, no snapshot), and `fetch_add128_fixed` is the fixed-width
/// register (since PR 6, the same `Atomic128` cell) for calibration.
fn bench_inline_vs_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("inline_vs_heap");
    group.bench_function("inline_120", |b| {
        let reg = WideFaa::with_value(BigNat::pow2(119));
        let delta = BigNat::one();
        b.iter(|| black_box(reg.fetch_add(&delta)));
    });
    group.bench_function("heap_192", |b| {
        let reg = WideFaa::with_value(BigNat::pow2(191));
        let delta = BigNat::one();
        b.iter(|| black_box(reg.fetch_add(&delta)));
    });
    group.bench_function("add_inline_120", |b| {
        let reg = WideFaa::with_value(BigNat::pow2(119));
        let delta = BigNat::one();
        b.iter(|| reg.add(&delta));
    });
    group.bench_function("add_heap_192", |b| {
        let reg = WideFaa::with_value(BigNat::pow2(191));
        let delta = BigNat::one();
        b.iter(|| reg.add(&delta));
    });
    group.bench_function("fetch_add128_fixed", |b| {
        let reg = FetchAdd128::new(1 << 119);
        b.iter(|| black_box(reg.fetch_add(1)));
    });
    group.finish();
}

/// Decode-under-lock against snapshot-then-decode, at a width where
/// the snapshot is heap-backed (n = 4 processes, 1024-bit register):
/// the §3.1 `readMax` probe as the production algorithms now issue it
/// (`read_with` + `decode_unary`) vs the old `load()` + decode route.
fn bench_borrowed_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("borrowed_probe");
    let layout = Layout::new(4);
    let reg = WideFaa::new();
    for p in 0..4 {
        reg.add(&layout.unary_increment(p, 0, 256)); // 1024 bits total
    }
    group.bench_function("read_with_decode", |b| {
        b.iter(|| black_box(reg.read_with(|v| layout.decode_unary(2, v))));
    });
    group.bench_function("snapshot_then_decode", |b| {
        b.iter(|| {
            let image = reg.load();
            black_box(layout.decode_unary(2, &image))
        });
    });
    group.finish();
}

/// The PR-6 contention sweep (E30): the DWCAS retry loop against the
/// spinlock critical section it replaced, on the *same* binary, via
/// [`WideFaa::with_value_spinlocked`]. Registers start at `2^(w-1)`:
/// widths 64 and 96 sit squarely in the lock-free inline regime, 128
/// is the honest boundary point (the tag bit consumes bit 127, so a
/// 128-bit value is already migrated and both variants serialize on
/// the lock), and 256 is heap territory where the two coincide by
/// construction.
///
/// Read next to `stall_recovery` below: on a single-core runner each
/// thread's whole workload fits inside one scheduling quantum, so this
/// sweep degenerates to serialized per-op cost (where the spinlock's
/// cheaper critical section wins by the instruction floor) — the
/// stall series is the half that measures what lock-freedom buys.
fn bench_lockfree_vs_spin(c: &mut Criterion) {
    let mut group = c.benchmark_group("lockfree_vs_spin");
    group.sample_size(10);
    const OPS: u64 = 2_000;
    for width in [64usize, 96, 128, 256] {
        for threads in [1usize, 2, 4, 8, 16] {
            for spin in [false, true] {
                let tag = if spin { "spin" } else { "lockfree" };
                group.bench_with_input(
                    BenchmarkId::new(format!("{tag}_w{width}"), threads),
                    &threads,
                    |b, &threads| {
                        b.iter_custom(|iters| {
                            let mut total = Duration::ZERO;
                            for _ in 0..iters {
                                let init = BigNat::pow2(width - 1);
                                let reg = if spin {
                                    WideFaa::with_value_spinlocked(init)
                                } else {
                                    WideFaa::with_value(init)
                                };
                                let delta = BigNat::one();
                                total += parallel_duration(threads, |_| {
                                    for _ in 0..OPS {
                                        reg.add(&delta);
                                    }
                                });
                            }
                            total
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

/// The stall-adversarial half of E30: one register client stalls at
/// its linearization point — `std::thread::sleep` inside the
/// `fetch_add_with` decode closure, modeling a page fault, I/O, or
/// preemption at exactly the wrong instant — while the measured
/// threads run the plain contended add workload. On the spinlocked
/// twin the closure runs *inside* the critical section, so every
/// stall blocks the whole register; on the lock-free path the closure
/// runs on a stack copy of the snapshot with no lock held, so only
/// the stalling thread waits. This is the regime the progress
/// guarantee is *for*, and (unlike raw throughput) it is measurable
/// even on a single-core runner: the fast threads can use the CPU the
/// sleeper gives up only if the register is not locked under them.
///
/// The stall thread performs a fixed 10 stalls of 500 µs and then
/// exits; the reported duration is the fast threads' makespan only
/// (the stall thread is joined outside the timed window).
fn bench_stall_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("stall_recovery");
    group.sample_size(10);
    const OPS: u64 = 2_000;
    const STALLS: u32 = 10;
    const STALL: Duration = Duration::from_micros(500);
    for threads in [2usize, 4, 8, 16] {
        for spin in [false, true] {
            let tag = if spin { "spin" } else { "lockfree" };
            group.bench_with_input(
                BenchmarkId::new(format!("{tag}_w64"), threads),
                &threads,
                |b, &threads| {
                    b.iter_custom(|iters| {
                        let mut total = Duration::ZERO;
                        for _ in 0..iters {
                            let init = BigNat::pow2(63);
                            let reg = if spin {
                                WideFaa::with_value_spinlocked(init)
                            } else {
                                WideFaa::with_value(init)
                            };
                            let delta = BigNat::one();
                            std::thread::scope(|s| {
                                s.spawn(|| {
                                    for _ in 0..STALLS {
                                        reg.fetch_add_with(&delta, |_| std::thread::sleep(STALL));
                                    }
                                });
                                total += parallel_duration(threads, |_| {
                                    for _ in 0..OPS {
                                        reg.add(&delta);
                                    }
                                });
                            });
                        }
                        total
                    });
                },
            );
        }
    }
    group.finish();
}

/// E38's contended-add percentile series: per-op latency of the w=64
/// DWCAS add under 8 and 16 threads, lock-free vs spinlocked. The
/// `lockfree_vs_spin` makespans above report only the mean regime;
/// the retry loop's cost lives in the tail (a losing DWCAS pays a
/// whole re-decode), which only p99/p999 can show. Rows land in
/// `SL2_BENCH_JSON` with `"kind":"latency"`.
fn bench_faa_percentiles(_c: &mut Criterion) {
    const OPS: u64 = 2_000;
    eprintln!("\nE38 per-op latency percentiles (w=64 contended add):");
    for threads in [8usize, 16] {
        for spin in [false, true] {
            let tag = if spin { "spin" } else { "lockfree" };
            let init = BigNat::pow2(63);
            let reg = if spin {
                WideFaa::with_value_spinlocked(init)
            } else {
                WideFaa::with_value(init)
            };
            let delta = BigNat::one();
            let h = parallel_latency(threads, OPS, |_, _| {
                reg.add(&delta);
            });
            let id = format!("faa_percentiles/{tag}_w64/{threads}");
            eprintln!(
                "{id:<60} p50 {:>8} ns   p99 {:>8} ns   p999 {:>8} ns   max {:>8} ns",
                h.p50(),
                h.p99(),
                h.p999(),
                h.max()
            );
            record_percentiles_json(&id, &h);
        }
    }
    eprintln!();
}

/// Not a timing benchmark: prints the E12 growth table
/// (writes → register bits) for the Theorem 1 max register, plus the
/// representation each size lands in.
fn report_register_growth(_c: &mut Criterion) {
    eprintln!("\nE12 register growth (Theorem 1 max register, n = 4 processes):");
    eprintln!("  max value written | register bits | representation");
    eprintln!("  ------------------+---------------+---------------");
    for target in [16u64, 64, 256, 1024, 4096] {
        let m = SlMaxRegister::new(4);
        for p in 0..4 {
            m.write_max(p, target);
        }
        let bits = m.register_bits();
        let repr = if bits <= 128 { "inline" } else { "heap" };
        eprintln!("  {:>17} | {:>13} | {}", target, bits, repr);
    }
    eprintln!("  (unary encoding: bits = n × max value — the Discussion's concern)\n");
}

criterion_group!(
    benches,
    bench_faa_width,
    bench_read_width,
    bench_inline_vs_heap,
    bench_borrowed_probe,
    bench_lockfree_vs_spin,
    bench_stall_recovery,
    bench_faa_percentiles,
    report_register_growth
);
criterion_main!(benches);
