//! Allocation-count regression guard for the §3 hot paths.
//!
//! The inline-`u128` `BigNat` representation plus the borrowed
//! `WideFaa` decode entry points promise that small-value operations on
//! the Theorem 1/2 production forms never touch the heap (ISSUE 2 /
//! DESIGN.md §2). This suite pins that with a counting global
//! allocator: a drift back to clone-based critical sections or
//! allocating decodes fails loudly here rather than as a quiet bench
//! regression.
//!
//! The counter is thread-local so concurrently running tests in this
//! binary cannot pollute each other's counts; each assertion only
//! measures work done on its own thread (the operations under test are
//! single-threaded by design — concurrency is covered elsewhere).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sl2::prelude::*;
use sl2_bignum::{BigNat, WideFaa};
use sl2_combine::{CombiningCounter, CombiningMaxRegister, CombiningSnapshot};
use sl2_core::algos::fetch_inc::WideFetchInc;
use sl2_core::algos::max_register::SlMaxRegister;
use sl2_core::algos::snapshot::SlSnapshot;
use sl2_sharded::{ShardedFetchInc, ShardedMaxRegister, ShardedSnapshot};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations (and
/// growth-reallocations), the bytes they asked for, and frees made by
/// the current thread.
struct CountingAlloc;

// SAFETY: delegates to `System`; the thread-local is const-initialized
// (no lazy init, no destructor), so it is safe to touch from the
// allocator itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|c| c.set(c.get() + 1));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let out = f();
    (ALLOCS.with(|c| c.get()) - before, out)
}

#[test]
fn small_value_max_register_ops_are_allocation_free() {
    // n = 4 processes, values ≤ 16: register ≤ 64 bits — inline.
    let m = SlMaxRegister::new(4);
    // Warm-up: first writes grow nothing (the register is inline from
    // the start), but run one full round anyway so any one-time setup
    // is excluded from the measurement.
    for p in 0..4 {
        m.write_max(p, 4);
    }
    let _ = m.read_max();

    let (n, _) = allocs_during(|| {
        for round in 0..8u64 {
            for p in 0..4 {
                m.write_max(p, 5 + round); // growing: probe + faa
                m.write_max(p, 1); // stale: probe only
            }
        }
    });
    assert_eq!(n, 0, "write_max allocated on the small-value path");

    let (n, last) = allocs_during(|| {
        let mut last = 0;
        for _ in 0..100 {
            last = m.read_max();
        }
        last
    });
    assert_eq!(n, 0, "read_max allocated on the small-value path");
    assert_eq!(last, 12, "4 + 8 rounds of growth");
}

#[test]
fn small_value_snapshot_update_is_allocation_free() {
    // n = 4 components of ≤ 32-bit values: register ≤ 128 bits — inline.
    let s = SlSnapshot::new(4);
    for i in 0..4 {
        s.update(i, i as u64 + 1);
    }
    let (n, _) = allocs_during(|| {
        for round in 0..16u64 {
            for i in 0..4 {
                s.update(i, round * 7 + i as u64);
            }
        }
    });
    assert_eq!(n, 0, "update allocated on the small-value path");
    // scan returns a Vec — exactly one allocation per call, nothing
    // else (no per-lane BigNat extraction).
    let (n, view) = allocs_during(|| s.scan());
    assert_eq!(n, 1, "scan should allocate the output vector only");
    assert_eq!(view, vec![105, 106, 107, 108]);
}

#[test]
fn wide_faa_inline_ops_are_allocation_free() {
    let r = WideFaa::with_value(BigNat::pow2(100));
    let delta = BigNat::from(3u64);
    let (n, _) = allocs_during(|| {
        for _ in 0..1000 {
            let _old = r.fetch_add(&delta);
            r.add(&delta);
            let _bits = r.read_with(|v| v.bit_len());
            let _ones = r.fetch_add_with(&delta, |old| old.count_ones());
        }
    });
    assert_eq!(n, 0, "inline WideFaa ops must stay off the heap");
}

#[test]
fn lock_free_wide_faa_snapshot_reads_are_allocation_free() {
    // The PR-6 pin: while the value is inline, every read-shaped entry
    // point — load, bit_len, read_with (bare or decoding) — is one DWCAS
    // snapshot of the cell and never touches the heap (the returned
    // BigNat is the inline representation). On x86_64 without
    // `force_spinlock` this is the lock-free path; under the feature
    // the same ops stay allocation-free through the spinlocked heap
    // slot (the heap BigNat itself is inline-sized), so the pin holds
    // in both CI configurations.
    let r = WideFaa::with_value(BigNat::pow2(120));
    if !cfg!(feature = "force_spinlock") {
        assert!(
            r.is_inline_lock_free(),
            "2^120 must sit on the lock-free inline path"
        );
    }
    let lanes = sl2_bignum::Lanes::new(4, LaneEncoding::Unary);
    let (n, _) = allocs_during(|| {
        for _ in 0..1000 {
            let _v = r.load();
            let _bits = r.bit_len();
            let _lane = r.read_with(|v| lanes.decode(0, v));
            let _ones = r.read_with(|v| v.count_ones());
        }
    });
    assert_eq!(n, 0, "inline snapshot reads must stay off the heap");
}

#[test]
fn wide_fetch_inc_small_counts_are_allocation_free() {
    let c = WideFetchInc::new(2);
    // Warm-up.
    c.fetch_inc(0);
    c.fetch_inc(1);
    let (n, _) = allocs_during(|| {
        // 2 lanes × ~30 more increments ≈ 64 bits total — inline.
        for i in 0..60u64 {
            c.fetch_inc((i % 2) as usize);
        }
        c.read()
    });
    assert_eq!(n, 0, "fetch_inc allocated on the small-value path");
    assert_eq!(c.read(), 63);
}

#[test]
fn small_value_sharded_max_register_ops_are_allocation_free() {
    // 4 shards, 4 processes, values ≤ 16: every shard stays inline, and
    // the stable-collect read folds through stack buffers — no Vec, no
    // BigNat spill, per ISSUE-3's cache-line/zero-alloc satellite.
    let m = ShardedMaxRegister::new(4, 4);
    for p in 0..4 {
        m.write_max(p, 4 + p as u64);
    }
    let _ = m.read_max();

    let (n, _) = allocs_during(|| {
        for round in 0..8u64 {
            for p in 0..4 {
                m.write_max(p, 8 + round); // growing: probe + faa
                m.write_max(p, 1); // small: probe (and once, a tiny faa)
            }
        }
    });
    assert_eq!(n, 0, "sharded write_max allocated on the small-value path");

    let (n, last) = allocs_during(|| {
        let mut last = 0;
        for _ in 0..100 {
            last = m.read_max();
        }
        last
    });
    assert_eq!(n, 0, "sharded read_max allocated on the small-value path");
    assert_eq!(last, 15, "8 rounds of growth from 8");
}

#[test]
fn binary_sharded_register_past_the_unary_ceiling_is_allocation_free() {
    // The PR-6 acceptance pin: with binary lanes a 4-shard register
    // holds values orders of magnitude past the old 64·S ≈ 256 unary
    // inline ceiling — 300 000 needs 19 lane bits, not 75 000 — and
    // both the probe-then-adjust write and the stable-collect read
    // stay on the zero-allocation inline path.
    let m = ShardedMaxRegister::new_binary(4, 4);
    for p in 0..4 {
        m.write_max(p, 290_000 + p as u64);
    }
    let _ = m.read_max();
    assert!(
        m.shards_inline(),
        "binary lanes must keep 290 000 inline at S = 4"
    );

    let (n, _) = allocs_during(|| {
        for round in 0..8u64 {
            for p in 0..4 {
                m.write_max(p, 300_000 + round); // growing: probe + adjust
                m.write_max(p, 17); // stale: probe only
            }
        }
    });
    assert_eq!(n, 0, "binary write_max allocated past the unary ceiling");

    let (n, last) = allocs_during(|| {
        let mut last = 0;
        for _ in 0..100 {
            last = m.read_max();
        }
        last
    });
    assert_eq!(n, 0, "binary read_max allocated past the unary ceiling");
    assert_eq!(last, 300_007);
    assert!(m.shards_inline(), "the workload must not have spilled");
}

#[test]
fn small_count_sharded_counter_ops_are_allocation_free() {
    let c = ShardedFetchInc::new(4, 2);
    for p in 0..4 {
        c.inc(p);
    }
    let (n, _) = allocs_during(|| {
        for i in 0..40u64 {
            c.inc((i % 4) as usize);
        }
        let exact = c.read();
        let relaxed = c.read_relaxed();
        (exact, relaxed)
    });
    assert_eq!(n, 0, "sharded counter inc/read allocated at small counts");
    assert_eq!(c.read(), 44);
}

#[test]
fn combined_cached_reads_and_small_value_writes_are_allocation_free() {
    // The ISSUE-5 pin: the combining front-end's 1-load cached read —
    // its whole reason to exist — must never touch the heap, and the
    // write path (announce, elect, sweep, fold, publish) stays
    // allocation-free at small values too: slots and lock are plain
    // u64 swaps, and the cache and the inner shards stay on BigNat's
    // inline path.
    let m = CombiningMaxRegister::new(ShardedMaxRegister::new(4, 4));
    for p in 0..4 {
        m.write_max(p, 4 + p as u64);
    }
    m.refresh(0);

    let (n, last) = allocs_during(|| {
        let mut last = 0;
        for _ in 0..200 {
            last = m.read_cached();
        }
        last
    });
    assert_eq!(n, 0, "cached read allocated");
    assert_eq!(last, 7);

    let (n, _) = allocs_during(|| {
        for round in 0..8u64 {
            for p in 0..4 {
                m.write_max(p, 8 + round); // combining or direct path
                m.write_max(p, 1); // stale value: probe-only apply
            }
        }
        m.refresh(0)
    });
    assert_eq!(n, 0, "combining write allocated on the small-value path");
    assert_eq!(m.read_cached(), 15);

    let (n, _) = allocs_during(|| m.read_max());
    assert_eq!(n, 0, "stable fallback read allocated");
}

#[test]
fn combined_counter_cached_ops_are_allocation_free() {
    let c = CombiningCounter::new(ShardedFetchInc::new(4, 2));
    for p in 0..4 {
        c.inc(p);
    }
    let (n, _) = allocs_during(|| {
        for i in 0..40u64 {
            c.inc((i % 4) as usize);
        }
        let cached = c.read_cached();
        let exact = c.read_exact();
        (cached, exact)
    });
    assert_eq!(n, 0, "combining counter inc/read allocated at small counts");
    assert_eq!(c.read_exact(), 44);
    c.refresh(0);
    assert_eq!(c.read_cached(), 44);
}

#[test]
fn combined_snapshot_cached_scan_into_buffer_is_allocation_free() {
    let s = CombiningSnapshot::new(ShardedSnapshot::new(4, 2));
    use sl2_core::algos::Snapshot;
    for i in 0..4 {
        s.update(i, i as u64 + 1);
    }
    assert!(s.refresh());
    let mut buf = [0u64; 4];
    let (n, hit) = allocs_during(|| s.scan_cached_into(&mut buf));
    assert!(hit, "published cache must hit");
    assert_eq!(n, 0, "cached scan into a caller buffer allocated");
    assert_eq!(buf, [1, 2, 3, 4]);
}

#[test]
fn registry_steady_state_routing_is_allocation_free() {
    // The ISSUE-9 pin: once a key's object is materialized, routing a
    // request to it — hash, probe, lane op — must never touch the
    // heap. Insertion allocates (the entry box, the lazy object);
    // steady state is `get` + the object's own inline paths.
    use sl2_service::{Backend, Registry};
    let reg: Registry<u64> = Registry::new(64, 2, Backend::Global);
    for k in 0..16u64 {
        let obj = reg.get_or_insert(&k);
        obj.inc(0);
        obj.write_max(0, 4);
    }
    let (n, total) = allocs_during(|| {
        let mut total = 0u64;
        for round in 0..8u64 {
            for k in 0..16u64 {
                let obj = reg.get(&k).expect("materialized above");
                obj.inc(1);
                obj.write_max(1, 5 + round);
                total += obj.read_count() + obj.read_max();
            }
        }
        total
    });
    assert_eq!(n, 0, "steady-state registry routing allocated");
    assert!(total > 0);

    // The hit path of get_or_insert is the same probe loop: a present
    // key must not cost a speculative entry allocation.
    let (n, _) = allocs_during(|| {
        for k in 0..16u64 {
            let _ = reg.get_or_insert(&k).read_count();
        }
    });
    assert_eq!(n, 0, "get_or_insert allocated on the hit path");
    assert_eq!(reg.len(), 16, "no phantom keys materialized");
}

#[test]
fn service_edge_allocations_are_pinned() {
    // The ISSUE-23 pins for the dispatch edge, counted on the
    // submitting thread. A fire-and-forget submit moves a `Job` into
    // its worker's deque and nothing else, and the worker takes the
    // queue by *swapping* deques. Both deques are sized for 256 jobs
    // when the service is built, so a window of 256 in flight never
    // grows either, from a fresh service's first submit on. A blocking
    // call allocates nothing once its thread's completion cell exists:
    // the first call on a thread makes the cell, every later one
    // reuses it.
    use sl2_service::{Backend, Request, Service, ServiceOp};
    const WINDOW: u64 = 256;
    let svc = Service::new(64, 1, Backend::Global);
    let inc = |i: u64| Request {
        key: i % 16,
        op: ServiceOp::Inc,
    };
    let submit_windowed = |n: u64| {
        let base = svc.submitted();
        for i in 0..n {
            while base + i - svc.completed() >= WINDOW {
                std::thread::yield_now();
            }
            svc.submit_timed(inc(i), std::time::Instant::now());
        }
        svc.drain();
    };
    let (n, _) = allocs_during(|| submit_windowed(10_000));
    assert_eq!(n, 0, "a submit grew a deque");

    let (n, _) = allocs_during(|| svc.call(inc(0)));
    assert_eq!(n, 1, "a thread's first call allocates its completion cell");
    let (n, _) = allocs_during(|| {
        for i in 1..1_000 {
            svc.call(inc(i));
        }
    });
    assert_eq!(n, 0, "a blocking call after the first allocated");
    assert_eq!(svc.latency_histogram().count(), 10_000);
}

#[test]
fn resident_keys_stay_inline_and_allocation_free_on_every_backend() {
    // The ISSUE-21 pin: `KeyObject` ships binary lanes, so a hot
    // resident key never leaves `WideFaa`'s lock-free inline regime —
    // with unary lanes the 128th `inc` migrated the register and every
    // later op took the spinlock and allocated an O(count)-bit image.
    use sl2_service::{Backend, KeyedCounter, KeyedMax, Registry};
    for backend in [
        Backend::Global,
        Backend::Sharded { shards: 2 },
        Backend::Combining { shards: 2 },
    ] {
        let reg: Registry<u64> = Registry::new(4, 2, backend);
        let obj = reg.get_or_insert(&7);
        obj.inc(0);
        obj.write_max(0, 1);
        let (n, (count, max)) = allocs_during(|| {
            for i in 0..10_000usize {
                obj.inc(i % 2);
            }
            obj.write_max(1, 1_000_000);
            (obj.read_count(), obj.read_max())
        });
        assert_eq!(n, 0, "{backend:?}: a resident key allocated");
        assert_eq!((count, max), (10_001, 1_000_000), "{backend:?}");
        let counter_inline = match obj.counter() {
            KeyedCounter::Global(c) => c.is_inline_lock_free(),
            KeyedCounter::Sharded(c) => c.is_inline_lock_free(),
            KeyedCounter::Combining(c) => c.inner().is_inline_lock_free(),
        };
        let max_inline = match obj.max() {
            KeyedMax::Global(m) => m.is_inline_lock_free(),
            KeyedMax::Sharded(m) => m.is_inline_lock_free(),
            KeyedMax::Combining(m) => m.inner().is_inline_lock_free(),
        };
        // Under `force_spinlock` no register is ever lock-free.
        assert_eq!(
            counter_inline && max_inline,
            WideFaa::backend_lock_free(),
            "{backend:?}: a register migrated to the heap regime"
        );
    }
}

/// The three backends at the benchmark's shape: `n = 2`, `shards = 2`.
const BACKENDS: [sl2_service::Backend; 3] = [
    sl2_service::Backend::Global,
    sl2_service::Backend::Sharded { shards: 2 },
    sl2_service::Backend::Combining { shards: 2 },
];

#[test]
fn a_key_costs_what_its_backend_needs() {
    // The ISSUE-22 pin. Materializing one key with `inc` + `write_max`
    // used to request 760 / 1 016 / 1 400 bytes in 3 / 5 / 8
    // allocations (every box sized and 64-aligned to the combining
    // variant, two padded per-process arrays per object). Now it is one
    // allocation — the 56-byte entry — plus the objects' blocks out of
    // the registry's arena, at their own sizes: an 80-byte register
    // each on `Global`; a header line and two shard lines on
    // `Sharded`; header, lock, published, two shard and two process
    // lines under the combining front-end.
    use sl2_service::Registry;
    for (backend, blocks) in BACKENDS.into_iter().zip([2 * 80, 2 * 192, 2 * 448]) {
        let reg: Registry<u64> = Registry::new(4, 2, backend);
        // The first key brings the arena's first chunk with it.
        let first = reg.get_or_insert(&1);
        first.inc(0);
        first.write_max(1, 9);
        let (before, bytes_before) = (reg.block_bytes(), BYTES.with(|c| c.get()));
        let (n, _) = allocs_during(|| {
            let obj = reg.get_or_insert(&2);
            obj.inc(0);
            obj.write_max(1, 9);
        });
        let requested = BYTES.with(|c| c.get()) - bytes_before;
        assert_eq!(
            (n, requested),
            (1, 56),
            "{backend:?}: the entry, nothing else"
        );
        assert_eq!(reg.block_bytes() - before, blocks, "{backend:?}");
    }
}

#[test]
fn reading_fresh_keys_allocates_their_entries_only() {
    // Exact reads of a sub-object no write has touched answer from the
    // null lazy pointer (DESIGN.md §12) — an audit pass over write-only
    // or inc-only keys must not materialize their other half.
    use sl2_service::Registry;
    for backend in BACKENDS {
        let reg: Registry<u64> = Registry::new(8, 2, backend);
        let (n, sum) = allocs_during(|| {
            (0..8u64)
                .map(|k| {
                    let obj = reg.get_or_insert(&k);
                    obj.read_max()
                        + obj.read_max_cached()
                        + obj.read_count()
                        + obj.read_count_cached()
                })
                .sum::<u64>()
        });
        assert_eq!((n, sum), (8, 0), "{backend:?}: one entry per key");
        assert_eq!(
            reg.block_bytes(),
            0,
            "{backend:?}: a read materialized an object"
        );
        let (n, view) = allocs_during(|| reg.get_or_insert(&0).scan());
        assert_eq!(
            (n, view),
            (1, vec![0, 0]),
            "{backend:?}: the output vector only"
        );
        assert_eq!(reg.len(), 8);
    }
}

#[test]
fn a_full_registry_refuses_with_a_typed_error_and_leaks_nothing() {
    use sl2_service::{Backend, Registry, RegistryFull};
    let (allocs, frees) = (ALLOCS.with(|c| c.get()), FREES.with(|c| c.get()));
    {
        let reg: Registry<u64> = Registry::new(4, 2, Backend::Combining { shards: 2 });
        for k in 0..4u64 {
            reg.try_get_or_insert(&k).expect("within capacity").inc(0);
        }
        assert_eq!(
            reg.try_get_or_insert(&4).err(),
            Some(RegistryFull { capacity: 4 })
        );
        assert_eq!(reg.try_get_or_insert(&3).expect("resident").read_count(), 1);
        assert_eq!(reg.len(), 4);
    }
    assert_eq!(
        ALLOCS.with(|c| c.get()) - allocs,
        FREES.with(|c| c.get()) - frees,
        "the refused insert (or the registry's drop) leaked an allocation"
    );
}

#[test]
fn a_search_node_costs_the_same_at_any_scenario_length() {
    // The ISSUE-24 pin, without a clock: the checker's search state is
    // per-process cursors plus a shared linearization prefix, so what a
    // node allocates does not depend on how many operations the
    // scenario has. With a status matrix cloned per step and a prefix
    // copied per extension, the 1100-op Theorem-1 tower paid several
    // times more per node than the 64-op one. The caps sit just above
    // the 329–346 / 422–444 B a node costs with copy-on-write memory
    // (505–520 / 598–618 B while a step cloned all of it).
    use sl2::exec::strong::StrongOptions;
    use sl2_spec::max_register::{MaxOp, MaxRegisterSpec};
    let bytes_per_node = |height: usize, memoize: bool| {
        let scenario = tower::<MaxRegisterSpec>(&[MaxOp::Write(2), MaxOp::Read], height, &[]);
        let mut mem = SimMemory::new();
        let alg = MaxRegAlg::new(&mut mem, 3);
        let options = StrongOptions::with_limit(1_000_000).memoize(memoize);
        let before = BYTES.with(|c| c.get());
        let out = check_strong(&alg, mem, &scenario, options);
        let bytes = BYTES.with(|c| c.get()) - before;
        assert!(out.is_certified(), "towers certify");
        bytes as f64 / out.nodes as f64
    };
    for (memoize, cap) in [(false, 360.0), (true, 460.0)] {
        let (short, tall) = (bytes_per_node(64, memoize), bytes_per_node(1100, memoize));
        assert!(
            tall <= 1.5 * short && short <= 1.5 * tall,
            "memo={memoize}: {short:.0} B/node at height 64, {tall:.0} B/node at 1100"
        );
        assert!(
            short.max(tall) <= cap,
            "memo={memoize}: {short:.0} and {tall:.0} B/node, over the {cap} B cap"
        );
    }
}

/// Allocations per explored node of a memo-off check that certifies.
fn allocs_per_tree_node<A: Algorithm>(
    alg: &A,
    mem: SimMemory,
    scenario: &Scenario<A::Spec>,
) -> f64 {
    use sl2::exec::strong::StrongOptions;
    let options = StrongOptions::with_limit(8_000_000).memoize(false);
    let (n, out) = allocs_during(|| check_strong(alg, mem, scenario, options));
    assert!(out.is_certified(), "{:?}", out.outcome);
    n as f64 / out.nodes as f64
}

#[test]
fn a_search_step_allocates_for_what_it_writes() {
    // Pinned without a clock. A step used to deep-clone the memory (every
    // cell, every array), both per-process vectors and every twin's
    // handle tables: 13.4 allocations per memo-off node on the Treiber
    // record and 18.2 on the combining one. Now memory is copy-on-write
    // and cursors and machines are one block, so a node pays for that
    // block, the one memory block its step writes, and the
    // linearization it extends.
    use sl2_core::baselines::treiber_stack::TreiberStackAlg;
    use sl2_spec::fifo::StackOp;
    let mut mem = SimMemory::new();
    let alg = TreiberStackAlg::new(&mut mem);
    let scenario = Scenario::new(vec![
        vec![StackOp::Push(1)],
        vec![StackOp::Push(2)],
        vec![StackOp::Pop, StackOp::Pop],
    ]);
    let treiber = allocs_per_tree_node(&alg, mem, &scenario);

    let mut mem = SimMemory::new();
    let alg = CombiningMaxRegAlg::new(&mut mem, 3, 1, ReadMode::Stable);
    let combining = allocs_per_tree_node(&alg, mem, &combining_frontier_safe_scenario(1));
    // Measured: 5.12 and 7.96.
    assert!(
        treiber <= 5.5,
        "treiber/witness_scenario: {treiber:.2} per node"
    );
    assert!(
        combining <= 8.5,
        "combining_stable_s1/frontier_safe: {combining:.2} per node"
    );
}

#[test]
fn reading_a_cloned_memory_allocates_nothing() {
    // Copy-on-write: a clone shares every block until one side writes,
    // and a read — of a standalone cell, a materialized array index, a
    // wide register, or a step that changes nothing — writes nothing.
    use sl2::exec::mem::Cell;
    let mut mem = SimMemory::new();
    let reg = mem.alloc(Cell::Reg(7));
    let wide = mem.alloc(Cell::Wide(BigNat::pow2(100)));
    let cas = mem.alloc(Cell::Cas(3));
    let array = mem.alloc_array(Cell::Reg(0));
    mem.write_at(array, 2, 9);
    let (n, sum) = allocs_during(|| {
        let mut copy = mem.clone();
        let zero = BigNat::zero();
        let mut sum = copy.read(reg) + copy.read_at(array, 2) + copy.read_at(array, 1);
        sum += copy.cas(cas, 4, 5); // fails: observes 3
        copy.wide_adjust(wide, &zero, &zero); // fetch&add(R, 0)
        sum + copy.wide_read(wide).bit_len() as u64
    });
    assert_eq!((n, sum), (0, 7 + 9 + 3 + 101));
}

/// The committed 60-op keyed history (`tests/data/keyed_history_60.txt`).
fn keyed_history_60() -> History<sl2_spec::keyed::KeyedMaxSpec> {
    use sl2::exec::history::OpId;
    use sl2_spec::keyed::KeyedMaxOp::{Read, Write};
    use sl2_spec::max_register::MaxResp;
    fn num<T: std::str::FromStr>(field: &str) -> T {
        field
            .parse()
            .unwrap_or_else(|_| panic!("bad field {field:?}"))
    }
    let mut h = History::new();
    let lines = include_str!("data/keyed_history_60.txt").lines();
    for line in lines.filter(|l| !l.starts_with('#')) {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["i", id, p, "w", key, v] => h.invoke(
                OpId(num(id)),
                num(p),
                Write {
                    key: num(key),
                    v: num(v),
                },
            ),
            ["i", id, p, "r", key] => h.invoke(OpId(num(id)), num(p), Read { key: num(key) }),
            ["r", id, "ok"] => h.ret(OpId(num(id)), MaxResp::Ok),
            ["r", id, v] => h.ret(OpId(num(id)), MaxResp::Value(num(v))),
            _ => panic!("bad fixture line {line:?}"),
        }
    }
    h
}

#[test]
fn a_history_verdict_allocates_per_spec_transition_not_per_node() {
    // Pinned without a clock: 289 allocations per `is_linearizable`
    // call on this history with the bitmask search (296 in a debug
    // build, which also ran `is_well_formed`), 96 now in either build.
    // The bitmask search paid for the `HashMap` and records of
    // `History::ops`, the precedence matrix, and at each of its 63
    // nodes a memo copy of the `BTreeMap` spec state plus
    // `Spec::accept`'s two `Vec`s and state clone. Now the memo key is
    // `(cursors, state id)`, only failed nodes are recorded, and the
    // spec table asks `Spec::step` once per `(state, op)` (139 when the
    // search asked `Spec::accept` once per `(state, op, response)`).
    let h = keyed_history_60();
    assert_eq!(h.len(), 120, "60 operations, all complete");
    let spec = sl2_spec::keyed::KeyedMaxSpec;
    assert!(is_linearizable(&spec, &h), "warm-up and verdict");
    let (n, ok) = allocs_during(|| is_linearizable(&spec, &h));
    assert!(ok);
    assert_eq!(n, 96, "allocations per verdict");
    assert!(2 * n <= 289, "at most half the bitmask search's 289");
}

#[cfg(not(feature = "armed"))]
#[test]
fn disarmed_chaos_points_are_free() {
    // The chaos counterpart of the obs and trace pins below: disarmed,
    // `point` is an empty inline stub, `catch_crash` is `Some(f())` (the
    // service wraps every worker body in it unconditionally), and no
    // plan can be installed, so `plan_seed` is `None`.
    let (n, caught) = allocs_during(|| {
        for _ in 0..1_000 {
            sl2_chaos::point("alloc.chaos.point");
        }
        sl2_chaos::catch_crash(|| 7u64)
    });
    assert_eq!(n, 0, "disarmed chaos points must not allocate");
    assert_eq!(caught, Some(7));
    assert_eq!(sl2_chaos::plan_seed(), None);
}

/// The chaos plan is process-global: the armed chaos pins hold this
/// lock, so the pin without a plan never sees the other pin's plan.
#[cfg(feature = "armed")]
static CHAOS_PLAN: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "armed")]
#[test]
fn armed_chaos_point_without_a_plan_is_allocation_free() {
    // Without a plan an armed point returns at its `active` check:
    // before the enrollment lookup, the plan lock and the per-thread
    // hit counts.
    let _plan = CHAOS_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    sl2_chaos::point("alloc.chaos.armed"); // first call builds the global
    let (n, _) = allocs_during(|| {
        for _ in 0..1_000 {
            sl2_chaos::point("alloc.chaos.armed");
        }
    });
    assert_eq!(n, 0, "an armed point with no plan must not allocate");
    assert!(!sl2_chaos::active());
    assert_eq!(sl2_chaos::plan_seed(), None);
}

#[cfg(feature = "armed")]
#[test]
fn armed_chaos_point_under_a_plan_is_allocation_free() {
    // With a plan installed and the thread enrolled, a point counts its
    // hit and checks the rules on every pass. The only rule names
    // another label, so no pass fires, and counting a hit must not
    // allocate: an allocation would perturb the schedules chaos tests
    // exist to control.
    let _plan = CHAOS_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let plan = sl2_chaos::FaultPlan::new(7).on(
        "alloc.chaos.elsewhere",
        None,
        1,
        sl2_chaos::FaultAction::Panic,
    );
    let _session = sl2_chaos::install(plan);
    sl2_chaos::set_thread(0);
    sl2_chaos::point("alloc.chaos.planned"); // warm: interns the label
    let (n, _) = allocs_during(|| {
        for _ in 0..1_000 {
            sl2_chaos::point("alloc.chaos.planned");
        }
    });
    assert_eq!(n, 0, "an armed point under a plan must not allocate");
}

#[cfg(not(feature = "armed"))]
#[test]
fn disarmed_obs_probes_are_free() {
    // The PR-8 pin: with the `obs` feature off, every probe flavor is
    // an empty inline stub — no allocation, no registry, no effect.
    // This is what makes it sound to leave probes in the §3 hot paths
    // permanently (DESIGN.md §11).
    let (n, _) = allocs_during(|| {
        for i in 0..1_000u64 {
            sl2::obs::count("alloc.probe");
            sl2::obs::add("alloc.probe", i);
            sl2::obs::gauge("alloc.gauge", i);
            sl2::obs::record("alloc.hist", i);
            let _t = sl2::obs::time("alloc.timer");
        }
    });
    assert_eq!(n, 0, "disarmed probes must not allocate");
    assert!(!sl2::obs::armed());
    let (n, snap) = allocs_during(sl2::obs::snapshot);
    assert_eq!(n, 0, "the disarmed snapshot is empty and allocation-free");
    assert!(snap.is_empty());
}

#[cfg(not(feature = "armed"))]
#[test]
fn disarmed_trace_points_are_free() {
    // The PR-10 pin: with the `trace` feature off, every trace entry
    // point — span mint, span boundaries, instants, the ambient-span
    // guard — is an empty inline stub: no allocation, no rings, no
    // effect. This is what makes it sound to leave the service,
    // combine, and bignum hot paths permanently instrumented
    // (DESIGN.md §13).
    let (n, _) = allocs_during(|| {
        for i in 0..1_000u64 {
            let span = sl2::trace::next_span();
            sl2::trace::span_begin("alloc.trace.req", span, i);
            let _g = sl2::trace::enter_span(span);
            sl2::trace::event("alloc.trace.step", i);
            sl2::trace::event_in("alloc.trace.step", span, i);
            sl2::trace::span_end("alloc.trace.req", span, i);
        }
    });
    assert_eq!(n, 0, "disarmed trace points must not allocate");
    assert!(!sl2::trace::armed());
    let (n, log) = allocs_during(sl2::trace::drain);
    assert_eq!(n, 0, "the disarmed drain is empty and allocation-free");
    assert!(log.is_empty());
}

#[cfg(feature = "armed")]
#[test]
fn armed_trace_emission_is_allocation_free() {
    // Armed emission is a seqlock publish into static per-thread rings
    // plus two atomic tickets — steady state never touches the heap.
    // (Draining allocates the log; it is off the hot path by design.)
    let span = sl2::trace::next_span();
    sl2::trace::event("alloc.trace.armed.warm", 0); // label claim is one-time
    let (n, _) = allocs_during(|| {
        for i in 0..1_000u64 {
            sl2::trace::span_begin("alloc.trace.armed.warm", span, i);
            let _g = sl2::trace::enter_span(span);
            sl2::trace::event("alloc.trace.armed.warm", i);
            sl2::trace::span_end("alloc.trace.armed.warm", span, i);
        }
    });
    assert_eq!(n, 0, "armed trace emission must not allocate");
    assert!(sl2::trace::armed());
}

#[cfg(feature = "armed")]
#[test]
fn armed_scalar_probes_are_allocation_free() {
    // Armed counters/gauges/histograms are relaxed atomics against
    // static shard arrays — still no heap traffic, so arming `obs` on
    // top of the zero-alloc pins above cannot break them. (Snapshots
    // allocate; they are off the hot path by construction.)
    sl2::obs::count("alloc.armed.warm"); // label-table claim is one-time
    sl2::obs::gauge("alloc.armed.gauge", 1);
    sl2::obs::record("alloc.armed.hist", 1);
    let (n, _) = allocs_during(|| {
        for i in 0..1_000u64 {
            sl2::obs::count("alloc.armed.warm");
            sl2::obs::add("alloc.armed.warm", i);
            sl2::obs::gauge("alloc.armed.gauge", i);
            sl2::obs::record("alloc.armed.hist", i);
        }
    });
    assert_eq!(n, 0, "armed scalar probes must not allocate");
    assert!(sl2::obs::armed());
}

#[test]
fn heap_path_still_works_under_the_counter() {
    // Sanity check that the counter itself observes heap traffic, so
    // the zero assertions above are meaningful.
    let (n, v) = allocs_during(|| BigNat::pow2(1000));
    assert!(n >= 1, "pow2(1000) must allocate limbs");
    assert!(!v.is_inline());
}
