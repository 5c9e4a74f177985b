//! Step-machine form of the dispatch layer, for the
//! strong-linearizability checker.
//!
//! The production [`crate::Service`](crate::dispatch::Service) threads
//! every request through shared dispatch state — a queue slot is
//! taken, a routing table is consulted — before the per-key object is
//! touched. This twin makes those phases *explicit checker steps*, so
//! `check_strong` adjudicates the service layer itself rather than
//! assuming composition is free:
//!
//! 1. **enqueue** — one `fetch&add` on the shared depth cell (taking a
//!    queue ticket);
//! 2. **route** — one read of the routing register (the worker-table
//!    lookup);
//! 3. **execute** — the per-key Theorem-1 register operation (a write
//!    is the §3 probe-then-add pair; an exact read is one wide read of
//!    the key's register).
//!
//! Two routing modes mirror the production read paths:
//!
//! * [`RouteMode::Exact`] — reads execute on the key's register. Keys
//!   are disjoint objects and strong linearizability is **local**
//!   (closed under disjoint composition), so the composed service
//!   should certify against [`KeyedMaxSpec`] *even though* every
//!   operation also steps the shared dispatch cells — the corpus
//!   confirms exactly this (`tests/corpus.rs`, `service_exact/…`).
//! * [`RouteMode::Cached`] — reads are answered from the key's
//!   published-fold cache register. Only the **batch leader** (the
//!   operation whose enqueue ticket was 0, modelling the PR-5 elected
//!   combiner) re-publishes after executing; later writes complete
//!   *unpublished* — the no-waiters direct path. Cached routing is
//!   therefore refuted against the exact keyed spec and certified
//!   against [`LaggingKeyedMaxSpec`] — the §8 law resurfacing one
//!   layer up, per key (DESIGN.md §12). The window `k = 2` is
//!   certified on the corpus's 2–3-process scenarios only: with four
//!   processes, crash-free histories need `k = 4`, so a window for
//!   more processes must be derived from their count.
//!
//! Per-key registers go through the shared [`LaneEncoding`] codec:
//! [`KeyedDispatchAlg::new`] models the paper's unary lanes,
//! `with_encoding(LaneEncoding::Binary)` the lanes `KeyObject` ships.

use sl2_bignum::{BigNat, LaneEncoding, Lanes, Target};
use sl2_exec::lanes::LaneWrite;
use sl2_exec::machine::{Algorithm, OpMachine, Step};
use sl2_exec::mem::{Cell, Loc, SimMemory};
use sl2_spec::keyed::{KeyedMaxOp, KeyedMaxSpec, LaggingKeyedMaxSpec};
use sl2_spec::max_register::MaxResp;

/// How the twin's reads are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteMode {
    /// Reads execute on the key's register (production exact path).
    Exact,
    /// Reads load the key's published-fold cache; only batch leaders
    /// republish (production cached path).
    Cached,
}

/// Shared dispatch state + per-key registers of the modelled service.
///
/// Keys are the scenario's working set, fixed at construction — the
/// registry's lazy materialization is a performance device, invisible
/// to the sequential specification (a fresh register holds 0).
#[derive(Debug, Clone)]
pub struct KeyedDispatchAlg {
    /// Queue-ticket cell (`fetch&add`): the enqueue step.
    depth: Loc,
    /// Routing register: the route step reads it.
    route: Loc,
    /// Per key: `(key, §3 register, published-fold cache)`.
    keys: Vec<(u64, Loc, Loc)>,
    lanes: Lanes,
    mode: RouteMode,
}

impl KeyedDispatchAlg {
    /// Allocates the dispatch cells and one Theorem-1 register (plus
    /// cache) per key, for `n` processes (unary lanes).
    pub fn new(mem: &mut SimMemory, n: usize, keys: &[u64], mode: RouteMode) -> Self {
        KeyedDispatchAlg {
            depth: mem.alloc(Cell::Faa(0)),
            route: mem.alloc(Cell::Reg(0)),
            keys: keys
                .iter()
                .map(|&k| {
                    (
                        k,
                        mem.alloc(Cell::Wide(BigNat::zero())),
                        mem.alloc(Cell::Reg(0)),
                    )
                })
                .collect(),
            lanes: Lanes::new(n, LaneEncoding::Unary),
            mode,
        }
    }

    /// Re-codes the per-key lanes.
    pub fn with_encoding(mut self, encoding: LaneEncoding) -> Self {
        self.lanes.encoding = encoding;
        self
    }

    fn key_locs(&self, key: u64) -> (Loc, Loc) {
        self.keys
            .iter()
            .find(|(k, _, _)| *k == key)
            .map(|(_, reg, cache)| (*reg, *cache))
            .expect("scenario uses a key outside the algorithm's working set")
    }
}

impl Algorithm for KeyedDispatchAlg {
    type Spec = KeyedMaxSpec;
    type Machine = KeyedDispatchMachine;

    fn spec(&self) -> KeyedMaxSpec {
        KeyedMaxSpec
    }

    fn machine(&self, process: usize, op: &KeyedMaxOp) -> KeyedDispatchMachine {
        match *op {
            KeyedMaxOp::Write { key, v } => {
                let (reg, cache) = self.key_locs(key);
                KeyedDispatchMachine::Enqueue {
                    depth: self.depth,
                    route: self.route,
                    next: PostRoute::Write {
                        cache,
                        lanes: self.lanes,
                        publish: self.mode == RouteMode::Cached,
                        write: LaneWrite::new(reg, self.lanes, process, Target::AtLeast(v)),
                    },
                }
            }
            KeyedMaxOp::Read { key } => {
                let (reg, cache) = self.key_locs(key);
                KeyedDispatchMachine::Enqueue {
                    depth: self.depth,
                    route: self.route,
                    next: match self.mode {
                        RouteMode::Exact => PostRoute::ReadExact {
                            reg,
                            lanes: self.lanes,
                        },
                        RouteMode::Cached => PostRoute::ReadCached { cache },
                    },
                }
            }
        }
    }
}

/// What happens after the shared enqueue + route steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PostRoute {
    /// Execute a write on the key's register (§3 probe-then-add).
    Write {
        /// The key's published-fold cache.
        cache: Loc,
        /// Lane layout and encoding.
        lanes: Lanes,
        /// Whether a batch leader republishes (cached mode).
        publish: bool,
        /// The lane write.
        write: LaneWrite,
    },
    /// Execute an exact read: one wide read of the key's register.
    ReadExact {
        /// The key's register.
        reg: Loc,
        /// Lane layout and encoding.
        lanes: Lanes,
    },
    /// Execute a cached read: one load of the key's cache register.
    ReadCached {
        /// The key's published-fold cache.
        cache: Loc,
    },
}

/// Step machine for one dispatched request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyedDispatchMachine {
    /// Step 1: take a queue ticket (`fetch&add` on the depth cell).
    Enqueue {
        /// Queue-ticket cell.
        depth: Loc,
        /// Routing register (read next).
        route: Loc,
        /// The execute phase to run after routing.
        next: PostRoute,
    },
    /// Step 2: consult the routing table (one read).
    Route {
        /// Routing register.
        route: Loc,
        /// Queue ticket obtained at enqueue (0 ⇒ batch leader).
        ticket: u64,
        /// The execute phase.
        next: PostRoute,
    },
    /// Write steps 3–4: probe the own lane of the key's register, then
    /// land the lane-raising `pos − neg`.
    Write {
        /// The key's cache.
        cache: Loc,
        /// Lane layout and encoding.
        lanes: Lanes,
        /// Leader flag (publishes after the write, cached mode only).
        leader: bool,
        /// The lane write.
        write: LaneWrite,
    },
    /// Leader's publish, step 5: read the key's fold back.
    PublishRead {
        /// The key's register.
        reg: Loc,
        /// The key's cache.
        cache: Loc,
        /// Lane layout and encoding.
        lanes: Lanes,
    },
    /// Leader's publish, step 6: write the fold to the cache.
    PublishWrite {
        /// The key's cache.
        cache: Loc,
        /// The fold to publish.
        fold: u64,
    },
    /// Exact-read execute: one wide read of the key's register.
    ReadExact {
        /// The key's register.
        reg: Loc,
        /// Lane layout and encoding.
        lanes: Lanes,
    },
    /// Cached-read execute: one load of the cache register.
    ReadCached {
        /// The key's cache.
        cache: Loc,
    },
}

impl OpMachine for KeyedDispatchMachine {
    type Resp = MaxResp;

    fn step(&mut self, mem: &mut SimMemory) -> Step<MaxResp> {
        match self {
            KeyedDispatchMachine::Enqueue { depth, route, next } => {
                let ticket = mem.faa(*depth, 1);
                *self = KeyedDispatchMachine::Route {
                    route: *route,
                    ticket,
                    next: next.clone(),
                };
                Step::Pending
            }
            KeyedDispatchMachine::Route {
                route,
                ticket,
                next,
            } => {
                // The routing-table lookup: its value does not steer
                // the modelled execution (key affinity is static), but
                // it is a real shared-memory step the checker must
                // interleave, exactly like the production lookup.
                let _table = mem.read(*route);
                *self = match next.clone() {
                    PostRoute::Write {
                        cache,
                        lanes,
                        publish,
                        write,
                    } => KeyedDispatchMachine::Write {
                        cache,
                        lanes,
                        leader: publish && *ticket == 0,
                        write,
                    },
                    PostRoute::ReadExact { reg, lanes } => {
                        KeyedDispatchMachine::ReadExact { reg, lanes }
                    }
                    PostRoute::ReadCached { cache } => KeyedDispatchMachine::ReadCached { cache },
                };
                Step::Pending
            }
            KeyedDispatchMachine::Write {
                cache,
                lanes,
                leader,
                write,
            } => {
                if write.step(mem) == Step::Pending {
                    return Step::Pending;
                }
                if !*leader {
                    // The no-waiters direct path: completes unpublished.
                    return Step::Ready(MaxResp::Ok);
                }
                // Landed or not, the leader owes the batch its
                // publication.
                *self = KeyedDispatchMachine::PublishRead {
                    reg: write.reg(),
                    cache: *cache,
                    lanes: *lanes,
                };
                Step::Pending
            }
            KeyedDispatchMachine::PublishRead { reg, cache, lanes } => {
                let image = mem.wide_adjust(*reg, &BigNat::zero(), &BigNat::zero());
                let f = lanes.fold(&image);
                *self = KeyedDispatchMachine::PublishWrite {
                    cache: *cache,
                    fold: f,
                };
                Step::Pending
            }
            KeyedDispatchMachine::PublishWrite { cache, fold } => {
                mem.write(*cache, *fold);
                Step::Ready(MaxResp::Ok)
            }
            KeyedDispatchMachine::ReadExact { reg, lanes } => {
                let image = mem.wide_adjust(*reg, &BigNat::zero(), &BigNat::zero());
                Step::Ready(MaxResp::Value(lanes.fold(&image)))
            }
            KeyedDispatchMachine::ReadCached { cache } => {
                Step::Ready(MaxResp::Value(mem.read(*cache)))
            }
        }
    }
}

/// The cached twin under the lagging keyed specification: same
/// machines, adjudicated against [`LaggingKeyedMaxSpec`] — the spec
/// pair the corpus certifies/refutes in opposite polarities. How stale
/// a cached read may be grows with the processes racing on its key:
/// `k = 2` holds for 2–3 processes, not for 4 (DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct LaggingKeyedDispatchAlg {
    inner: KeyedDispatchAlg,
    /// Per-key staleness window of the specification.
    pub k: usize,
}

impl LaggingKeyedDispatchAlg {
    /// Wraps the cached-mode twin with window `k`.
    pub fn new(mem: &mut SimMemory, n: usize, keys: &[u64], k: usize) -> Self {
        LaggingKeyedDispatchAlg {
            inner: KeyedDispatchAlg::new(mem, n, keys, RouteMode::Cached),
            k,
        }
    }

    /// Re-codes the per-key lanes.
    pub fn with_encoding(mut self, encoding: LaneEncoding) -> Self {
        self.inner = self.inner.with_encoding(encoding);
        self
    }
}

impl Algorithm for LaggingKeyedDispatchAlg {
    type Spec = LaggingKeyedMaxSpec;
    type Machine = KeyedDispatchMachine;

    fn spec(&self) -> LaggingKeyedMaxSpec {
        LaggingKeyedMaxSpec { k: self.k }
    }

    fn machine(&self, process: usize, op: &KeyedMaxOp) -> KeyedDispatchMachine {
        self.inner.machine(process, op)
    }
}

// ---------------------------------------------------------------------
// Canonical adjudication scenarios
// ---------------------------------------------------------------------

/// Cross-key scenario: two processes write and read *different* keys.
/// Locality says the disjoint composition certifies in exact mode —
/// and it must keep certifying with the shared enqueue/route steps
/// interleaved, which is what this scenario pins.
pub fn cross_key_scenario() -> sl2_exec::sched::Scenario<KeyedMaxSpec> {
    sl2_exec::sched::Scenario::new(vec![
        vec![
            KeyedMaxOp::Write { key: 1, v: 5 },
            KeyedMaxOp::Read { key: 2 },
        ],
        vec![
            KeyedMaxOp::Write { key: 2, v: 7 },
            KeyedMaxOp::Read { key: 1 },
        ],
    ])
}

/// Same-key fan-in: two writers race one independent reader on a
/// single key — the service-layer analogue of the sharded fan-in
/// family. Exact mode certifies (the execute step is one atomic
/// register op); cached mode is refuted (a direct-path write completes
/// unpublished, then the reader's cache load returns the stale fold).
pub fn same_key_fan_in_scenario() -> sl2_exec::sched::Scenario<KeyedMaxSpec> {
    sl2_exec::scenarios::fan_in::<KeyedMaxSpec>(
        vec![
            KeyedMaxOp::Write { key: 1, v: 1 },
            KeyedMaxOp::Write { key: 1, v: 2 },
        ],
        vec![KeyedMaxOp::Read { key: 1 }],
    )
}

/// The same fan-in under the lagging spec (window `k`): the staleness
/// cached routing exhibits is *bounded per key*, so this certifies
/// for `k ≥ 2` — together with the exact-mode refutation this is the
/// §8 law at the service layer.
pub fn same_key_fan_in_lagging_scenario() -> sl2_exec::sched::Scenario<LaggingKeyedMaxSpec> {
    sl2_exec::sched::Scenario::new(vec![
        vec![
            KeyedMaxOp::Write { key: 1, v: 1 },
            KeyedMaxOp::Write { key: 1, v: 2 },
        ],
        vec![KeyedMaxOp::Read { key: 1 }],
    ])
}

/// Cross-key scenario under the lagging spec: staleness on key 1 must
/// not be excused by writes to key 2 (the per-key window law).
pub fn cross_key_lagging_scenario() -> sl2_exec::sched::Scenario<LaggingKeyedMaxSpec> {
    sl2_exec::sched::Scenario::new(vec![
        vec![
            KeyedMaxOp::Write { key: 1, v: 5 },
            KeyedMaxOp::Read { key: 2 },
        ],
        vec![
            KeyedMaxOp::Write { key: 2, v: 7 },
            KeyedMaxOp::Read { key: 1 },
        ],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl2_exec::machine::run_solo;
    use sl2_exec::strong::check_strong;

    #[test]
    fn solo_write_then_read_each_mode() {
        for mode in [RouteMode::Exact, RouteMode::Cached] {
            let mut mem = SimMemory::new();
            let alg = KeyedDispatchAlg::new(&mut mem, 2, &[1, 2], mode);
            let mut w = alg.machine(0, &KeyedMaxOp::Write { key: 1, v: 3 });
            let (resp, steps) = run_solo(&mut w, &mut mem);
            assert_eq!(resp, MaxResp::Ok);
            // enqueue + route + probe + add (+ publish read/write for
            // the cached-mode leader, ticket 0).
            let expected = if mode == RouteMode::Cached { 6 } else { 4 };
            assert_eq!(steps, expected, "{mode:?}");
            let mut r = alg.machine(1, &KeyedMaxOp::Read { key: 1 });
            let (resp, _) = run_solo(&mut r, &mut mem);
            assert_eq!(resp, MaxResp::Value(3), "{mode:?}");
        }
    }

    #[test]
    fn cached_read_of_unpublished_key_is_stale() {
        let mut mem = SimMemory::new();
        let alg = KeyedDispatchAlg::new(&mut mem, 2, &[1], RouteMode::Cached);
        // Leader writes key 1 (publishes fold 1), then a second write
        // lands direct (ticket 1: unpublished).
        let mut w0 = alg.machine(0, &KeyedMaxOp::Write { key: 1, v: 1 });
        run_solo(&mut w0, &mut mem);
        let mut w1 = alg.machine(0, &KeyedMaxOp::Write { key: 1, v: 2 });
        run_solo(&mut w1, &mut mem);
        let mut r = alg.machine(1, &KeyedMaxOp::Read { key: 1 });
        let (resp, _) = run_solo(&mut r, &mut mem);
        assert_eq!(resp, MaxResp::Value(1), "cache misses the direct write");
    }

    #[test]
    fn exact_mode_certifies_both_canonical_scenarios() {
        for scenario in [cross_key_scenario(), same_key_fan_in_scenario()] {
            let mut mem = SimMemory::new();
            let alg = KeyedDispatchAlg::new(&mut mem, 3, &[1, 2], RouteMode::Exact);
            let out = check_strong(&alg, mem, &scenario, 16_000_000);
            assert!(
                out.is_certified(),
                "exact dispatch must certify ({} nodes)",
                out.nodes
            );
        }
    }

    #[test]
    fn cached_mode_is_refuted_on_the_same_key_fan_in() {
        let mut mem = SimMemory::new();
        let alg = KeyedDispatchAlg::new(&mut mem, 3, &[1, 2], RouteMode::Cached);
        let out = check_strong(&alg, mem, &same_key_fan_in_scenario(), 16_000_000);
        assert!(
            out.is_refuted(),
            "cached dispatch must be refuted against the exact keyed spec"
        );
    }

    #[test]
    fn cached_mode_certifies_the_lagging_window() {
        let mut mem = SimMemory::new();
        let alg = LaggingKeyedDispatchAlg::new(&mut mem, 3, &[1, 2], 2);
        let out = check_strong(&alg, mem, &same_key_fan_in_lagging_scenario(), 16_000_000);
        assert!(
            out.is_certified(),
            "cached dispatch must certify against the k=2 lagging keyed spec"
        );
    }
}
