//! [`Combiner`]: the generic flat-combining front-end, built from
//! announcement slots ([`crate::PublicationArray`], swap), a combiner
//! election ([`crate::CombinerLock`], swap), a fetch&add epoch counter
//! and a published fold that is itself a Theorem-1 max register (wide
//! fetch&add) — no compare&swap anywhere, which
//! [`Combiner::consensus_ceiling`] asserts through the [`BaseObject`]
//! constants.
//!
//! One front-end serves both §3 objects that combine: the max register
//! (`Combiner<ShardedMaxRegister>`, announced writes combine, see
//! [`Combinable`]) and the counter (`Combiner<ShardedFetchInc>`, only
//! the publication combines, see [`Foldable`]). Every tenure, whichever
//! object and caller, runs one election, holds one `Tenure` guard and
//! ends in one publication routine.
//!
//! # The protocol, and why it never blocks
//!
//! An operation is *announced* (one swap), then its owner runs the
//! combiner election (one swap):
//!
//! * **won** — the owner sweeps every slot, claims the announced
//!   operations (its own usually among them), applies each to the
//!   inner §3 object, raises its own lane of the cache max register to
//!   a fresh whole-object fold, bumps the epoch, and releases;
//! * **lost** — the owner applies its operation to the inner object
//!   *directly* (the plain sharded path) and withdraws its
//!   announcement. **No waiting, ever**: classic flat combining parks
//!   losers on their slots until the combiner serves them, which turns
//!   a stalled combiner into a stalled system (and turns the checker's
//!   execution tree into a cycle). Here the slow path is the ordinary
//!   wait-free sharded write.
//!
//! The price of not waiting is that claim ([`PublicationArray::take`])
//! and withdraw can race, so an operation may be applied by both its
//! owner and a helper. [`Combinable`] makes that harmless by
//! *re-attribution*: the helper runs the announced operation through
//! its **own** lanes (the §3 single-writer-per-lane discipline is what
//! makes a probing `fetch&add` regression-free, so a helper must never
//! touch the announcer's lane), and only operations whose meaning is
//! lane-independent — max-register writes — qualify. Owner and helper
//! then write different lanes with the same monotone intent, and the
//! fold absorbs the duplicate.
//!
//! [`Combiner::read_cached`] is one 16-byte load of the published fold
//! plus the word-kernel fold over its lanes, the fast path the
//! read-heavy regime wants (E26); what it honestly meets is in its docs
//! and in [`crate::machines`].
//!
//! [`PublicationArray::take`]: crate::PublicationArray::take

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

use sl2_bignum::{LaneEncoding, Lanes};
use sl2_primitives::{BaseObject, ConsensusNumber, FetchAdd};

use crate::slots::{CombinerLock, Lease, PublicationArray, Published, Tenure};

/// Consecutive identical `(lease, epoch)` observations a lost-election
/// process must make before it may reclaim the combiner lock. Two is
/// enough under crash-stop (a dead holder's lease is frozen forever,
/// and every live tenure carries a *fresh* unique lease, so two spaced
/// sightings of one lease with no publication in between never happen
/// while the holder makes progress); it is deliberately small so
/// recovery is prompt — a merely *stalled* holder suspected wrongly
/// only overlaps its rescuer's tenure, which the max-register cache
/// makes harmless (DESIGN.md §10).
pub(crate) const RECLAIM_STRIKES: u64 = 2;

/// Per-process abandonment evidence: the last `(lease, epoch)` pair
/// this process observed while losing an election, and how many
/// consecutive times it has seen exactly that pair. Plain registers
/// (consensus number 1) — each cell is written only by its owning
/// process.
#[derive(Debug, Default)]
pub(crate) struct Suspicion {
    lease: AtomicU64,
    epoch: AtomicU64,
    strikes: AtomicU64,
}

/// An inner object whose whole-object value the front-end can fold and
/// publish — all a [`Combiner`] needs. Its operations run on the inner
/// object itself; what the front-end combines is the publication of a
/// fresh fold ([`Combiner::refresh`]). Objects whose operations can
/// also be announced and combined implement [`Combinable`] on top.
///
/// Folds must be sound: [`Foldable::fold_relaxed`] must never exceed
/// the landed whole-object value and must be monotone across calls
/// (the published cache inherits both), while [`Foldable::fold_exact`]
/// is the stable exact read.
pub trait Foldable {
    /// Number of processes sharing the object (= per-process lines).
    fn processes(&self) -> usize;

    /// One-pass whole-object fold: wait-free, monotone, never ahead of
    /// the landed value. This is what [`Combiner::refresh`] publishes.
    fn fold_relaxed(&self) -> u64;

    /// Exact whole-object fold (stable collect; lock-free).
    fn fold_exact(&self) -> u64;
}

/// A [`Foldable`] inner object whose operations can be announced and
/// combined ([`Combiner::apply`]).
///
/// Implementations must satisfy the law the protocol leans on,
/// **applier-attributed operations**: `apply(applier, op)` runs the
/// operation through `applier`'s *own* lanes, whoever originally
/// announced it. The §3 constructions are only sound under their
/// single-writer-per-lane discipline (a probing `fetch&add` is
/// regression-free only because the probed lane cannot move under its
/// one writer), so a helper must never write the announcer's lane — it
/// re-attributes the operation to itself. That demands operations whose
/// *meaning* is lane-independent: a max-register write is (the fold
/// takes the maximum over all lanes, so any lane can carry the value),
/// a counter increment is **not** (units are owner-attributed; a helper
/// landing "owner's unit" in its own lane double-counts when the owner
/// also applies). This is why the counter is only [`Foldable`], so
/// `apply` cannot be called on it — DESIGN.md §8 states the taxonomy.
///
/// Applier attribution also makes re-application harmless: owner and
/// helper racing on one announcement write *different* lanes with the
/// same monotone intent, and the fold absorbs the duplicate.
pub trait Combinable: Foldable {
    /// The announced operation.
    type Op: Copy + Debug;

    /// Injective encoding of an operation into a word. Only a no-op (a
    /// max-register write of 0) may encode to 0, which announces
    /// nothing: the slot reads 0 as empty.
    fn encode(op: Self::Op) -> u64;

    /// Inverse of [`Combinable::encode`].
    fn decode(word: u64) -> Self::Op;

    /// Applies `op` through `applier`'s own lanes (see the trait docs:
    /// `applier` is the process *executing* the application, not
    /// necessarily the announcer).
    fn apply(&self, applier: usize, op: Self::Op);

    /// Merges one applied operation into a published fold value — the
    /// arithmetic the combiner uses to advance the cache *without*
    /// probing the inner shards (`max(prev, v)` for the max register).
    /// Must be **idempotent** (an operation already covered by `prev`
    /// leaves it unchanged — that is what lets batch publication
    /// compose with the fold-based [`Combiner::refresh`]; a sum has no
    /// such merge, one more reason the counter is only [`Foldable`])
    /// and must keep the two fold laws: `fold_batch(prev, op) ≥ prev`,
    /// and `≤` the landed fold whenever `prev` is and `op` has been
    /// applied.
    fn fold_batch(prev: u64, op: Self::Op) -> u64;
}

/// Which route an operation took through the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyPath {
    /// The caller won the election and combined; `applied` counts the
    /// announcements its sweep claimed and applied (usually including
    /// its own — unless an earlier combiner already helped it).
    Combined {
        /// Announcements applied in this sweep.
        applied: usize,
    },
    /// The caller lost the election and applied directly (the plain
    /// sharded path); its announcement was withdrawn (or claimed by
    /// the combiner, harmlessly, per idempotence).
    Direct,
    /// The caller lost the election, applied directly — and then
    /// found the holder's lease frozen across `RECLAIM_STRIKES`
    /// observations, reclaimed the abandoned lock, and resumed
    /// combining: it swept `applied` leftover announcements and
    /// republished a fresh fold. This is the recovery path a
    /// crash-stopped combiner forces (DESIGN.md §10).
    Reclaimed {
        /// Abandoned announcements applied during the recovery sweep.
        applied: usize,
    },
}

/// The outcome of [`Combiner`]'s one election.
enum Election {
    /// The lock was free.
    Won(Lease),
    /// The lock was held, and its lease had stayed frozen long enough
    /// for this caller to take it over.
    Reclaimed(Lease),
    /// The lock was held by a live (or not yet suspected) holder.
    Lost,
}

/// Flat-combining front-end over a [`Foldable`] inner object.
///
/// # Examples
///
/// ```
/// use sl2_combine::{CombiningCounter, CombiningMaxRegister};
/// use sl2_sharded::{ShardedFetchInc, ShardedMaxRegister};
/// use sl2_core::algos::MaxRegister;
///
/// let m = CombiningMaxRegister::new(ShardedMaxRegister::new(2, 4));
/// m.write_max(0, 9);
/// assert_eq!(m.read_cached(), 9, "the write combined and published");
/// assert_eq!(m.read_max(), 9);
///
/// let c = CombiningCounter::new(ShardedFetchInc::new(2, 2));
/// c.inc(1);
/// assert_eq!(c.read_cached(), 1, "the increment won and published");
/// ```
#[derive(Debug)]
pub struct Combiner<O> {
    inner: O,
    /// Per-process lines: announcement slot plus abandonment evidence
    /// (see [`Suspicion`]). An inner object that is only [`Foldable`]
    /// never announces, so only the evidence halves are used.
    slots: PublicationArray,
    lock: CombinerLock,
    /// Published whole-object fold, written only by the publication
    /// routine, each publisher in its own lane.
    published: Published,
}

impl<O: Foldable> Combiner<O> {
    /// Wraps `inner`, allocating one per-process line per process.
    pub fn new(inner: O) -> Self {
        let slots = PublicationArray::new(inner.processes());
        Combiner::over(inner, slots)
    }

    /// Wraps `inner` over caller-placed (fresh) per-process lines —
    /// how a registry co-allocates them with this header
    /// (`sl2_primitives::build_block`).
    ///
    /// # Panics
    ///
    /// Panics unless `slots` has one line per process of `inner`.
    pub fn over(inner: O, slots: PublicationArray) -> Self {
        assert_eq!(slots.len(), inner.processes(), "one slot per process");
        Combiner {
            inner,
            slots,
            lock: CombinerLock::new(),
            published: Published::default(),
        }
    }

    /// The wrapped inner object (for stable reads beyond the fold,
    /// e.g. snapshot scans).
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Number of processes (= announcement slots).
    pub fn processes(&self) -> usize {
        self.slots.len()
    }

    /// Publications so far.
    pub fn epoch(&self) -> u64 {
        self.lock.epoch.read()
    }

    /// The cache's lanes: one binary lane per process.
    fn lanes(&self) -> Lanes {
        Lanes::new(self.slots.len(), LaneEncoding::Binary)
    }

    /// The fast path: the largest published whole-object fold, read
    /// from the cache max register (one 16-byte load while it is
    /// inline, then the word-kernel fold). Wait-free, monotone across
    /// calls and never ahead of the exact value — but it may trail
    /// operations that completed on the direct path since the last
    /// publication. So the checker refutes it against the exact
    /// specifications (a replayable witness) and certifies it against
    /// the `sl2_spec::relaxed` lagging windows (DESIGN.md §8).
    pub fn read_cached(&self) -> u64 {
        sl2_obs::count("combine.read_cached");
        self.published.read(&self.lanes())
    }

    /// The exact read: the inner object's stable fold (lock-free).
    pub fn read_stable(&self) -> u64 {
        sl2_obs::count("combine.read_stable");
        self.inner.fold_exact()
    }

    /// Opportunistically republishes a fresh fold on behalf of
    /// `process` (one election attempt; a held lock means a combiner is
    /// about to publish anyway, and the attempt counts toward
    /// reclaiming a frozen lease). Read-heavy callers can use this to
    /// bound cache lag at quiescence. Returns whether a publication
    /// happened.
    ///
    /// No sweep: announcements never *need* service (owners always
    /// apply their own operations — the protocol has no waiters), so a
    /// refresher only folds and publishes.
    pub fn refresh(&self, process: usize) -> bool {
        let (Election::Won(lease) | Election::Reclaimed(lease)) = self.elect(process, || {}) else {
            return false;
        };
        let tenure = self.lock.hold(lease);
        let fold = self.inner.fold_relaxed();
        self.release(tenure, process, Some(fold));
        true
    }

    /// The one election. A win resets the caller's strikes. A loss
    /// first runs `lost` (the caller's direct path), and only then
    /// observes the holder's lease, reclaiming it once it has stayed
    /// frozen for [`RECLAIM_STRIKES`] consecutive sightings by
    /// `process`.
    fn elect(&self, process: usize, lost: impl FnOnce()) -> Election {
        let cell = self.slots.suspicion(process);
        if let Some(lease) = self.lock.try_acquire() {
            // Whatever this process was watching is moot now.
            cell.strikes.store(0, Ordering::Relaxed);
            return Election::Won(lease);
        }
        lost();
        // One sighting of the holder's `(lease, epoch)`. Unique leases
        // make the evidence sound under crash-stop: a live tenure
        // either releases (lease changes or clears) or publishes (epoch
        // advances), and a new tenure always mints a fresh lease — only
        // a dead holder freezes the pair.
        let lease = self.lock.holder();
        if lease == 0 {
            cell.strikes.store(0, Ordering::Relaxed);
            return Election::Lost;
        }
        let epoch = self.lock.epoch.read();
        if cell.lease.load(Ordering::Relaxed) != lease
            || cell.epoch.load(Ordering::Relaxed) != epoch
        {
            cell.lease.store(lease, Ordering::Relaxed);
            cell.epoch.store(epoch, Ordering::Relaxed);
            cell.strikes.store(0, Ordering::Relaxed);
            return Election::Lost;
        }
        let strikes = cell.strikes.load(Ordering::Relaxed) + 1;
        cell.strikes.store(strikes, Ordering::Relaxed);
        sl2_obs::count("combine.lease_strike");
        if strikes < RECLAIM_STRIKES {
            return Election::Lost;
        }
        cell.strikes.store(0, Ordering::Relaxed);
        match self.lock.reclaim(lease) {
            Some(lease) => {
                sl2_obs::count("combine.lease_reclaim");
                Election::Reclaimed(lease)
            }
            None => Election::Lost,
        }
    }

    /// The one publication routine: raises `process`'s lane of the
    /// cache to `fold`, if any, and ends the tenure. Every write of the
    /// cache — a combining sweep's, a refresh's, a counter increment's
    /// — comes through here.
    fn release(&self, tenure: Tenure<'_>, process: usize, fold: Option<u64>) {
        if let Some(fold) = fold {
            sl2_chaos::point("combine.pre_publish");
            self.published.publish(&self.lanes(), process, fold);
            self.lock.epoch.fetch_add(1);
            sl2_trace::event("combine.publish", fold);
        }
        sl2_chaos::point("combine.pre_release");
        drop(tenure);
    }

    /// The election lock — exposed for fault-injection tests and
    /// diagnostics (e.g. abandoning a tenure on purpose to exercise
    /// the reclaim path). Production callers never need this.
    pub fn lock(&self) -> &CombinerLock {
        &self.lock
    }

    /// The announcement slots — exposed for fault-injection tests and
    /// diagnostics (e.g. planting an abandoned announcement).
    /// Production callers never need this.
    pub fn slots(&self) -> &PublicationArray {
        &self.slots
    }

    /// The highest consensus number among the front-end's own base
    /// objects — [`ConsensusNumber::Two`], by construction: slots and
    /// lock are swap, the epoch is fetch&add, the cache is a wide
    /// fetch&add register. The test suite asserts this stays put (the
    /// paper's budget; cf. Khanchandani & Wattenhofer).
    pub fn consensus_ceiling(&self) -> ConsensusNumber {
        use crate::slots::{PubSlot, SeqCache};
        let parts = [
            PubSlot::CONSENSUS_NUMBER,
            CombinerLock::CONSENSUS_NUMBER,
            SeqCache::CONSENSUS_NUMBER,
            FetchAdd::CONSENSUS_NUMBER,
            sl2_bignum::WideFaa::CONSENSUS_NUMBER,
        ];
        parts.into_iter().max().expect("the part list is non-empty")
    }
}

impl<O: Combinable> Combiner<O> {
    /// Applies `op` on behalf of `process` through the front-end:
    /// announce, run the election, then combine or go direct (see the
    /// module docs). Wait-free either way. A loser additionally
    /// watches the holder's lease for abandonment and — after
    /// `RECLAIM_STRIKES` frozen observations — reclaims the lock
    /// and resumes combining ([`ApplyPath::Reclaimed`]).
    pub fn apply(&self, process: usize, op: O::Op) -> ApplyPath {
        self.slots.publish(process, O::encode(op));
        sl2_chaos::point("combine.announced");
        // Trace instants attribute to the ambient request span (the
        // serving worker re-entered it), so a traced service run can
        // say *which request's* election this was: payload 0 = lost,
        // 1 = won, 2 = reclaimed a dead holder's lock.
        sl2_trace::event("combine.announce", process as u64);
        let elected = self.elect(process, || {
            // Lost the election: the plain wait-free path, then retire
            // the announcement (a combiner that already claimed it
            // re-applies harmlessly — `apply` is idempotent).
            sl2_obs::count("combine.election_lost");
            sl2_trace::event("combine.elect", 0);
            self.inner.apply(process, op);
            self.slots.withdraw(process);
        });
        match elected {
            Election::Won(lease) => {
                sl2_chaos::point("combine.won");
                sl2_obs::count("combine.election_won");
                sl2_trace::event("combine.elect", 1);
                // Publication is a merge onto the published fold, not
                // an inner fold: every merged operation has landed,
                // the previous published value never regresses
                // (fold_batch only grows its accumulator), and an
                // operation the cache already covers changes nothing.
                // The shard probes a one-pass fold would cost are the
                // contended lines the read-heavy regime avoids (E26).
                let applied = self.combine(process, lease, None);
                ApplyPath::Combined { applied }
            }
            Election::Reclaimed(lease) => {
                // The holder was dead (its lease froze): recover.
                // Publish from a fresh one-pass fold rather than a
                // cache merge — the dead combiner may have applied
                // claimed operations without reaching its
                // publication, and the fold re-covers them.
                sl2_trace::event("combine.elect", 2);
                let applied = self.combine(process, lease, Some(self.inner.fold_relaxed()));
                ApplyPath::Reclaimed { applied }
            }
            Election::Lost => {
                sl2_obs::count("combine.direct_path");
                ApplyPath::Direct
            }
        }
    }

    /// One combining tenure: sweep every slot, apply the claims through
    /// `applier`'s lanes, then publish into `applier`'s cache lane and
    /// release. `base` is the fold
    /// to start from — `None` merges onto the published cache (the
    /// normal tenure, which skips publication when the sweep came up
    /// empty); `Some(fold)` publishes unconditionally from that fold
    /// (the recovery tenure).
    fn combine(&self, applier: usize, lease: Lease, base: Option<u64>) -> usize {
        let tenure = self.lock.hold(lease);
        // Times the whole tenure (sweep + publish + release).
        let _tenure_timer = sl2_obs::time("combine.fold_batch");
        let publish_always = base.is_some();
        let mut fold = base.unwrap_or_else(|| self.published.read(&self.lanes()));
        let mut applied = 0;
        for i in 0..self.slots.len() {
            sl2_chaos::point("combine.mid_sweep");
            if let Some(word) = self.slots.take(i) {
                let op = O::decode(word);
                self.inner.apply(applier, op);
                fold = O::fold_batch(fold, op);
                applied += 1;
            }
        }
        sl2_obs::record("combine.batch_size", applied as u64);
        sl2_trace::event("combine.fold", applied as u64);
        let fold = (publish_always || applied > 0).then_some(fold);
        self.release(tenure, applier, fold);
        applied
    }
}
