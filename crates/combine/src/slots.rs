//! The publication substrate of the combining layer: per-process
//! announcement slots, the combiner election lock, and the versioned
//! multi-word cache — all built from consensus-number-2 primitives
//! (swap and fetch&add; no compare&swap anywhere, which
//! [`crate::Combiner::consensus_ceiling`] asserts through the
//! [`BaseObject`] wiring).
//!
//! A [`PubSlot`] is one [`Swap`] register holding at most one
//! announced operation, encoded as a non-zero word. The three verbs are
//! all single swaps, so each is one atomic step in the paper's model:
//!
//! * [`PublicationArray::publish`] — the owner announces an operation;
//! * [`PublicationArray::take`] — the combiner claims it (a read
//!   followed by a swap, so sweeping an *empty* slot costs a shared
//!   load, not an exclusive cache-line transfer);
//! * [`PublicationArray::withdraw`] — the owner retires its
//!   announcement after applying the operation directly.
//!
//! Claim and withdraw race by design: the swap hands the operation word
//! to exactly one of them, and only ensure-style idempotent operations
//! are announced ([`crate::Combinable`]), so a stale copy applied by the
//! loser is harmless — which is what lets a lost election apply directly
//! instead of waiting for help.

use std::sync::atomic::{AtomicU64, Ordering};

use sl2_bignum::{Lanes, WideFaa};
use sl2_core::algos::max_register::SlMaxRegister;
use sl2_primitives::{BaseObject, CachePadded, ConsensusNumber, FetchAdd, Lines, Swap};

use crate::combiner::Suspicion;

/// Slot word meaning "no operation announced"; only a no-op encodes to
/// it ([`crate::Combinable::encode`]).
const EMPTY: u64 = 0;

/// One process's announcement slot: a swap register.
#[derive(Debug, Default)]
pub struct PubSlot {
    cell: Swap,
}

impl PubSlot {
    /// Whether an operation is currently announced (one read).
    pub fn is_occupied(&self) -> bool {
        self.cell.read() != EMPTY
    }
}

impl BaseObject for PubSlot {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Two;
}

/// What process `p` writes, on one line: its announcement slot (which
/// a claiming combiner also swaps) and its abandonment evidence.
#[derive(Debug, Default)]
pub struct ProcessLine {
    slot: PubSlot,
    suspicion: Suspicion,
}

/// The announcement slots of all `n` processes, one padded cache line
/// per process (shared with that process's `Suspicion` cell).
///
/// Operation words are stored verbatim, and the all-zeros initial
/// state reads as "nothing announced": a published non-zero word comes
/// back from [`PublicationArray::take`], and publishing 0 announces
/// nothing.
///
/// # Examples
///
/// ```
/// use sl2_combine::PublicationArray;
///
/// let slots = PublicationArray::new(2);
/// slots.publish(0, 7);
/// assert_eq!(slots.take(0), Some(7));
/// assert_eq!(slots.take(0), None, "claimed exactly once");
/// ```
#[derive(Debug)]
pub struct PublicationArray {
    lines: Lines<ProcessLine>,
}

impl PublicationArray {
    /// Allocates `n` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        PublicationArray::over(Lines::new(n, |_| ProcessLine::default()))
    }

    /// As [`PublicationArray::new`] over caller-placed (fresh) lines,
    /// one per process.
    pub fn over(lines: Lines<ProcessLine>) -> Self {
        assert!(
            !lines.is_empty(),
            "a publication array needs at least one slot"
        );
        PublicationArray { lines }
    }

    /// Number of slots (= processes).
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `process`'s abandonment evidence.
    pub(crate) fn suspicion(&self, process: usize) -> &Suspicion {
        &self.lines[process].suspicion
    }

    /// Whether the array has no slots (never true — see
    /// [`PublicationArray::new`]).
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Announces `word` in `process`'s slot (one swap). Overwrites any
    /// stale announcement — the protocol invariant is that a process
    /// has at most one operation in flight, and an overwritten word
    /// means the previous operation already completed via the direct
    /// path with its withdraw lost to a concurrent [`take`].
    ///
    /// [`take`]: PublicationArray::take
    pub fn publish(&self, process: usize, word: u64) {
        self.lines[process].slot.cell.swap(word);
    }

    /// Claims the announcement in slot `i`, if any: a read (cheap for
    /// the common empty slot) followed by a swap-out. Returns the word
    /// exactly once per announcement — a racing [`withdraw`] gets
    /// nothing.
    ///
    /// [`withdraw`]: PublicationArray::withdraw
    pub fn take(&self, i: usize) -> Option<u64> {
        let slot = &self.lines[i].slot;
        if !slot.is_occupied() {
            return None;
        }
        match slot.cell.swap(EMPTY) {
            EMPTY => None,
            word => Some(word),
        }
    }

    /// Retires `process`'s own announcement after a direct application
    /// (one swap). Returns whether the announcement was still there —
    /// `false` means a combiner claimed it and will (re-)apply it,
    /// which idempotent operations absorb.
    pub fn withdraw(&self, process: usize) -> bool {
        self.lines[process].slot.cell.swap(EMPTY) != EMPTY
    }
}

/// A granted combiner election: proof that the holder won
/// [`CombinerLock::try_acquire`] (or [`CombinerLock::reclaim`]), to be
/// surrendered via [`CombinerLock::release`].
///
/// The wrapped id is the *lease word* the winning swap put in the lock
/// cell — globally unique (a fetch&add generation counter mints it),
/// never zero. A losing acquirer's swap may replace it with the
/// loser's own word, which stands in for the tenure until its release
/// clears the cell. Uniqueness is what makes abandonment detectable: a
/// crashed combiner leaves the cell frozen on one word forever, while
/// any live tenure eventually ends or advances the epoch, so "same
/// word, same epoch, observed twice" is evidence of a dead holder (see
/// [`CombinerLock::reclaim`]).
#[derive(Debug, PartialEq, Eq)]
#[must_use = "an unreleased lease abandons the combiner lock"]
pub struct Lease {
    id: u64,
}

impl Lease {
    /// The lease word this tenure holds in the lock cell.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The combiner election: a swap-based try-lock (consensus number 2 —
/// `swap` decides the two-process race the election is) whose cell
/// holds unique, non-zero *lease* words, so a lock abandoned by a
/// crash-stopped combiner can be detected and reclaimed by the
/// survivors.
///
/// Strictly a *try*-lock: there is no blocking acquire, because the
/// combining protocol has no waiters — losers take the direct path.
///
/// # Protocol (swap + fetch&add only — no compare&swap)
///
/// * **Acquire** reads the cell first and fails fast while it is
///   non-zero, then swaps a freshly minted lease in, and wins iff the
///   swap displaced 0. A loser's lease stays in the cell: the cell is
///   non-zero until the tenure's release clears it, which is all the
///   next acquirer needs to see.
/// * **Release** swaps 0 in; the lock is free afterwards, whatever
///   word a losing or rescuing swap left in the cell meanwhile.
/// * **Reclaim** takes over a lease word the caller has independently
///   observed frozen (same word *and* no epoch progress across
///   repeated observations): one swap, won iff it displaced exactly
///   that word or 0.
///
/// No arm swaps a displaced word back, so no interleaving can leave
/// the cell frozen on the word of a tenure that has ended. Without
/// reclaim, tenures are exclusive: a swap wins only by displacing 0,
/// and only a winner's release puts 0 back. Under crash-stop faults
/// the suspicion evidence is conclusive once the suspect is really
/// dead, but a merely *stalled* holder can be suspected wrongly, and
/// then its tenure overlaps the rescuer's. The combining front-end
/// tolerates that by construction: its published fold is a Theorem-1
/// max register, which cannot go backwards (DESIGN.md §10).
/// [`crate::CombiningSnapshot`], whose multi-word cache needs one
/// writer, never reclaims.
///
/// # Examples
///
/// ```
/// use sl2_combine::CombinerLock;
///
/// let lock = CombinerLock::new();
/// let lease = lock.try_acquire().expect("free lock");
/// assert!(lock.try_acquire().is_none(), "election decides exactly one winner");
/// assert!(lock.release(lease), "clean handback");
/// let relock = lock.try_acquire().expect("free again");
/// # assert!(lock.release(relock));
/// ```
///
/// Reclaiming an abandoned tenure:
///
/// ```
/// use sl2_combine::CombinerLock;
///
/// let lock = CombinerLock::new();
/// let dead = lock.try_acquire().expect("free lock");
/// let frozen = dead.id();
/// drop(dead); // crash-stop: release is explicit, so dropping abandons the lease
/// let rescued = lock.reclaim(frozen).expect("frozen lease is reclaimable");
/// assert!(lock.release(rescued));
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CombinerLock {
    cell: Swap,
    /// Written only on the way to swapping `cell`, so it rides `cell`'s
    /// line.
    gen: FetchAdd,
    /// Publications made under this lock, counted by the combining
    /// front-end's publishers on the line its losers already read for
    /// suspicion evidence.
    pub(crate) epoch: FetchAdd,
}

impl CombinerLock {
    /// A free lock.
    pub fn new() -> Self {
        CombinerLock::default()
    }

    /// Mints a globally unique, non-zero lease word.
    fn fresh_id(&self) -> u64 {
        // fetch&add returns the previous value; +1 keeps ids non-zero.
        self.gen.fetch_add(1) + 1
    }

    /// Tries to win the election: `Some(lease)` iff the caller now
    /// holds the lock. Read-first so losing costs one shared load on
    /// the common held-lock path; among simultaneous acquirers, the
    /// one whose swap displaced 0 wins.
    pub fn try_acquire(&self) -> Option<Lease> {
        if self.cell.read() != 0 {
            return None;
        }
        self.swap_in(0)
    }

    /// Swaps a fresh lease in and keeps it if the cell held `expected`
    /// or was free. On any other word the caller loses, and its lease
    /// stays in the cell until the standing tenure's release clears it.
    fn swap_in(&self, expected: u64) -> Option<Lease> {
        let id = self.fresh_id();
        let prev = self.cell.swap(id);
        (prev == expected || prev == 0).then_some(Lease { id })
    }

    /// Releases the lock: one swap of 0, after which the lock is free.
    /// Returns whether the cell still held this lease; `false` means a
    /// losing acquirer's swap or a rescuer's reclaim replaced it during
    /// the tenure, which the combining front-end tolerates (see the
    /// type docs).
    pub fn release(&self, lease: Lease) -> bool {
        self.cell.swap(0) == lease.id
    }

    /// Takes over a tenure whose lease word the caller has observed
    /// frozen (same `suspected` word with no epoch progress across
    /// repeated, spaced observations — the caller supplies the
    /// evidence, e.g. [`crate::Combiner`]'s per-process strike
    /// counters). Returns the new lease iff the takeover displaced
    /// exactly the suspected word (or landed on a lock that had just
    /// been freed).
    pub fn reclaim(&self, suspected: u64) -> Option<Lease> {
        if suspected == 0 || self.cell.read() != suspected {
            return None;
        }
        self.swap_in(suspected)
    }

    /// The lease word currently in the cell (0 = free). One read —
    /// this is the observation suspicion evidence is built from.
    pub fn holder(&self) -> u64 {
        self.cell.read()
    }

    /// Whether some combiner currently holds the lock (one read).
    pub fn is_held(&self) -> bool {
        self.holder() != 0
    }

    /// Guards `lease` for one tenure: the one way a [`Tenure`] is made.
    pub(crate) fn hold(&self, lease: Lease) -> Tenure<'_> {
        Tenure {
            lock: self,
            lease: Some(lease),
        }
    }
}

/// A held combiner tenure that releases on drop, so a panic inside the
/// critical section unwinds through the release instead of abandoning
/// the lock. A crash-stop never unwinds, so abandonment — the case the
/// lease/reclaim machinery exists for — is exactly the non-drop path.
pub(crate) struct Tenure<'a> {
    lock: &'a CombinerLock,
    lease: Option<Lease>,
}

impl Drop for Tenure<'_> {
    fn drop(&mut self) {
        if let Some(lease) = self.lease.take() {
            // `false` only says another word replaced the lease; the
            // lock is free either way (see `CombinerLock::release`).
            let _ = self.lock.release(lease);
        }
    }
}

impl BaseObject for CombinerLock {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Two;
}

/// The published fold: a Theorem-1 max register over one binary lane
/// per process, run by [`SlMaxRegister`]'s own code on a borrowed
/// [`WideFaa`]. A publisher raises only its own lane, so publications
/// from overlapping tenures commute and a read never goes backwards.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Published {
    fold: WideFaa,
}

impl Published {
    /// The largest fold published so far: one 16-byte load while the
    /// register is inline, then the word-kernel fold over the lanes.
    pub(crate) fn read(&self, lanes: &Lanes) -> u64 {
        SlMaxRegister::read_on(&self.fold, lanes)
    }

    /// Raises `process`'s lane to `fold` (a no-op if the lane already
    /// holds at least that). The one caller is `Combiner`'s
    /// publication routine; the step-machine twins model it as one
    /// `max_write`.
    pub(crate) fn publish(&self, lanes: &Lanes, process: usize, fold: u64) {
        SlMaxRegister::write_on(&self.fold, lanes, process, fold);
    }
}

// Lines are padded by writer, not by word (DESIGN.md §12); a later
// field must not silently spill one.
const _: () = {
    assert!(size_of::<CombinerLock>() == 64 && align_of::<CombinerLock>() == 64);
    assert!(size_of::<Published>() == 64 && align_of::<Published>() == 64);
    assert!(size_of::<CachePadded<ProcessLine>>() == 64);
};

/// A versioned multi-word read cache (for folds wider than one word,
/// e.g. snapshot views): a fetch&add version counter — odd while a
/// publication is in flight — over plain per-word atomic registers.
/// Consensus number 2 overall (the registers alone are level 1).
///
/// Readers are optimistic: [`SeqCache::read_into`] returns `false` on
/// a torn or in-flight view, and the caller falls back to the inner
/// object's stable scan — the "cache miss" path of the combining
/// snapshot. Only the combiner (under [`CombinerLock`]) publishes, so
/// writers never race each other.
#[derive(Debug)]
pub struct SeqCache {
    version: CachePadded<FetchAdd>,
    words: Box<[AtomicU64]>,
}

impl SeqCache {
    /// A cache of `width` words, version 0 (published never).
    pub fn new(width: usize) -> Self {
        SeqCache {
            version: CachePadded::new(FetchAdd::new(0)),
            words: (0..width).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publication count so far.
    pub fn epoch(&self) -> u64 {
        self.version.read() / 2
    }

    /// Publishes `view` (combiner-only, under the election lock):
    /// version goes odd, words are written, version goes even.
    ///
    /// # Panics
    ///
    /// Panics if `view.len()` differs from the cache width.
    pub fn publish(&self, view: &[u64]) {
        assert_eq!(view.len(), self.words.len(), "cache width mismatch");
        self.version.fetch_add(1); // odd: publication in flight
        for (w, &v) in self.words.iter().zip(view) {
            w.store(v, Ordering::SeqCst);
        }
        self.version.fetch_add(1); // even: stable
    }

    /// Optimistic read into `out`: `true` iff a published, untorn view
    /// was copied (version even, unchanged across the copy, and at
    /// least one publication has happened).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the cache width.
    pub fn read_into(&self, out: &mut [u64]) -> bool {
        assert_eq!(out.len(), self.words.len(), "cache width mismatch");
        let v1 = self.version.read();
        if v1 < 2 || v1 % 2 == 1 {
            return false;
        }
        for (o, w) in out.iter_mut().zip(self.words.iter()) {
            *o = w.load(Ordering::SeqCst);
        }
        self.version.read() == v1
    }
}

impl BaseObject for SeqCache {
    const CONSENSUS_NUMBER: ConsensusNumber = ConsensusNumber::Two;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_take_withdraw_hand_the_word_to_exactly_one_party() {
        let slots = PublicationArray::new(3);
        assert_eq!(slots.len(), 3);
        assert!(!slots.is_empty());
        assert_eq!(slots.take(1), None, "initially empty");
        slots.publish(1, u64::MAX); // every non-zero word is stored verbatim
        assert!(slots.lines[1].slot.is_occupied());
        assert_eq!(slots.take(1), Some(u64::MAX));
        assert!(!slots.withdraw(1), "take already claimed it");
        slots.publish(1, 41);
        assert!(slots.withdraw(1), "owner got it back");
        assert_eq!(slots.take(1), None);
    }

    #[test]
    fn publishing_zero_announces_nothing() {
        let slots = PublicationArray::new(1);
        slots.publish(0, 0);
        assert_eq!(slots.take(0), None);
        assert!(!slots.withdraw(0));
    }

    #[test]
    fn concurrent_take_and_withdraw_claim_exactly_once() {
        for _ in 0..200 {
            let slots = Arc::new(PublicationArray::new(1));
            slots.publish(0, 9);
            let taker = Arc::clone(&slots);
            let owner = Arc::clone(&slots);
            let (a, b) = std::thread::scope(|s| {
                let t = s.spawn(move || taker.take(0).is_some());
                let w = s.spawn(move || owner.withdraw(0));
                (t.join().expect("taker"), w.join().expect("owner"))
            });
            assert!(a ^ b, "exactly one side must claim the word: {a} {b}");
        }
    }

    #[test]
    fn lock_elects_one_winner_under_contention() {
        let lock = Arc::new(CombinerLock::new());
        let mut wins = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    s.spawn(move || lock.try_acquire())
                })
                .collect();
            for h in handles {
                if let Some(lease) = h.join().expect("no panics") {
                    wins.push(lease);
                }
            }
        });
        assert_eq!(wins.len(), 1, "election decides exactly one winner");
        assert!(lock.is_held());
        assert_eq!(lock.holder(), wins[0].id());
        assert!(lock.release(wins.pop().expect("the winner")));
        assert!(!lock.is_held());
    }

    #[test]
    fn abandoned_lease_is_reclaimable_and_a_late_release_frees_the_lock() {
        let lock = CombinerLock::new();
        let dead = lock.try_acquire().expect("free lock");
        let frozen = dead.id();

        // A reclaim of the wrong lease (or of a free lock) fails and
        // leaves the cell untouched.
        assert!(lock.reclaim(frozen + 17).is_none());
        assert_eq!(lock.holder(), frozen);
        assert!(lock.reclaim(0).is_none());

        // Takeover of the frozen lease succeeds; the cell now holds
        // the rescuer's (distinct) lease.
        let rescued = lock.reclaim(frozen).expect("frozen lease");
        assert_ne!(rescued.id(), frozen);
        assert_eq!(lock.holder(), rescued.id());

        // The suspect was merely stalled after all: its late release
        // reports that its lease was replaced and frees the lock. The
        // two tenures overlap from here on, which the max-register
        // cache makes harmless.
        assert!(!lock.release(dead), "the lease was replaced");
        assert!(!lock.is_held(), "a late release frees the lock");
        let next = lock.try_acquire().expect("free again");
        assert!(
            !lock.release(rescued),
            "the rescuer's lease was released early"
        );
        assert!(!lock.is_held());
        assert!(!lock.release(next));
    }

    #[test]
    fn a_losing_swap_cannot_freeze_the_lock_on_a_released_lease() {
        // A and B both read 0 in `try_acquire`. A swaps in and wins; B
        // swaps its own lease in, gets A's back and loses (the raw
        // swap below is B's). A then releases. No arm swaps anything
        // back, so the lock is free, not frozen on A's ended lease.
        let lock = CombinerLock::new();
        let a = lock.try_acquire().expect("free lock");
        let b = lock.fresh_id();
        assert_eq!(lock.cell.swap(b), a.id(), "B's swap loses to A");
        assert!(!lock.release(a), "A's release finds B's word");
        assert!(!lock.is_held(), "the lock is free");
        let next = lock.try_acquire().expect("the next acquire wins");
        assert!(lock.release(next));
    }

    #[test]
    fn reclaim_of_a_released_lease_acquires_the_free_lock() {
        let lock = CombinerLock::new();
        let a = lock.try_acquire().expect("free lock");
        let stale = a.id();
        assert!(lock.release(a));
        // The observation is stale (the holder released between the
        // caller's read and the reclaim): the cell no longer matches,
        // so reclaim fails fast without disturbing anything.
        assert!(lock.reclaim(stale).is_none());
        assert!(!lock.is_held());
    }

    #[test]
    fn contended_reclaim_of_a_dead_lease_elects_exactly_one_rescuer() {
        for _ in 0..200 {
            let lock = Arc::new(CombinerLock::new());
            let dead = lock.try_acquire().expect("free lock");
            let frozen = dead.id();
            drop(dead);
            let mut rescues = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let lock = Arc::clone(&lock);
                        s.spawn(move || lock.reclaim(frozen))
                    })
                    .collect();
                for h in handles {
                    if let Some(lease) = h.join().expect("no panics") {
                        rescues.push(lease);
                    }
                }
            });
            assert_eq!(rescues.len(), 1, "exactly one rescuer");
            let lease = rescues.pop().expect("the rescuer");
            assert_eq!(lock.holder(), lease.id());
            assert!(lock.release(lease));
        }
    }

    #[test]
    fn seq_cache_round_trips_and_reports_unpublished() {
        let cache = SeqCache::new(3);
        let mut out = [0u64; 3];
        assert!(!cache.read_into(&mut out), "nothing published yet");
        assert_eq!(cache.epoch(), 0, "never published");
        cache.publish(&[4, 5, 6]);
        assert_eq!(cache.epoch(), 1);
        assert!(cache.read_into(&mut out));
        assert_eq!(out, [4, 5, 6]);
    }

    #[test]
    fn seq_cache_never_returns_a_torn_view() {
        // Writers keep both words equal; an optimistic read that
        // succeeds must never observe a mixed pair. The reader keeps
        // trying until the writer is done — once it is, the version is
        // even and stable, so the final attempt must hit (a fixed
        // attempt budget was flaky on one CPU, where the reader could
        // exhaust it before the writer was ever scheduled).
        let cache = Arc::new(SeqCache::new(2));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let w = Arc::clone(&cache);
            let d = Arc::clone(&done);
            s.spawn(move || {
                for v in 1..=2000u64 {
                    w.publish(&[v, v]);
                }
                d.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            let r = Arc::clone(&cache);
            let d = Arc::clone(&done);
            s.spawn(move || {
                let mut out = [0u64; 2];
                let mut hits = 0u64;
                loop {
                    let finished = d.load(std::sync::atomic::Ordering::SeqCst);
                    if r.read_into(&mut out) {
                        assert_eq!(out[0], out[1], "torn view {out:?}");
                        hits += 1;
                    }
                    if finished && hits > 0 {
                        break;
                    }
                    if finished {
                        // Quiescent: the next attempt cannot miss.
                        assert!(r.read_into(&mut out), "quiescent read missed");
                        assert_eq!(out, [2000, 2000]);
                        break;
                    }
                }
            });
        });
    }

    #[test]
    fn every_piece_sits_at_consensus_number_two() {
        assert_eq!(PubSlot::default().consensus_number(), ConsensusNumber::Two);
        assert_eq!(CombinerLock::new().consensus_number(), ConsensusNumber::Two);
        assert_eq!(SeqCache::new(1).consensus_number(), ConsensusNumber::Two);
    }
}
