//! The keyed object registry: many §3/§4 objects behind one handle.
//!
//! A [`Registry`] is a fixed-capacity, lock-free, insert-only hash
//! table from keys to [`KeyObject`]s. "Millions of users" means
//! millions of *keys*: each key lazily materializes its own
//! strongly-linearizable objects (max register, counter, snapshot) the
//! first time an operation touches it, on the backend the registry's
//! [`BackendPolicy`] picks for that key.
//!
//! Concurrency discipline (and why it is simple):
//!
//! * **Slots are insert-only.** A slot goes `null → Entry` exactly
//!   once, by a single successful compare-exchange, and is never
//!   unlinked. There is no deletion, so there is no ABA problem and no
//!   reclamation protocol: entries are freed when the registry drops.
//! * **Losers defer.** Two threads racing to materialize the same key
//!   allocate two candidate entries; the CAS loser frees its candidate
//!   and adopts the winner's — both return the same `&KeyObject`, so
//!   per-key strong linearizability is inherited from the per-key
//!   object (locality: strong linearizability is closed under disjoint
//!   composition).
//! * **The steady-state hot path allocates nothing.** Looking up an
//!   existing key is a hash, a probe sequence of `Acquire` loads, and
//!   a key compare — `tests/alloc_counter.rs` pins routing + dispatch
//!   of a resident key at zero allocations.
//!
//! Capacity is a constructor contract: the table holds at most the
//! requested number of distinct keys (the probe sequence panics once
//! the table is full) — a service fronting a bounded tenant universe
//! sizes it up front, exactly like `ShardedFetchInc` fixes its process
//! count.

use std::hash::{Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use sl2_combine::{CombiningCounter, CombiningMaxRegister, CombiningSnapshot};
use sl2_core::algos::fetch_inc::WideFetchInc;
use sl2_core::algos::max_register::SlMaxRegister;
use sl2_core::algos::snapshot::SlSnapshot;
use sl2_core::algos::{MaxRegister, Snapshot};
use sl2_sharded::{ShardedFetchInc, ShardedMaxRegister, ShardedSnapshot};

/// Probe labels of the registry layer (see DESIGN.md §12). Static so
/// the disarmed stubs stay zero-cost and the armed registry interns
/// one row per label.
pub(crate) mod probes {
    /// A key was materialized (entry published by CAS).
    pub const INSERT: &str = "service.registry.insert";
    /// A materialization race was lost (candidate freed, winner adopted).
    pub const INSERT_LOST: &str = "service.registry.insert_lost";
}

/// Which backend a key's objects run on.
///
/// The registry composes the repo's three production tiers per key:
/// the global §3 forms, the PR-3 sharded layer, and the PR-5 combining
/// front-end (whose cached reads are the k-lagging face the checker
/// adjudicates in DESIGN.md §8 — and again at the service layer in
/// §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The single-register §3/§4 forms (`SlMaxRegister`,
    /// `WideFetchInc`, `SlSnapshot`).
    Global,
    /// The value/process-striped sharded layer with stable-collect
    /// exact reads.
    Sharded {
        /// Stripe count per object.
        shards: usize,
    },
    /// The flat-combining front-end over the sharded layer: exact
    /// writes, plus the 1-load cached read path.
    Combining {
        /// Stripe count of the wrapped sharded object.
        shards: usize,
    },
}

/// Per-key backend selection: a pure function of the key.
pub type BackendPolicy<K> = dyn Fn(&K) -> Backend + Send + Sync;

/// A key's lazily-materialized objects, all on the same backend.
///
/// Sub-objects materialize independently (a key used only as a counter
/// never allocates a max register); each goes `null → object` once by
/// CAS, same discipline as the slot table.
#[derive(Debug)]
pub struct KeyObject {
    backend: Backend,
    processes: usize,
    max: AtomicPtr<KeyedMax>,
    counter: AtomicPtr<KeyedCounter>,
    snapshot: AtomicPtr<KeyedSnapshot>,
}

/// A per-key max register on one of the three backends, binary lanes
/// on all of them (DESIGN.md §9): any `u64` operand, ≤ 64·n register
/// bits.
// One boxed allocation per key per object kind lives behind an
// AtomicPtr for its whole lifetime, so sizing every box to the
// largest (combining) variant is the cheap, simple choice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum KeyedMax {
    /// Theorem-1 register.
    Global(SlMaxRegister),
    /// Value-sharded, stable-collect read.
    Sharded(ShardedMaxRegister),
    /// Combining front-end: exact stable read plus cached read.
    Combining(CombiningMaxRegister),
}

/// A per-key counter on one of the three backends, binary lanes on all
/// of them: lock-free inline up to `2^⌊127/n⌋ − 1` increments per lane.
// One boxed allocation per key per object kind lives behind an
// AtomicPtr for its whole lifetime, so sizing every box to the
// largest (combining) variant is the cheap, simple choice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum KeyedCounter {
    /// §4.2 wait-free readable fetch&increment (value = tickets − 1).
    Global(WideFetchInc),
    /// Process-striped shards, stable-collect exact read.
    Sharded(ShardedFetchInc),
    /// Combining front-end: exact read plus cached read.
    Combining(CombiningCounter),
}

/// A per-key snapshot on one of the three backends.
// One boxed allocation per key per object kind lives behind an
// AtomicPtr for its whole lifetime, so sizing every box to the
// largest (combining) variant is the cheap, simple choice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum KeyedSnapshot {
    /// Theorem-2 snapshot.
    Global(SlSnapshot),
    /// Group-sharded snapshot, stable whole scans.
    Sharded(ShardedSnapshot),
    /// Combining front-end with the published-view cached scan.
    Combining(CombiningSnapshot),
}

impl KeyObject {
    fn new(backend: Backend, processes: usize) -> Self {
        KeyObject {
            backend,
            processes,
            max: AtomicPtr::new(ptr::null_mut()),
            counter: AtomicPtr::new(ptr::null_mut()),
            snapshot: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// The backend this key's objects run on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Lock-free lazy materialization: CAS-publish `make()`'s result
    /// unless another thread already did (then free ours, use theirs).
    fn lazy<T>(slot: &AtomicPtr<T>, make: impl FnOnce() -> T) -> &T {
        let p = slot.load(Ordering::Acquire);
        if !p.is_null() {
            // Steady state: one Acquire load, no allocation.
            return unsafe { &*p };
        }
        let fresh = Box::into_raw(Box::new(make()));
        match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // Lost the materialization race: adopt the winner.
                drop(unsafe { Box::from_raw(fresh) });
                unsafe { &*winner }
            }
        }
    }

    /// The key's max register, materializing it on first touch.
    pub fn max(&self) -> &KeyedMax {
        Self::lazy(&self.max, || match self.backend {
            Backend::Global => KeyedMax::Global(SlMaxRegister::new_binary(self.processes)),
            Backend::Sharded { shards } => {
                KeyedMax::Sharded(ShardedMaxRegister::new_binary(self.processes, shards))
            }
            Backend::Combining { shards } => KeyedMax::Combining(CombiningMaxRegister::new(
                ShardedMaxRegister::new_binary(self.processes, shards),
            )),
        })
    }

    /// The key's counter, materializing it on first touch.
    pub fn counter(&self) -> &KeyedCounter {
        Self::lazy(&self.counter, || match self.backend {
            Backend::Global => KeyedCounter::Global(WideFetchInc::new_binary(self.processes)),
            Backend::Sharded { shards } => {
                KeyedCounter::Sharded(ShardedFetchInc::new_binary(self.processes, shards))
            }
            Backend::Combining { shards } => KeyedCounter::Combining(CombiningCounter::new(
                ShardedFetchInc::new_binary(self.processes, shards),
            )),
        })
    }

    /// The key's snapshot, materializing it on first touch. Component
    /// count is the registry's process count (one component per
    /// serving lane, the Theorem-2 shape).
    pub fn snapshot(&self) -> &KeyedSnapshot {
        Self::lazy(&self.snapshot, || match self.backend {
            Backend::Global => KeyedSnapshot::Global(SlSnapshot::new(self.processes)),
            Backend::Sharded { shards } => KeyedSnapshot::Sharded(ShardedSnapshot::new(
                self.processes,
                self.processes.div_ceil(shards).max(1),
            )),
            Backend::Combining { shards } => KeyedSnapshot::Combining(CombiningSnapshot::new(
                ShardedSnapshot::new(self.processes, self.processes.div_ceil(shards).max(1)),
            )),
        })
    }

    /// `write_max(key, v)` on behalf of `process`.
    pub fn write_max(&self, process: usize, v: u64) {
        match self.max() {
            KeyedMax::Global(m) => m.write_max(process, v),
            KeyedMax::Sharded(m) => m.write_max(process, v),
            KeyedMax::Combining(m) => m.write_max(process, v),
        }
    }

    /// Exact `read_max(key)` (stable collect on the layered backends).
    pub fn read_max(&self) -> u64 {
        match self.max() {
            KeyedMax::Global(m) => m.read_max(),
            KeyedMax::Sharded(m) => m.read_max(),
            KeyedMax::Combining(m) => m.read_max(),
        }
    }

    /// Cached `read_max(key)`: the 1-load published fold on the
    /// combining backend (k-lagging, DESIGN.md §8); falls back to the
    /// exact read on backends with no cache.
    pub fn read_max_cached(&self) -> u64 {
        match self.max() {
            KeyedMax::Global(m) => m.read_max(),
            KeyedMax::Sharded(m) => m.read_max(),
            KeyedMax::Combining(m) => m.read_cached(),
        }
    }

    /// `inc(key)` on behalf of `process`.
    pub fn inc(&self, process: usize) {
        match self.counter() {
            KeyedCounter::Global(c) => {
                c.fetch_inc(process);
            }
            KeyedCounter::Sharded(c) => {
                c.inc(process);
            }
            KeyedCounter::Combining(c) => c.inc(process),
        }
    }

    /// Exact `read_count(key)`.
    pub fn read_count(&self) -> u64 {
        match self.counter() {
            // WideFetchInc is 1-based (a ticket dispenser); the
            // counter value is tickets handed out so far.
            KeyedCounter::Global(c) => c.read() - 1,
            KeyedCounter::Sharded(c) => c.read(),
            KeyedCounter::Combining(c) => c.read_exact(),
        }
    }

    /// Cached `read_count(key)` (combining backend; exact elsewhere).
    pub fn read_count_cached(&self) -> u64 {
        match self.counter() {
            KeyedCounter::Global(c) => c.read() - 1,
            KeyedCounter::Sharded(c) => c.read_relaxed(),
            KeyedCounter::Combining(c) => c.read_cached(),
        }
    }

    /// `update(key, component, v)` on the key's snapshot.
    pub fn update(&self, component: usize, v: u64) {
        match self.snapshot() {
            KeyedSnapshot::Global(s) => s.update(component, v),
            KeyedSnapshot::Sharded(s) => s.update(component, v),
            KeyedSnapshot::Combining(s) => s.update(component, v),
        }
    }

    /// Exact `scan(key)`.
    pub fn scan(&self) -> Vec<u64> {
        match self.snapshot() {
            KeyedSnapshot::Global(s) => s.scan(),
            KeyedSnapshot::Sharded(s) => s.scan(),
            KeyedSnapshot::Combining(s) => s.scan(),
        }
    }
}

impl Drop for KeyObject {
    fn drop(&mut self) {
        let m = self.max.load(Ordering::Acquire);
        if !m.is_null() {
            drop(unsafe { Box::from_raw(m) });
        }
        let c = self.counter.load(Ordering::Acquire);
        if !c.is_null() {
            drop(unsafe { Box::from_raw(c) });
        }
        let s = self.snapshot.load(Ordering::Acquire);
        if !s.is_null() {
            drop(unsafe { Box::from_raw(s) });
        }
    }
}

struct Entry<K> {
    key: K,
    object: KeyObject,
}

/// Lock-free keyed namespace of strongly-linearizable objects.
///
/// See the module docs for the concurrency discipline. `K` is any
/// hashable key type; the service tier uses `u64` tenant ids.
pub struct Registry<K> {
    slots: Box<[AtomicPtr<Entry<K>>]>,
    mask: usize,
    len: AtomicUsize,
    processes: usize,
    policy: Box<BackendPolicy<K>>,
}

impl<K> std::fmt::Debug for Registry<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("processes", &self.processes)
            .finish_non_exhaustive()
    }
}

impl<K> Registry<K> {
    /// Number of distinct keys materialized so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no key has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of distinct keys (the constructor contract).
    pub fn capacity(&self) -> usize {
        self.mask.div_ceil(2)
    }

    /// Serving-lane (process) count shared by every per-key object.
    pub fn processes(&self) -> usize {
        self.processes
    }
}

impl<K: Hash + Eq + Clone> Registry<K> {
    /// Creates a registry holding up to `capacity` distinct keys,
    /// shared by `processes` serving lanes, every key on `backend`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `processes == 0`.
    pub fn new(capacity: usize, processes: usize, backend: Backend) -> Self {
        Self::with_policy(capacity, processes, move |_| backend)
    }

    /// As [`Registry::new`] with a per-key backend policy — e.g. hot
    /// tenants on `Combining`, the long tail on `Global`.
    pub fn with_policy(
        capacity: usize,
        processes: usize,
        policy: impl Fn(&K) -> Backend + Send + Sync + 'static,
    ) -> Self {
        assert!(capacity > 0, "registry capacity must be positive");
        assert!(processes > 0, "registry needs at least one serving lane");
        // 2× headroom keeps linear-probe chains short at full load.
        let table = (capacity * 2).next_power_of_two();
        Registry {
            slots: (0..table)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            mask: table - 1,
            len: AtomicUsize::new(0),
            processes,
            policy: Box::new(policy),
        }
    }

    fn hash(&self, key: &K) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish() as usize
    }

    /// The key's objects, if the key has been materialized. Read-only:
    /// never allocates, never inserts — readers of untouched keys see
    /// the objects' initial values without materializing them.
    pub fn get(&self, key: &K) -> Option<&KeyObject> {
        let mut i = self.hash(key);
        for _ in 0..=self.mask {
            let slot = &self.slots[i & self.mask];
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                return None;
            }
            let entry = unsafe { &*p };
            if entry.key == *key {
                return Some(&entry.object);
            }
            i = i.wrapping_add(1);
        }
        None
    }

    /// The key's objects, materializing the key on first touch
    /// (lock-free: a CAS race frees the loser's candidate and both
    /// callers adopt the winner's entry).
    ///
    /// # Panics
    ///
    /// Panics when the table already holds `capacity` keys and `key`
    /// is new — capacity is a constructor contract, not a resize
    /// trigger.
    pub fn get_or_insert(&self, key: &K) -> &KeyObject {
        let mut i = self.hash(key);
        let mut candidate: *mut Entry<K> = ptr::null_mut();
        let mut probes = 0usize;
        loop {
            assert!(
                probes <= self.mask,
                "registry capacity exhausted ({} keys): size the registry for its key universe",
                self.capacity()
            );
            let slot = &self.slots[i & self.mask];
            let mut p = slot.load(Ordering::Acquire);
            if p.is_null() {
                if self.len.load(Ordering::Acquire) >= self.capacity() {
                    // Over the contract even though a slot is free —
                    // keep probe chains bounded by refusing to fill
                    // the headroom half of the table.
                    if !candidate.is_null() {
                        drop(unsafe { Box::from_raw(candidate) });
                    }
                    panic!(
                        "registry capacity exhausted ({} keys): size the registry for its key universe",
                        self.capacity()
                    );
                }
                if candidate.is_null() {
                    let backend = (self.policy)(key);
                    candidate = Box::into_raw(Box::new(Entry {
                        key: key.clone(),
                        object: KeyObject::new(backend, self.processes),
                    }));
                }
                sl2_chaos::point(probes::INSERT);
                match slot.compare_exchange(
                    ptr::null_mut(),
                    candidate,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.len.fetch_add(1, Ordering::AcqRel);
                        sl2_obs::count(probes::INSERT);
                        return &unsafe { &*candidate }.object;
                    }
                    Err(winner) => {
                        // Someone landed in this slot first; inspect it
                        // like any occupied slot (it may be our key).
                        sl2_obs::count(probes::INSERT_LOST);
                        p = winner;
                    }
                }
            }
            let entry = unsafe { &*p };
            if entry.key == *key {
                if !candidate.is_null() {
                    drop(unsafe { Box::from_raw(candidate) });
                }
                return &entry.object;
            }
            i = i.wrapping_add(1);
            probes += 1;
        }
    }
}

impl<K> Drop for Registry<K> {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

// The registry is shared across worker threads by reference; entries
// are immutable after publication and all interior mutability is in
// the per-key objects, which are themselves Sync.
unsafe impl<K: Send + Sync> Send for Registry<K> {}
unsafe impl<K: Send + Sync> Sync for Registry<K> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lazy_materialization_counts_keys_once() {
        let r: Registry<u64> = Registry::new(64, 2, Backend::Global);
        assert_eq!(r.len(), 0);
        r.get_or_insert(&7).write_max(0, 5);
        r.get_or_insert(&7).write_max(1, 3);
        r.get_or_insert(&9).inc(0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get_or_insert(&7).read_max(), 5);
        assert_eq!(r.get_or_insert(&9).read_count(), 1);
        assert!(r.get(&11).is_none(), "reads must not materialize");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn keys_are_disjoint_objects() {
        let r: Registry<u64> = Registry::new(64, 2, Backend::Sharded { shards: 2 });
        r.get_or_insert(&1).write_max(0, 100);
        r.get_or_insert(&2).write_max(1, 7);
        assert_eq!(r.get_or_insert(&1).read_max(), 100);
        assert_eq!(r.get_or_insert(&2).read_max(), 7);
        r.get_or_insert(&1).inc(0);
        assert_eq!(r.get_or_insert(&1).read_count(), 1);
        assert_eq!(r.get_or_insert(&2).read_count(), 0);
    }

    #[test]
    fn large_operands_round_trip_on_every_backend() {
        // Regression: on unary lanes `write_max(_, 1 << 40)` asked a
        // `Global` key for a 2^40-bit register image and aborted the
        // worker on allocation.
        let n = 2;
        for backend in [
            Backend::Global,
            Backend::Sharded { shards: 2 },
            Backend::Combining { shards: 2 },
        ] {
            let r: Registry<u64> = Registry::new(4, n, backend);
            let obj = r.get_or_insert(&1);
            for v in [1u64 << 40, u64::MAX >> 1] {
                obj.write_max(1, v);
                assert_eq!(obj.read_max(), v, "{backend:?}");
            }
            obj.write_max(0, 9);
            assert_eq!(obj.read_max(), u64::MAX >> 1, "{backend:?}");
            let bits = match obj.max() {
                KeyedMax::Global(m) => m.register_bits(),
                KeyedMax::Sharded(m) => m.register_bits(),
                KeyedMax::Combining(m) => m.front().inner().register_bits(),
            };
            let registers = if backend == Backend::Global { 1 } else { 2 };
            assert!(bits <= 64 * n * registers, "{backend:?}: {bits} bits");
        }
    }

    #[test]
    fn policy_selects_backends_per_key() {
        let r: Registry<u64> = Registry::with_policy(64, 2, |k| {
            if *k < 10 {
                Backend::Combining { shards: 2 }
            } else {
                Backend::Global
            }
        });
        assert_eq!(
            r.get_or_insert(&3).backend(),
            Backend::Combining { shards: 2 }
        );
        assert_eq!(r.get_or_insert(&30).backend(), Backend::Global);
    }

    #[test]
    fn snapshot_objects_work_per_key() {
        let r: Registry<u64> = Registry::new(16, 3, Backend::Global);
        r.get_or_insert(&5).update(1, 9);
        assert_eq!(r.get_or_insert(&5).scan(), vec![0, 9, 0]);
        assert_eq!(r.get_or_insert(&6).scan(), vec![0, 0, 0]);
    }

    #[test]
    fn concurrent_materialization_of_one_key_is_safe() {
        let r: Arc<Registry<u64>> = Arc::new(Registry::new(256, 8, Backend::Global));
        std::thread::scope(|s| {
            for p in 0..8 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for k in 0..64u64 {
                        r.get_or_insert(&k).inc(p);
                    }
                });
            }
        });
        assert_eq!(r.len(), 64);
        for k in 0..64u64 {
            assert_eq!(r.get_or_insert(&k).read_count(), 8, "key {k}");
        }
    }

    #[test]
    #[should_panic(expected = "registry capacity exhausted")]
    fn capacity_is_a_contract() {
        let r: Registry<u64> = Registry::new(4, 1, Backend::Global);
        for k in 0..64u64 {
            r.get_or_insert(&k);
        }
    }
}
