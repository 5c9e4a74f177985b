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
//! requested number of distinct keys ([`Registry::try_get_or_insert`]
//! refuses the next one with [`RegistryFull`]; `get_or_insert` panics)
//! — a service fronting a bounded tenant universe sizes it up front,
//! exactly like `ShardedFetchInc` fixes its process count.

use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use sl2_bignum::LaneEncoding;
use sl2_combine::{CombiningCounter, CombiningMaxRegister, CombiningSnapshot, PublicationArray};
use sl2_core::algos::fetch_inc::WideFetchInc;
use sl2_core::algos::max_register::SlMaxRegister;
use sl2_core::algos::snapshot::SlSnapshot;
use sl2_core::algos::{MaxRegister, Snapshot};
use sl2_primitives::{block_layout, build_block, Carver, Lines};
use sl2_sharded::{ShardedFetchInc, ShardedMaxRegister, ShardedSnapshot};

use crate::slab::Slab;

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
/// never allocates a max register, and reading one that no write has
/// touched allocates nothing); each goes `null → object` once by CAS,
/// same discipline as the slot table. A key costs what its backend
/// needs: each object sits at its own concrete type in one block of
/// the registry's arena, its per-shard and per-process cache lines
/// trailing ([`build_block`]; the size table is in DESIGN.md §12).
#[derive(Debug)]
pub struct KeyObject {
    backend: Backend,
    home: NonNull<Home>,
    max: Lazy<SlMaxRegister, ShardedMaxRegister, CombiningMaxRegister>,
    counter: Lazy<WideFetchInc, ShardedFetchInc, CombiningCounter>,
    snapshot: Lazy<SlSnapshot, ShardedSnapshot, CombiningSnapshot>,
}

/// What every key of one registry shares.
#[derive(Debug)]
struct Home {
    processes: usize,
    /// Where the keys' object blocks live: insert-only and freed with
    /// the registry, like the entries themselves.
    blocks: Slab,
}

// SAFETY: `home` points at the owning registry's boxed `Home`, which
// outlives every `&KeyObject` (both are only reachable through the
// registry) and is itself `Sync`; the lazy cells are atomics over
// `Sync` objects.
unsafe impl Send for KeyObject {}
// SAFETY: as above.
unsafe impl Sync for KeyObject {}

/// A borrowed view of one of a key's objects, at the concrete type its
/// backend runs it on.
#[derive(Debug)]
pub enum Keyed<'a, G, S, C> {
    /// The single-register §3/§4 form.
    Global(&'a G),
    /// The sharded form: stable-collect exact reads.
    Sharded(&'a S),
    /// The combining front-end: exact reads plus the cached read.
    Combining(&'a C),
}

/// A key's max register — binary lanes on every backend (DESIGN.md
/// §9): any `u64` operand, ≤ 64·n register bits.
pub type KeyedMax<'a> = Keyed<'a, SlMaxRegister, ShardedMaxRegister, CombiningMaxRegister>;

/// A key's counter — binary lanes on every backend: lock-free inline
/// up to `2^⌊127/n⌋ − 1` increments per lane. The `Global` form is the
/// §4.2 ticket dispenser (value = tickets − 1).
pub type KeyedCounter<'a> = Keyed<'a, WideFetchInc, ShardedFetchInc, CombiningCounter>;

/// A key's snapshot (Theorem 2, group-sharded, or with the combining
/// front-end's published-view cached scan).
pub type KeyedSnapshot<'a> = Keyed<'a, SlSnapshot, ShardedSnapshot, CombiningSnapshot>;

/// One lazy cell of a key: null, or the head of an arena block holding
/// a `G`, an `S` or a `C` — the key's backend says which.
#[derive(Debug)]
struct Lazy<G, S, C>(AtomicPtr<u8>, PhantomData<(G, S, C)>);

impl<G, S, C> Lazy<G, S, C> {
    fn new() -> Self {
        Lazy(AtomicPtr::new(ptr::null_mut()), PhantomData)
    }

    /// The object, if a write has materialized it: one `Acquire` load,
    /// no allocation.
    fn get(&self, backend: Backend) -> Option<Keyed<'_, G, S, C>> {
        let p = self.0.load(Ordering::Acquire);
        // SAFETY: a non-null cell heads the block `KeyObject::materialize`
        // published at this backend's type, alive until the key drops.
        (!p.is_null()).then(|| unsafe {
            match backend {
                Backend::Global => Keyed::Global(&*p.cast()),
                Backend::Sharded { .. } => Keyed::Sharded(&*p.cast()),
                Backend::Combining { .. } => Keyed::Combining(&*p.cast()),
            }
        })
    }

    /// Drops the object, if any; its block goes with the arena.
    ///
    /// # Safety
    ///
    /// `backend` must be the owning key's, which must be going away.
    unsafe fn drop_object(&mut self, backend: Backend) {
        let p = *self.0.get_mut();
        if !p.is_null() {
            // SAFETY: as `get`, and `&mut self` rules out borrowers.
            unsafe {
                match backend {
                    Backend::Global => ptr::drop_in_place(p.cast::<G>()),
                    Backend::Sharded { .. } => ptr::drop_in_place(p.cast::<S>()),
                    Backend::Combining { .. } => ptr::drop_in_place(p.cast::<C>()),
                }
            }
        }
    }
}

/// `n` fresh cells in the next lines of `block`.
///
/// # Safety
///
/// As [`Lines::carve`]: the result must go into `block`'s header.
unsafe fn fresh_lines<T: Default>(block: &mut Carver, n: usize) -> Lines<T> {
    // SAFETY: the caller's contract.
    unsafe { Lines::carve(block, n, |_| T::default()) }
}

impl KeyObject {
    fn new(backend: Backend, home: NonNull<Home>) -> Self {
        KeyObject {
            backend,
            home,
            max: Lazy::new(),
            counter: Lazy::new(),
            snapshot: Lazy::new(),
        }
    }

    /// The backend this key's objects run on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn home(&self) -> &Home {
        // SAFETY: the registry's boxed `Home` outlives `self` (see the
        // `Send`/`Sync` impls).
        unsafe { self.home.as_ref() }
    }

    /// Lock-free lazy materialization: CAS-publish an arena block
    /// holding `build`'s object and its `lines` trailing cache lines
    /// unless another thread already did (then drop ours, use theirs —
    /// the loser's block stays in the arena, a race's worth of bytes).
    #[cold]
    fn materialize<T>(
        &self,
        cell: &AtomicPtr<u8>,
        lines: usize,
        build: impl FnOnce(&mut Carver) -> T,
    ) -> &T {
        let at = self.home().blocks.alloc(block_layout::<T>(lines));
        // SAFETY: arena memory of exactly that layout, which outlives
        // this key's objects (`Registry::drop` drops entries first).
        let fresh = unsafe { build_block(at, lines, build) }.as_ptr();
        let null = ptr::null_mut();
        match cell.compare_exchange(null, fresh.cast(), Ordering::AcqRel, Ordering::Acquire) {
            // SAFETY: published; alive until the key drops.
            Ok(_) => unsafe { &*fresh },
            // SAFETY: `fresh` was never shared; the winner built the
            // same `T` (one backend per key) and published it.
            Err(winner) => unsafe {
                ptr::drop_in_place(fresh);
                &*winner.cast()
            },
        }
    }

    /// The key's max register, materializing it on first touch.
    pub fn max(&self) -> KeyedMax<'_> {
        self.max.get(self.backend).unwrap_or_else(|| {
            let (n, binary) = (self.home().processes, LaneEncoding::Binary);
            let cell = &self.max.0;
            // One trailing line per shard register, plus one per process
            // under the combining front-end. SAFETY (the carves, here
            // and in `counter`): the lines go into the header of the
            // block `materialize` is building.
            match self.backend {
                Backend::Global => {
                    Keyed::Global(self.materialize(cell, 0, |_| SlMaxRegister::new_binary(n)))
                }
                Backend::Sharded { shards } => {
                    Keyed::Sharded(self.materialize(cell, shards, |b| {
                        ShardedMaxRegister::over(unsafe { fresh_lines(b, shards) }, n, binary)
                    }))
                }
                Backend::Combining { shards } => {
                    Keyed::Combining(self.materialize(cell, shards + n, |b| unsafe {
                        let inner = ShardedMaxRegister::over(fresh_lines(b, shards), n, binary);
                        CombiningMaxRegister::over(inner, PublicationArray::over(fresh_lines(b, n)))
                    }))
                }
            }
        })
    }

    /// The key's counter, materializing it on first touch.
    pub fn counter(&self) -> KeyedCounter<'_> {
        self.counter.get(self.backend).unwrap_or_else(|| {
            let (n, binary) = (self.home().processes, LaneEncoding::Binary);
            let cell = &self.counter.0;
            match self.backend {
                Backend::Global => {
                    Keyed::Global(self.materialize(cell, 0, |_| WideFetchInc::new_binary(n)))
                }
                Backend::Sharded { shards } => {
                    Keyed::Sharded(self.materialize(cell, shards, |b| {
                        ShardedFetchInc::over(unsafe { fresh_lines(b, shards) }, n, binary)
                    }))
                }
                Backend::Combining { shards } => {
                    Keyed::Combining(self.materialize(cell, shards + n, |b| unsafe {
                        let inner = ShardedFetchInc::over(fresh_lines(b, shards), n, binary);
                        CombiningCounter::over(inner, PublicationArray::over(fresh_lines(b, n)))
                    }))
                }
            }
        })
    }

    /// The key's snapshot, materializing it on first touch. Component
    /// count is the registry's process count (one component per
    /// serving lane, the Theorem-2 shape).
    pub fn snapshot(&self) -> KeyedSnapshot<'_> {
        self.snapshot.get(self.backend).unwrap_or_else(|| {
            let (n, cell) = (self.home().processes, &self.snapshot.0);
            let sharded = |shards: usize| ShardedSnapshot::new(n, n.div_ceil(shards).max(1));
            match self.backend {
                Backend::Global => Keyed::Global(self.materialize(cell, 0, |_| SlSnapshot::new(n))),
                Backend::Sharded { shards } => {
                    Keyed::Sharded(self.materialize(cell, 0, |_| sharded(shards)))
                }
                Backend::Combining { shards } => {
                    Keyed::Combining(
                        self.materialize(cell, 0, |_| CombiningSnapshot::new(sharded(shards))),
                    )
                }
            }
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
    /// A register no write has materialized reads its initial 0 off
    /// the null pointer: the load precedes the publishing CAS, hence
    /// every write's fetch&add (DESIGN.md §12).
    pub fn read_max(&self) -> u64 {
        match self.max.get(self.backend) {
            None => 0,
            Some(KeyedMax::Global(m)) => m.read_max(),
            Some(KeyedMax::Sharded(m)) => m.read_max(),
            Some(KeyedMax::Combining(m)) => m.read_max(),
        }
    }

    /// Cached `read_max(key)`: the 1-load published fold on the
    /// combining backend (k-lagging, DESIGN.md §8); falls back to the
    /// exact read on backends with no cache.
    pub fn read_max_cached(&self) -> u64 {
        match self.max.get(self.backend) {
            None => 0,
            Some(KeyedMax::Global(m)) => m.read_max(),
            Some(KeyedMax::Sharded(m)) => m.read_max(),
            Some(KeyedMax::Combining(m)) => m.read_cached(),
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

    /// Exact `read_count(key)`; 0 off the null pointer as
    /// [`KeyObject::read_max`].
    pub fn read_count(&self) -> u64 {
        match self.counter.get(self.backend) {
            None => 0,
            // WideFetchInc is 1-based (a ticket dispenser); the
            // counter value is tickets handed out so far.
            Some(KeyedCounter::Global(c)) => c.read() - 1,
            Some(KeyedCounter::Sharded(c)) => c.read(),
            Some(KeyedCounter::Combining(c)) => c.read_exact(),
        }
    }

    /// Cached `read_count(key)` (combining backend; exact elsewhere).
    pub fn read_count_cached(&self) -> u64 {
        match self.counter.get(self.backend) {
            None => 0,
            Some(KeyedCounter::Global(c)) => c.read() - 1,
            Some(KeyedCounter::Sharded(c)) => c.read_relaxed(),
            Some(KeyedCounter::Combining(c)) => c.read_cached(),
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

    /// Exact `scan(key)`; all zeros off the null pointer as
    /// [`KeyObject::read_max`].
    pub fn scan(&self) -> Vec<u64> {
        match self.snapshot.get(self.backend) {
            None => vec![0; self.home().processes],
            Some(KeyedSnapshot::Global(s)) => s.scan(),
            Some(KeyedSnapshot::Sharded(s)) => s.scan(),
            Some(KeyedSnapshot::Combining(s)) => s.scan(),
        }
    }
}

impl Drop for KeyObject {
    fn drop(&mut self) {
        // SAFETY: this key's backend, and the key is going away.
        unsafe {
            self.max.drop_object(self.backend);
            self.counter.drop_object(self.backend);
            self.snapshot.drop_object(self.backend);
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
    capacity: usize,
    len: AtomicUsize,
    policy: Box<BackendPolicy<K>>,
    /// Boxed so keys can point at it wherever the registry moves;
    /// `Drop` drops every entry's objects before this (their arena).
    home: Box<Home>,
}

impl<K> std::fmt::Debug for Registry<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("processes", &self.processes())
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

    /// Maximum number of distinct keys: the constructor's `capacity`,
    /// exactly.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Serving-lane (process) count shared by every per-key object.
    pub fn processes(&self) -> usize {
        self.home.processes
    }

    /// Bytes of per-key object blocks taken from the registry's arena
    /// so far, alignment gaps included (entries are boxed separately).
    pub fn block_bytes(&self) -> usize {
        self.home.blocks.claimed()
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
            capacity,
            len: AtomicUsize::new(0),
            policy: Box::new(policy),
            home: Box::new(Home {
                processes,
                blocks: Slab::new(),
            }),
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
    /// trigger. [`Registry::try_get_or_insert`] returns that case.
    pub fn get_or_insert(&self, key: &K) -> &KeyObject {
        self.try_get_or_insert(key)
            .unwrap_or_else(|full| panic!("{full}: size the registry for its key universe"))
    }

    /// As [`Registry::get_or_insert`], refusing a new key once the
    /// table holds `capacity` of them instead of panicking.
    pub fn try_get_or_insert(&self, key: &K) -> Result<&KeyObject, RegistryFull> {
        let mut i = self.hash(key);
        let mut candidate: Option<Box<Entry<K>>> = None;
        let full = RegistryFull {
            capacity: self.capacity,
        };
        // Keys fill at most half the table, so a probe chain ends at
        // this key or at a null slot long before it wraps — unless
        // more racing inserters than the headroom half all passed the
        // `len` check at once; the bound refuses that too.
        for _ in 0..=self.mask {
            let slot = &self.slots[i & self.mask];
            let mut p = slot.load(Ordering::Acquire);
            if p.is_null() {
                if self.len.load(Ordering::Acquire) >= self.capacity {
                    // Dropping `candidate` frees a lost race's entry.
                    return Err(full);
                }
                let fresh = Box::into_raw(candidate.take().unwrap_or_else(|| {
                    Box::new(Entry {
                        key: key.clone(),
                        object: KeyObject::new((self.policy)(key), NonNull::from(&*self.home)),
                    })
                }));
                sl2_chaos::point(probes::INSERT);
                match slot.compare_exchange(
                    ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.len.fetch_add(1, Ordering::AcqRel);
                        sl2_obs::count(probes::INSERT);
                        // SAFETY: published; entries live until `self` drops.
                        return Ok(&unsafe { &*fresh }.object);
                    }
                    Err(winner) => {
                        // Someone landed in this slot first; inspect it
                        // like any occupied slot (it may be our key).
                        sl2_obs::count(probes::INSERT_LOST);
                        // SAFETY: the CAS failed, so `fresh` is still ours.
                        candidate = Some(unsafe { Box::from_raw(fresh) });
                        p = winner;
                    }
                }
            }
            // SAFETY: non-null slots hold published, never-freed entries.
            let entry = unsafe { &*p };
            if entry.key == *key {
                return Ok(&entry.object);
            }
            i = i.wrapping_add(1);
        }
        Err(full)
    }
}

/// [`Registry::try_get_or_insert`] met a new key with the table
/// already holding its `capacity` distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryFull {
    /// The capacity the registry was constructed with.
    pub capacity: usize,
}

impl std::fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "registry capacity exhausted ({} keys)", self.capacity)
    }
}

impl std::error::Error for RegistryFull {}

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
    fn reads_of_untouched_objects_see_initial_values_without_materializing() {
        for backend in [
            Backend::Global,
            Backend::Sharded { shards: 2 },
            Backend::Combining { shards: 2 },
        ] {
            let r: Registry<u64> = Registry::new(4, 3, backend);
            let obj = r.get_or_insert(&1);
            assert_eq!(r.len(), 1, "key-level insertion is unchanged");
            assert_eq!(
                (obj.read_max(), obj.read_max_cached(), obj.read_count()),
                (0, 0, 0)
            );
            assert_eq!(obj.read_count_cached(), 0);
            assert_eq!(obj.scan(), vec![0; 3]);
            let cells = [&obj.max.0, &obj.counter.0, &obj.snapshot.0];
            assert!(cells.iter().all(|c| c.load(Ordering::Acquire).is_null()));
            // A write still materializes, and only its own object.
            obj.inc(2);
            assert_eq!((obj.read_count(), obj.read_max()), (1, 0), "{backend:?}");
            assert!(obj.max.get(backend).is_none(), "{backend:?}");
        }
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
                KeyedMax::Combining(m) => m.inner().register_bits(),
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
    #[should_panic(expected = "registry capacity exhausted (4 keys)")]
    fn capacity_is_a_contract() {
        let r: Registry<u64> = Registry::new(4, 1, Backend::Global);
        for k in 0..64u64 {
            r.get_or_insert(&k);
        }
    }

    #[test]
    fn capacity_is_the_requested_number_not_the_table_half() {
        let r: Registry<u64> = Registry::new(3, 1, Backend::Global);
        assert_eq!(r.capacity(), 3);
        for k in 0..3u64 {
            r.try_get_or_insert(&k).expect("within capacity");
        }
        let full = r.try_get_or_insert(&3).expect_err("the 4th key is refused");
        assert_eq!(full, RegistryFull { capacity: 3 });
        assert_eq!(full.to_string(), "registry capacity exhausted (3 keys)");
        let _: &dyn std::error::Error = &full;
        assert_eq!(r.len(), 3);
        r.try_get_or_insert(&2)
            .expect("resident keys still resolve");
        assert!(r.get(&3).is_none());
    }
}
