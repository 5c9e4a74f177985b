//! [`SimMemory`]: simulated shared memory of typed base-object cells.
//!
//! This is the executable form of the paper's system model (Section 2):
//! a configuration contains the states of all shared base objects; a
//! step applies one atomic operation to one base object. Every cell
//! operation below is one such step.
//!
//! Cell kinds mirror the base objects the paper uses. Primitive cells
//! (`Reg`, `Faa`, `Wide`, `Tas`, `Swap`, `Cas`) correspond to hardware
//! primitives; *atomic composite* cells (`AMaxReg`, `ASnap`, `ARTas`,
//! `ARFai`) let constructions that the paper builds **on top of other
//! implemented objects** (Theorem 6 on readable test&set + max register,
//! Theorem 10 on readable fetch&inc, ...) be checked modularly, exactly
//! as the paper's proofs do via composability of strong linearizability
//! [9, Theorem 10].
//!
//! Every cell supports `read` — the paper's Section 5 works with
//! *readable* base objects, and Lemma 16 shows readability never
//! invalidates strong linearizability. [`SimMemory`] is `Clone + Hash`:
//! cloning gives Algorithm B (Lemma 12) its collect-and-simulate-locally
//! step, and hashing powers checker memoization.
//!
//! # Copy-on-write
//!
//! `Clone`, `Eq` and `Hash` have value semantics, but the representation
//! is shared. The standalone cells sit in one block (`Rc<[Cell]>`); each
//! infinite array's materialized cells sit in a block of their own,
//! behind one small shared table of arrays. A clone shares every block.
//! A step that changes a cell first unshares the one block holding it
//! (for an array cell, also the table); a step that leaves its cell as
//! it was — a read, a failed CAS, a fetch&add of zero, a test&set of a
//! set bit — copies nothing. Materializing an array index is a change
//! (it grows that array's block and `flat_len`), even on a read. So the
//! checker's clone per search step costs reference counts plus one copy
//! of the block the step wrote, and Algorithm B's snapshot costs nothing
//! until one side writes. Cells allocated between steps wait in a
//! growable buffer and join the shared block at the next step, so
//! building an algorithm's memory copies each cell once.
//!
//! # Footprints
//!
//! Beside its value a memory keeps the *footprint* of the operations
//! since the checker last took it: none; one cell, and whether they
//! changed it; or unknown — more than one operation, an allocation, a
//! read by flat index, or a question about the layout or the step
//! count. The checker's memo-off search reads it after each step to
//! tell which steps commute (DESIGN.md §7 "Commuting steps, explored
//! once"). It is not part of the value: `Eq` and `Hash` ignore it, and
//! a clone carries it unchanged.

use std::hash::{Hash, Hasher};
use std::iter;
use std::rc::Rc;

use sl2_bignum::BigNat;

/// Machine word stored in primitive cells.
pub type Word = u64;

/// One shared base object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cell {
    /// Read/write register (consensus number 1).
    Reg(Word),
    /// Fetch&add register (consensus number 2).
    Faa(Word),
    /// Wide (unbounded) fetch&add register (consensus number 2).
    Wide(BigNat),
    /// One-shot test&set bit (consensus number 2).
    Tas(bool),
    /// Swap register (consensus number 2).
    Swap(Word),
    /// Compare&swap register (consensus number ∞).
    Cas(Word),
    /// Atomic max register (composite base object).
    AMaxReg(Word),
    /// Atomic single-writer snapshot (composite base object).
    ASnap(Vec<Word>),
    /// Atomic readable test&set (composite base object).
    ARTas(bool),
    /// Atomic readable fetch&increment, initial value 1 (composite).
    ARFai(Word),
    /// Atomic queue with a last-dequeued marker (composite base
    /// object; the marker supports the multiplicity relaxation's
    /// duplicate-outcome in checker positive controls).
    AQueue {
        /// Queued items, front first.
        items: std::collections::VecDeque<Word>,
        /// Item returned by the immediately preceding dequeue.
        last: Option<Word>,
    },
}

impl Cell {
    /// A coarse numeric view of the cell used by `read` (collects in
    /// Algorithm B read base objects one by one; for `ASnap` use
    /// [`SimMemory::snap_scan`]).
    fn as_word(&self) -> Word {
        match self {
            Cell::Reg(v) | Cell::Faa(v) | Cell::Swap(v) | Cell::Cas(v) => *v,
            Cell::Wide(b) => b.to_u64().unwrap_or(u64::MAX),
            Cell::Tas(b) | Cell::ARTas(b) => *b as Word,
            Cell::AMaxReg(v) | Cell::ARFai(v) => *v,
            Cell::ASnap(_) => panic!("read a snapshot cell with snap_scan"),
            Cell::AQueue { .. } => panic!("read a queue cell with queue_deq/queue_enq"),
        }
    }
}

/// Handle to a standalone cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc(pub(crate) usize);

/// Handle to a growable ("infinite") array of cells of one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayLoc(pub(crate) usize);

/// What a step did to shared memory: [`Footprint::FREE`] when it made no
/// operation, one cell and whether the step changed it (materializing
/// an array index counts as a change), or [`Footprint::UNKNOWN`] when
/// the step made more than one operation, allocated, read by flat
/// index or asked about the layout or the step count.
///
/// The bits are `key << 1 | changed`: a standalone cell's key is its
/// index plus one, below [`ARRAY_KEYS`]; an array cell's is
/// `ARRAY_KEYS | array << 20 | index`. A cell past that encoding is
/// `UNKNOWN`, which is never wrong, only coarse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint(u32);

/// The first array-cell key of a [`Footprint`].
const ARRAY_KEYS: u64 = 1 << 30;

impl Footprint {
    /// No memory operation.
    pub(crate) const FREE: Footprint = Footprint(0);
    /// Conflicts with every step but a free one.
    pub(crate) const UNKNOWN: Footprint = Footprint(u32::MAX);

    fn cell(key: u64, changed: bool) -> Self {
        match u32::try_from(key << 1 | u64::from(changed)) {
            Ok(bits) if bits != u32::MAX => Footprint(bits),
            _ => Footprint::UNKNOWN,
        }
    }

    fn standalone(loc: Loc, changed: bool) -> Self {
        let key = loc.0 as u64 + 1;
        if key < ARRAY_KEYS {
            Footprint::cell(key, changed)
        } else {
            Footprint::UNKNOWN
        }
    }

    fn array(a: ArrayLoc, i: usize, changed: bool) -> Self {
        if a.0 < 1 << 10 && i < 1 << 20 {
            Footprint::cell(ARRAY_KEYS | (a.0 as u64) << 20 | i as u64, changed)
        } else {
            Footprint::UNKNOWN
        }
    }

    /// This footprint followed by `next` in the same step.
    fn then(self, next: Footprint) -> Self {
        if self == Footprint::FREE {
            next
        } else {
            Footprint::UNKNOWN
        }
    }

    /// Whether steps of two processes with these footprints commute:
    /// either order reaches the same memory, and each step reads what
    /// it would have read first. True if one is free, or if both are
    /// known and touch different cells or change neither.
    pub(crate) fn independent(self, other: Footprint) -> bool {
        let known = self != Footprint::UNKNOWN && other != Footprint::UNKNOWN;
        self == Footprint::FREE
            || other == Footprint::FREE
            || known && (self.0 >> 1 != other.0 >> 1 || (self.0 | other.0) & 1 == 0)
    }
}

/// Whether two shared blocks hold equal cells; clones share blocks, so
/// the pointer answers first.
fn same<T: ?Sized + PartialEq>(a: &Rc<T>, b: &Rc<T>) -> bool {
    Rc::ptr_eq(a, b) || a == b
}

/// One infinite array: its template and its materialized prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ArrayCells {
    template: Cell,
    cells: Rc<[Cell]>,
}

/// Simulated shared memory: the base-object part of a configuration.
///
/// # Examples
///
/// ```
/// use sl2_exec::mem::{Cell, SimMemory};
///
/// let mut mem = SimMemory::new();
/// let ts = mem.alloc(Cell::Tas(false));
/// assert_eq!(mem.tas(ts), 0); // first caller wins
/// assert_eq!(mem.tas(ts), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimMemory {
    /// Standalone cells, one block shared by every clone until one of
    /// them writes.
    cells: Rc<[Cell]>,
    /// Standalone cells allocated since the last step, logically after
    /// `cells`; the next step appends them to the block.
    fresh: Vec<Cell>,
    /// Infinite arrays, in allocation order.
    arrays: Rc<[ArrayCells]>,
    steps: u64,
    /// What the operations since the last [`SimMemory::take_footprint`]
    /// touched; not part of the value.
    footprint: std::cell::Cell<Footprint>,
}

impl PartialEq for SimMemory {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
            && same(&self.arrays, &other.arrays)
            && if self.fresh.is_empty() && other.fresh.is_empty() {
                same(&self.cells, &other.cells)
            } else {
                self.standalone().eq(other.standalone())
            }
    }
}

impl Eq for SimMemory {}

impl Hash for SimMemory {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // One sequence, wherever its cells sit, as `Eq` compares it.
        h.write_usize(self.len());
        self.standalone().for_each(|c| c.hash(h));
        self.arrays.hash(h);
        self.steps.hash(h);
    }
}

impl SimMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        SimMemory::default()
    }

    /// Allocates a standalone cell.
    pub fn alloc(&mut self, cell: Cell) -> Loc {
        self.poison();
        self.fresh.push(cell);
        Loc(self.len() - 1)
    }

    /// Allocates an infinite array whose cells materialize (as copies of
    /// `template`) on first access. Observationally identical to the
    /// paper's infinite arrays: untouched cells hold the initial value.
    pub fn alloc_array(&mut self, template: Cell) -> ArrayLoc {
        self.poison();
        let array = ArrayCells {
            template,
            cells: Rc::new([]),
        };
        self.arrays = self.arrays.iter().cloned().chain([array]).collect();
        ArrayLoc(self.arrays.len() - 1)
    }

    /// Total base-object operations performed (the paper's step count).
    pub fn steps(&self) -> u64 {
        self.poison();
        self.steps
    }

    /// Moves the cells allocated since the last step into the shared
    /// block: one copy per batch of allocations, not one per cell.
    pub(crate) fn freeze(&mut self) {
        if !self.fresh.is_empty() {
            self.cells = self
                .cells
                .iter()
                .cloned()
                .chain(self.fresh.drain(..))
                .collect();
        }
    }

    /// The footprint of the operations since the last call; starts the
    /// next one afresh.
    pub(crate) fn take_footprint(&self) -> Footprint {
        self.footprint.replace(Footprint::FREE)
    }

    /// Records one more operation's footprint.
    fn touch(&self, fp: Footprint) {
        self.footprint.set(self.footprint.get().then(fp));
    }

    /// Marks the operations since the last take as commuting with
    /// nothing: what they saw depends on more than one cell.
    fn poison(&self) {
        self.footprint.set(Footprint::UNKNOWN);
    }

    /// Counts one base-object operation.
    fn tick(&mut self) {
        self.steps += 1;
        self.freeze();
    }

    /// Number of standalone cells, without poisoning the footprint.
    fn len(&self) -> usize {
        self.cells.len() + self.fresh.len()
    }

    /// Every standalone cell, in allocation order.
    fn standalone(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().chain(&self.fresh)
    }

    /// One step that reads standalone cell `loc`.
    fn look(&mut self, loc: Loc) -> &Cell {
        self.tick();
        self.touch(Footprint::standalone(loc, false));
        &self.cells[loc.0]
    }

    /// One step on standalone cell `loc`. On a shared block `op` runs on
    /// a copy of the cell, and the block is unshared and written only if
    /// the copy changed. On a block it owns alone it writes in place,
    /// and the footprint says changed.
    fn apply<R>(&mut self, loc: Loc, op: impl FnOnce(&mut Cell) -> R) -> R {
        self.tick();
        if let Some(cells) = Rc::get_mut(&mut self.cells) {
            let out = op(&mut cells[loc.0]);
            self.touch(Footprint::standalone(loc, true));
            return out;
        }
        let mut cell = self.cells[loc.0].clone();
        let out = op(&mut cell);
        let changed = cell != self.cells[loc.0];
        if changed {
            Rc::make_mut(&mut self.cells)[loc.0] = cell;
        }
        self.touch(Footprint::standalone(loc, changed));
        out
    }

    /// Materializes array `a` up to index `i`; whether it grew.
    fn materialize(&mut self, a: ArrayLoc, i: usize) -> bool {
        let grow = self.arrays[a.0].cells.len() <= i;
        if grow {
            let arr = &mut Rc::make_mut(&mut self.arrays)[a.0];
            let missing = i + 1 - arr.cells.len();
            arr.cells = arr
                .cells
                .iter()
                .cloned()
                .chain(iter::repeat_n(arr.template.clone(), missing))
                .collect();
        }
        grow
    }

    /// One step that reads array `a`'s cell `i`.
    fn look_at(&mut self, a: ArrayLoc, i: usize) -> &Cell {
        self.tick();
        let grew = self.materialize(a, i);
        self.touch(Footprint::array(a, i, grew));
        &self.arrays[a.0].cells[i]
    }

    /// [`SimMemory::apply`] on array `a`'s cell `i`.
    fn apply_at<R>(&mut self, a: ArrayLoc, i: usize, op: impl FnOnce(&mut Cell) -> R) -> R {
        self.tick();
        let grew = self.materialize(a, i);
        let owned =
            Rc::get_mut(&mut self.arrays).and_then(|arrays| Rc::get_mut(&mut arrays[a.0].cells));
        if let Some(cells) = owned {
            let out = op(&mut cells[i]);
            self.touch(Footprint::array(a, i, true));
            return out;
        }
        let mut cell = self.arrays[a.0].cells[i].clone();
        let out = op(&mut cell);
        let changed = cell != self.arrays[a.0].cells[i];
        if changed {
            let arr = &mut Rc::make_mut(&mut self.arrays)[a.0];
            Rc::make_mut(&mut arr.cells)[i] = cell;
        }
        self.touch(Footprint::array(a, i, grew || changed));
        out
    }

    // -- primitive operations (each is one atomic step) ---------------

    /// Reads any cell as a word. Every base object is readable (Lemma
    /// 16); `ASnap` cells must use [`SimMemory::snap_scan`].
    pub fn read(&mut self, loc: Loc) -> Word {
        self.look(loc).as_word()
    }

    /// Reads an array cell as a word.
    pub fn read_at(&mut self, a: ArrayLoc, i: usize) -> Word {
        self.look_at(a, i).as_word()
    }

    /// Writes a `Reg` cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a read/write register: the consensus
    /// hierarchy discipline is enforced at runtime.
    pub fn write(&mut self, loc: Loc, v: Word) {
        self.apply(loc, |cell| write_reg(cell, v));
    }

    /// Writes a `Reg` cell inside an array.
    pub fn write_at(&mut self, a: ArrayLoc, i: usize, v: Word) {
        self.apply_at(a, i, |cell| write_reg(cell, v));
    }

    /// Fetch&add on a `Faa` cell; returns the previous value.
    pub fn faa(&mut self, loc: Loc, delta: Word) -> Word {
        self.apply(loc, |cell| match cell {
            Cell::Faa(cur) => {
                let old = *cur;
                *cur = cur.wrapping_add(delta);
                old
            }
            other => panic!("faa on non-fetch&add cell {other:?}"),
        })
    }

    /// Wide fetch&add: applies `+pos − neg` to a `Wide` cell in one
    /// step, returning the previous value (§3's signed adjustment).
    pub fn wide_adjust(&mut self, loc: Loc, pos: &BigNat, neg: &BigNat) -> BigNat {
        self.apply(loc, |cell| match cell {
            Cell::Wide(cur) => {
                // One clone for the returned snapshot; the adjustment
                // itself mutates in place (allocation-free while the
                // cell stays inline — which every checker scenario does).
                let old = cur.clone();
                cur.adjust_in_place(pos, neg);
                old
            }
            other => panic!("wide_adjust on non-wide cell {other:?}"),
        })
    }

    /// Reads a `Wide` cell (= `fetch&add(R, 0)`).
    pub fn wide_read(&mut self, loc: Loc) -> BigNat {
        match self.look(loc) {
            Cell::Wide(cur) => cur.clone(),
            other => panic!("wide_read on non-wide cell {other:?}"),
        }
    }

    /// Test&set on a `Tas` or `ARTas` cell; returns the previous bit.
    pub fn tas(&mut self, loc: Loc) -> u8 {
        self.apply(loc, test_and_set)
    }

    /// Test&set on an array cell.
    pub fn tas_at(&mut self, a: ArrayLoc, i: usize) -> u8 {
        self.apply_at(a, i, test_and_set)
    }

    /// Swap on a `Swap` cell; returns the previous value.
    pub fn swap(&mut self, loc: Loc, v: Word) -> Word {
        self.apply(loc, |cell| swap_word(cell, v))
    }

    /// Swap on an array cell.
    pub fn swap_at(&mut self, a: ArrayLoc, i: usize, v: Word) -> Word {
        self.apply_at(a, i, |cell| swap_word(cell, v))
    }

    /// Compare&swap on a `Cas` cell; returns the observed value (equal
    /// to `expect` iff the CAS succeeded).
    pub fn cas(&mut self, loc: Loc, expect: Word, new: Word) -> Word {
        self.apply(loc, |cell| compare_and_swap(cell, expect, new))
    }

    /// Compare&swap on an array cell.
    pub fn cas_at(&mut self, a: ArrayLoc, i: usize, expect: Word, new: Word) -> Word {
        self.apply_at(a, i, |cell| compare_and_swap(cell, expect, new))
    }

    // -- atomic composite operations -----------------------------------

    /// `WriteMax` on an `AMaxReg` cell.
    pub fn max_write(&mut self, loc: Loc, v: Word) {
        self.apply(loc, |cell| match cell {
            Cell::AMaxReg(cur) => *cur = (*cur).max(v),
            other => panic!("max_write on non-max-register cell {other:?}"),
        })
    }

    /// `ReadMax` on an `AMaxReg` cell.
    pub fn max_read(&mut self, loc: Loc) -> Word {
        match self.look(loc) {
            Cell::AMaxReg(cur) => *cur,
            other => panic!("max_read on non-max-register cell {other:?}"),
        }
    }

    /// `update` of component `i` on an `ASnap` cell.
    pub fn snap_update(&mut self, loc: Loc, i: usize, v: Word) {
        self.apply(loc, |cell| match cell {
            Cell::ASnap(view) => view[i] = v,
            other => panic!("snap_update on non-snapshot cell {other:?}"),
        })
    }

    /// `scan` on an `ASnap` cell.
    pub fn snap_scan(&mut self, loc: Loc) -> Vec<Word> {
        match self.look(loc) {
            Cell::ASnap(view) => view.clone(),
            other => panic!("snap_scan on non-snapshot cell {other:?}"),
        }
    }

    /// `fetch&increment` on an `ARFai` cell; returns the pre-increment
    /// value.
    pub fn fai(&mut self, loc: Loc) -> Word {
        self.apply(loc, |cell| match cell {
            Cell::ARFai(cur) => {
                let old = *cur;
                *cur += 1;
                old
            }
            other => panic!("fai on non-fetch&inc cell {other:?}"),
        })
    }

    /// `enq` on an `AQueue` cell.
    pub fn queue_enq(&mut self, loc: Loc, v: Word) {
        self.apply(loc, |cell| match cell {
            Cell::AQueue { items, last } => {
                items.push_back(v);
                *last = None;
            }
            other => panic!("queue_enq on non-queue cell {other:?}"),
        })
    }

    /// Exact `deq` on an `AQueue` cell; `None` means empty.
    pub fn queue_deq(&mut self, loc: Loc) -> Option<Word> {
        self.apply(loc, |cell| match cell {
            Cell::AQueue { items, last } => {
                let v = items.pop_front();
                *last = v;
                v
            }
            other => panic!("queue_deq on non-queue cell {other:?}"),
        })
    }

    /// Out-of-order `deq` on an `AQueue` cell: removes and returns one
    /// of the `k` oldest items, chosen deterministically from the cell
    /// state and `salt` (so distinct callers can pick distinct items —
    /// the k-out-of-order relaxation's genuinely multi-valued choice).
    /// `None` means empty.
    pub fn queue_deq_within(&mut self, loc: Loc, k: usize, salt: u64) -> Option<Word> {
        use std::collections::hash_map::DefaultHasher;
        self.apply(loc, |cell| match cell {
            Cell::AQueue { items, last } => {
                if items.is_empty() {
                    *last = None;
                    return None;
                }
                let window = k.max(1).min(items.len());
                let mut h = DefaultHasher::new();
                items.hash(&mut h);
                salt.hash(&mut h);
                let idx = (h.finish() as usize) % window;
                let v = items.remove(idx);
                *last = v;
                v
            }
            other => panic!("queue_deq_within on non-queue cell {other:?}"),
        })
    }

    /// Duplicating `deq` on an `AQueue` cell: returns the previous
    /// dequeue's item when one exists (leaving the queue unchanged),
    /// otherwise behaves like [`SimMemory::queue_deq`]. This is the
    /// multiplicity relaxation's second outcome, taken greedily.
    pub fn queue_deq_dup(&mut self, loc: Loc) -> Option<Word> {
        self.apply(loc, |cell| match cell {
            Cell::AQueue { items, last } => match *last {
                Some(d) => Some(d),
                None => {
                    let v = items.pop_front();
                    *last = v;
                    v
                }
            },
            other => panic!("queue_deq_dup on non-queue cell {other:?}"),
        })
    }

    /// Readable test&set array: read cell `i`.
    pub fn rtas_read_at(&mut self, a: ArrayLoc, i: usize) -> u8 {
        match self.look_at(a, i) {
            Cell::Tas(bit) | Cell::ARTas(bit) => *bit as u8,
            other => panic!("rtas_read on non-test&set cell {other:?}"),
        }
    }

    // -- whole-memory access (Algorithm B's collect / local simulation) --

    /// Number of standalone cells.
    pub fn cell_count(&self) -> usize {
        self.poison();
        self.len()
    }

    /// A copy of the memory with the step counter reset — the "states of
    /// base objects in `r`" that Algorithm B's local simulation starts
    /// from. Cloning is legitimate *only after a successful double
    /// collect*; the collect itself must go through per-cell reads.
    pub fn snapshot_state(&self) -> SimMemory {
        self.poison();
        let mut copy = self.clone();
        copy.steps = 0;
        copy
    }

    /// Reads one cell by flat index, for Algorithm B's `collect(R)`
    /// which reads base objects "one by one, in any arbitrary order".
    /// Flat indices `0..flat_len()` cover standalone cells then array
    /// cells in allocation order.
    pub fn collect_read(&mut self, flat: usize) -> Cell {
        self.tick();
        self.poison();
        let mut rest = flat;
        for block in iter::once(&self.cells).chain(self.arrays.iter().map(|a| &a.cells)) {
            if rest < block.len() {
                return block[rest].clone();
            }
            rest -= block.len();
        }
        panic!("flat index {flat} out of range");
    }

    /// Number of flat-indexable cells currently materialized.
    pub fn flat_len(&self) -> usize {
        self.poison();
        self.len() + self.arrays.iter().map(|a| a.cells.len()).sum::<usize>()
    }

    /// Rebuilds a memory image from collected cell values, preserving
    /// this memory's layout (standalone cells then arrays). This is the
    /// start state of Algorithm B's local simulation.
    pub fn rebuild_from_collect(&self, collected: &[Cell]) -> SimMemory {
        assert_eq!(collected.len(), self.flat_len(), "collect size mismatch");
        let (standalone, mut rest) = collected.split_at(self.cell_count());
        let arrays = self
            .arrays
            .iter()
            .map(|a| {
                let (cells, tail) = rest.split_at(a.cells.len());
                rest = tail;
                ArrayCells {
                    template: a.template.clone(),
                    cells: cells.into(),
                }
            })
            .collect();
        SimMemory {
            cells: standalone.into(),
            fresh: Vec::new(),
            arrays,
            steps: 0,
            footprint: Default::default(),
        }
    }
}

/// A register write.
fn write_reg(cell: &mut Cell, v: Word) {
    match cell {
        Cell::Reg(cur) => *cur = v,
        other => panic!("write on non-register cell {other:?}"),
    }
}

/// A test&set: sets the bit, returns the previous one.
fn test_and_set(cell: &mut Cell) -> u8 {
    match cell {
        Cell::Tas(bit) | Cell::ARTas(bit) => std::mem::replace(bit, true) as u8,
        other => panic!("tas on non-test&set cell {other:?}"),
    }
}

/// A swap: stores `v`, returns the previous word.
fn swap_word(cell: &mut Cell, v: Word) -> Word {
    match cell {
        Cell::Swap(cur) => std::mem::replace(cur, v),
        other => panic!("swap on non-swap cell {other:?}"),
    }
}

/// A compare&swap: returns the observed word, storing `new` iff it was
/// `expect`.
fn compare_and_swap(cell: &mut Cell, expect: Word, new: Word) -> Word {
    match cell {
        Cell::Cas(cur) => {
            let old = *cur;
            if old == expect {
                *cur = new;
            }
            old
        }
        other => panic!("cas on non-cas cell {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_basic_ops() {
        let mut mem = SimMemory::new();
        let r = mem.alloc(Cell::Reg(0));
        let f = mem.alloc(Cell::Faa(10));
        mem.write(r, 9);
        assert_eq!(mem.read(r), 9);
        assert_eq!(mem.faa(f, 5), 10);
        assert_eq!(mem.read(f), 15);
        assert_eq!(mem.steps(), 4);
    }

    #[test]
    fn tas_first_wins_then_sticks() {
        let mut mem = SimMemory::new();
        let t = mem.alloc(Cell::Tas(false));
        assert_eq!(mem.tas(t), 0);
        assert_eq!(mem.tas(t), 1);
        assert_eq!(mem.read(t), 1);
    }

    #[test]
    fn swap_and_cas() {
        let mut mem = SimMemory::new();
        let s = mem.alloc(Cell::Swap(1));
        let c = mem.alloc(Cell::Cas(0));
        assert_eq!(mem.swap(s, 7), 1);
        assert_eq!(mem.cas(c, 0, 3), 0);
        assert_eq!(mem.cas(c, 0, 5), 3);
        assert_eq!(mem.read(c), 3);
    }

    #[test]
    fn wide_adjust_round_trips() {
        use sl2_bignum::BigNat;
        let mut mem = SimMemory::new();
        let w = mem.alloc(Cell::Wide(BigNat::zero()));
        let old = mem.wide_adjust(w, &BigNat::pow2(100), &BigNat::zero());
        assert!(old.is_zero());
        assert_eq!(mem.wide_read(w), BigNat::pow2(100));
    }

    #[test]
    fn arrays_materialize_on_demand() {
        let mut mem = SimMemory::new();
        let a = mem.alloc_array(Cell::Tas(false));
        assert_eq!(mem.flat_len(), 0);
        assert_eq!(mem.tas_at(a, 5), 0);
        assert_eq!(mem.tas_at(a, 5), 1);
        assert_eq!(mem.rtas_read_at(a, 2), 0); // untouched = initial
        assert_eq!(mem.flat_len(), 6);
    }

    #[test]
    fn composite_cells_behave_atomically() {
        let mut mem = SimMemory::new();
        let m = mem.alloc(Cell::AMaxReg(0));
        mem.max_write(m, 5);
        mem.max_write(m, 3);
        assert_eq!(mem.max_read(m), 5);

        let s = mem.alloc(Cell::ASnap(vec![0, 0, 0]));
        mem.snap_update(s, 1, 9);
        assert_eq!(mem.snap_scan(s), vec![0, 9, 0]);

        let f = mem.alloc(Cell::ARFai(1));
        assert_eq!(mem.fai(f), 1);
        assert_eq!(mem.fai(f), 2);
        assert_eq!(mem.read(f), 3);
    }

    #[test]
    fn collect_and_rebuild_reconstruct_memory() {
        let mut mem = SimMemory::new();
        let r = mem.alloc(Cell::Reg(0));
        let a = mem.alloc_array(Cell::Tas(false));
        mem.write(r, 42);
        mem.tas_at(a, 1);
        let collected: Vec<Cell> = (0..mem.flat_len()).map(|i| mem.collect_read(i)).collect();
        let mut rebuilt = mem.rebuild_from_collect(&collected);
        assert_eq!(rebuilt.read(r), 42);
        assert_eq!(rebuilt.rtas_read_at(a, 1), 1);
        assert_eq!(rebuilt.rtas_read_at(a, 0), 0);
    }

    #[test]
    fn clone_is_a_deep_snapshot() {
        use std::collections::VecDeque;
        let mut mem = SimMemory::new();
        let r = mem.alloc(Cell::Reg(1));
        let w = mem.alloc(Cell::Wide(BigNat::zero()));
        let s = mem.alloc(Cell::ASnap(vec![0, 0]));
        let q = mem.alloc(Cell::AQueue {
            items: VecDeque::from([7]),
            last: None,
        });
        let a = mem.alloc_array(Cell::Reg(0));
        mem.write_at(a, 1, 5);
        let mut snap = mem.snapshot_state();
        let len = mem.flat_len();
        // The original's writes, one per cell kind, stay out of the copy.
        mem.write(r, 2);
        mem.wide_adjust(w, &BigNat::pow2(100), &BigNat::zero());
        mem.snap_update(s, 1, 9);
        mem.queue_enq(q, 8);
        mem.write_at(a, 1, 6);
        assert_eq!(snap.read(r), 1);
        assert!(snap.wide_read(w).is_zero());
        assert_eq!(snap.snap_scan(s), vec![0, 0]);
        assert_eq!(snap.read_at(a, 1), 5);
        // And the copy's stay out of the original.
        assert_eq!(snap.queue_deq(q), Some(7));
        assert_eq!(snap.queue_deq(q), None);
        snap.write_at(a, 0, 4);
        assert_eq!(mem.read(r), 2);
        assert_eq!(mem.wide_read(w), BigNat::pow2(100));
        assert_eq!(mem.snap_scan(s), vec![0, 9]);
        assert_eq!(mem.read_at(a, 0), 0);
        assert_eq!(mem.read_at(a, 1), 6);
        assert_eq!(mem.queue_deq(q), Some(7));
        assert_eq!(mem.queue_deq(q), Some(8));
        // Materializing an index on a clone, even by a read, leaves the
        // original's layout alone.
        let mut copy = mem.clone();
        assert_eq!(copy.read_at(a, 4), 0);
        assert_eq!(copy.flat_len(), len + 3);
        assert_eq!(mem.flat_len(), len);
    }

    #[test]
    fn equality_and_hash_ignore_where_cells_sit() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |m: &SimMemory| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        let mut built = SimMemory::new();
        built.alloc(Cell::Reg(3));
        built.alloc(Cell::Faa(4));
        let mut frozen = built.clone();
        frozen.freeze();
        assert_eq!(built, frozen);
        assert_eq!(hash(&built), hash(&frozen));
        // A step that changes nothing still counts as a step.
        let mut stepped = frozen.clone();
        stepped.faa(Loc(1), 0);
        assert_ne!(stepped, frozen);
        stepped.steps = 0;
        assert_eq!(stepped, frozen);
    }

    #[test]
    fn a_step_records_the_one_cell_it_touched() {
        let mut mem = SimMemory::new();
        let r = mem.alloc(Cell::Reg(0));
        let c = mem.alloc(Cell::Cas(0));
        let a = mem.alloc_array(Cell::Reg(0));
        assert_eq!(mem.take_footprint(), Footprint::UNKNOWN, "allocations");
        mem.freeze();
        // As the checker steps: on a clone, which shares every block.
        let step = |op: &dyn Fn(&mut SimMemory)| {
            let mut child = mem.clone();
            child.take_footprint();
            op(&mut child);
            assert_eq!(child, {
                let mut again = mem.clone();
                op(&mut again);
                again
            });
            child.take_footprint()
        };
        let read = step(&|m| {
            m.read(r);
        });
        assert_eq!(read, Footprint::standalone(r, false));
        assert_eq!(step(&|m| m.write(r, 0)), read, "the value already there");
        let write = step(&|m| m.write(r, 1));
        assert_eq!(write, Footprint::standalone(r, true));
        let failed_cas = step(&|m| {
            m.cas(c, 5, 1);
        });
        assert_eq!(failed_cas, Footprint::standalone(c, false));
        // Materializing an index is a change, even on a read.
        let fresh = step(&|m| {
            m.read_at(a, 3);
        });
        assert_eq!(fresh, Footprint::array(a, 3, true));
        let other = step(&|m| m.write_at(a, 4, 1));
        assert_eq!(step(&|_| {}), Footprint::FREE);
        for unknown in [
            step(&|m| {
                m.read(r);
                m.read(c);
            }),
            step(&|m| {
                m.read(r);
                m.flat_len();
            }),
            step(&|m| {
                m.read(r);
                m.cell_count();
            }),
            step(&|m| {
                m.read(r);
                m.steps();
            }),
            step(&|m| {
                m.collect_read(0);
            }),
            step(&|m| {
                m.snapshot_state();
            }),
        ] {
            assert_eq!(unknown, Footprint::UNKNOWN);
        }
        // Independent: different cells, or neither changed; a free step.
        assert!(read.independent(read) && read.independent(failed_cas));
        assert!(write.independent(failed_cas) && fresh.independent(other));
        assert!(Footprint::FREE.independent(Footprint::UNKNOWN));
        assert!(!write.independent(read) && !fresh.independent(fresh));
        assert!(!Footprint::UNKNOWN.independent(read));
    }

    #[test]
    fn queue_cell_exact_and_duplicating_deq() {
        use std::collections::VecDeque;
        let mut mem = SimMemory::new();
        let q = mem.alloc(Cell::AQueue {
            items: VecDeque::new(),
            last: None,
        });
        assert_eq!(mem.queue_deq(q), None);
        mem.queue_enq(q, 7);
        mem.queue_enq(q, 8);
        assert_eq!(mem.queue_deq(q), Some(7));
        // Duplicating deq repeats the last item without removing.
        assert_eq!(mem.queue_deq_dup(q), Some(7));
        assert_eq!(mem.queue_deq_dup(q), Some(7));
        // An enqueue closes the duplication window.
        mem.queue_enq(q, 9);
        assert_eq!(mem.queue_deq_dup(q), Some(8));
        assert_eq!(mem.queue_deq(q), Some(9));
        assert_eq!(mem.queue_deq(q), None);
    }

    #[test]
    fn queue_cell_out_of_order_deq_stays_in_window() {
        use std::collections::VecDeque;
        let mut mem = SimMemory::new();
        let q = mem.alloc(Cell::AQueue {
            items: VecDeque::new(),
            last: None,
        });
        for v in 0..6 {
            mem.queue_enq(q, v);
        }
        // Window of 3: each removal must come from the current 3 oldest.
        let mut remaining: Vec<Word> = (0..6).collect();
        for salt in 0..6u64 {
            let v = mem.queue_deq_within(q, 3, salt).expect("non-empty");
            let window: Vec<Word> = remaining.iter().take(3).copied().collect();
            assert!(window.contains(&v), "{v} outside window {window:?}");
            remaining.retain(|&x| x != v);
        }
        assert_eq!(mem.queue_deq_within(q, 3, 0), None);
    }

    #[test]
    fn queue_cell_out_of_order_choice_is_deterministic() {
        use std::collections::VecDeque;
        let build = || {
            let mut mem = SimMemory::new();
            let q = mem.alloc(Cell::AQueue {
                items: VecDeque::new(),
                last: None,
            });
            for v in 0..5 {
                mem.queue_enq(q, v);
            }
            (mem, q)
        };
        let (mut m1, q1) = build();
        let (mut m2, q2) = build();
        assert_eq!(
            m1.queue_deq_within(q1, 4, 9),
            m2.queue_deq_within(q2, 4, 9),
            "same state + salt ⇒ same choice"
        );
    }

    #[test]
    #[should_panic(expected = "non-register")]
    fn kind_discipline_is_enforced() {
        let mut mem = SimMemory::new();
        let t = mem.alloc(Cell::Tas(false));
        mem.write(t, 1);
    }
}
