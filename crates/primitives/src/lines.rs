//! One allocation for an object and the cache lines it owns.
//!
//! A sharded object is a small read-only header (layout, shard map)
//! plus one padded line per shard; the combining front-end adds one
//! line per process. Boxing each of those arrays separately costs an
//! allocator header and a 64-byte alignment gap apiece — per object,
//! which a keyed registry multiplies by its key count. [`Lines`] is
//! the array type that can live either way: in its own allocation
//! ([`Lines::new`], what the standalone constructors use), or *carved*
//! from the tail of the block that also holds the header
//! ([`build_block`], what `sl2_service`'s registry uses), with the hot
//! lines still one per cache line in both.

use std::alloc::Layout;
use std::fmt;
use std::ops::Deref;
use std::ptr::{self, NonNull};

use crate::CachePadded;

const LINE: usize = 64;

/// `len` cache-line-padded `T`s, owning either their own allocation or
/// lines carved from their owner's block (see the module docs).
pub struct Lines<T> {
    ptr: NonNull<CachePadded<T>>,
    len: u32,
    /// Whether `ptr` is a `Box<[CachePadded<T>]>` to free on drop
    /// (carved lines are freed with their block).
    owned: bool,
}

impl<T> Lines<T> {
    /// `len` lines in their own allocation, line `i` holding `init(i)`.
    pub fn new(len: usize, init: impl FnMut(usize) -> T) -> Self {
        let boxed: Box<[CachePadded<T>]> = (0..len).map(init).map(CachePadded::new).collect();
        Lines {
            ptr: NonNull::new(Box::into_raw(boxed).cast()).expect("box pointers are non-null"),
            len: u32::try_from(len).expect("line count fits u32"),
            owned: true,
        }
    }

    /// The next `len` lines of `block`, line `i` holding `init(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `block` has fewer than `len` lines left, or if a
    /// padded `T` is not exactly one line.
    ///
    /// # Safety
    ///
    /// The result points into `block`'s allocation with no lifetime to
    /// say so: it must be dropped before that block is freed. Storing
    /// it in the header [`build_block`]'s closure returns, and dropping
    /// that header before the block goes, does exactly that.
    pub unsafe fn carve(block: &mut Carver, len: usize, mut init: impl FnMut(usize) -> T) -> Self {
        assert_eq!(size_of::<CachePadded<T>>(), LINE, "one line per cell");
        assert!(len <= block.left, "block has {} lines left", block.left);
        let first = block.next.cast::<CachePadded<T>>();
        for i in 0..len {
            // SAFETY: `build_block`'s caller sized the block for `left`
            // more line-aligned lines starting at `next`, unaliased
            // until this write initializes them.
            unsafe { first.add(i).write(CachePadded::new(init(i))) };
        }
        block.left -= len;
        // SAFETY: still inside (or one past the end of) the block.
        block.next = unsafe { block.next.add(len * LINE) };
        Lines {
            ptr: NonNull::new(first).expect("block pointers are non-null"),
            len: u32::try_from(len).expect("line count fits u32"),
            owned: false,
        }
    }
}

impl<T> Deref for Lines<T> {
    type Target = [CachePadded<T>];

    fn deref(&self) -> &[CachePadded<T>] {
        // SAFETY: `ptr` heads `len` initialized cells, alive as long as
        // `self` (own allocation, or the `carve` contract).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len as usize) }
    }
}

impl<T> Drop for Lines<T> {
    fn drop(&mut self) {
        let cells = ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len as usize);
        // SAFETY: `cells` is the `Box<[_]>` `new` leaked, or initialized
        // cells in a live block whose memory its allocator frees.
        unsafe {
            if self.owned {
                drop(Box::from_raw(cells));
            } else {
                ptr::drop_in_place(cells);
            }
        }
    }
}

// SAFETY: `Lines<T>` owns its cells like a `Box<[CachePadded<T>]>` does
// and hands out only `&T`.
unsafe impl<T: Send> Send for Lines<T> {}
// SAFETY: as above.
unsafe impl<T: Sync> Sync for Lines<T> {}

impl<T: fmt::Debug> fmt::Debug for Lines<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The unclaimed tail of a block [`build_block`] is filling.
#[derive(Debug)]
pub struct Carver {
    next: *mut u8,
    left: usize,
}

/// Layout of a block holding a header `H` followed by `lines` cache
/// lines. With no lines the block is a bare `H`: nothing in it asked
/// for a line of its own.
pub fn block_layout<H>(lines: usize) -> Layout {
    let header = Layout::new::<H>();
    if lines == 0 {
        return header;
    }
    let size = header.size().next_multiple_of(LINE) + lines * LINE;
    Layout::from_size_align(size, header.align().max(LINE)).expect("block size fits isize")
}

/// Writes `build`'s header at `at`, its closure carving the `lines`
/// cache lines that follow through [`Lines::carve`]. The allocator is
/// the caller's: a `Box`-like owner frees the block after
/// `drop_in_place` on the header; an arena just drops the header.
///
/// # Safety
///
/// `at` must be valid for writes of [`block_layout::<H>`]`(lines)`,
/// aligned for it, and not freed while the header is alive.
pub unsafe fn build_block<H>(
    at: NonNull<u8>,
    lines: usize,
    build: impl FnOnce(&mut Carver) -> H,
) -> NonNull<H> {
    let first_line = block_layout::<H>(lines).size() - lines * LINE;
    let mut tail = Carver {
        // SAFETY: `first_line` is within (or one past) the block.
        next: unsafe { at.as_ptr().add(first_line) },
        left: lines,
    };
    let header = build(&mut tail);
    // SAFETY: the block starts with room for an `H`, aligned for it.
    unsafe { at.cast::<H>().write(header) };
    at.cast()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Counted(u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn owned_and_carved_lines_read_alike_and_drop_every_cell_once() {
        struct Header {
            tag: u8,
            a: Lines<Counted>,
            b: Lines<Counted>,
        }
        let owned = Lines::new(3, |i| Counted(i as u64));
        assert_eq!(owned.iter().map(|c| c.0).collect::<Vec<_>>(), [0, 1, 2]);
        drop(owned);
        assert_eq!(DROPS.swap(0, Ordering::SeqCst), 3);

        let layout = block_layout::<Header>(5);
        assert_eq!((layout.size(), layout.align()), (6 * LINE, LINE));
        // SAFETY: a fresh allocation of the block's own layout, freed
        // after the header is dropped; both arrays go into that header.
        unsafe {
            let at = NonNull::new(alloc::alloc(layout)).expect("allocation");
            let block = build_block(at, 5, |tail| Header {
                tag: 7,
                a: Lines::carve(tail, 2, |i| Counted(10 + i as u64)),
                b: Lines::carve(tail, 3, |i| Counted(20 + i as u64)),
            });
            let header = block.as_ref();
            assert_eq!((header.tag, header.a[1].0, header.b[2].0), (7, 11, 22));
            for (i, cell) in header.a.iter().chain(header.b.iter()).enumerate() {
                let offset = cell as *const _ as usize - at.as_ptr() as usize;
                assert_eq!(offset, (1 + i) * LINE, "lines trail the header in order");
            }
            ptr::drop_in_place(block.as_ptr());
            alloc::dealloc(at.as_ptr(), layout);
        }
        assert_eq!(DROPS.swap(0, Ordering::SeqCst), 5);
    }

    #[test]
    fn a_header_without_lines_is_a_bare_value() {
        let layout = block_layout::<[u128; 5]>(0);
        assert_eq!((layout.size(), layout.align()), (80, 16));
    }

    #[test]
    #[should_panic(expected = "lines left")]
    fn carving_past_the_block_is_refused() {
        let mut room = [CachePadded::new(0u64), CachePadded::new(0)];
        // SAFETY: two lines of room for a one-line block; the carve
        // panics before anything is written past it.
        unsafe {
            build_block(NonNull::from(&mut room).cast(), 1, |tail| {
                Lines::carve(tail, 2, |_| 0u64)
            });
        }
    }
}
