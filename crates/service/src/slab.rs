//! The registry's block arena: a lock-free bump allocator whose blocks
//! are never freed one by one.
//!
//! That is the registry's own lifetime rule (insert-only, everything
//! freed on `Drop`), and it is what lets a key cost what its objects
//! need: through `malloc`, each 64-byte-aligned per-key block paid
//! ~96 bytes of allocator header and alignment gap (EXPERIMENTS.md
//! E48); bumped out of 1 MiB chunks it pays none. Chunks are far above
//! the allocator's `mmap` threshold, so a small registry's untouched
//! tail is address space, not memory.

use std::alloc::{self, Layout};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

const CHUNK: usize = 1 << 20;
const LINE: usize = 64;

/// A chunk's first line; blocks are bumped out of the bytes after it.
#[repr(align(64))]
struct Chunk {
    /// The chunk this one replaced as `Slab::top` (null for the first).
    older: *mut Chunk,
    size: usize,
    /// Offset of the first unclaimed byte.
    used: AtomicUsize,
}

#[derive(Debug)]
pub(crate) struct Slab {
    top: AtomicPtr<Chunk>,
}

impl Slab {
    pub(crate) const fn new() -> Self {
        Slab {
            top: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Bytes handed out so far, alignment gaps included.
    pub(crate) fn claimed(&self) -> usize {
        let mut total = 0;
        let mut chunk = self.top.load(Ordering::Acquire);
        // SAFETY: published chunks stay allocated until `drop`.
        while let Some(header) = unsafe { chunk.as_ref() } {
            total += header.used.load(Ordering::Relaxed) - LINE;
            chunk = header.older;
        }
        total
    }

    /// Uninitialized memory for `layout`, valid until the slab drops.
    ///
    /// # Panics
    ///
    /// Panics if `layout` wants more than line alignment.
    pub(crate) fn alloc(&self, layout: Layout) -> NonNull<u8> {
        assert!(layout.align() <= LINE, "blocks are at most line-aligned");
        loop {
            let top = self.top.load(Ordering::Acquire);
            // SAFETY: a published chunk stays allocated until `drop`.
            if let Some(chunk) = unsafe { top.as_ref() } {
                let end_of = |used: usize| used.next_multiple_of(layout.align()) + layout.size();
                // Relaxed: the offset orders nothing; a block is shared
                // only by its owner's publishing CAS.
                let claim = chunk
                    .used
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                        Some(end_of(used)).filter(|&end| end <= chunk.size)
                    });
                if let Ok(used) = claim {
                    // SAFETY: `[end_of(used) − size, end_of(used))` is
                    // inside the chunk and now this caller's alone.
                    let block = unsafe { top.cast::<u8>().add(end_of(used) - layout.size()) };
                    return NonNull::new(block).expect("inside a live chunk");
                }
            }
            // No chunk yet, or this block does not fit in what is left
            // of it: race to install a fresh one (the unused tail of
            // the old chunk was never touched, so it costs no memory).
            let size = CHUNK.max(LINE + layout.size());
            let chunk_layout = Layout::from_size_align(size, LINE).expect("chunk size fits isize");
            // SAFETY: non-zero size.
            let fresh = unsafe { alloc::alloc(chunk_layout) }.cast::<Chunk>();
            if fresh.is_null() {
                alloc::handle_alloc_error(chunk_layout);
            }
            // SAFETY: freshly allocated with room and alignment for a `Chunk`.
            unsafe {
                fresh.write(Chunk {
                    older: top,
                    size,
                    used: AtomicUsize::new(LINE),
                });
            }
            if self
                .top
                .compare_exchange(top, fresh, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // SAFETY: never published.
                unsafe { alloc::dealloc(fresh.cast(), chunk_layout) };
            }
        }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        let mut chunk = *self.top.get_mut();
        // SAFETY: published chunks are live until freed right here.
        while let Some(header) = unsafe { chunk.as_ref() } {
            let (older, size) = (header.older, header.size);
            // SAFETY: allocated in `alloc` with exactly this layout;
            // `&mut self` means no block is in use any more.
            unsafe {
                alloc::dealloc(
                    chunk.cast(),
                    Layout::from_size_align(size, LINE).expect("as allocated"),
                );
            }
            chunk = older;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_aligned_disjoint_and_spill_into_fresh_chunks() {
        let slab = Slab::new();
        let small = Layout::from_size_align(80, 16).expect("layout");
        let lines = Layout::from_size_align(192, 64).expect("layout");
        let a = slab.alloc(small).as_ptr() as usize;
        let b = slab.alloc(lines).as_ptr() as usize;
        let c = slab.alloc(small).as_ptr() as usize;
        assert_eq!((a % 16, b % 64, c % 16), (0, 0, 0));
        assert_eq!(b, a + 128, "80 bytes, then the gap up to the next line");
        assert_eq!(c, b + 192);
        assert_eq!(slab.claimed(), 80 + 48 + 192 + 80);

        // More than a chunk holds: a dedicated chunk, and the slab
        // keeps serving small blocks after it.
        let big = Layout::from_size_align(2 * CHUNK, 64).expect("layout");
        let d = slab.alloc(big).as_ptr() as usize;
        assert_eq!(d % 64, 0);
        let e = slab.alloc(small).as_ptr() as usize;
        assert!(e < d || e >= d + 2 * CHUNK, "blocks never overlap");
    }

    #[test]
    fn racing_threads_get_disjoint_blocks() {
        let slab = Slab::new();
        let layout = Layout::from_size_align(448, 64).expect("layout");
        // 4 × 1500 × 448 B spans three chunks, so installs race too.
        let mut starts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..1500)
                            .map(|_| slab.alloc(layout).as_ptr() as usize)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("no panics"))
                .collect()
        });
        starts.sort_unstable();
        assert!(starts.windows(2).all(|w| w[1] - w[0] >= 448));
        assert_eq!(slab.claimed(), 4 * 1500 * 448);
    }
}
