//! §4.2 — lock-free strongly-linearizable readable fetch&increment
//! from test&set (Theorem 9), production form.
//!
//! The base array holds Theorem 5 readable test&sets, so the full
//! tower really is built from plain test&set, as the corollary in the
//! paper states.
//!
//! [`WideFetchInc`] is the *wait-free* contrast: a readable
//! fetch&increment over the §3 interleaved wide fetch&add register.
//! Every operation is a single RMW (or read) on the register, decoded
//! through the borrowed [`sl2_bignum::WideFaa`] entry points, so the
//! cost of the k-th increment is O(register width) instead of the
//! Theorem 9 scan's Θ(k) test&sets — at the price of needing a
//! fetch&add base object rather than plain test&set.

use sl2_bignum::{LaneEncoding, Lanes, WideFaa};
use sl2_primitives::ChunkedArray;

use super::readable_ts::SlReadableTas;

/// Theorem 9 readable fetch&increment.
///
/// # Examples
///
/// ```
/// use sl2_core::algos::fetch_inc::SlFetchInc;
///
/// let c = SlFetchInc::new();
/// assert_eq!(c.fetch_inc(), 1);
/// assert_eq!(c.fetch_inc(), 2);
/// assert_eq!(c.read(), 3);
/// ```
#[derive(Debug, Default)]
pub struct SlFetchInc {
    m: ChunkedArray<SlReadableTas>,
}

impl SlFetchInc {
    /// Creates a fetch&increment with value 1 (the paper's initial
    /// state: the first winner obtains index 1).
    pub fn new() -> Self {
        SlFetchInc::default()
    }

    /// `fetch&increment()`: test&set `M\[1\], M\[2\], ...` until a win;
    /// returns the winning index.
    pub fn fetch_inc(&self) -> u64 {
        let mut i = 1u64;
        loop {
            if self.m.get(i as usize - 1).test_and_set() == 0 {
                return i;
            }
            i += 1;
        }
    }

    /// `read()`: scan `M\[1\], M\[2\], ...` until a 0 bit; returns that
    /// index (the current object value).
    pub fn read(&self) -> u64 {
        let mut i = 1u64;
        loop {
            if self.m.get(i as usize - 1).read() == 0 {
                return i;
            }
            i += 1;
        }
    }
}

/// Wait-free readable fetch&increment over the wide fetch&add
/// register: process `i`'s increments raise its interleaved lane by one
/// and the returned ticket is `1 +` the sum of all lanes immediately
/// before the add — decoded from the *borrowed* pre-state inside the
/// register's critical section, so small registers never allocate.
/// [`WideFetchInc::new`] counts in the paper's unary code (§3.1; the
/// E12 growth series), [`WideFetchInc::new_binary`] is the shipped
/// log-width form (DESIGN.md §9 "Binary lanes").
///
/// Strong linearizability is immediate: every `fetch_inc` is one
/// fetch&add on the register and every `read` is one `fetch&add(R, 0)`
/// probe, so each operation has a fixed linearization point at its
/// single base-object step (the same argument as Theorems 1–2; see
/// DESIGN.md §2).
///
/// # Examples
///
/// ```
/// use sl2_core::algos::fetch_inc::WideFetchInc;
///
/// let c = WideFetchInc::new(2);
/// assert_eq!(c.fetch_inc(0), 1);
/// assert_eq!(c.fetch_inc(1), 2);
/// assert_eq!(c.read(), 3);
/// ```
#[derive(Debug)]
pub struct WideFetchInc {
    reg: WideFaa,
    lanes: Lanes,
}

impl WideFetchInc {
    /// Creates a fetch&increment shared by `n` processes, with value 1
    /// (matching [`SlFetchInc`]: the first ticket is 1), unary lanes.
    pub fn new(n: usize) -> Self {
        WideFetchInc::with_encoding(n, LaneEncoding::Unary)
    }

    /// The shipped form: binary lanes, lock-free inline up to
    /// `2^⌊127/n⌋ − 1` increments per process.
    pub fn new_binary(n: usize) -> Self {
        WideFetchInc::with_encoding(n, LaneEncoding::Binary)
    }

    /// Creates a fetch&increment with an explicit lane encoding.
    pub fn with_encoding(n: usize, encoding: LaneEncoding) -> Self {
        WideFetchInc {
            reg: WideFaa::new(),
            lanes: Lanes::new(n, encoding),
        }
    }

    /// `fetch&increment()` by process `process`: returns the ticket.
    pub fn fetch_inc(&self, process: usize) -> u64 {
        // Only this process writes its lane, so the own-lane value is
        // stable between the probe and the add.
        let mine = self
            .reg
            .read_with(|image| self.lanes.decode(process, image));
        let (pos, neg) = self.lanes.adjustments(process, mine, mine + 1);
        self.reg
            .fetch_adjust_with(&pos, &neg, |old| self.lanes.sum(old) + 1)
    }

    /// `read()`: the current value (1 + total increments so far).
    pub fn read(&self) -> u64 {
        self.reg.read_with(|image| self.lanes.sum(image) + 1)
    }

    /// True while the register is in `WideFaa`'s lock-free inline regime.
    pub fn is_inline_lock_free(&self) -> bool {
        self.reg.is_inline_lock_free()
    }

    /// Current width of the backing register in bits (experiment E12).
    pub fn register_bits(&self) -> usize {
        self.reg.bit_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_counting() {
        let c = SlFetchInc::new();
        assert_eq!(c.read(), 1);
        for expect in 1..=10 {
            assert_eq!(c.fetch_inc(), expect);
        }
        assert_eq!(c.read(), 11);
    }

    #[test]
    fn concurrent_increments_return_distinct_values() {
        let c = Arc::new(SlFetchInc::new());
        let per_thread = 200;
        let threads = 8;
        let mut all: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (0..per_thread).map(|_| c.fetch_inc()).collect::<Vec<u64>>())
                })
                .collect();
            for h in handles {
                all.extend(h.join().expect("no panics"));
            }
        });
        all.sort_unstable();
        let expect: Vec<u64> = (1..=(per_thread * threads) as u64).collect();
        assert_eq!(all, expect, "a dense, duplicate-free range of tickets");
        assert_eq!(c.read(), (per_thread * threads) as u64 + 1);
    }

    #[test]
    fn wide_sequential_counting() {
        let c = WideFetchInc::new(3);
        assert_eq!(c.read(), 1);
        let mut expect = 1;
        for round in 0..5 {
            for p in 0..3 {
                assert_eq!(c.fetch_inc(p), expect, "round {round} process {p}");
                expect += 1;
            }
        }
        assert_eq!(c.read(), 16);
    }

    #[test]
    fn wide_concurrent_increments_return_distinct_values() {
        let n = 4;
        let per_thread = 300;
        for encoding in [LaneEncoding::Unary, LaneEncoding::Binary] {
            let c = Arc::new(WideFetchInc::with_encoding(n, encoding));
            let mut all: Vec<u64> = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|p| {
                        let c = Arc::clone(&c);
                        s.spawn(move || {
                            (0..per_thread)
                                .map(|_| c.fetch_inc(p))
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                for h in handles {
                    all.extend(h.join().expect("no panics"));
                }
            });
            all.sort_unstable();
            let expect: Vec<u64> = (1..=(per_thread * n) as u64).collect();
            assert_eq!(all, expect, "{encoding:?}: dense, duplicate-free tickets");
            assert_eq!(c.read(), (per_thread * n) as u64 + 1);
        }
    }

    #[test]
    fn binary_lanes_keep_the_register_log_width() {
        let (unary, binary) = (WideFetchInc::new(2), WideFetchInc::new_binary(2));
        for i in 0..1000 {
            assert_eq!(unary.fetch_inc(i % 2), binary.fetch_inc(i % 2));
        }
        assert_eq!(unary.register_bits(), 1000, "one bit per increment");
        assert_eq!(binary.register_bits(), 18, "two 9-bit lanes holding 500");
        assert_eq!(binary.is_inline_lock_free(), WideFaa::backend_lock_free());
        assert!(!unary.is_inline_lock_free());
    }

    #[test]
    fn wide_agrees_with_theorem9_route() {
        let wide = WideFetchInc::new(1);
        let tas = SlFetchInc::new();
        for _ in 0..20 {
            assert_eq!(wide.fetch_inc(0), tas.fetch_inc());
        }
        assert_eq!(wide.read(), tas.read());
    }

    #[test]
    fn reads_are_monotone_under_contention() {
        let c = Arc::new(SlFetchInc::new());
        std::thread::scope(|s| {
            let c1 = Arc::clone(&c);
            s.spawn(move || {
                for _ in 0..500 {
                    c1.fetch_inc();
                }
            });
            let c2 = Arc::clone(&c);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let v = c2.read();
                    assert!(v >= last, "fetch&inc regressed {last} -> {v}");
                    last = v;
                }
            });
        });
    }
}
