//! Production form of the read/write queue with multiplicity (\[11\]
//! style) — the real-atomics mirror of
//! [`crate::baselines::multiplicity`].
//!
//! The queue uses **registers only** (no read-modify-write primitives):
//! per-process token registers for collect-based timestamps, per-process
//! single-writer item lists, and per-process single-writer taken lists.
//! It is wait-free, and relaxed exactly as §5's queue with multiplicity:
//! two *concurrent* dequeues may return the same item; sequential
//! dequeues never do. The step-machine form carries the checker verdicts
//! (linearizable w.r.t. the relaxed specification; **not** strongly
//! linearizable); this form exists for real threads.
//!
//! # Examples
//!
//! ```
//! use sl2_core::algos::mult_queue::MultQueue;
//!
//! let q = MultQueue::new(2, 16);
//! q.enq(0, 7);
//! assert_eq!(q.deq(1), Some(7));
//! assert_eq!(q.deq(1), None);
//! ```

use sl2_primitives::Register;

/// Bits reserved for the value in a packed item entry.
const VAL_BITS: u32 = 20;
/// Largest storable value.
pub const MAX_VALUE: u64 = (1 << VAL_BITS) - 2;

fn pack_item(ts: u64, v: u64) -> u64 {
    assert!(v <= MAX_VALUE, "mult queue supports values ≤ {MAX_VALUE}");
    (ts << VAL_BITS) | (v + 1)
}

fn unpack_item(raw: u64) -> (u64, u64) {
    (raw >> VAL_BITS, (raw & ((1 << VAL_BITS) - 1)) - 1)
}

fn item_id(process: u64, slot: u64) -> u64 {
    (process << 32) | slot
}

/// A wait-free queue with multiplicity from read/write registers.
///
/// `new(n, cap)` supports `n` processes, each performing at most `cap`
/// enqueues and at most `cap` dequeues. Callers pass their process id
/// (0-based) to every operation; only process `p` may pass `p`.
#[derive(Debug)]
pub struct MultQueue {
    n: usize,
    cap: usize,
    token: Vec<Register>,
    items: Vec<Vec<Register>>,
    taken: Vec<Vec<Register>>,
}

impl MultQueue {
    /// Creates a queue for `n` processes with per-process operation
    /// capacity `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `cap == 0`.
    pub fn new(n: usize, cap: usize) -> Self {
        assert!(n > 0 && cap > 0, "need at least one process and one slot");
        let col = |_: usize| -> Vec<Register> { (0..cap).map(|_| Register::new(0)).collect() };
        MultQueue {
            n,
            cap,
            token: (0..n).map(|_| Register::new(0)).collect(),
            items: (0..n).map(col).collect(),
            taken: (0..n).map(col).collect(),
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.n
    }

    fn own_len(&self, lists: &[Vec<Register>], p: usize) -> usize {
        lists[p]
            .iter()
            .position(|r| r.read() == 0)
            .unwrap_or_else(|| panic!("process {p} exhausted its capacity of {}", self.cap))
    }

    /// Enqueues `v` on behalf of process `p`. Wait-free: one own-list
    /// scan, `n` token reads, two writes.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s enqueue capacity is exhausted or `v` exceeds
    /// [`MAX_VALUE`].
    pub fn enq(&self, p: usize, v: u64) {
        let slot = self.own_len(&self.items, p);
        let max = (0..self.n).map(|j| self.token[j].read()).max().unwrap_or(0);
        let ts = max + 1;
        self.token[p].write(ts);
        self.items[p][slot].write(pack_item(ts, v));
    }

    /// Dequeues on behalf of process `p`; `None` means empty. Wait-free:
    /// collects the taken lists, the tokens (eligibility bound) and the
    /// item lists, then marks the oldest eligible untaken item in `p`'s
    /// own taken list.
    ///
    /// Two concurrent `deq`s may return the same item (multiplicity);
    /// sequential ones never do.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s dequeue capacity is exhausted.
    pub fn deq(&self, p: usize) -> Option<u64> {
        // Collect taken ids.
        let mut taken_ids = Vec::new();
        for j in 0..self.n {
            for r in &self.taken[j] {
                let raw = r.read();
                if raw == 0 {
                    break;
                }
                taken_ids.push(raw - 1);
            }
        }
        // Eligibility bound.
        let bound = (0..self.n).map(|j| self.token[j].read()).max().unwrap_or(0);
        // Scan items for the oldest eligible untaken candidate.
        let mut best: Option<(u64, u64, u64, u64)> = None;
        for j in 0..self.n {
            for (k, r) in self.items[j].iter().enumerate() {
                let raw = r.read();
                if raw == 0 {
                    break;
                }
                let (ts, v) = unpack_item(raw);
                let id = item_id(j as u64, k as u64);
                if ts <= bound && !taken_ids.contains(&id) {
                    let cand = (ts, j as u64, k as u64, v);
                    if best.is_none_or(|b| (cand.0, cand.1, cand.2) < (b.0, b.1, b.2)) {
                        best = Some(cand);
                    }
                }
            }
        }
        let (_, bj, bk, v) = best?;
        let mark = self.own_len(&self.taken, p);
        self.taken[p][mark].write(item_id(bj, bk) + 1);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_process_fifo() {
        let q = MultQueue::new(1, 8);
        for v in [3, 1, 2] {
            q.enq(0, v);
        }
        assert_eq!(q.deq(0), Some(3));
        assert_eq!(q.deq(0), Some(1));
        assert_eq!(q.deq(0), Some(2));
        assert_eq!(q.deq(0), None);
    }

    #[test]
    fn sequential_cross_process_order_respected() {
        let q = MultQueue::new(3, 8);
        q.enq(0, 10);
        q.enq(1, 11);
        q.enq(2, 12);
        assert_eq!(q.deq(0), Some(10));
        assert_eq!(q.deq(1), Some(11));
        assert_eq!(q.deq(2), Some(12));
    }

    #[test]
    #[should_panic(expected = "exhausted its capacity")]
    fn capacity_overflow_panics() {
        let q = MultQueue::new(1, 2);
        q.enq(0, 1);
        q.enq(0, 2);
        q.enq(0, 3);
    }

    #[test]
    fn concurrent_churn_conserves_items_up_to_multiplicity() {
        // Every dequeued value was enqueued; each item is returned at
        // least once across drains; duplicates are possible but each
        // item is marked at most once per dequeuer.
        let threads = 4;
        let per = 64;
        // Capacity: the final sequential drain marks every remaining
        // item in process 0's taken list.
        let q = MultQueue::new(threads, threads * per + 8);
        let produced = AtomicU64::new(0);
        let got: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|p| {
                    let q = &q;
                    let produced = &produced;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..per {
                            let v = (p as u64) << 8 | i as u64;
                            q.enq(p, v);
                            produced.fetch_add(1, Ordering::Relaxed);
                            if let Some(x) = q.deq(p) {
                                got.push(x);
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for v in got.iter().flatten() {
            *counts.entry(*v).or_default() += 1;
        }
        for (v, c) in &counts {
            assert!(*c <= threads, "item {v} returned {c} times");
            let p = (v >> 8) as usize;
            let i = v & 0xff;
            assert!(p < threads && i < per as u64, "alien item {v}");
        }
        // Drain sequentially: everything not yet taken must appear.
        let mut drained = 0usize;
        while q.deq(0).is_some() {
            drained += 1;
        }
        assert!(counts.len() + drained >= threads * per - threads);
    }

    #[test]
    fn sequential_dequeues_never_duplicate() {
        let q = MultQueue::new(2, 16);
        for v in 0..6 {
            q.enq(0, v);
        }
        let mut seen = Vec::new();
        for p in [0usize, 1, 0, 1, 0, 1] {
            if let Some(v) = q.deq(p) {
                assert!(!seen.contains(&v), "sequential duplicate of {v}");
                seen.push(v);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
