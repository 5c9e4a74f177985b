//! Interleaved lanes: the one lane codec of the Section 3 constructions.
//!
//! A single wide register `R` packs one unbounded bit-string per process:
//! with `n` processes, process `i` owns bits `i, n+i, 2n+i, ...` of `R`
//! (its *lane*). This is the representation the paper borrows from the
//! recoverable fetch&add of Nahum et al. \[26\]. Lane `k`-th bit of process
//! `i` lives at global bit `k*n + i`.
//!
//! [`Layout`] is that geometry. [`Lanes`] is the codec — a layout and a
//! [`LaneEncoding`] — that every production object and every checker
//! twin reads and moves its lanes through, and [`Target`] is the probe
//! rule of a lane write.
//!
//! Both encodings run on word kernels and decode from a borrowed
//! register image without allocating. A binary lane's bits in one limb
//! sit under one mask, so a limb is gathered with one `pext` (or
//! scattered with one `pdep`) and no lane bit ever needs a division by
//! `n` to find its place; a unary lane is counted with one masked
//! popcount per limb.

use crate::{cpu, BigNat, LIMB_BITS};

/// The interleaved lane geometry for `n` processes.
///
/// # Examples
///
/// ```
/// use sl2_bignum::Layout;
///
/// let layout = Layout::new(3);
/// assert_eq!(layout.processes(), 3);
/// // Lane bit 2 of process 1 is global bit 2*3 + 1.
/// assert_eq!(layout.bit(1, 2), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    n: usize,
}

impl Layout {
    /// Creates a layout for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "layout requires at least one process");
        Layout { n }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Global bit position of lane bit `k` of process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn bit(&self, i: usize, k: usize) -> usize {
        assert!(i < self.n, "process index {i} out of range (n={})", self.n);
        k * self.n + i
    }
}

/// Which per-lane value encoding a register uses.
///
/// The §3 constructions store each process's value in its interleaved
/// lane. *How* a value becomes lane bits is a codec choice that the
/// algorithms' atomicity arguments do not depend on — both codecs below
/// update a lane with one atomic `fetch&add` adjustment — but the
/// register width depends on it dramatically (experiment E31).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneEncoding {
    /// The paper's unary prefix code (§3.1): lane bit `v−1` set means
    /// "value at least `v`" — O(v) bits per lane. Writes only ever
    /// *set* bits, so the register image itself is bitwise monotone,
    /// which is what lets §3.1 recover a lane with a single popcount.
    #[default]
    Unary,
    /// Positional (binary) code: lane bit `k` carries weight `2^k` —
    /// O(log v) bits per lane, so `n` lanes holding values up to `V`
    /// need `n·⌈log₂(V+1)⌉` register bits instead of `n·V`. Writes
    /// rewrite the differing bits in one signed adjustment (clears are
    /// allowed, as in §3.2), so the *decoded lane value* is monotone
    /// whenever its single writer only increases it, even though the
    /// bit image is not.
    Binary,
}

/// A wide register's lanes: which bits belong to which lane, and how a
/// lane value is coded into them.
///
/// # Examples
///
/// ```
/// use sl2_bignum::{LaneEncoding, Lanes, Target, WideFaa};
///
/// // Three processes share one register; process 2 writes 6.
/// let lanes = Lanes::new(3, LaneEncoding::Binary);
/// let reg = WideFaa::new();
/// let prev = reg.read_with(|image| lanes.decode(2, image));
/// let new = Target::Exactly(6).next(prev).expect("the lane moves");
/// let (pos, neg) = lanes.adjustments(2, prev, new);
/// reg.adjust(&pos, &neg);
/// // 6 = 0b110: lane bits 1 and 2 of process 2 → global bits 5 and 8.
/// assert_eq!(reg.load().one_bits().collect::<Vec<_>>(), vec![5, 8]);
/// assert_eq!(reg.read_with(|image| lanes.view(image)), vec![0, 0, 6]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lanes {
    /// Which register bits belong to which lane.
    pub layout: Layout,
    /// How a lane value is coded into its lane bits.
    pub encoding: LaneEncoding,
}

impl Lanes {
    /// `n` lanes coded with `encoding`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, encoding: LaneEncoding) -> Self {
        Lanes {
            layout: Layout::new(n),
            encoding,
        }
    }

    /// The value of lane `i` in a borrowed register image.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`, or if a binary lane needs more than 64 bits —
    /// impossible for registers written through this codec, whose lane
    /// values are `u64`.
    pub fn decode(&self, i: usize, image: &BigNat) -> u64 {
        let n = self.layout.processes();
        assert!(i < n, "process index {i} out of range (n={n})");
        match self.encoding {
            LaneEncoding::Unary => decode_unary(image.limbs(), n, i),
            LaneEncoding::Binary => {
                gather(Kernel::detect(), image.limbs(), n, i).expect("binary lane exceeds 64 bits")
            }
        }
    }

    /// The `(posAdj, negAdj)` of the one `fetch&add` that moves lane `i`
    /// from `old` to `new`. Unary lanes only rise (`new ≥ old`) and only
    /// set bits (`negAdj = 0`). A binary lane may also fall, as a
    /// snapshot component does: the adjustments set exactly the digits
    /// that rise and clear exactly the digits that drop, built from the
    /// XOR of the two values with no intermediate `BigNat`s.
    pub fn adjustments(&self, i: usize, old: u64, new: u64) -> (BigNat, BigNat) {
        let n = self.layout.processes();
        match self.encoding {
            LaneEncoding::Unary => {
                debug_assert!(old <= new, "unary lanes are only ever raised");
                (unary_increment(self.layout, i, old, new), BigNat::zero())
            }
            LaneEncoding::Binary => {
                let (diff, kernel) = (old ^ new, Kernel::detect());
                (
                    encode(kernel, n, i, diff & new),
                    encode(kernel, n, i, diff & old),
                )
            }
        }
    }

    /// The sum of all lane values (a counter's read).
    pub fn sum(&self, image: &BigNat) -> u64 {
        match self.encoding {
            LaneEncoding::Unary => image.count_ones() as u64,
            LaneEncoding::Binary => self.values(image).sum(),
        }
    }

    /// The largest lane value (a max register's read).
    pub fn fold(&self, image: &BigNat) -> u64 {
        self.values(image).max().unwrap_or(0)
    }

    /// Every lane value, in lane order (a snapshot's scan). The output
    /// vector is the only allocation.
    pub fn view(&self, image: &BigNat) -> Vec<u64> {
        self.values(image).collect()
    }

    fn values<'a>(&'a self, image: &'a BigNat) -> impl Iterator<Item = u64> + 'a {
        (0..self.layout.processes()).map(move |i| self.decode(i, image))
    }
}

/// Where a lane write moves its lane: the probe rule every §3 write
/// shares, in production and in the checker twins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Up to `v`; a lane already at `v` or above stays (max registers).
    AtLeast(u64),
    /// Up by one (counters).
    Increment,
    /// To exactly `v`, up or down; a lane at `v` stays (snapshots).
    Exactly(u64),
}

impl Target {
    /// The value a write moves a lane at `cur` to, or `None` when the
    /// lane stays: then the `fetch&add(R, 0)` probe that read `cur` is
    /// the write's linearization point and no add follows.
    pub fn next(self, cur: u64) -> Option<u64> {
        match self {
            Target::AtLeast(v) if v <= cur => None,
            Target::Exactly(v) if v == cur => None,
            Target::AtLeast(v) | Target::Exactly(v) => Some(v),
            Target::Increment => Some(cur + 1),
        }
    }
}

/// The unary lane `i` of `n` in `limbs`: the count of its set bits (the
/// lane is always a prefix of ones), one masked popcount per limb
/// rather than a modulo per set bit, so a dense unary register decodes
/// at ~`64/n` steps per limb.
fn decode_unary(limbs: &[u64], n: usize, i: usize) -> u64 {
    if n == 1 {
        return limbs.iter().map(|w| w.count_ones() as u64).sum();
    }
    if LIMB_BITS % n == 0 {
        // The lane pattern repeats every limb: one constant mask, one
        // popcount per limb.
        let mask = STRIDE[n] << i;
        return limbs.iter().map(|w| (w & mask).count_ones() as u64).sum();
    }
    let mut count = 0usize;
    let mut next = i; // global index of the lane's next bit
    for (j, &w) in limbs.iter().enumerate() {
        let limb_start = j * LIMB_BITS;
        let limb_end = limb_start + LIMB_BITS;
        if next >= limb_end {
            continue;
        }
        if w == 0 {
            // Skip the zero limb; land `next` on the first lane bit at
            // or past the limb boundary.
            next += (limb_end - next).div_ceil(n) * n;
            continue;
        }
        let mut mask = 0u64;
        while next < limb_end {
            mask |= 1u64 << (next - limb_start);
            next += n;
        }
        count += (w & mask).count_ones() as usize;
    }
    count as u64
}

/// The unary increment of the §3.1 max register: the image of setting
/// lane bits `from+1 ..= to` of process `i` (lane bit `v-1` set means
/// "value at least v").
fn unary_increment(layout: Layout, i: usize, from: u64, to: u64) -> BigNat {
    let mut out = BigNat::zero();
    for v in (from + 1)..=to {
        out.set_bit(layout.bit(i, (v - 1) as usize), true);
    }
    out
}

/// The binary lane image of process `i` of `n` holding `v`: local bit
/// `k` of `v` becomes global bit `k*n + i`.
fn encode(kernel: Kernel, n: usize, i: usize, v: u64) -> BigNat {
    assert!(i < n, "process index {i} out of range (n={n})");
    if v == 0 {
        return BigNat::zero();
    }
    let top = (u64::BITS - 1 - v.leading_zeros()) as usize * n + i;
    if top < LIMB_BITS {
        // One limb: the first step of `LaneLimbs`, taken directly.
        BigNat::from(kernel.expand(v, STRIDE[n.min(LIMB_BITS)] << i))
    } else if top < 2 * LIMB_BITS {
        let mut limbs = [0u64; 2];
        scatter(kernel, v, n, i, &mut limbs);
        BigNat::from(limbs[0] as u128 | (limbs[1] as u128) << LIMB_BITS)
    } else {
        let mut limbs = vec![0u64; top / LIMB_BITS + 1];
        scatter(kernel, v, n, i, &mut limbs);
        BigNat::from_limb_vec(limbs)
    }
}

/// `STRIDE[n]`: bits `0, n, 2n, …` of one limb (bit 0 alone once
/// `n ≥ 64`). A lane's bits in any limb are this mask shifted up by
/// the offset of the lane's lowest bit there.
const STRIDE: [u64; LIMB_BITS + 1] = {
    let mut table = [1u64; LIMB_BITS + 1];
    let mut n = 1;
    while n < LIMB_BITS {
        let mut b = n;
        while b < LIMB_BITS {
            table[n] |= 1 << b;
            b += n;
        }
        n += 1;
    }
    table
};

/// One lane, limb by limb: each item is the mask of the lane's bits in
/// the next limb and the lane index of the lowest of them. Endless; zip
/// it with the limbs.
struct LaneLimbs {
    stride: u64,
    n: usize,
    /// Lowest lane bit at or past the current limb, relative to it.
    offset: usize,
    /// Lane index of that bit.
    k: usize,
}

impl LaneLimbs {
    fn new(n: usize, i: usize) -> Self {
        LaneLimbs {
            stride: STRIDE[n.min(LIMB_BITS)],
            n,
            offset: i,
            k: 0,
        }
    }
}

impl Iterator for LaneLimbs {
    type Item = (u64, usize);

    #[inline]
    fn next(&mut self) -> Option<(u64, usize)> {
        if self.offset >= LIMB_BITS {
            // Only when `n > 64`: this limb holds none of the lane.
            self.offset -= LIMB_BITS;
            return Some((0, self.k));
        }
        let mask = self.stride << self.offset;
        let first = self.k;
        let count = mask.count_ones() as usize;
        self.k += count;
        self.offset = self.offset + count * self.n - LIMB_BITS;
        Some((mask, first))
    }
}

/// How a limb's lane bits are gathered and scattered: BMI2's
/// `pext`/`pdep` where the CPU runs them in hardware, and a portable
/// loop over set bits everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Bmi2,
    Portable,
}

impl Kernel {
    #[inline]
    fn detect() -> Self {
        if cpu::fast_bmi2() {
            Kernel::Bmi2
        } else {
            Kernel::Portable
        }
    }

    /// The bits of `w` under `mask`, packed at the bottom (`pext`).
    #[inline(always)]
    fn compress(self, w: u64, mask: u64) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Bmi2 {
            let out: u64;
            // SAFETY: `Bmi2` is chosen only where CPUID reports BMI2,
            // and the instruction touches nothing but its registers.
            unsafe {
                core::arch::asm!(
                    "pext {out}, {w}, {mask}",
                    w = in(reg) w,
                    mask = in(reg) mask,
                    out = lateout(reg) out,
                    options(pure, nomem, nostack, preserves_flags),
                );
            }
            return out;
        }
        // Each set bit lands at its rank among the mask's bits.
        let (mut bits, mut out) = (w & mask, 0);
        while bits != 0 {
            let low = bits & bits.wrapping_neg();
            out |= 1 << (mask & (low - 1)).count_ones();
            bits ^= low;
        }
        out
    }

    /// The low bits of `x` spread onto `mask`'s bits, lowest first
    /// (`pdep`).
    #[inline(always)]
    fn expand(self, x: u64, mask: u64) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Bmi2 {
            let out: u64;
            // SAFETY: as in `compress`.
            unsafe {
                core::arch::asm!(
                    "pdep {out}, {x}, {mask}",
                    x = in(reg) x,
                    mask = in(reg) mask,
                    out = lateout(reg) out,
                    options(pure, nomem, nostack, preserves_flags),
                );
            }
            return out;
        }
        let (mut x, mut mask, mut out) = (x, mask, 0);
        while x != 0 && mask != 0 {
            let low = mask & mask.wrapping_neg();
            if x & 1 != 0 {
                out |= low;
            }
            x >>= 1;
            mask ^= low;
        }
        out
    }
}

/// Lane `i` of `n` in `limbs`, one kernel call per limb; `None` if a
/// set lane bit lies at lane index 64 or above.
#[inline]
fn gather(kernel: Kernel, limbs: &[u64], n: usize, i: usize) -> Option<u64> {
    let mut out = 0u64;
    for (&w, (mask, k)) in limbs.iter().zip(LaneLimbs::new(n, i)) {
        let bits = kernel.compress(w, mask);
        if bits != 0 {
            if k + (u64::BITS - bits.leading_zeros()) as usize > 64 {
                return None;
            }
            out |= bits << k;
        }
    }
    Some(out)
}

/// Writes lane `i` of `n` holding `v` over `out`, one kernel call per
/// limb.
#[inline]
fn scatter(kernel: Kernel, v: u64, n: usize, i: usize, out: &mut [u64]) {
    for (limb, (mask, k)) in out.iter_mut().zip(LaneLimbs::new(n, i)) {
        *limb = kernel.expand(v.checked_shr(k as u32).unwrap_or(0), mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time reference the word kernels are checked
    /// against: `BigNat` lane values, one global bit at a time.
    impl Layout {
        /// Spreads a process-local value into its lane image: local bit
        /// `k` becomes global bit `k*n + i`.
        fn encode(&self, i: usize, local: &BigNat) -> BigNat {
            let mut out = BigNat::zero();
            for k in local.one_bits() {
                out.set_bit(self.bit(i, k), true);
            }
            out
        }

        /// Extracts process `i`'s local value from a register image.
        fn decode(&self, i: usize, register: &BigNat) -> BigNat {
            self.decode_all(register).swap_remove(i)
        }

        /// Decodes the whole register into one local value per process.
        fn decode_all(&self, register: &BigNat) -> Vec<BigNat> {
            let mut out = vec![BigNat::zero(); self.n];
            for g in register.one_bits() {
                out[g % self.n].set_bit(g / self.n, true);
            }
            out
        }

        /// The `(posAdj, negAdj)` that rewrite exactly the lane bits
        /// where `old` and `new` differ (§3.2, step 2 of `update`).
        fn adjustments(&self, i: usize, old: &BigNat, new: &BigNat) -> (BigNat, BigNat) {
            let mut pos = BigNat::zero();
            let mut neg = BigNat::zero();
            for k in 0..old.bit_len().max(new.bit_len()) {
                match (old.bit(k), new.bit(k)) {
                    (false, true) => pos.set_bit(self.bit(i, k), true),
                    (true, false) => neg.set_bit(self.bit(i, k), true),
                    _ => {}
                }
            }
            (pos, neg)
        }
    }

    /// The lane counts the differential tests sweep.
    const NS: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 16];

    /// The portable kernel, called directly on every host, and
    /// whichever the CPU selects (BMI2 where it runs in hardware).
    fn kernels() -> [Kernel; 2] {
        [Kernel::Portable, Kernel::detect()]
    }

    fn binary(n: usize) -> Lanes {
        Lanes::new(n, LaneEncoding::Binary)
    }

    fn unary(n: usize) -> Lanes {
        Lanes::new(n, LaneEncoding::Unary)
    }

    /// A lane value: the named edges, or random at a random width.
    fn lane_value() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(1u64 << 63),
            Just(u64::MAX),
            (any::<u64>(), 0u64..64).prop_map(|(v, shift)| v >> shift),
        ]
    }

    /// A register image: inline (≤ 2 limbs), topped exactly at bit 127
    /// or 128, or heap (3–6 limbs), with dense or sparse limbs.
    fn image() -> impl Strategy<Value = BigNat> {
        let limbs = |len: std::ops::Range<usize>| {
            (prop::collection::vec(any::<u64>(), len), any::<u64>()).prop_map(
                |(mut limbs, thin)| {
                    if thin % 2 == 0 {
                        for w in &mut limbs {
                            *w &= w.rotate_left(17) & w.rotate_left(41);
                        }
                    }
                    limbs
                },
            )
        };
        let build = |limbs: Vec<u64>| BigNat::from_limb_vec(limbs);
        prop_oneof![
            limbs(0..3).prop_map(build),
            limbs(2..3).prop_map(move |mut l| {
                l[1] = (l[1] & (u64::MAX >> 1)) | 1 << 63;
                build(l)
            }),
            limbs(2..3).prop_map(move |mut l| {
                l.push(1);
                build(l)
            }),
            limbs(3..7).prop_map(build),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_kernel_decodes_like_the_bit_oracle(image in image(), pick in any::<u64>()) {
            let n = NS[pick as usize % NS.len()];
            let layout = Layout::new(n);
            let oracle = layout.decode_all(&image);
            for (i, lane) in oracle.iter().enumerate() {
                let want = lane.to_u64();
                for kernel in kernels() {
                    prop_assert_eq!(gather(kernel, image.limbs(), n, i), want, "{:?} n={} lane {}", kernel, n, i);
                }
                if let Some(want) = want {
                    prop_assert_eq!(binary(n).decode(i, &image), want);
                }
                prop_assert_eq!(unary(n).decode(i, &image), lane.count_ones() as u64);
            }
            let all: Option<Vec<u64>> = oracle.iter().map(BigNat::to_u64).collect();
            if let Some(all) = all {
                prop_assert_eq!(binary(n).view(&image), all);
            }
        }

        #[test]
        fn word_kernel_encodes_like_the_bit_oracle(
            pick in any::<u64>(),
            values in prop::collection::vec(lane_value(), 16..17),
            old in lane_value(),
        ) {
            let n = NS[pick as usize % NS.len()];
            let (layout, lanes) = (Layout::new(n), binary(n));
            let mut image = BigNat::zero();
            for (i, &v) in values.iter().take(n).enumerate() {
                let want = layout.encode(i, &BigNat::from(v));
                for kernel in kernels() {
                    prop_assert_eq!(&encode(kernel, n, i, v), &want, "{:?} n={} lane {}", kernel, n, i);
                }
                prop_assert_eq!(
                    lanes.adjustments(i, old, v),
                    layout.adjustments(i, &BigNat::from(old), &BigNat::from(v))
                );
                image += &want;
            }
            let values = &values[..n];
            prop_assert_eq!(lanes.view(&image), values.to_vec());
            if let Some(total) = values.iter().try_fold(0u64, |acc, &v| acc.checked_add(v)) {
                prop_assert_eq!(lanes.sum(&image), total);
            }
        }

        #[test]
        fn lane_roundtrip(pick in any::<u64>(), i in 0usize..16, v in image()) {
            let n = NS[pick as usize % NS.len()];
            let (layout, i) = (Layout::new(n), i % n);
            prop_assert_eq!(layout.decode(i, &layout.encode(i, &v)), v);
        }

        #[test]
        fn lanes_never_collide(n in 2usize..6, v in image(), w in image()) {
            let layout = Layout::new(n);
            let sum = &layout.encode(0, &v) + &layout.encode(1, &w);
            prop_assert_eq!(layout.decode(0, &sum), v);
            prop_assert_eq!(layout.decode(1, &sum), w);
        }

        #[test]
        fn adjustments_move_lane(n in 1usize..5, i in 0usize..5, old in image(), new in image()) {
            let (layout, i) = (Layout::new(n), i % n);
            let (pos, neg) = layout.adjustments(i, &old, &new);
            let reg = layout.encode(i, &old).apply_adjustment(&pos, &neg);
            prop_assert_eq!(layout.decode(i, &reg), new);
        }

        #[test]
        fn decode_all_consistent(n in 1usize..5, v in image()) {
            let layout = Layout::new(n);
            let all = layout.decode_all(&layout.encode(n - 1, &v));
            prop_assert_eq!(all.len(), n);
            prop_assert_eq!(&all[n - 1], &v);
            prop_assert!(all[..n - 1].iter().all(BigNat::is_zero));
        }
    }

    #[test]
    fn word_kernel_matches_the_oracle_at_every_lane_top() {
        // Every (n, lane, top lane bit), so the top global bit crosses
        // 127/128 — the inline/heap boundary — wherever it can. Past 64
        // lanes some limbs hold none of a lane's bits.
        for n in NS.into_iter().chain([65, 130]) {
            let layout = Layout::new(n);
            for i in 0..n {
                for k in 0..64 {
                    for v in [1u64 << k, u64::MAX >> (63 - k)] {
                        let want = layout.encode(i, &BigNat::from(v));
                        for kernel in kernels() {
                            let got = encode(kernel, n, i, v);
                            assert_eq!(got, want, "{kernel:?} n={n} lane {i} v={v:#x}");
                            assert_eq!(gather(kernel, want.limbs(), n, i), Some(v));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_every_process() {
        let layout = Layout::new(5);
        let local = BigNat::from(0b1011001u64);
        for i in 0..5 {
            let lane = layout.encode(i, &local);
            assert_eq!(layout.decode(i, &lane), local);
            for j in 0..5 {
                if j != i {
                    assert!(layout.decode(j, &lane).is_zero());
                }
            }
        }
    }

    #[test]
    fn lanes_are_disjoint_and_compose_additively() {
        let layout = Layout::new(3);
        let a = layout.encode(0, &BigNat::from(0b11u64));
        let b = layout.encode(1, &BigNat::from(0b10u64));
        let c = layout.encode(2, &BigNat::from(0b01u64));
        let sum = &(&a + &b) + &c;
        let all = layout.decode_all(&sum);
        assert_eq!(all[0], BigNat::from(0b11u64));
        assert_eq!(all[1], BigNat::from(0b10u64));
        assert_eq!(all[2], BigNat::from(0b01u64));
    }

    #[test]
    fn single_process_layout_is_identity() {
        let layout = Layout::new(1);
        let v = BigNat::from(0xdead_beefu64);
        assert_eq!(layout.encode(0, &v), v);
        assert_eq!(layout.decode(0, &v), v);
    }

    #[test]
    fn adjustments_rewrite_exactly_the_difference() {
        let layout = Layout::new(4);
        let old = BigNat::from(0b1100u64);
        let new = BigNat::from(0b0110u64);
        let (pos, neg) = layout.adjustments(2, &old, &new);
        // Start from the encoded old lane plus noise in other lanes.
        let noise = layout.encode(0, &BigNat::from(0b111u64));
        let reg = &layout.encode(2, &old) + &noise;
        let reg2 = reg.apply_adjustment(&pos, &neg);
        assert_eq!(layout.decode(2, &reg2), new);
        assert_eq!(layout.decode(0, &reg2), BigNat::from(0b111u64));
    }

    #[test]
    fn adjustments_for_equal_values_are_zero() {
        let layout = Layout::new(2);
        let v = BigNat::from(42u64);
        let (pos, neg) = layout.adjustments(1, &v, &v);
        assert!(pos.is_zero() && neg.is_zero());
    }

    #[test]
    fn unary_increment_encodes_prefix() {
        let lanes = unary(2);
        // process 1 raises its unary value from 2 to 5: sets lane bits 2,3,4
        let (inc, neg) = lanes.adjustments(1, 2, 5);
        assert!(neg.is_zero(), "unary lanes only set bits");
        assert_eq!(lanes.decode(1, &inc), 3); // bits 2..4 only
        let full = &lanes.adjustments(1, 0, 2).0 + &inc;
        assert_eq!(lanes.decode(1, &full), 5);
    }

    #[test]
    fn unary_increment_noop_when_not_larger() {
        assert!(unary_increment(Layout::new(2), 0, 3, 3).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_bad_process() {
        binary(2).decode(2, &BigNat::zero());
    }

    #[test]
    fn binary_decode_matches_the_oracle() {
        let layout = Layout::new(3);
        let reg = &layout.encode(0, &BigNat::from(0b1101u64))
            + &layout.encode(2, &BigNat::from(u64::MAX));
        for i in 0..3 {
            assert_eq!(
                Some(binary(3).decode(i, &reg)),
                layout.decode(i, &reg).to_u64(),
                "lane {i}"
            );
        }
        // A lane needing 65 bits is rejected, not truncated.
        let wide = layout.encode(1, &BigNat::pow2(64));
        assert_eq!(gather(Kernel::detect(), wide.limbs(), 3, 1), None);
        assert_eq!(layout.decode(1, &wide).to_u64(), None);
    }

    #[test]
    fn binary_view_matches_the_oracle() {
        let layout = Layout::new(4);
        let mut reg = BigNat::zero();
        for (i, v) in [(0usize, 7u64), (1, 0), (2, u64::MAX), (3, 0b1010)] {
            reg = &reg + &layout.encode(i, &BigNat::from(v));
        }
        let slow: Vec<u64> = layout
            .decode_all(&reg)
            .iter()
            .map(|b| b.to_u64().expect("fits"))
            .collect();
        assert_eq!(binary(4).view(&reg), slow);
    }

    #[test]
    #[should_panic(expected = "binary lane exceeds 64 bits")]
    fn binary_view_rejects_a_lane_past_64_bits() {
        binary(4).view(&Layout::new(4).encode(0, &BigNat::pow2(64)));
    }

    #[test]
    fn decode_unary_counts_without_extraction() {
        let lanes = unary(3);
        let reg = &lanes.adjustments(0, 0, 5).0 + &lanes.adjustments(2, 0, 9).0;
        assert_eq!(lanes.view(&reg), vec![5, 0, 9]);
        assert_eq!((lanes.fold(&reg), lanes.sum(&reg)), (9, 14));
    }

    #[test]
    fn binary_encode_decode_roundtrip_every_process() {
        let lanes = binary(5);
        for v in [0u64, 1, 6, 1000, u64::MAX] {
            for i in 0..5 {
                let (image, _) = lanes.adjustments(i, 0, v);
                assert_eq!(lanes.decode(i, &image), v, "lane {i} value {v}");
                for j in 0..5 {
                    if j != i {
                        assert_eq!(lanes.decode(j, &image), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn binary_adjustments_rewrite_exactly_the_difference() {
        let lanes = binary(4);
        // Lane 2 moves 12 → 6 while lane 0 holds noise; only lane 2's
        // differing digits change.
        let (pos, neg) = lanes.adjustments(2, 12, 6);
        let reg = &lanes.adjustments(2, 0, 12).0 + &lanes.adjustments(0, 0, 7).0;
        let reg2 = reg.apply_adjustment(&pos, &neg);
        assert_eq!(lanes.view(&reg2), vec![7, 0, 6, 0]);
        // And they agree with the BigNat-valued oracle.
        let (p2, n2) = lanes
            .layout
            .adjustments(2, &BigNat::from(12u64), &BigNat::from(6u64));
        assert_eq!((pos, neg), (p2, n2));
    }

    #[test]
    fn binary_adjustments_for_equal_values_are_zero() {
        let (pos, neg) = binary(2).adjustments(1, 42, 42);
        assert!(pos.is_zero() && neg.is_zero());
    }

    #[test]
    fn binary_lanes_are_log_width() {
        // The whole point: n lanes at value v cost n·⌈log₂(v+1)⌉ bits,
        // not n·v. 4 lanes at 100 000 (17 bits each) fit a 128-bit
        // register.
        let n = 4;
        let lanes = binary(n);
        let mut reg = BigNat::zero();
        for i in 0..n {
            reg = &reg + &lanes.adjustments(i, 0, 100_000).0;
        }
        assert!(reg.is_inline(), "binary register must stay inline");
        assert_eq!(reg.bit_len(), (17 - 1) * n + n);
        assert_eq!(lanes.sum(&reg), 400_000);
    }

    #[test]
    fn both_encodings_share_the_lane_geometry() {
        let (u, b) = (unary(3), binary(3));
        assert_eq!((u.layout, u.layout.processes()), (b.layout, 3));
        // Global bit of lane bit k: the first unary unit and the binary
        // digit of weight 1 of process 1 are both bit 1.
        assert_eq!(u.adjustments(1, 0, 1), b.adjustments(1, 0, 1));
        assert_eq!(b.layout.bit(1, 2), 7);
    }

    #[test]
    fn a_target_moves_the_lane_or_leaves_the_probe_as_the_write() {
        assert_eq!(Target::AtLeast(3).next(2), Some(3));
        assert_eq!(Target::AtLeast(3).next(3), None);
        assert_eq!(Target::AtLeast(3).next(4), None);
        assert_eq!(Target::Exactly(3).next(4), Some(3));
        assert_eq!(Target::Exactly(3).next(3), None);
        assert_eq!(Target::Increment.next(3), Some(4));
    }
}
