//! Interleaved-bit layout shared by the Section 3 constructions.
//!
//! A single wide register `R` packs one unbounded bit-string per process:
//! with `n` processes, process `i` owns bits `i, n+i, 2n+i, ...` of `R`
//! (its *lane*). This is the representation the paper borrows from the
//! recoverable fetch&add of Nahum et al. \[26\]. Lane `k`-th bit of process
//! `i` lives at global bit `k*n + i`.
//!
//! [`Layout`] converts between a process-local value and its lane image,
//! and decodes a whole register into per-process values.
//!
//! The `u64` entry points — [`Layout::decode_u64`],
//! [`Layout::decode_all_u64`], [`BinaryLayout`] and the binary arm of
//! [`LaneEncoding`] — run on a word kernel: a lane's bits in one limb
//! sit under one mask, so a limb is gathered with one `pext` (or
//! scattered with one `pdep`) and no lane bit ever needs a division by
//! `n` to find its place.

use crate::{cpu, BigNat, LIMB_BITS};

/// The interleaved lane layout for `n` processes.
///
/// # Examples
///
/// ```
/// use sl2_bignum::{BigNat, Layout};
///
/// let layout = Layout::new(3);
/// // Process 1 encodes local value 0b101 into its lane.
/// let lane = layout.encode(1, &BigNat::from(0b101u64));
/// // Global bits 0*3+1 = 1 and 2*3+1 = 7 are set.
/// assert_eq!(lane.one_bits().collect::<Vec<_>>(), vec![1, 7]);
/// assert_eq!(layout.decode(1, &lane), BigNat::from(0b101u64));
/// // Other lanes are untouched.
/// assert!(layout.decode(0, &lane).is_zero());
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

    /// Spreads a process-local value into its lane image: local bit `k`
    /// becomes global bit `k*n + i`.
    pub fn encode(&self, i: usize, local: &BigNat) -> BigNat {
        let mut out = BigNat::zero();
        for k in local.one_bits() {
            out.set_bit(self.bit(i, k), true);
        }
        out
    }

    /// Extracts process `i`'s local value from a register image.
    ///
    /// Works on a *borrowed* image (e.g. inside
    /// [`crate::WideFaa::read_with`]); the result stays in `BigNat`'s
    /// inline representation — and therefore allocates nothing — while
    /// the lane value fits in 128 bits.
    pub fn decode(&self, i: usize, register: &BigNat) -> BigNat {
        assert!(i < self.n, "process index {i} out of range (n={})", self.n);
        let mut out = BigNat::zero();
        for g in register.one_bits() {
            if g % self.n == i {
                out.set_bit(g / self.n, true);
            }
        }
        out
    }

    /// Extracts process `i`'s local value directly into a `u64`, with
    /// no intermediate `BigNat`; `None` if the lane value needs more
    /// than 64 bits. This is the decode the §3.2 `scan` uses (component
    /// values are `u64` at the API boundary).
    pub fn decode_u64(&self, i: usize, register: &BigNat) -> Option<u64> {
        assert!(i < self.n, "process index {i} out of range (n={})", self.n);
        gather(Kernel::detect(), register.limbs(), self.n, i)
    }

    /// Decodes the whole register into one local value per process —
    /// the "view" reconstruction used by `scan`/`ReadMax`.
    pub fn decode_all(&self, register: &BigNat) -> Vec<BigNat> {
        let mut out = vec![BigNat::zero(); self.n];
        for g in register.one_bits() {
            out[g % self.n].set_bit(g / self.n, true);
        }
        out
    }

    /// Decodes the whole register into one `u64` per process, one
    /// gather per lane and limb, with no per-lane `BigNat`s; `None` if
    /// any lane needs more than 64 bits. One output vector is the only
    /// allocation.
    pub fn decode_all_u64(&self, register: &BigNat) -> Option<Vec<u64>> {
        let kernel = Kernel::detect();
        let mut out = vec![0u64; self.n];
        for (i, lane) in out.iter_mut().enumerate() {
            *lane = gather(kernel, register.limbs(), self.n, i)?;
        }
        Some(out)
    }

    /// The fetch&add adjustments that move process `i`'s lane from
    /// `old` to `new`: `(posAdj, negAdj)` such that applying
    /// `+posAdj − negAdj` to the register rewrites exactly the differing
    /// lane bits (§3.2, step 2 of `update`).
    pub fn adjustments(&self, i: usize, old: &BigNat, new: &BigNat) -> (BigNat, BigNat) {
        let mut pos = BigNat::zero();
        let mut neg = BigNat::zero();
        let top = old.bit_len().max(new.bit_len());
        for k in 0..top {
            match (old.bit(k), new.bit(k)) {
                (false, true) => pos.set_bit(self.bit(i, k), true),
                (true, false) => neg.set_bit(self.bit(i, k), true),
                _ => {}
            }
        }
        (pos, neg)
    }

    /// The unary increment used by the §3.1 max register: the image of
    /// setting lane bits `from+1 ..= to` (1-indexed values held in unary;
    /// lane bit `v-1` set means "value at least v").
    pub fn unary_increment(&self, i: usize, from: u64, to: u64) -> BigNat {
        let mut out = BigNat::zero();
        for v in (from + 1)..=to {
            out.set_bit(self.bit(i, (v - 1) as usize), true);
        }
        out
    }

    /// Decodes the unary lane of process `i` into the value it encodes
    /// (the count of set lane bits; the lane is always a prefix of
    /// ones). Counts directly off the borrowed register image — no
    /// intermediate lane extraction, no allocation at any width — one
    /// masked popcount per limb rather than a modulo per set bit, so a
    /// dense unary register decodes at ~`64/n` steps per limb.
    pub fn decode_unary(&self, i: usize, register: &BigNat) -> u64 {
        assert!(i < self.n, "process index {i} out of range (n={})", self.n);
        let n = self.n;
        if n == 1 {
            return register.count_ones() as u64;
        }
        if LIMB_BITS % n == 0 {
            // The lane pattern repeats every limb: one constant mask,
            // one popcount per limb.
            let mut mask = 0u64;
            let mut b = i;
            while b < LIMB_BITS {
                mask |= 1u64 << b;
                b += n;
            }
            return register
                .limbs()
                .iter()
                .map(|w| (w & mask).count_ones() as usize)
                .sum::<usize>() as u64;
        }
        let mut count = 0usize;
        let mut next = i; // global index of the lane's next bit
        for (j, &w) in register.limbs().iter().enumerate() {
            let limb_start = j * LIMB_BITS;
            let limb_end = limb_start + LIMB_BITS;
            if next >= limb_end {
                continue;
            }
            if w == 0 {
                // Skip the zero limb; land `next` on the first lane bit
                // at or past the limb boundary.
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
    /// O(log v) bits per lane. Writes rewrite the differing bits in
    /// one signed adjustment (clears are allowed, as in §3.2), so the
    /// *decoded lane value* is monotone whenever its single writer only
    /// increases it, even though the bit image is not.
    Binary,
}

/// The lane codec every single-writer monotone lane user shares (max
/// registers, counters, and their checker twins): one arm per encoding,
/// so an object picks its register width by picking a variant.
impl LaneEncoding {
    /// Decodes lane `i` of a borrowed register image (allocation-free).
    pub fn decode(self, layout: &Layout, i: usize, image: &BigNat) -> u64 {
        match self {
            LaneEncoding::Unary => layout.decode_unary(i, image),
            LaneEncoding::Binary => BinaryLayout::over(*layout).decode(i, image),
        }
    }

    /// The `(posAdj, negAdj)` of the one `fetch&add` that moves lane `i`
    /// from `old` to `new`. Unary lanes only rise (`new ≥ old`) and only
    /// set bits (`negAdj = 0`). A binary lane may also fall, as a
    /// snapshot component does; when it rises, its top differing digit
    /// is a set digit, so `posAdj > negAdj`.
    pub fn adjustments(self, layout: &Layout, i: usize, old: u64, new: u64) -> (BigNat, BigNat) {
        match self {
            LaneEncoding::Unary => {
                debug_assert!(old <= new, "unary lanes are only ever raised");
                (layout.unary_increment(i, old, new), BigNat::zero())
            }
            LaneEncoding::Binary => BinaryLayout::over(*layout).adjustments(i, old, new),
        }
    }

    /// Sum of all lane values in a register image — the counter fold.
    pub fn sum(self, layout: &Layout, image: &BigNat) -> u64 {
        match self {
            LaneEncoding::Unary => image.count_ones() as u64,
            LaneEncoding::Binary => {
                let (kernel, n) = (Kernel::detect(), layout.processes());
                (0..n)
                    .map(|i| {
                        gather(kernel, image.limbs(), n, i).expect("binary lane exceeds 64 bits")
                    })
                    .sum()
            }
        }
    }
}

/// Log-width companion of [`Layout`]: the same interleaved lanes, with
/// each lane holding its value in *binary* rather than unary.
///
/// A lane value `v` occupies `⌈log₂(v+1)⌉` lane bits instead of `v`,
/// so a register of `n` lanes holding values up to `V` needs
/// `n·⌈log₂(V+1)⌉` bits instead of `n·V` — this is what lifts the
/// sharded quotient encoding's 64·S inline-value ceiling (ROADMAP item
/// 5): with 4 shards and 4 lanes, values into the hundreds of
/// thousands still fit a 128-bit register.
///
/// The price is the update discipline: moving a lane from `old` to
/// `new` clears the bits that drop and sets the bits that rise, as one
/// atomic `+pos − neg` adjustment ([`crate::WideFaa::fetch_adjust`]) —
/// exactly the §3.2 snapshot update shape, and sound for the same
/// reason (each lane has a single writer, so the probe that computed
/// `old` cannot be invalidated by another writer of the same lane).
///
/// # Examples
///
/// ```
/// use sl2_bignum::{BigNat, BinaryLayout};
///
/// let layout = BinaryLayout::new(3);
/// let image = layout.encode(1, 6);
/// assert_eq!(layout.decode(1, &image), 6);
/// // 6 = 0b110: lane bits 1 and 2 of process 1 → global bits 4 and 7.
/// assert_eq!(image.one_bits().collect::<Vec<_>>(), vec![4, 7]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinaryLayout {
    inner: Layout,
}

impl BinaryLayout {
    /// Creates a binary-lane layout for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        BinaryLayout {
            inner: Layout::new(n),
        }
    }

    /// Wraps an existing interleaving: same lane geometry, binary
    /// values.
    pub fn over(layout: Layout) -> Self {
        BinaryLayout { inner: layout }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.inner.processes()
    }

    /// The underlying lane interleaving (shared with the unary codec).
    pub fn interleaving(&self) -> Layout {
        self.inner
    }

    /// Lane bits needed to hold `v` in binary.
    pub const fn bits_for(v: u64) -> u32 {
        u64::BITS - v.leading_zeros()
    }

    /// The lane image of process `i` holding value `v`: local binary
    /// bit `k` of `v` becomes global bit `k*n + i`.
    pub fn encode(&self, i: usize, v: u64) -> BigNat {
        self.encode_with(Kernel::detect(), i, v)
    }

    fn encode_with(&self, kernel: Kernel, i: usize, v: u64) -> BigNat {
        let n = self.processes();
        assert!(i < n, "process index {i} out of range (n={n})");
        if v == 0 {
            return BigNat::zero();
        }
        let top = (Self::bits_for(v) as usize - 1) * n + i;
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

    /// Decodes process `i`'s binary lane from a borrowed register
    /// image. Allocation-free at every register width.
    ///
    /// # Panics
    ///
    /// Panics if the lane value needs more than 64 bits — impossible
    /// for registers written through this codec, whose lane values are
    /// `u64` at the API boundary.
    pub fn decode(&self, i: usize, register: &BigNat) -> u64 {
        self.inner
            .decode_u64(i, register)
            .expect("binary lane exceeds 64 bits")
    }

    /// The fetch&add adjustments that move process `i`'s lane from
    /// `old` to `new`: `(posAdj, negAdj)` rewriting exactly the
    /// differing binary digits. Built directly from the XOR of the two
    /// `u64`s — no intermediate `BigNat`s, no allocation while the
    /// adjustments stay inline.
    pub fn adjustments(&self, i: usize, old: u64, new: u64) -> (BigNat, BigNat) {
        let (diff, kernel) = (old ^ new, Kernel::detect());
        (
            self.encode_with(kernel, i, diff & new),
            self.encode_with(kernel, i, diff & old),
        )
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

    /// The lane counts the differential tests sweep.
    const NS: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 16];

    /// The portable kernel, called directly on every host, and
    /// whichever the CPU selects (BMI2 where it runs in hardware).
    fn kernels() -> [Kernel; 2] {
        [Kernel::Portable, Kernel::detect()]
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
            for i in 0..n {
                let want = layout.decode(i, &image).to_u64();
                for kernel in kernels() {
                    prop_assert_eq!(gather(kernel, image.limbs(), n, i), want, "{:?} n={} lane {}", kernel, n, i);
                }
                prop_assert_eq!(layout.decode_u64(i, &image), want);
            }
            let all: Option<Vec<u64>> = (0..n).map(|i| layout.decode(i, &image).to_u64()).collect();
            prop_assert_eq!(layout.decode_all_u64(&image), all);
        }

        #[test]
        fn word_kernel_encodes_like_the_bit_oracle(
            pick in any::<u64>(),
            lanes in prop::collection::vec(lane_value(), 16..17),
            old in lane_value(),
        ) {
            let n = NS[pick as usize % NS.len()];
            let (layout, binary) = (Layout::new(n), BinaryLayout::new(n));
            let mut image = BigNat::zero();
            for (i, &v) in lanes.iter().take(n).enumerate() {
                let want = layout.encode(i, &BigNat::from(v));
                for kernel in kernels() {
                    prop_assert_eq!(&binary.encode_with(kernel, i, v), &want, "{:?} n={} lane {}", kernel, n, i);
                }
                prop_assert_eq!(
                    binary.adjustments(i, old, v),
                    layout.adjustments(i, &BigNat::from(old), &BigNat::from(v))
                );
                image += &want;
            }
            let values = &lanes[..n];
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(binary.decode(i, &image), v);
            }
            if let Some(total) = values.iter().try_fold(0u64, |acc, &v| acc.checked_add(v)) {
                prop_assert_eq!(LaneEncoding::Binary.sum(&layout, &image), total);
            }
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
                            let got = BinaryLayout::new(n).encode_with(kernel, i, v);
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
        let layout = Layout::new(2);
        // process 1 raises its unary value from 2 to 5: sets lane bits 2,3,4
        let inc = layout.unary_increment(1, 2, 5);
        let reg = inc.clone();
        assert_eq!(layout.decode_unary(1, &reg), 3); // bits 2..4 only
        let full = &layout.unary_increment(1, 0, 2) + &inc;
        assert_eq!(layout.decode_unary(1, &full), 5);
    }

    #[test]
    fn unary_increment_noop_when_not_larger() {
        let layout = Layout::new(2);
        assert!(layout.unary_increment(0, 3, 3).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_bad_process() {
        Layout::new(2).decode(2, &BigNat::zero());
    }

    #[test]
    fn decode_u64_matches_decode() {
        let layout = Layout::new(3);
        let reg = &layout.encode(0, &BigNat::from(0b1101u64))
            + &layout.encode(2, &BigNat::from(u64::MAX));
        for i in 0..3 {
            assert_eq!(
                layout.decode_u64(i, &reg),
                layout.decode(i, &reg).to_u64(),
                "lane {i}"
            );
        }
        // A lane needing 65 bits is rejected, not truncated.
        let wide = layout.encode(1, &BigNat::pow2(64));
        assert_eq!(layout.decode_u64(1, &wide), None);
        assert_eq!(layout.decode(1, &wide).to_u64(), None);
    }

    #[test]
    fn decode_all_u64_matches_decode_all() {
        let layout = Layout::new(4);
        let mut reg = BigNat::zero();
        for (i, v) in [(0usize, 7u64), (1, 0), (2, u64::MAX), (3, 0b1010)] {
            reg = &reg + &layout.encode(i, &BigNat::from(v));
        }
        let fast = layout.decode_all_u64(&reg).expect("all lanes fit");
        let slow: Vec<u64> = layout
            .decode_all(&reg)
            .iter()
            .map(|b| b.to_u64().expect("fits"))
            .collect();
        assert_eq!(fast, slow);
        assert_eq!(
            layout.decode_all_u64(&layout.encode(0, &BigNat::pow2(64))),
            None
        );
    }

    #[test]
    fn decode_unary_counts_without_extraction() {
        let layout = Layout::new(3);
        let reg = &layout.unary_increment(0, 0, 5) + &layout.unary_increment(2, 0, 9);
        assert_eq!(layout.decode_unary(0, &reg), 5);
        assert_eq!(layout.decode_unary(1, &reg), 0);
        assert_eq!(layout.decode_unary(2, &reg), 9);
    }

    #[test]
    fn binary_encode_decode_roundtrip_every_process() {
        let layout = BinaryLayout::new(5);
        for v in [0u64, 1, 6, 1000, u64::MAX] {
            for i in 0..5 {
                let image = layout.encode(i, v);
                assert_eq!(layout.decode(i, &image), v, "lane {i} value {v}");
                for j in 0..5 {
                    if j != i {
                        assert_eq!(layout.decode(j, &image), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn binary_adjustments_rewrite_exactly_the_difference() {
        let layout = BinaryLayout::new(4);
        // Lane 2 moves 12 → 6 while lane 0 holds noise; only lane 2's
        // differing digits change.
        let (pos, neg) = layout.adjustments(2, 12, 6);
        let reg = &layout.encode(2, 12) + &layout.encode(0, 7);
        let reg2 = reg.apply_adjustment(&pos, &neg);
        assert_eq!(layout.decode(2, &reg2), 6);
        assert_eq!(layout.decode(0, &reg2), 7);
        // And they agree with the BigNat-valued unary-layout codec.
        let (p2, n2) =
            layout
                .interleaving()
                .adjustments(2, &BigNat::from(12u64), &BigNat::from(6u64));
        assert_eq!((pos, neg), (p2, n2));
    }

    #[test]
    fn binary_adjustments_for_equal_values_are_zero() {
        let layout = BinaryLayout::new(2);
        let (pos, neg) = layout.adjustments(1, 42, 42);
        assert!(pos.is_zero() && neg.is_zero());
    }

    #[test]
    fn binary_lanes_are_log_width() {
        // The whole point: n lanes at value v cost n·⌈log₂(v+1)⌉ bits,
        // not n·v. 4 lanes at 100 000 fit a 128-bit register.
        let n = 4;
        let layout = BinaryLayout::new(n);
        let mut reg = BigNat::zero();
        for i in 0..n {
            reg = &reg + &layout.encode(i, 100_000);
        }
        assert!(reg.is_inline(), "binary register must stay inline");
        assert_eq!(
            reg.bit_len(),
            (BinaryLayout::bits_for(100_000) as usize - 1) * n + n
        );
        // The unary codec would need 4 × 100 000 bits for the same view.
        assert_eq!(BinaryLayout::bits_for(100_000), 17);
    }

    #[test]
    fn binary_layout_shares_the_lane_geometry() {
        let layout = BinaryLayout::new(3);
        assert_eq!(layout.processes(), 3);
        assert_eq!(BinaryLayout::over(Layout::new(3)), layout);
        // Same interleave as the unary layout: global bit of lane bit k.
        assert_eq!(layout.interleaving().bit(1, 2), 7);
        assert_eq!(BinaryLayout::bits_for(0), 0);
        assert_eq!(BinaryLayout::bits_for(1), 1);
        assert_eq!(BinaryLayout::bits_for(u64::MAX), 64);
    }
}
