//! [`BigNat`]: an arbitrary-precision natural number with an inline
//! 128-bit fast path.
//!
//! The constructions of Section 3 of the paper store, in a single
//! fetch&add register, one bit-string per process interleaved bit-by-bit
//! (process `i` owns bits `i, n+i, 2n+i, ...`). Values written are of the
//! form `2^(K*n+i)` and grow without bound, so a fixed-width integer does
//! not suffice — but the *common* case (small `n` × small values: every
//! tier-1 scenario and most bench points) fits comfortably in 128 bits.
//!
//! `BigNat` therefore has two representations (see DESIGN.md §2):
//!
//! * **inline** — two `u64` limbs on the stack, holding any value below
//!   `2^128` with zero heap traffic;
//! * **heap** — the little-endian `u64` limb vector, only ever used for
//!   values of 129 bits or more.
//!
//! The representation is *canonical*: a value is heap-backed **iff** it
//! needs more than 128 bits. Every operation that can shrink a value
//! (subtraction, bit clearing) re-canonicalizes, so derived equality and
//! hashing are value equality, and `is_inline` is a pure function of the
//! numeric value. Heap limbs are kept *normalized* (no trailing zero
//! limbs), exactly as before the inline variant existed.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of bits per limb.
pub const LIMB_BITS: usize = 64;

/// Bits the inline representation can hold.
const INLINE_BITS: usize = 128;

#[inline]
fn pair_to_u128(limbs: &[u64; 2]) -> u128 {
    limbs[0] as u128 | (limbs[1] as u128) << 64
}

#[inline]
fn u128_to_pair(v: u128) -> [u64; 2] {
    [v as u64, (v >> 64) as u64]
}

/// The two storage forms. Canonical invariant: `Heap` limbs are
/// normalized (`last() != Some(&0)`) and `len() >= 3`, i.e. the value
/// does not fit in 128 bits; everything else is `Inline`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Little-endian `[lo, hi]`; value `lo + hi·2^64 < 2^128`.
    Inline([u64; 2]),
    /// Little-endian limbs; invariant: normalized and `len >= 3`.
    Heap(Vec<u64>),
}

/// An arbitrary-precision natural number (unsigned).
///
/// # Examples
///
/// ```
/// use sl2_bignum::BigNat;
///
/// let a = BigNat::pow2(200);           // 2^200, far beyond u128
/// let b = &a + &BigNat::from(1u64);
/// assert!(b > a);
/// assert_eq!(b.bit(200), true);
/// assert_eq!(b.bit(0), true);
/// assert_eq!(b.bit(100), false);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigNat {
    repr: Repr,
}

impl Default for BigNat {
    fn default() -> Self {
        BigNat::zero()
    }
}

impl BigNat {
    /// The value zero.
    ///
    /// ```
    /// # use sl2_bignum::BigNat;
    /// assert!(BigNat::zero().is_zero());
    /// ```
    #[inline]
    pub const fn zero() -> Self {
        BigNat {
            repr: Repr::Inline([0, 0]),
        }
    }

    /// The value one.
    #[inline]
    pub const fn one() -> Self {
        BigNat {
            repr: Repr::Inline([1, 0]),
        }
    }

    /// `2^k`, the fetch&add increment used throughout Section 3
    /// ("apply `fetch&add(R, 2^(K*n+i))`").
    ///
    /// ```
    /// # use sl2_bignum::BigNat;
    /// assert_eq!(BigNat::pow2(0), BigNat::from(1u64));
    /// assert_eq!(BigNat::pow2(65).bit(65), true);
    /// assert!(BigNat::pow2(127).is_inline());
    /// assert!(!BigNat::pow2(128).is_inline());
    /// ```
    pub fn pow2(k: usize) -> Self {
        if k < INLINE_BITS {
            BigNat {
                repr: Repr::Inline(u128_to_pair(1u128 << k)),
            }
        } else {
            let (limb, off) = (k / LIMB_BITS, k % LIMB_BITS);
            let mut limbs = vec![0u64; limb + 1];
            limbs[limb] = 1 << off;
            // k >= 128 means limb >= 2, so len >= 3: canonically heap.
            BigNat {
                repr: Repr::Heap(limbs),
            }
        }
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Inline([0, 0]))
    }

    /// Returns `true` while the value is held in the inline (two-limb,
    /// allocation-free) representation — by the canonical-form
    /// invariant, exactly when the value fits in 128 bits.
    ///
    /// ```
    /// # use sl2_bignum::BigNat;
    /// assert!(BigNat::from(u128::MAX).is_inline());
    /// assert!(!(&BigNat::from(u128::MAX) + &BigNat::one()).is_inline());
    /// ```
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Number of significant bits (`0` for zero).
    ///
    /// ```
    /// # use sl2_bignum::BigNat;
    /// assert_eq!(BigNat::zero().bit_len(), 0);
    /// assert_eq!(BigNat::from(1u64).bit_len(), 1);
    /// assert_eq!(BigNat::pow2(100).bit_len(), 101);
    /// ```
    #[inline]
    pub fn bit_len(&self) -> usize {
        match &self.repr {
            Repr::Inline(a) => INLINE_BITS - pair_to_u128(a).leading_zeros() as usize,
            Repr::Heap(limbs) => {
                let top = limbs[limbs.len() - 1];
                (limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize)
            }
        }
    }

    /// Value of bit `k` (bit 0 is least significant).
    #[inline]
    pub fn bit(&self, k: usize) -> bool {
        match &self.repr {
            Repr::Inline(a) => k < INLINE_BITS && (pair_to_u128(a) >> k) & 1 == 1,
            Repr::Heap(limbs) => {
                let (limb, off) = (k / LIMB_BITS, k % LIMB_BITS);
                match limbs.get(limb) {
                    None => false,
                    Some(&w) => (w >> off) & 1 == 1,
                }
            }
        }
    }

    /// Sets bit `k` to `v`, spilling to (or shrinking back from) the
    /// heap representation as needed.
    pub fn set_bit(&mut self, k: usize, v: bool) {
        let mut shrunk = false;
        match &mut self.repr {
            Repr::Inline(a) => {
                if k < INLINE_BITS {
                    let mut x = pair_to_u128(a);
                    if v {
                        x |= 1u128 << k;
                    } else {
                        x &= !(1u128 << k);
                    }
                    *a = u128_to_pair(x);
                } else if v {
                    let (limb, off) = (k / LIMB_BITS, k % LIMB_BITS);
                    let mut limbs = Vec::with_capacity(limb + 1);
                    limbs.extend_from_slice(a);
                    limbs.resize(limb + 1, 0);
                    limbs[limb] |= 1 << off;
                    self.repr = Repr::Heap(limbs);
                }
                // Clearing a bit beyond the inline width is a no-op.
            }
            Repr::Heap(limbs) => {
                let (limb, off) = (k / LIMB_BITS, k % LIMB_BITS);
                if limb >= limbs.len() {
                    if !v {
                        return;
                    }
                    limbs.resize(limb + 1, 0);
                }
                if v {
                    limbs[limb] |= 1u64 << off;
                } else {
                    limbs[limb] &= !(1u64 << off);
                    shrunk = true;
                }
            }
        }
        if shrunk {
            self.canonicalize();
        }
    }

    /// Number of one-bits. Used by the unary max-register encoding, where
    /// the value written by a process is the count of its set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        match &self.repr {
            Repr::Inline(a) => pair_to_u128(a).count_ones() as usize,
            Repr::Heap(limbs) => limbs.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Iterator over the indices of set bits, ascending. Allocation-free
    /// (skips zero runs limb-wise), so the `Layout` decode paths can walk
    /// a borrowed register image without materializing anything.
    ///
    /// ```
    /// # use sl2_bignum::BigNat;
    /// let mut n = BigNat::zero();
    /// n.set_bit(3, true);
    /// n.set_bit(70, true);
    /// assert_eq!(n.one_bits().collect::<Vec<_>>(), vec![3, 70]);
    /// ```
    pub fn one_bits(&self) -> impl Iterator<Item = usize> + '_ {
        self.limbs().iter().enumerate().flat_map(|(i, &w)| OneBits {
            word: w,
            base: i * LIMB_BITS,
        })
    }

    /// Converts to `u64` if the value fits.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Inline([lo, 0]) => Some(*lo),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    #[inline]
    pub fn to_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Inline(a) => Some(pair_to_u128(a)),
            Repr::Heap(_) => None,
        }
    }

    /// Checked subtraction; `None` if `rhs > self`.
    ///
    /// The snapshot construction of §3.2 computes `posAdj − negAdj`
    /// applied to the register; the register value never goes negative
    /// because a process only clears bits it itself set.
    ///
    /// ```
    /// # use sl2_bignum::BigNat;
    /// let five = BigNat::from(5u64);
    /// let three = BigNat::from(3u64);
    /// assert_eq!(five.checked_sub(&three), Some(BigNat::from(2u64)));
    /// assert_eq!(three.checked_sub(&five), None);
    /// ```
    pub fn checked_sub(&self, rhs: &BigNat) -> Option<BigNat> {
        if self < rhs {
            return None;
        }
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &rhs.repr) {
            return Some(BigNat {
                repr: Repr::Inline(u128_to_pair(pair_to_u128(a) - pair_to_u128(b))),
            });
        }
        let (al, bl) = (self.limbs(), rhs.limbs());
        let mut out = Vec::with_capacity(al.len());
        let mut borrow = 0u64;
        for (i, &a) in al.iter().enumerate() {
            let b = bl.get(i).copied().unwrap_or(0);
            let (d1, o1) = a.overflowing_sub(b);
            let (d2, o2) = d1.overflowing_sub(borrow);
            borrow = (o1 as u64) + (o2 as u64);
            out.push(d2);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigNat::from_limb_vec(out))
    }

    /// Applies a signed adjustment `+pos − neg` in one step, as done by a
    /// single `fetch&add(R, posAdj − negAdj)` in the paper.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative, which the §3 algorithms
    /// guarantee never happens (a process only un-sets its own bits).
    pub fn apply_adjustment(&self, pos: &BigNat, neg: &BigNat) -> BigNat {
        let mut out = self.clone();
        out.adjust_in_place(pos, neg);
        out
    }

    /// In-place form of [`BigNat::apply_adjustment`]: adds `pos` then
    /// subtracts `neg` without allocating on the inline path. This is
    /// the critical-section body of `WideFaa::fetch_adjust`.
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative; `self` is restored to its
    /// prior value first, so a shared register is left consistent.
    pub fn adjust_in_place(&mut self, pos: &BigNat, neg: &BigNat) {
        *self += pos;
        if !self.try_sub_assign(neg) {
            // Roll back the add before panicking: a WideFaa holds the
            // lock across this call and must not publish a half-applied
            // adjustment to subsequent operations.
            let rolled_back = self.try_sub_assign(pos);
            debug_assert!(rolled_back);
            panic!("fetch&add adjustment drove the register negative");
        }
    }

    /// Subtracts `rhs` in place; returns `false` (leaving `self`
    /// untouched) if `rhs > self`.
    fn try_sub_assign(&mut self, rhs: &BigNat) -> bool {
        if (*self) < *rhs {
            return false;
        }
        let mut shrunk = false;
        match (&mut self.repr, &rhs.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                *a = u128_to_pair(pair_to_u128(a) - pair_to_u128(b));
            }
            (Repr::Heap(v), _) => {
                let rl = match &rhs.repr {
                    Repr::Inline(b) => &b[..],
                    Repr::Heap(b) => &b[..],
                };
                let mut borrow = 0u64;
                for (i, limb) in v.iter_mut().enumerate() {
                    if borrow == 0 && i >= rl.len() {
                        break; // remaining limbs are unchanged
                    }
                    let b = rl.get(i).copied().unwrap_or(0);
                    let (d1, o1) = limb.overflowing_sub(b);
                    let (d2, o2) = d1.overflowing_sub(borrow);
                    *limb = d2;
                    borrow = (o1 as u64) + (o2 as u64);
                }
                debug_assert_eq!(borrow, 0);
                shrunk = true;
            }
            (Repr::Inline(_), Repr::Heap(_)) => {
                unreachable!("canonical heap value exceeds any inline value; caught by `<`")
            }
        }
        if shrunk {
            self.canonicalize();
        }
        true
    }

    /// Restores the canonical form after a heap value may have shrunk:
    /// drops trailing zero limbs and converts to inline if ≤ 2 remain.
    fn canonicalize(&mut self) {
        if let Repr::Heap(v) = &mut self.repr {
            while v.last() == Some(&0) {
                v.pop();
            }
            if v.len() <= 2 {
                let lo = v.first().copied().unwrap_or(0);
                let hi = v.get(1).copied().unwrap_or(0);
                self.repr = Repr::Inline([lo, hi]);
            }
        }
    }

    /// Builds the canonical representation from little-endian limbs.
    pub(crate) fn from_limb_vec(limbs: Vec<u64>) -> Self {
        let mut n = BigNat {
            repr: Repr::Heap(limbs),
        };
        n.canonicalize();
        n
    }

    /// Raw limbs, little-endian, normalized (no trailing zeros; empty
    /// for zero). Exposed for hashing/tests; works for both
    /// representations.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(a) => {
                let len = if a[1] != 0 {
                    2
                } else if a[0] != 0 {
                    1
                } else {
                    0
                };
                &a[..len]
            }
            Repr::Heap(limbs) => limbs,
        }
    }
}

/// Limb-wise set-bit cursor used by [`BigNat::one_bits`]; strips the
/// lowest set bit per step, so a limb costs `popcount` iterations, not
/// 64.
struct OneBits {
    word: u64,
    base: usize,
}

impl Iterator for OneBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

impl From<u64> for BigNat {
    #[inline]
    fn from(v: u64) -> Self {
        BigNat {
            repr: Repr::Inline([v, 0]),
        }
    }
}

impl From<u128> for BigNat {
    #[inline]
    fn from(v: u128) -> Self {
        BigNat {
            repr: Repr::Inline(u128_to_pair(v)),
        }
    }
}

impl PartialOrd for BigNat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigNat {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => pair_to_u128(a).cmp(&pair_to_u128(b)),
            // Canonical heap values always exceed 128 bits.
            (Repr::Inline(_), Repr::Heap(_)) => Ordering::Less,
            (Repr::Heap(_), Repr::Inline(_)) => Ordering::Greater,
            (Repr::Heap(a), Repr::Heap(b)) => match a.len().cmp(&b.len()) {
                Ordering::Equal => a
                    .iter()
                    .rev()
                    .zip(b.iter().rev())
                    .map(|(x, y)| x.cmp(y))
                    .find(|&ord| ord != Ordering::Equal)
                    .unwrap_or(Ordering::Equal),
                ord => ord,
            },
        }
    }
}

impl Add<&BigNat> for &BigNat {
    type Output = BigNat;

    fn add(self, rhs: &BigNat) -> BigNat {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.repr, &rhs.repr) {
            let (x, y) = (pair_to_u128(a), pair_to_u128(b));
            return match x.checked_add(y) {
                Some(s) => BigNat {
                    repr: Repr::Inline(u128_to_pair(s)),
                },
                None => {
                    let s = x.wrapping_add(y);
                    let pair = u128_to_pair(s);
                    BigNat {
                        repr: Repr::Heap(vec![pair[0], pair[1], 1]),
                    }
                }
            };
        }
        let (long, short) = if self.limbs().len() >= rhs.limbs().len() {
            (self.limbs(), rhs.limbs())
        } else {
            (rhs.limbs(), self.limbs())
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, o1) = a.overflowing_add(b);
            let (s2, o2) = s1.overflowing_add(carry);
            carry = (o1 as u64) + (o2 as u64);
            out.push(s2);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigNat::from_limb_vec(out)
    }
}

impl Add for BigNat {
    type Output = BigNat;
    fn add(self, rhs: BigNat) -> BigNat {
        &self + &rhs
    }
}

impl AddAssign<&BigNat> for BigNat {
    /// In-place addition: allocation-free while the sum stays inline,
    /// and carry propagation directly into the existing limb vector on
    /// the heap path (no clone-add-store round trip).
    fn add_assign(&mut self, rhs: &BigNat) {
        match (&mut self.repr, &rhs.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => {
                let (x, y) = (pair_to_u128(a), pair_to_u128(b));
                match x.checked_add(y) {
                    Some(s) => *a = u128_to_pair(s),
                    None => {
                        let pair = u128_to_pair(x.wrapping_add(y));
                        // Spill: reserve one spare limb so the next few
                        // carries don't immediately reallocate.
                        let mut limbs = Vec::with_capacity(4);
                        limbs.extend_from_slice(&[pair[0], pair[1], 1]);
                        self.repr = Repr::Heap(limbs);
                    }
                }
            }
            (Repr::Heap(v), _) => {
                let rl = match &rhs.repr {
                    Repr::Inline(b) => &b[..],
                    Repr::Heap(b) => &b[..],
                };
                if v.len() < rl.len() {
                    v.reserve(rl.len() + 1 - v.len());
                    v.resize(rl.len(), 0);
                }
                let mut carry = 0u64;
                for (i, limb) in v.iter_mut().enumerate() {
                    if carry == 0 && i >= rl.len() {
                        break; // remaining limbs are unchanged
                    }
                    let b = rl.get(i).copied().unwrap_or(0);
                    let (s1, o1) = limb.overflowing_add(b);
                    let (s2, o2) = s1.overflowing_add(carry);
                    *limb = s2;
                    carry = (o1 as u64) + (o2 as u64);
                }
                if carry != 0 {
                    v.push(carry);
                }
            }
            (Repr::Inline(_), Repr::Heap(_)) => {
                // Rare mixed case: the result is heap-sized anyway.
                *self = &*self + rhs;
            }
        }
    }
}

impl Sub<&BigNat> for &BigNat {
    type Output = BigNat;

    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`BigNat::checked_sub`] to handle that
    /// case.
    fn sub(self, rhs: &BigNat) -> BigNat {
        self.checked_sub(rhs).expect("BigNat subtraction underflow")
    }
}

impl SubAssign<&BigNat> for BigNat {
    /// In-place subtraction: allocation-free in every case (borrow
    /// propagation into the existing limbs; shrinking below 129 bits
    /// converts back to the inline form, which only releases memory).
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub_assign(&mut self, rhs: &BigNat) {
        let ok = self.try_sub_assign(rhs);
        assert!(ok, "BigNat subtraction underflow");
    }
}

impl fmt::Debug for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigNat({:#x})", self)
    }
}

impl fmt::Display for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(self, f)
    }
}

impl fmt::LowerHex for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            write!(f, "0x")?;
        }
        let limbs = self.limbs();
        match limbs.last() {
            None => write!(f, "0"),
            Some(top) => {
                write!(f, "{:x}", top)?;
                for w in limbs.iter().rev().skip(1) {
                    write!(f, "{:016x}", w)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Binary for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let limbs = self.limbs();
        match limbs.last() {
            None => write!(f, "0"),
            Some(top) => {
                write!(f, "{:b}", top)?;
                for w in limbs.iter().rev().skip(1) {
                    write!(f, "{:064b}", w)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default_and_empty() {
        assert_eq!(BigNat::default(), BigNat::zero());
        assert!(BigNat::zero().is_zero());
        assert_eq!(BigNat::zero().limbs(), &[] as &[u64]);
        assert_eq!(BigNat::from(0u64), BigNat::zero());
    }

    #[test]
    fn add_small() {
        let a = BigNat::from(3u64);
        let b = BigNat::from(4u64);
        assert_eq!((&a + &b).to_u64(), Some(7));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigNat::from(u64::MAX);
        let b = BigNat::from(1u64);
        let s = &a + &b;
        assert_eq!(s.to_u128(), Some(1u128 << 64));
        assert_eq!(s.bit_len(), 65);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = BigNat::from(1u128 << 64);
        let b = BigNat::from(1u64);
        let d = &a - &b;
        assert_eq!(d.to_u64(), Some(u64::MAX));
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert_eq!(BigNat::zero().checked_sub(&BigNat::one()), None);
        let a = BigNat::pow2(100);
        let b = &a + &BigNat::one();
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a), Some(BigNat::one()));
    }

    #[test]
    fn pow2_bits() {
        for k in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            let n = BigNat::pow2(k);
            assert!(n.bit(k));
            assert_eq!(n.count_ones(), 1);
            assert_eq!(n.bit_len(), k + 1);
            assert_eq!(n.is_inline(), k < 128, "canonical form at k={k}");
        }
    }

    #[test]
    fn set_and_clear_bits() {
        let mut n = BigNat::zero();
        n.set_bit(5, true);
        n.set_bit(300, true);
        assert!(n.bit(5) && n.bit(300));
        n.set_bit(300, false);
        assert!(!n.bit(300));
        assert_eq!(n, BigNat::pow2(5));
        // clearing an out-of-range bit is a no-op
        n.set_bit(10_000, false);
        assert_eq!(n, BigNat::pow2(5));
    }

    #[test]
    fn clearing_top_bit_renormalizes() {
        let mut n = BigNat::pow2(64);
        n.set_bit(64, false);
        assert!(n.is_zero());
        assert_eq!(n.limbs(), &[] as &[u64]);
    }

    #[test]
    fn ordering_matches_numeric_order() {
        let vals = [0u128, 1, 2, u64::MAX as u128, 1 << 64, (1 << 64) + 5];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    BigNat::from(a).cmp(&BigNat::from(b)),
                    a.cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
        assert!(BigNat::pow2(1000) > BigNat::from(u128::MAX));
    }

    #[test]
    fn one_bits_roundtrip() {
        let mut n = BigNat::zero();
        let idx = [0usize, 1, 63, 64, 100, 500];
        for &i in &idx {
            n.set_bit(i, true);
        }
        assert_eq!(n.one_bits().collect::<Vec<_>>(), idx);
        assert_eq!(n.count_ones(), idx.len());
    }

    #[test]
    fn apply_adjustment_matches_add_then_sub() {
        let base = BigNat::from(0b1100u64);
        let pos = BigNat::from(0b0010u64);
        let neg = BigNat::from(0b1000u64);
        assert_eq!(base.apply_adjustment(&pos, &neg), BigNat::from(0b0110u64));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn apply_adjustment_panics_on_negative() {
        BigNat::zero().apply_adjustment(&BigNat::zero(), &BigNat::one());
    }

    #[test]
    fn adjust_in_place_rolls_back_before_panicking() {
        let mut n = BigNat::from(6u64);
        let pos = BigNat::from(1u64);
        let neg = BigNat::from(100u64);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            n.adjust_in_place(&pos, &neg);
        }));
        assert!(err.is_err());
        assert_eq!(n, BigNat::from(6u64), "register restored after rollback");
    }

    #[test]
    fn hex_and_binary_formatting() {
        assert_eq!(format!("{:x}", BigNat::zero()), "0");
        assert_eq!(format!("{:#x}", BigNat::from(255u64)), "0xff");
        assert_eq!(format!("{:b}", BigNat::from(5u64)), "101");
        let big = BigNat::pow2(64);
        assert_eq!(format!("{:x}", big), format!("1{}", "0".repeat(16)));
        assert!(!format!("{:?}", BigNat::zero()).is_empty());
    }

    #[test]
    fn to_u64_u128_bounds() {
        assert_eq!(BigNat::pow2(63).to_u64(), Some(1 << 63));
        assert_eq!(BigNat::pow2(64).to_u64(), None);
        assert_eq!(BigNat::pow2(127).to_u128(), Some(1 << 127));
        assert_eq!(BigNat::pow2(128).to_u128(), None);
    }

    #[test]
    fn inline_spills_on_overflow_and_shrinks_back() {
        let mut n = BigNat::from(u128::MAX);
        assert!(n.is_inline());
        n += &BigNat::one(); // 2^128: spills
        assert!(!n.is_inline());
        assert_eq!(n, BigNat::pow2(128));
        n -= &BigNat::one(); // back under the boundary: shrinks
        assert!(n.is_inline());
        assert_eq!(n, BigNat::from(u128::MAX));
    }

    #[test]
    fn add_assign_matches_add_across_the_boundary() {
        let cases = [
            (BigNat::from(7u64), BigNat::from(9u64)),
            (BigNat::from(u128::MAX), BigNat::from(u128::MAX)),
            (BigNat::pow2(200), BigNat::from(u128::MAX)),
            (BigNat::from(3u64), BigNat::pow2(300)),
            (BigNat::pow2(200), BigNat::pow2(200)),
        ];
        for (a, b) in cases {
            let mut x = a.clone();
            x += &b;
            assert_eq!(x, &a + &b, "{a:?} += {b:?}");
        }
    }

    #[test]
    fn sub_assign_matches_checked_sub_across_the_boundary() {
        let cases = [
            (BigNat::from(9u64), BigNat::from(7u64)),
            (BigNat::pow2(128), BigNat::one()),
            (BigNat::pow2(300), BigNat::pow2(299)),
            (&BigNat::pow2(200) + &BigNat::from(5u64), BigNat::pow2(200)),
        ];
        for (a, b) in cases {
            let mut x = a.clone();
            x -= &b;
            assert_eq!(Some(x), a.checked_sub(&b), "{a:?} -= {b:?}");
        }
    }

    #[test]
    fn canonical_form_is_a_function_of_the_value() {
        // Reach 2^127 both ways: directly, and by shrinking from above.
        let direct = BigNat::pow2(127);
        let mut shrunk = BigNat::pow2(400);
        shrunk.set_bit(127, true);
        shrunk.set_bit(400, false);
        assert_eq!(direct, shrunk);
        assert!(shrunk.is_inline());
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |n: &BigNat| {
            let mut s = DefaultHasher::new();
            n.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&direct), h(&shrunk));
    }
}
