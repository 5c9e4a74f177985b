//! Property tests for `BigNat` arithmetic laws and the unary lane decode.
//! The `BigNat`-valued lane properties test the bit-at-a-time oracle,
//! which lives beside the word kernels in `src/interleave.rs`.

use proptest::prelude::*;
use sl2_bignum::{BigNat, LaneEncoding, Lanes};

/// Strategy producing arbitrary `BigNat`s up to a few hundred bits.
fn big_nat() -> impl Strategy<Value = BigNat> {
    prop::collection::vec(any::<u64>(), 0..6).prop_map(|limbs| {
        let mut n = BigNat::zero();
        for (i, w) in limbs.iter().enumerate() {
            for b in 0..64 {
                if (w >> b) & 1 == 1 {
                    n.set_bit(i * 64 + b, true);
                }
            }
        }
        n
    })
}

proptest! {
    #[test]
    fn add_commutative(a in big_nat(), b in big_nat()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in big_nat(), b in big_nat(), c in big_nat()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_identity(a in big_nat()) {
        prop_assert_eq!(&a + &BigNat::zero(), a.clone());
    }

    #[test]
    fn sub_inverts_add(a in big_nat(), b in big_nat()) {
        let s = &a + &b;
        prop_assert_eq!(s.checked_sub(&b), Some(a.clone()));
        prop_assert_eq!(s.checked_sub(&a), Some(b.clone()));
    }

    #[test]
    fn checked_sub_total_order(a in big_nat(), b in big_nat()) {
        // exactly one of a-b, b-a exists unless equal (then both are zero)
        match (a.checked_sub(&b), b.checked_sub(&a)) {
            (Some(x), Some(y)) => {
                prop_assert!(x.is_zero() && y.is_zero());
                prop_assert_eq!(&a, &b);
            }
            (Some(_), None) => prop_assert!(a > b),
            (None, Some(_)) => prop_assert!(b > a),
            (None, None) => prop_assert!(false, "subtraction must succeed one way"),
        }
    }

    #[test]
    fn u128_roundtrip(v in any::<u128>()) {
        prop_assert_eq!(BigNat::from(v).to_u128(), Some(v));
    }

    #[test]
    fn ordering_agrees_with_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(BigNat::from(a).cmp(&BigNat::from(b)), a.cmp(&b));
    }

    #[test]
    fn bit_len_bounds(a in big_nat()) {
        let len = a.bit_len();
        if len > 0 {
            prop_assert!(a.bit(len - 1));
        }
        prop_assert!(!a.bit(len));
        prop_assert!(!a.bit(len + 100));
    }

    #[test]
    fn one_bits_reconstruct(a in big_nat()) {
        let mut r = BigNat::zero();
        for b in a.one_bits() {
            r.set_bit(b, true);
        }
        prop_assert_eq!(r, a.clone());
    }
}

// ---------------------------------------------------------------------
// Inline/heap hybrid representation: cross-checks against a plain
// limb-vector reference model, with operands straddling the 128-bit
// spill boundary (see DESIGN.md §2).
// ---------------------------------------------------------------------

/// Reference model: a bare little-endian limb vector with the textbook
/// schoolbook algorithms, independent of `BigNat`'s representation.
mod model {
    pub fn normalize(mut v: Vec<u64>) -> Vec<u64> {
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    pub fn add(a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = a.len().max(b.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let x = a.get(i).copied().unwrap_or(0);
            let y = b.get(i).copied().unwrap_or(0);
            let (s1, o1) = x.overflowing_add(y);
            let (s2, o2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (o1 as u64) + (o2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        normalize(out)
    }

    /// `a - b`; caller guarantees `a >= b`.
    pub fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &x) in a.iter().enumerate() {
            let y = b.get(i).copied().unwrap_or(0);
            let (d1, o1) = x.overflowing_sub(y);
            let (d2, o2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (o1 as u64) + (o2 as u64);
        }
        assert_eq!(borrow, 0, "model subtraction underflow");
        normalize(out)
    }
}

/// Strategy whose values cluster around the 128-bit spill boundary:
/// 0–3 limbs, so sums and differences cross in and out of the inline
/// representation.
fn boundary_nat() -> impl Strategy<Value = BigNat> {
    prop::collection::vec(any::<u64>(), 0..4).prop_map(|limbs| {
        let mut n = BigNat::zero();
        for (i, w) in limbs.iter().enumerate() {
            for b in 0..64 {
                if (w >> b) & 1 == 1 {
                    n.set_bit(i * 64 + b, true);
                }
            }
        }
        n
    })
}

/// The canonical-form invariant: heap-backed iff the value needs more
/// than 128 bits, and heap limbs normalized.
fn assert_canonical(n: &BigNat, ctx: &str) {
    assert_eq!(
        n.is_inline(),
        n.bit_len() <= 128,
        "{ctx}: representation must be a function of the value ({:?})",
        n
    );
    assert_ne!(n.limbs().last(), Some(&0), "{ctx}: unnormalized limbs");
}

proptest! {
    #[test]
    fn add_matches_reference_model_across_spill(a in boundary_nat(), b in boundary_nat()) {
        let sum = &a + &b;
        let expect = model::add(a.limbs(), b.limbs());
        prop_assert_eq!(sum.limbs(), expect.as_slice());
        assert_canonical(&sum, "add");
    }

    #[test]
    fn add_assign_agrees_with_add_across_spill(a in boundary_nat(), b in boundary_nat()) {
        let mut x = a.clone();
        x += &b;
        prop_assert_eq!(&x, &(&a + &b));
        assert_canonical(&x, "add_assign");
    }

    #[test]
    fn sub_matches_reference_model_across_spill(a in boundary_nat(), b in boundary_nat()) {
        let (hi, lo) = if a >= b { (&a, &b) } else { (&b, &a) };
        let diff = hi - lo;
        let expect = model::sub(hi.limbs(), lo.limbs());
        prop_assert_eq!(diff.limbs(), expect.as_slice());
        assert_canonical(&diff, "sub");
    }

    #[test]
    fn sub_assign_shrinks_back_under_the_boundary(a in boundary_nat(), b in boundary_nat()) {
        // a + b - b == a, exercising spill on the way up and (when a is
        // small) shrink-to-inline on the way down.
        let mut x = &a + &b;
        x -= &b;
        prop_assert_eq!(&x, &a);
        assert_canonical(&x, "sub_assign roundtrip");
        prop_assert_eq!(x.is_inline(), a.is_inline());
    }

    #[test]
    fn adjustment_matches_add_then_sub_across_spill(
        base in boundary_nat(), pos in boundary_nat(), extra in boundary_nat()
    ) {
        // neg is constructed ≤ base + pos so the adjustment is legal.
        let sum = &base + &pos;
        let neg = if extra > sum { sum.clone() } else { extra };
        let eager = sum.checked_sub(&neg).expect("neg <= base + pos");
        let adjusted = base.apply_adjustment(&pos, &neg);
        prop_assert_eq!(&adjusted, &eager);
        assert_canonical(&adjusted, "apply_adjustment");
        let mut in_place = base.clone();
        in_place.adjust_in_place(&pos, &neg);
        prop_assert_eq!(&in_place, &eager);
        assert_canonical(&in_place, "adjust_in_place");
    }

    #[test]
    fn bit_ops_agree_across_spill(a in boundary_nat(), k in 0usize..200, v in any::<bool>()) {
        let mut n = a.clone();
        n.set_bit(k, v);
        assert_canonical(&n, "set_bit");
        prop_assert_eq!(n.bit(k), v);
        // count_ones / one_bits stay consistent across representations.
        prop_assert_eq!(n.count_ones(), n.one_bits().count());
        let expected_ones = a.count_ones()
            + usize::from(v && !a.bit(k))
            - usize::from(!v && a.bit(k));
        prop_assert_eq!(n.count_ones(), expected_ones);
    }

    #[test]
    fn spill_and_shrink_roundtrip(lo in any::<u128>(), k in 128usize..300) {
        // Start inline, spill via a high bit, shrink back by clearing it.
        let mut n = BigNat::from(lo);
        prop_assert!(n.is_inline());
        n.set_bit(k, true);
        prop_assert!(!n.is_inline());
        assert_canonical(&n, "after spill");
        n.set_bit(k, false);
        prop_assert!(n.is_inline());
        prop_assert_eq!(&n, &BigNat::from(lo));
        assert_canonical(&n, "after shrink");
    }

    #[test]
    fn inline_arithmetic_agrees_with_u128(a in any::<u128>() , b in any::<u128>()) {
        let (x, y) = (BigNat::from(a), BigNat::from(b));
        match a.checked_add(b) {
            Some(s) => prop_assert_eq!((&x + &y).to_u128(), Some(s)),
            None => {
                let s = &x + &y;
                prop_assert!(!s.is_inline());
                prop_assert_eq!(s.bit_len(), 129);
            }
        }
        if a >= b {
            prop_assert_eq!((&x - &y).to_u128(), Some(a - b));
        }
    }
}

proptest! {
    #[test]
    fn decode_unary_matches_per_bit_filter(n in 1usize..9, i in 0usize..9, v in boundary_nat()) {
        // The limb-wise masked-popcount decode must agree with the
        // obvious per-set-bit definition on arbitrary (non-prefix)
        // registers, across the inline/heap boundary.
        let i = i % n;
        let lanes = Lanes::new(n, LaneEncoding::Unary);
        let naive = v.one_bits().filter(|g| g % n == i).count() as u64;
        prop_assert_eq!(lanes.decode(i, &v), naive);
    }
}
