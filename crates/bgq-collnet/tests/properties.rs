//! Property-based tests of the collective combine semantics.

use bgq_collnet::ops::{combine, elems, identity, CollOp, DataType};
use proptest::prelude::*;

fn int_ops() -> impl Strategy<Value = CollOp> {
    prop_oneof![
        Just(CollOp::Sum),
        Just(CollOp::Min),
        Just(CollOp::Max),
        Just(CollOp::BitAnd),
        Just(CollOp::BitOr),
        Just(CollOp::BitXor),
    ]
}

fn fp_ops() -> impl Strategy<Value = CollOp> {
    prop_oneof![Just(CollOp::Sum), Just(CollOp::Min), Just(CollOp::Max)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Integer combines are commutative: fold order across contributors
    /// cannot matter, because arrival order at a router is arbitrary.
    #[test]
    fn integer_combine_commutes(op in int_ops(), a in proptest::collection::vec(any::<i64>(), 1..16)) {
        let b: Vec<i64> = a.iter().rev().map(|x| x.wrapping_mul(31)).collect();
        let mut ab = elems::from_i64(&a);
        combine(op, DataType::Int64, &mut ab, &elems::from_i64(&b));
        let mut ba = elems::from_i64(&b);
        combine(op, DataType::Int64, &mut ba, &elems::from_i64(&a));
        prop_assert_eq!(ab, ba);
    }

    /// Integer combines are associative.
    #[test]
    fn integer_combine_associates(
        op in int_ops(),
        a in any::<i64>(),
        b in any::<i64>(),
        c in any::<i64>(),
    ) {
        // (a∘b)∘c
        let mut left = elems::from_i64(&[a]);
        combine(op, DataType::Int64, &mut left, &elems::from_i64(&[b]));
        combine(op, DataType::Int64, &mut left, &elems::from_i64(&[c]));
        // a∘(b∘c)
        let mut right = elems::from_i64(&[b]);
        combine(op, DataType::Int64, &mut right, &elems::from_i64(&[c]));
        let mut right2 = elems::from_i64(&[a]);
        combine(op, DataType::Int64, &mut right2, &right);
        prop_assert_eq!(left, right2);
    }

    /// Identity elements are neutral for every op/type pair.
    #[test]
    fn identities_neutral(op in int_ops(), v in any::<i64>()) {
        let mut acc = identity(op, DataType::Int64).to_vec();
        combine(op, DataType::Int64, &mut acc, &elems::from_i64(&[v]));
        prop_assert_eq!(elems::to_i64(&acc), vec![v]);
    }

    /// Float min/max match the scalar semantics elementwise; sum matches
    /// within exact equality for the same association order.
    #[test]
    fn float_combine_matches_scalar(op in fp_ops(), a in -1e12f64..1e12, b in -1e12f64..1e12) {
        let mut acc = elems::from_f64(&[a]);
        combine(op, DataType::Float64, &mut acc, &elems::from_f64(&[b]));
        let got = f64::from_le_bytes(acc[..8].try_into().unwrap());
        let want = match op {
            CollOp::Sum => a + b,
            CollOp::Min => a.min(b),
            CollOp::Max => a.max(b),
            _ => unreachable!(),
        };
        prop_assert_eq!(got, want);
    }

    /// A reduction over N contributions equals the scalar fold, any length.
    #[test]
    fn reduction_equals_fold(
        op in int_ops(),
        contribs in proptest::collection::vec(proptest::collection::vec(any::<i64>(), 4), 1..10),
    ) {
        let mut acc = vec![identity(op, DataType::Int64); 4]
            .into_iter()
            .flatten()
            .collect::<Vec<u8>>();
        for c in &contribs {
            combine(op, DataType::Int64, &mut acc, &elems::from_i64(c));
        }
        let got = elems::to_i64(&acc);
        for lane in 0..4 {
            let mut want = i64::from_le_bytes(identity(op, DataType::Int64));
            for c in &contribs {
                want = match op {
                    CollOp::Sum => want.wrapping_add(c[lane]),
                    CollOp::Min => want.min(c[lane]),
                    CollOp::Max => want.max(c[lane]),
                    CollOp::BitAnd => want & c[lane],
                    CollOp::BitOr => want | c[lane],
                    CollOp::BitXor => want ^ c[lane],
                };
            }
            prop_assert_eq!(got[lane], want, "lane {}", lane);
        }
    }
}
