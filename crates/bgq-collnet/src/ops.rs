//! Combine operations implemented by the collective-network routers.
//!
//! "The collective network supports both integer and floating point
//! operations such as add, min and max." Operands are streams of 8-byte
//! elements; the routers combine corresponding elements of the down-tree
//! inputs and the local contribution.

/// Element size: the network combines 64-bit words.
pub(crate) const ELEM_BYTES: usize = 8;

/// Arithmetic the routers can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
    /// Bitwise AND (integer types only).
    BitAnd,
    /// Bitwise OR (integer types only).
    BitOr,
    /// Bitwise XOR (integer types only).
    BitXor,
}

/// Element interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Signed 64-bit integers.
    Int64,
    /// Unsigned 64-bit integers.
    Uint64,
    /// IEEE-754 doubles.
    Float64,
}

impl DataType {
    /// Whether `op` is defined for this type (bitwise ops reject floats,
    /// as the hardware does).
    pub fn supports(self, op: CollOp) -> bool {
        match op {
            CollOp::Sum | CollOp::Min | CollOp::Max => true,
            CollOp::BitAnd | CollOp::BitOr | CollOp::BitXor => self != DataType::Float64,
        }
    }
}

/// Combine `contrib` into `acc` elementwise: `acc[i] = op(acc[i],
/// contrib[i])`.
///
/// # Panics
/// If lengths differ, are not multiples of 8, or the op/type pairing is
/// unsupported.
pub fn combine(op: CollOp, dtype: DataType, acc: &mut [u8], contrib: &[u8]) {
    assert_eq!(acc.len(), contrib.len(), "combine operand length mismatch");
    assert_eq!(acc.len() % ELEM_BYTES, 0, "operands must be whole 8-byte elements");
    assert!(dtype.supports(op), "{op:?} unsupported for {dtype:?}");
    for (a, c) in acc.chunks_exact_mut(ELEM_BYTES).zip(contrib.chunks_exact(ELEM_BYTES)) {
        let cb: [u8; 8] = c.try_into().unwrap();
        let ab: [u8; 8] = (&*a).try_into().unwrap();
        let out: [u8; 8] = match dtype {
            DataType::Int64 => {
                let (x, y) = (i64::from_le_bytes(ab), i64::from_le_bytes(cb));
                match op {
                    CollOp::Sum => x.wrapping_add(y),
                    CollOp::Min => x.min(y),
                    CollOp::Max => x.max(y),
                    CollOp::BitAnd => x & y,
                    CollOp::BitOr => x | y,
                    CollOp::BitXor => x ^ y,
                }
                .to_le_bytes()
            }
            DataType::Uint64 => {
                let (x, y) = (u64::from_le_bytes(ab), u64::from_le_bytes(cb));
                match op {
                    CollOp::Sum => x.wrapping_add(y),
                    CollOp::Min => x.min(y),
                    CollOp::Max => x.max(y),
                    CollOp::BitAnd => x & y,
                    CollOp::BitOr => x | y,
                    CollOp::BitXor => x ^ y,
                }
                .to_le_bytes()
            }
            DataType::Float64 => {
                let (x, y) = (f64::from_le_bytes(ab), f64::from_le_bytes(cb));
                match op {
                    CollOp::Sum => x + y,
                    CollOp::Min => x.min(y),
                    CollOp::Max => x.max(y),
                    _ => unreachable!("guarded by supports()"),
                }
                .to_le_bytes()
            }
        };
        a.copy_from_slice(&out);
    }
}

/// The identity element of `op` for `dtype`, as 8 bytes — what an
/// accumulator starts from.
pub fn identity(op: CollOp, dtype: DataType) -> [u8; 8] {
    match (dtype, op) {
        (DataType::Int64, CollOp::Sum) => 0i64.to_le_bytes(),
        (DataType::Int64, CollOp::Min) => i64::MAX.to_le_bytes(),
        (DataType::Int64, CollOp::Max) => i64::MIN.to_le_bytes(),
        (DataType::Int64 | DataType::Uint64, CollOp::BitAnd) => u64::MAX.to_le_bytes(),
        (DataType::Int64 | DataType::Uint64, CollOp::BitOr | CollOp::BitXor) => {
            0u64.to_le_bytes()
        }
        (DataType::Uint64, CollOp::Sum) => 0u64.to_le_bytes(),
        (DataType::Uint64, CollOp::Min) => u64::MAX.to_le_bytes(),
        (DataType::Uint64, CollOp::Max) => 0u64.to_le_bytes(),
        (DataType::Float64, CollOp::Sum) => 0f64.to_le_bytes(),
        (DataType::Float64, CollOp::Min) => f64::INFINITY.to_le_bytes(),
        (DataType::Float64, CollOp::Max) => f64::NEG_INFINITY.to_le_bytes(),
        (DataType::Float64, _) => panic!("bitwise identity undefined for Float64"),
    }
}

/// Helpers to view/construct element buffers in tests and benchmarks.
pub mod elems {
    /// Pack doubles into a little-endian byte buffer.
    pub fn from_f64(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Unpack a byte buffer into doubles.
    #[cfg(test)]
    pub(crate) fn to_f64(b: &[u8]) -> Vec<f64> {
        b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    /// Pack i64s.
    pub fn from_i64(v: &[i64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Unpack i64s.
    pub fn to_i64(b: &[u8]) -> Vec<i64> {
        b.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_sum() {
        let mut acc = elems::from_f64(&[1.0, 2.0]);
        combine(CollOp::Sum, DataType::Float64, &mut acc, &elems::from_f64(&[0.5, -2.0]));
        assert_eq!(elems::to_f64(&acc), vec![1.5, 0.0]);
    }

    #[test]
    fn i64_min_max() {
        let mut acc = elems::from_i64(&[5, -3]);
        combine(CollOp::Min, DataType::Int64, &mut acc, &elems::from_i64(&[2, 7]));
        assert_eq!(elems::to_i64(&acc), vec![2, -3]);
        combine(CollOp::Max, DataType::Int64, &mut acc, &elems::from_i64(&[4, 0]));
        assert_eq!(elems::to_i64(&acc), vec![4, 0]);
    }

    #[test]
    fn bitwise_ops_on_integers() {
        let mut acc = 0b1100u64.to_le_bytes().to_vec();
        combine(CollOp::BitAnd, DataType::Uint64, &mut acc, &0b1010u64.to_le_bytes());
        assert_eq!(u64::from_le_bytes(acc[..8].try_into().unwrap()), 0b1000);
        combine(CollOp::BitXor, DataType::Uint64, &mut acc, &0b0001u64.to_le_bytes());
        assert_eq!(u64::from_le_bytes(acc[..8].try_into().unwrap()), 0b1001);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn bitwise_on_floats_rejected() {
        let mut acc = vec![0u8; 8];
        combine(CollOp::BitOr, DataType::Float64, &mut acc, &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_rejected() {
        let mut acc = vec![0u8; 8];
        combine(CollOp::Sum, DataType::Int64, &mut acc, &[0u8; 16]);
    }

    #[test]
    fn identities_are_neutral() {
        for (op, dt) in [
            (CollOp::Sum, DataType::Float64),
            (CollOp::Min, DataType::Float64),
            (CollOp::Max, DataType::Float64),
            (CollOp::Sum, DataType::Int64),
            (CollOp::Min, DataType::Int64),
            (CollOp::Max, DataType::Int64),
            (CollOp::BitAnd, DataType::Uint64),
            (CollOp::BitOr, DataType::Uint64),
            (CollOp::BitXor, DataType::Uint64),
        ] {
            let mut acc = identity(op, dt).to_vec();
            let sample: Vec<u8> = match dt {
                DataType::Float64 => 42.5f64.to_le_bytes().to_vec(),
                _ => 42u64.to_le_bytes().to_vec(),
            };
            combine(op, dt, &mut acc, &sample);
            assert_eq!(acc, sample, "{op:?}/{dt:?} identity not neutral");
        }
    }

    #[test]
    fn integer_sum_wraps() {
        let mut acc = elems::from_i64(&[i64::MAX]);
        combine(CollOp::Sum, DataType::Int64, &mut acc, &elems::from_i64(&[1]));
        assert_eq!(elems::to_i64(&acc), vec![i64::MIN]);
    }
}
