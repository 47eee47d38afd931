//! MPI datatypes and reduction operators.
//!
//! Fixed-size scalar types implement [`MpiDatatype`]: a little-endian wire
//! encoding plus the arithmetic the reduction collectives need. The
//! encode/decode paths copy (typed convenience API); bulk transfers that
//! must be zero-copy use the `*_bytes` API on
//! [`crate::comm::Communicator`] directly.

use crate::error::MpiError;

/// A fixed-size element type transferable through MPI calls.
pub trait MpiDatatype: Copy + PartialOrd + Send + Sync + 'static {
    /// Wire size of one element, bytes.
    const SIZE: usize;
    /// Human-readable type name (diagnostics).
    const NAME: &'static str;

    fn write_to(&self, out: &mut Vec<u8>);
    fn read_from(bytes: &[u8]) -> Self;

    /// Element-wise addition for reductions.
    fn add(self, other: Self) -> Self;
    /// Element-wise multiplication for reductions.
    fn mul(self, other: Self) -> Self;
}

macro_rules! impl_datatype {
    ($($t:ty),*) => {$(
        impl MpiDatatype for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = stringify!($t);

            #[inline]
            fn write_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_from(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exact size"))
            }

            #[inline]
            fn add(self, other: Self) -> Self {
                self + other
            }

            #[inline]
            fn mul(self, other: Self) -> Self {
                self * other
            }
        }
    )*};
}

impl_datatype!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Encode a slice to its wire form (one copy, charged by the caller if on
/// a metered path).
pub fn encode<T: MpiDatatype>(buf: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(buf.len() * T::SIZE);
    for x in buf {
        x.write_to(&mut out);
    }
    out
}

/// Decode a wire buffer into a vector of `T`.
pub fn decode<T: MpiDatatype>(bytes: &[u8]) -> Result<Vec<T>, MpiError> {
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(MpiError::BadDatatype(format!(
            "{} bytes is not a multiple of {}::SIZE = {}",
            bytes.len(),
            T::NAME,
            T::SIZE
        )));
    }
    Ok(bytes.chunks_exact(T::SIZE).map(T::read_from).collect())
}

/// Reduction operators for `reduce` / `allreduce`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

impl ReduceOp {
    /// Combine two elements.
    pub fn combine<T: MpiDatatype>(self, a: T, b: T) -> T {
        match self {
            ReduceOp::Sum => a.add(b),
            ReduceOp::Prod => a.mul(b),
            ReduceOp::Min => {
                if b < a {
                    b
                } else {
                    a
                }
            }
            ReduceOp::Max => {
                if b > a {
                    b
                } else {
                    a
                }
            }
        }
    }

    /// Combine element-wise into `acc`.
    pub fn combine_slices<T: MpiDatatype>(self, acc: &mut [T], other: &[T]) {
        debug_assert_eq!(acc.len(), other.len());
        for (a, b) in acc.iter_mut().zip(other) {
            *a = self.combine(*a, *b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_scalar_types() {
        assert_eq!(
            decode::<i32>(&encode(&[1i32, -5, 1 << 20])).unwrap(),
            vec![1, -5, 1 << 20]
        );
        assert_eq!(
            decode::<f64>(&encode(&[1.5f64, -0.25])).unwrap(),
            vec![1.5, -0.25]
        );
        assert_eq!(decode::<u8>(&encode(&[7u8, 8])).unwrap(), vec![7, 8]);
        assert_eq!(decode::<i64>(&encode(&[i64::MIN])).unwrap(), vec![i64::MIN]);
    }

    #[test]
    fn decode_rejects_ragged_input() {
        let err = decode::<i32>(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, MpiError::BadDatatype(_)));
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.combine(2i32, 3), 5);
        assert_eq!(ReduceOp::Prod.combine(2i32, 3), 6);
        assert_eq!(ReduceOp::Min.combine(2.5f64, 3.5), 2.5);
        assert_eq!(ReduceOp::Max.combine(2u8, 3), 3);
    }

    #[test]
    fn combine_slices_elementwise() {
        let mut acc = [1i32, 10, 100];
        ReduceOp::Sum.combine_slices(&mut acc, &[2, 20, 200]);
        assert_eq!(acc, [3, 30, 300]);
        ReduceOp::Max.combine_slices(&mut acc, &[5, 5, 500]);
        assert_eq!(acc, [5, 30, 500]);
    }

    #[test]
    fn empty_slices() {
        assert!(encode::<i32>(&[]).is_empty());
        assert!(decode::<i32>(&[]).unwrap().is_empty());
    }
}
