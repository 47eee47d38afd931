//! 2-D distributed arrays.
//!
//! Paper §4.2.2: "This scheme can easily be extended to multidimensional
//! arrays: a 2D array can be mapped to a sequence of sequences and so
//! on." This module is that extension: a dense row-major matrix is
//! viewed as a 1-D sequence of *rows*, distributed over the ranks by any
//! [`Distribution`] — so the whole redistribution machinery (schedules,
//! chunking, reassembly) applies unchanged, with "element size" = one
//! row's bytes.

use bytes::Bytes;

use crate::dist::{DistSeq, Distribution};
use crate::error::GridCcmError;

/// One rank's row block of a globally distributed dense f64 matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DistMatrix {
    /// Global row count.
    pub rows: u64,
    /// Column count (identical on every rank).
    pub cols: u32,
    /// The underlying row-distributed sequence (element = one row).
    pub seq: DistSeq,
}

impl DistMatrix {
    /// Build from this rank's local rows (row-major `local_rows × cols`).
    pub fn from_local_rows(
        rows: u64,
        cols: u32,
        distribution: Distribution,
        rank: usize,
        size: usize,
        local: &[f64],
    ) -> Result<DistMatrix, GridCcmError> {
        let row_bytes = cols as usize * 8;
        if row_bytes == 0 {
            return Err(GridCcmError::Distribution(
                "matrix with zero columns".into(),
            ));
        }
        if !local.len().is_multiple_of(cols as usize) {
            return Err(GridCcmError::Distribution(format!(
                "{} values do not form whole rows of {cols} columns",
                local.len()
            )));
        }
        let mut data = Vec::with_capacity(local.len() * 8);
        for v in local {
            data.extend_from_slice(&v.to_le_bytes());
        }
        let seq = DistSeq::from_local(
            row_bytes as u32,
            rows,
            distribution,
            rank,
            size,
            Bytes::from(data),
        )?;
        Ok(DistMatrix { rows, cols, seq })
    }

    /// Build by slicing a full global matrix (tests, rank groups of 1).
    pub fn from_global(
        rows: u64,
        cols: u32,
        distribution: Distribution,
        rank: usize,
        size: usize,
        global: &[f64],
    ) -> Result<DistMatrix, GridCcmError> {
        if global.len() as u64 != rows * u64::from(cols) {
            return Err(GridCcmError::Distribution(format!(
                "{} values for a {rows}×{cols} matrix",
                global.len()
            )));
        }
        let mut bytes = Vec::with_capacity(global.len() * 8);
        for v in global {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let seq = DistSeq::from_global(cols * 8, distribution, rank, size, &Bytes::from(bytes))?;
        Ok(DistMatrix { rows, cols, seq })
    }

    /// Wrap a row-distributed sequence back into a matrix view, checking
    /// the row shape.
    pub fn from_seq(cols: u32, seq: DistSeq) -> Result<DistMatrix, GridCcmError> {
        if seq.elem_size != cols * 8 {
            return Err(GridCcmError::Distribution(format!(
                "sequence element size {} is not {cols} f64 columns",
                seq.elem_size
            )));
        }
        Ok(DistMatrix {
            rows: seq.global_elems,
            cols,
            seq,
        })
    }

    /// Number of local rows.
    pub fn local_rows(&self) -> u64 {
        self.seq.local_elems()
    }

    /// Local rows as a row-major f64 vector.
    pub fn local_values(&self) -> Vec<f64> {
        self.seq
            .data
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect()
    }

    /// One local row.
    pub fn row(&self, local_index: u64) -> Result<Vec<f64>, GridCcmError> {
        if local_index >= self.local_rows() {
            return Err(GridCcmError::Distribution(format!(
                "local row {local_index} of {}",
                self.local_rows()
            )));
        }
        let row_bytes = self.cols as usize * 8;
        let start = local_index as usize * row_bytes;
        Ok(self.seq.data[start..start + row_bytes]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    /// The global indices of the local rows, ascending.
    pub fn global_row_indices(&self) -> Vec<u64> {
        self.seq
            .distribution
            .ranges(self.rows, self.seq.rank, self.seq.size)
            .flat_map(|(s, e)| s..e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn global(rows: u64, cols: u32) -> Vec<f64> {
        (0..rows * u64::from(cols)).map(|i| i as f64).collect()
    }

    #[test]
    fn row_blocks_slice_correctly() {
        // 5×3 matrix over 2 ranks: rank 0 gets rows 0..3, rank 1 rows 3..5.
        let g = global(5, 3);
        let m0 = DistMatrix::from_global(5, 3, Distribution::Block, 0, 2, &g).unwrap();
        let m1 = DistMatrix::from_global(5, 3, Distribution::Block, 1, 2, &g).unwrap();
        assert_eq!(m0.local_rows(), 3);
        assert_eq!(m1.local_rows(), 2);
        assert_eq!(m0.row(0).unwrap(), vec![0.0, 1.0, 2.0]);
        assert_eq!(m1.row(0).unwrap(), vec![9.0, 10.0, 11.0]);
        assert_eq!(m0.global_row_indices(), vec![0, 1, 2]);
        assert_eq!(m1.global_row_indices(), vec![3, 4]);
        assert!(m1.row(2).is_err());
    }

    #[test]
    fn local_rows_roundtrip_through_seq() {
        let m =
            DistMatrix::from_local_rows(4, 2, Distribution::Block, 1, 2, &[10.0, 11.0, 20.0, 21.0])
                .unwrap();
        // The embedded sequence can cross the GridCCM wire and come back.
        let back = DistMatrix::from_seq(2, m.seq.clone()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.local_values(), vec![10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    fn shape_validation() {
        assert!(DistMatrix::from_local_rows(4, 0, Distribution::Block, 0, 1, &[]).is_err());
        assert!(
            DistMatrix::from_local_rows(4, 3, Distribution::Block, 0, 1, &[1.0; 7]).is_err(),
            "7 values are not whole rows of 3"
        );
        assert!(DistMatrix::from_global(3, 3, Distribution::Block, 0, 1, &[0.0; 8]).is_err());
        let seq = DistSeq::from_f64_local(4, Distribution::Block, 0, 1, &[0.0; 4]).unwrap();
        assert!(DistMatrix::from_seq(2, seq).is_err(), "elem size mismatch");
    }

    #[test]
    fn cyclic_rows() {
        let g = global(6, 2);
        let m = DistMatrix::from_global(6, 2, Distribution::Cyclic, 1, 3, &g).unwrap();
        assert_eq!(m.global_row_indices(), vec![1, 4]);
        assert_eq!(m.row(0).unwrap(), vec![2.0, 3.0]);
        assert_eq!(m.row(1).unwrap(), vec![8.0, 9.0]);
    }

    proptest! {
        /// Splitting a matrix over any rank group conserves every row
        /// exactly once, in global order when blocks are rejoined.
        #[test]
        fn row_distribution_partitions(rows in 1u64..30, cols in 1u32..6, size in 1usize..5) {
            let g = global(rows, cols);
            let mut seen = vec![false; rows as usize];
            for rank in 0..size {
                let m = DistMatrix::from_global(rows, cols, Distribution::Block, rank, size, &g).unwrap();
                for (local, global_row) in m.global_row_indices().into_iter().enumerate() {
                    prop_assert!(!seen[global_row as usize]);
                    seen[global_row as usize] = true;
                    let expect: Vec<f64> = (0..u64::from(cols))
                        .map(|c| (global_row * u64::from(cols) + c) as f64)
                        .collect();
                    prop_assert_eq!(m.row(local as u64).unwrap(), expect);
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
