//! Distributed 1-D sequences.
//!
//! GridCCM's current model distributes IDL `sequence` types — 1-D arrays
//! of fixed-size elements — over the nodes of a parallel component
//! (paper §4.2.2: "the current implementation requires the user type to be
//! an IDL sequence type, that is to say a 1D array"). 2-D arrays map to
//! sequences of row blocks, so the same machinery covers them.
//!
//! A [`DistSeq`] is one rank's *local block* of a global sequence plus the
//! metadata needed to compute anyone's block boundaries: global element
//! count, element size, the [`Distribution`] and the (rank, size) pair.

use bytes::Bytes;

use crate::error::GridCcmError;

/// How a global sequence is laid out over ranks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Distribution {
    /// Contiguous blocks, remainder spread over the first ranks (the
    /// GridCCM default and the paper's running example).
    Block,
    /// Round-robin single elements.
    Cyclic,
    /// Round-robin blocks of the given element count.
    BlockCyclic(u64),
}

/// Compact ownership descriptor: `count` chunks of `chunk_len` elements,
/// `stride` apart, starting at global index `start`, plus an optional
/// final chunk of `tail_len < chunk_len` elements at
/// `start + count * stride` (the chunk a Cyclic/BlockCyclic layout clips
/// against the end of the sequence).
///
/// This is the O(1) replacement for materialized per-element range lists:
/// a Block layout is one chunk, Cyclic is `BlockCyclic(1)`, and
/// BlockCyclic is closed-form in `(rank, size, global)`. Every hot path
/// (schedule construction, local length, local slicing) works off this
/// descriptor or its [`StridedRun::ranges`] iterator; nothing allocates
/// one entry per element any more (see DESIGN.md §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedRun {
    /// Global index of the first element of the first chunk.
    pub start: u64,
    /// Elements per full chunk.
    pub chunk_len: u64,
    /// Distance between consecutive chunk starts.
    pub stride: u64,
    /// Number of full chunks.
    pub count: u64,
    /// Elements in the clipped final chunk (0 = none).
    pub tail_len: u64,
}

impl StridedRun {
    /// Total elements covered.
    pub fn len(&self) -> u64 {
        self.count * self.chunk_len + self.tail_len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunks as `[start, end)` global ranges, ascending.
    pub fn ranges(self) -> impl Iterator<Item = (u64, u64)> {
        let full = (0..self.count).map(move |j| {
            let s = self.start + j * self.stride;
            (s, s + self.chunk_len)
        });
        let tail = (self.tail_len > 0).then(|| {
            let s = self.start + self.count * self.stride;
            (s, s + self.tail_len)
        });
        full.chain(tail)
    }
}

impl Distribution {
    /// Encode for wire headers.
    pub fn code(&self) -> (u8, u64) {
        match self {
            Distribution::Block => (0, 0),
            Distribution::Cyclic => (1, 0),
            Distribution::BlockCyclic(b) => (2, *b),
        }
    }

    /// Decode from wire headers.
    pub fn from_code(tag: u8, param: u64) -> Result<Distribution, GridCcmError> {
        Ok(match tag {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            2 => {
                if param == 0 {
                    return Err(GridCcmError::Distribution(
                        "block-cyclic with zero block".into(),
                    ));
                }
                Distribution::BlockCyclic(param)
            }
            other => {
                return Err(GridCcmError::Distribution(format!(
                    "unknown distribution tag {other}"
                )))
            }
        })
    }

    /// Parse from a parallelism descriptor attribute.
    pub fn parse(text: &str) -> Result<Distribution, GridCcmError> {
        if text == "block" {
            return Ok(Distribution::Block);
        }
        if text == "cyclic" {
            return Ok(Distribution::Cyclic);
        }
        if let Some(b) = text.strip_prefix("block-cyclic:") {
            let b: u64 = b
                .parse()
                .map_err(|_| GridCcmError::Descriptor(format!("bad block-cyclic size `{b}`")))?;
            if b == 0 {
                return Err(GridCcmError::Descriptor("block-cyclic:0".into()));
            }
            return Ok(Distribution::BlockCyclic(b));
        }
        Err(GridCcmError::Descriptor(format!(
            "unknown distribution `{text}`"
        )))
    }

    /// Number of elements rank `r` of `size` owns in a sequence of
    /// `global` elements. Closed form — O(1) for every distribution
    /// (this sits on the assemble path of every adapter/client call).
    pub fn local_len(&self, global: u64, r: usize, size: usize) -> u64 {
        self.strided_run(global, r, size).len()
    }

    /// The cyclic block length: `Some(b)` for the periodic layouts
    /// (Cyclic is block-cyclic with `b = 1`), `None` for Block.
    pub fn cyclic_block(&self) -> Option<u64> {
        match self {
            Distribution::Block => None,
            Distribution::Cyclic => Some(1),
            Distribution::BlockCyclic(b) => Some(*b),
        }
    }

    /// The [`StridedRun`] describing everything rank `r` of `size` owns,
    /// computed in O(1): Block is a single chunk, Cyclic/BlockCyclic are
    /// `count` full chunks every `stride` elements plus an optional
    /// clipped tail chunk.
    pub fn strided_run(&self, global: u64, r: usize, size: usize) -> StridedRun {
        assert!(r < size, "rank out of range");
        let size_u = size as u64;
        let r_u = r as u64;
        match self.cyclic_block() {
            None => {
                let base = global / size_u;
                let extra = global % size_u;
                let start = r_u * base + r_u.min(extra);
                let len = base + u64::from(r_u < extra);
                StridedRun {
                    start,
                    chunk_len: len,
                    stride: len.max(1),
                    count: u64::from(len > 0),
                    tail_len: 0,
                }
            }
            Some(b) => {
                let stride = size_u * b;
                let start = r_u * b;
                if start >= global {
                    return StridedRun {
                        start,
                        chunk_len: b,
                        stride,
                        count: 0,
                        tail_len: 0,
                    };
                }
                // Chunks with start < global; only the last can be clipped.
                let n = (global - start - 1) / stride + 1;
                let last_start = start + (n - 1) * stride;
                let last_len = (global - last_start).min(b);
                let (count, tail_len) = if last_len == b {
                    (n, 0)
                } else {
                    (n - 1, last_len)
                };
                StridedRun {
                    start,
                    chunk_len: b,
                    stride,
                    count,
                    tail_len,
                }
            }
        }
    }

    /// Iterator over the global index ranges `[start, end)` owned by rank
    /// `r` of `size`, ascending — the hot-path form (no allocation).
    pub fn ranges(&self, global: u64, r: usize, size: usize) -> impl Iterator<Item = (u64, u64)> {
        self.strided_run(global, r, size).ranges()
    }

    /// The global index ranges `[start, end)` owned by rank `r` of `size`,
    /// in ascending order, materialized (tests and cold paths; use
    /// [`Distribution::ranges`] or [`Distribution::strided_run`] on hot
    /// paths).
    pub fn owned_ranges(&self, global: u64, r: usize, size: usize) -> Vec<(u64, u64)> {
        self.ranges(global, r, size).collect()
    }

    /// Rank owning global element `i` (for Block this is a closed form;
    /// the others are modular).
    pub fn owner(&self, global: u64, i: u64, size: usize) -> usize {
        debug_assert!(i < global);
        let size_u = size as u64;
        match self {
            Distribution::Block => {
                let base = global / size_u;
                let extra = global % size_u;
                let fat = (base + 1) * extra; // elements held by the fat ranks
                if base == 0 {
                    // More ranks than elements: element i lives on rank i.
                    return i as usize;
                }
                if i < fat {
                    (i / (base + 1)) as usize
                } else {
                    ((i - fat) / base + extra) as usize
                }
            }
            Distribution::Cyclic => (i % size_u) as usize,
            Distribution::BlockCyclic(b) => ((i / b) % size_u) as usize,
        }
    }
}

/// One rank's local block of a distributed sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct DistSeq {
    /// Size of one element, bytes.
    pub elem_size: u32,
    /// Global element count.
    pub global_elems: u64,
    pub distribution: Distribution,
    /// This rank.
    pub rank: usize,
    /// Group size.
    pub size: usize,
    /// The local elements, concatenated in ascending global order.
    pub data: Bytes,
}

impl DistSeq {
    /// Build from a full global buffer (convenience for rank groups of 1
    /// and for tests): slices out this rank's elements.
    pub fn from_global(
        elem_size: u32,
        distribution: Distribution,
        rank: usize,
        size: usize,
        global: &Bytes,
    ) -> Result<DistSeq, GridCcmError> {
        if !global.len().is_multiple_of(elem_size as usize) {
            return Err(GridCcmError::Distribution(format!(
                "{} bytes is not a multiple of element size {elem_size}",
                global.len()
            )));
        }
        let global_elems = (global.len() / elem_size as usize) as u64;
        let mut data = Vec::new();
        for (s, e) in distribution.ranges(global_elems, rank, size) {
            let byte_start = (s * u64::from(elem_size)) as usize;
            let byte_end = (e * u64::from(elem_size)) as usize;
            data.extend_from_slice(&global[byte_start..byte_end]);
        }
        Ok(DistSeq {
            elem_size,
            global_elems,
            distribution,
            rank,
            size,
            data: Bytes::from(data),
        })
    }

    /// Build directly from a local block (the SPMD-native path; `data`
    /// must hold exactly this rank's elements).
    pub fn from_local(
        elem_size: u32,
        global_elems: u64,
        distribution: Distribution,
        rank: usize,
        size: usize,
        data: Bytes,
    ) -> Result<DistSeq, GridCcmError> {
        let expected = distribution.local_len(global_elems, rank, size) * u64::from(elem_size);
        if data.len() as u64 != expected {
            return Err(GridCcmError::Distribution(format!(
                "local block of rank {rank}/{size} should be {expected} bytes, got {}",
                data.len()
            )));
        }
        Ok(DistSeq {
            elem_size,
            global_elems,
            distribution,
            rank,
            size,
            data,
        })
    }

    /// Local element count.
    pub fn local_elems(&self) -> u64 {
        self.data.len() as u64 / u64::from(self.elem_size)
    }

    /// View the local block as f64 elements (elem_size must be 8).
    pub fn as_f64(&self) -> Result<Vec<f64>, GridCcmError> {
        if self.elem_size != 8 {
            return Err(GridCcmError::Distribution(format!(
                "element size is {}, not 8",
                self.elem_size
            )));
        }
        Ok(self
            .data
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    /// View the local block as i32 elements (elem_size must be 4).
    pub fn as_i32(&self) -> Result<Vec<i32>, GridCcmError> {
        if self.elem_size != 4 {
            return Err(GridCcmError::Distribution(format!(
                "element size is {}, not 4",
                self.elem_size
            )));
        }
        Ok(self
            .data
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    /// Build a distributed f64 sequence from a local slice.
    pub fn from_f64_local(
        global_elems: u64,
        distribution: Distribution,
        rank: usize,
        size: usize,
        local: &[f64],
    ) -> Result<DistSeq, GridCcmError> {
        let mut data = Vec::with_capacity(local.len() * 8);
        for v in local {
            data.extend_from_slice(&v.to_le_bytes());
        }
        Self::from_local(8, global_elems, distribution, rank, size, Bytes::from(data))
    }

    /// Build a distributed i32 sequence from a local slice.
    pub fn from_i32_local(
        global_elems: u64,
        distribution: Distribution,
        rank: usize,
        size: usize,
        local: &[i32],
    ) -> Result<DistSeq, GridCcmError> {
        let mut data = Vec::with_capacity(local.len() * 4);
        for v in local {
            data.extend_from_slice(&v.to_le_bytes());
        }
        Self::from_local(4, global_elems, distribution, rank, size, Bytes::from(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_ranges_cover_exactly() {
        let d = Distribution::Block;
        // 10 elements over 3 ranks: 4, 3, 3.
        assert_eq!(d.owned_ranges(10, 0, 3), vec![(0, 4)]);
        assert_eq!(d.owned_ranges(10, 1, 3), vec![(4, 7)]);
        assert_eq!(d.owned_ranges(10, 2, 3), vec![(7, 10)]);
        assert_eq!(d.local_len(10, 0, 3), 4);
        // Fewer elements than ranks.
        assert_eq!(d.owned_ranges(2, 2, 5), vec![]);
        assert_eq!(d.owned_ranges(2, 1, 5), vec![(1, 2)]);
    }

    #[test]
    fn cyclic_and_block_cyclic_ranges() {
        let c = Distribution::Cyclic;
        assert_eq!(c.owned_ranges(7, 1, 3), vec![(1, 2), (4, 5)]);
        let bc = Distribution::BlockCyclic(2);
        // blocks: [0,2) r0, [2,4) r1, [4,6) r0, [6,7) r1  (size 2)
        assert_eq!(bc.owned_ranges(7, 0, 2), vec![(0, 2), (4, 6)]);
        assert_eq!(bc.owned_ranges(7, 1, 2), vec![(2, 4), (6, 7)]);
    }

    #[test]
    fn owner_agrees_with_ranges() {
        for dist in [
            Distribution::Block,
            Distribution::Cyclic,
            Distribution::BlockCyclic(3),
        ] {
            for (global, size) in [(17u64, 4usize), (5, 5), (3, 7), (64, 8)] {
                for i in 0..global {
                    let owner = dist.owner(global, i, size);
                    let ranges = dist.owned_ranges(global, owner, size);
                    assert!(
                        ranges.iter().any(|&(s, e)| s <= i && i < e),
                        "{dist:?}: element {i} of {global} not in owner {owner}'s ranges {ranges:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn code_roundtrip_and_parse() {
        for d in [
            Distribution::Block,
            Distribution::Cyclic,
            Distribution::BlockCyclic(16),
        ] {
            let (tag, param) = d.code();
            assert_eq!(Distribution::from_code(tag, param).unwrap(), d);
        }
        assert!(Distribution::from_code(9, 0).is_err());
        assert!(Distribution::from_code(2, 0).is_err());
        assert_eq!(Distribution::parse("block").unwrap(), Distribution::Block);
        assert_eq!(Distribution::parse("cyclic").unwrap(), Distribution::Cyclic);
        assert_eq!(
            Distribution::parse("block-cyclic:8").unwrap(),
            Distribution::BlockCyclic(8)
        );
        assert!(Distribution::parse("diagonal").is_err());
        assert!(Distribution::parse("block-cyclic:0").is_err());
    }

    #[test]
    fn dist_seq_from_global_slices_the_right_bytes() {
        let global: Vec<u8> = (0..40).collect(); // 10 × u32-sized elements
        let g = Bytes::from(global);
        let s = DistSeq::from_global(4, Distribution::Block, 1, 3, &g).unwrap();
        assert_eq!(s.local_elems(), 3);
        assert_eq!(&s.data[..], &(16..28).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn dist_seq_validates_sizes() {
        let g = Bytes::from(vec![0u8; 10]);
        assert!(DistSeq::from_global(4, Distribution::Block, 0, 2, &g).is_err());
        assert!(
            DistSeq::from_local(4, 10, Distribution::Block, 0, 2, Bytes::from(vec![0u8; 8]))
                .is_err(),
            "rank 0 of 2 over 10 elems needs 5*4 bytes"
        );
    }

    #[test]
    fn typed_views_roundtrip() {
        let s = DistSeq::from_f64_local(4, Distribution::Block, 0, 2, &[1.5, -2.5]).unwrap();
        assert_eq!(s.as_f64().unwrap(), vec![1.5, -2.5]);
        assert!(s.as_i32().is_err());
        let s = DistSeq::from_i32_local(4, Distribution::Block, 1, 2, &[7, 8]).unwrap();
        assert_eq!(s.as_i32().unwrap(), vec![7, 8]);
    }

    proptest! {
        /// Every distribution partitions [0, global): ranges of all ranks
        /// are disjoint and cover everything.
        #[test]
        fn distributions_partition(global in 0u64..200, size in 1usize..9, which in 0u8..3, bc in 1u64..6) {
            let dist = match which {
                0 => Distribution::Block,
                1 => Distribution::Cyclic,
                _ => Distribution::BlockCyclic(bc),
            };
            let mut covered = vec![false; global as usize];
            for r in 0..size {
                for (s, e) in dist.owned_ranges(global, r, size) {
                    prop_assert!(e <= global);
                    for i in s..e {
                        prop_assert!(!covered[i as usize], "element {i} covered twice");
                        covered[i as usize] = true;
                    }
                }
            }
            prop_assert!(covered.iter().all(|&c| c), "not all elements covered");
        }

        /// local_len sums to global.
        #[test]
        fn local_lens_sum_to_global(global in 0u64..500, size in 1usize..10) {
            let total: u64 = (0..size)
                .map(|r| Distribution::Block.local_len(global, r, size))
                .sum();
            prop_assert_eq!(total, global);
        }

        /// The O(1) strided run agrees element-for-element with a brute
        /// force ownership scan, and local_len with the range sum.
        #[test]
        fn strided_run_matches_brute_force(
            global in 0u64..300,
            size in 1usize..9,
            which in 0u8..3,
            bc in 1u64..7,
        ) {
            let dist = match which {
                0 => Distribution::Block,
                1 => Distribution::Cyclic,
                _ => Distribution::BlockCyclic(bc),
            };
            for r in 0..size {
                let brute: Vec<u64> = (0..global)
                    .filter(|&i| dist.owner(global, i, size) == r)
                    .collect();
                let run = dist.strided_run(global, r, size);
                let from_run: Vec<u64> =
                    run.ranges().flat_map(|(s, e)| s..e).collect();
                prop_assert_eq!(&from_run, &brute, "{:?} rank {}/{}", dist, r, size);
                prop_assert_eq!(run.len(), brute.len() as u64);
                prop_assert_eq!(dist.local_len(global, r, size), brute.len() as u64);
                prop_assert_eq!(run.is_empty(), brute.is_empty());
                // The tail chunk, when present, is strictly shorter than a
                // full chunk and the ranges come out ascending + disjoint.
                prop_assert!(run.tail_len < run.chunk_len.max(1) || run.tail_len == 0);
                let ranges: Vec<(u64, u64)> = run.ranges().collect();
                for w in ranges.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0);
                }
            }
        }
    }
}
