//! Collective operations.
//!
//! All collectives are built from point-to-point messages on reserved
//! tags, using the classic logarithmic algorithms:
//!
//! * [`Communicator::barrier`] — dissemination (⌈log₂ n⌉ rounds), which is
//!   what makes the Figure 8 latency column grow slowly with n;
//! * [`Communicator::bcast`] / [`Communicator::reduce`] — binomial trees;
//! * [`Communicator::allreduce`] — reduce + bcast;
//! * gather/scatter families — root-centric fan-in/fan-out;
//! * [`Communicator::alltoall`] — rotated pairwise exchange.
//!
//! Every collective call reserves a fresh 64-tag window (an epoch
//! counter that advances identically on all ranks, since collectives are
//! collective), so messages of successive collectives on one communicator
//! can never mix generations even when ranks drift.

use padico_fabric::Payload;

use crate::comm::Communicator;
use crate::datatype::{decode, encode, MpiDatatype, ReduceOp};
use crate::error::MpiError;

// Slot offsets inside the per-call tag window (see
// `Communicator::next_collective_window`): each collective call gets a
// fresh 64-tag window, so messages of successive collectives on one
// communicator can never mix generations.
const SLOT_BARRIER: u32 = 0; // + round, one per dissemination round
const SLOT_BCAST: u32 = 32;
const SLOT_REDUCE: u32 = 33;
const SLOT_GATHER: u32 = 34;
const SLOT_SCATTER: u32 = 35;
const SLOT_ALLTOALL: u32 = 36; // + offset % 16

/// Rounds of a dissemination barrier over `n` ranks: ⌈log2 n⌉.
fn barrier_rounds(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

impl Communicator {
    fn check_root(&self, root: usize) -> Result<(), MpiError> {
        if root >= self.size() {
            return Err(MpiError::BadRank {
                rank: root as i32,
                size: self.size(),
            });
        }
        Ok(())
    }

    /// Dissemination barrier: returns once every rank has entered.
    pub fn barrier(&self) -> Result<(), MpiError> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let window = self.next_collective_window();
        for round in 0..barrier_rounds(n) {
            self.barrier_round(window, round)?;
        }
        Ok(())
    }

    /// Round `round` of the dissemination barrier in `window`: signal the
    /// rank `2^round` ahead, wait for the one `2^round` behind.
    fn barrier_round(&self, window: u32, round: u32) -> Result<(), MpiError> {
        let (n, step) = (self.size(), 1usize << round);
        let to = (self.rank() + step) % n;
        let from = (self.rank() + n - step) % n;
        self.send_bytes_internal(to as i32, window + SLOT_BARRIER + round, Payload::new())?;
        self.recv_internal(from, window + SLOT_BARRIER + round)?;
        Ok(())
    }

    /// Binomial-tree broadcast of a byte payload from `root`.
    pub fn bcast_bytes(&self, root: usize, payload: &mut Payload) -> Result<(), MpiError> {
        self.check_root(root)?;
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let window = self.next_collective_window();
        // Relative rank so the tree is rooted at `root`.
        let vrank = (self.rank() + n - root) % n;
        // Receive phase: find my parent (clear lowest set bit).
        if vrank != 0 {
            let parent_vrank = vrank & (vrank - 1);
            let parent = (parent_vrank + root) % n;
            *payload = self.recv_internal(parent, window + SLOT_BCAST)?;
        }
        // Send phase: children are vrank | (1 << k) above my highest bit.
        let lowest = if vrank == 0 {
            usize::BITS
        } else {
            vrank.trailing_zeros()
        };
        let mut k = 0u32;
        while k < lowest {
            let child_vrank = vrank | (1 << k);
            if child_vrank >= n {
                break;
            }
            let child = (child_vrank + root) % n;
            self.send_bytes_internal(child as i32, window + SLOT_BCAST, payload.clone())?;
            k += 1;
        }
        Ok(())
    }

    /// Typed broadcast: `buf` is the source at the root and is replaced by
    /// the broadcast data elsewhere.
    pub fn bcast<T: MpiDatatype>(&self, root: usize, buf: &mut Vec<T>) -> Result<(), MpiError> {
        let mut payload = if self.rank() == root {
            Payload::from_vec(encode(buf))
        } else {
            Payload::new()
        };
        self.bcast_bytes(root, &mut payload)?;
        if self.rank() != root {
            *buf = decode(&payload.to_vec())?;
        }
        Ok(())
    }

    /// Binomial-tree reduction to `root`; every rank contributes `buf`,
    /// the root returns the combined vector (others get `None`).
    pub fn reduce<T: MpiDatatype>(
        &self,
        root: usize,
        op: ReduceOp,
        buf: &[T],
    ) -> Result<Option<Vec<T>>, MpiError> {
        self.check_root(root)?;
        let n = self.size();
        let window = self.next_collective_window();
        let vrank = (self.rank() + n - root) % n;
        let mut acc: Vec<T> = buf.to_vec();
        // Receive from children (mirror of the bcast tree), combining.
        let lowest = if vrank == 0 {
            usize::BITS
        } else {
            vrank.trailing_zeros()
        };
        let mut k = 0u32;
        while k < lowest {
            let child_vrank = vrank | (1 << k);
            if child_vrank >= n {
                break;
            }
            let child = (child_vrank + root) % n;
            let payload = self.recv_internal(child, window + SLOT_REDUCE)?;
            let theirs: Vec<T> = decode(&payload.to_vec())?;
            if theirs.len() != acc.len() {
                return Err(MpiError::BadCount(format!(
                    "reduce contribution of {} elements, expected {}",
                    theirs.len(),
                    acc.len()
                )));
            }
            op.combine_slices(&mut acc, &theirs);
            k += 1;
        }
        // Send to parent.
        if vrank != 0 {
            let parent_vrank = vrank & (vrank - 1);
            let parent = (parent_vrank + root) % n;
            self.send_bytes_internal(
                parent as i32,
                window + SLOT_REDUCE,
                Payload::from_vec(encode(&acc)),
            )?;
            Ok(None)
        } else {
            Ok(Some(acc))
        }
    }

    /// Reduce-to-all: every rank returns the combined vector.
    pub fn allreduce<T: MpiDatatype>(&self, op: ReduceOp, buf: &[T]) -> Result<Vec<T>, MpiError> {
        let reduced = self.reduce(0, op, buf)?;
        let mut out = reduced.unwrap_or_default();
        self.bcast(0, &mut out)?;
        Ok(out)
    }

    /// Gather equal-size contributions to `root`; the root returns the
    /// concatenation in rank order.
    pub fn gather<T: MpiDatatype>(
        &self,
        root: usize,
        buf: &[T],
    ) -> Result<Option<Vec<T>>, MpiError> {
        self.check_root(root)?;
        let window = self.next_collective_window();
        if self.rank() != root {
            self.send_bytes_internal(
                root as i32,
                window + SLOT_GATHER,
                Payload::from_vec(encode(buf)),
            )?;
            return Ok(None);
        }
        let mut out: Vec<T> = Vec::with_capacity(buf.len() * self.size());
        for src in 0..self.size() {
            if src == root {
                out.extend_from_slice(buf);
            } else {
                let payload = self.recv_internal(src, window + SLOT_GATHER)?;
                let theirs: Vec<T> = decode(&payload.to_vec())?;
                if theirs.len() != buf.len() {
                    return Err(MpiError::BadCount(format!(
                        "gather contribution of {} elements from rank {src}, expected {}",
                        theirs.len(),
                        buf.len()
                    )));
                }
                out.extend_from_slice(&theirs);
            }
        }
        Ok(Some(out))
    }

    /// Variable-size gather; contributions may differ in length and the
    /// root returns them per rank.
    pub fn gatherv<T: MpiDatatype>(
        &self,
        root: usize,
        buf: &[T],
    ) -> Result<Option<Vec<Vec<T>>>, MpiError> {
        self.check_root(root)?;
        let window = self.next_collective_window();
        if self.rank() != root {
            self.send_bytes_internal(
                root as i32,
                window + SLOT_GATHER,
                Payload::from_vec(encode(buf)),
            )?;
            return Ok(None);
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == root {
                out.push(buf.to_vec());
            } else {
                let payload = self.recv_internal(src, window + SLOT_GATHER)?;
                out.push(decode(&payload.to_vec())?);
            }
        }
        Ok(Some(out))
    }

    /// Scatter `chunks[i]` to rank `i` from `root`; every rank returns its
    /// chunk. Non-roots pass `None`.
    pub fn scatterv<T: MpiDatatype>(
        &self,
        root: usize,
        chunks: Option<&[Vec<T>]>,
    ) -> Result<Vec<T>, MpiError> {
        self.check_root(root)?;
        let window = self.next_collective_window();
        if self.rank() == root {
            let chunks = chunks
                .ok_or_else(|| MpiError::BadCount("root must provide scatter chunks".into()))?;
            if chunks.len() != self.size() {
                return Err(MpiError::BadCount(format!(
                    "{} scatter chunks for {} ranks",
                    chunks.len(),
                    self.size()
                )));
            }
            for (dst, chunk) in chunks.iter().enumerate() {
                if dst != root {
                    self.send_bytes_internal(
                        dst as i32,
                        window + SLOT_SCATTER,
                        Payload::from_vec(encode(chunk)),
                    )?;
                }
            }
            Ok(chunks[root].clone())
        } else {
            let payload = self.recv_internal(root, window + SLOT_SCATTER)?;
            decode(&payload.to_vec())
        }
    }

    /// Equal-chunk scatter: the root's `data` is cut into `size()` equal
    /// chunks (length must divide evenly).
    pub fn scatter<T: MpiDatatype>(
        &self,
        root: usize,
        data: Option<&[T]>,
    ) -> Result<Vec<T>, MpiError> {
        if self.rank() == root {
            let data = data.ok_or_else(|| MpiError::BadCount("root must provide data".into()))?;
            if data.len() % self.size() != 0 {
                return Err(MpiError::BadCount(format!(
                    "{} elements do not divide into {} ranks",
                    data.len(),
                    self.size()
                )));
            }
            let per = data.len() / self.size();
            let chunks: Vec<Vec<T>> = data.chunks_exact(per).map(|c| c.to_vec()).collect();
            self.scatterv(root, Some(&chunks))
        } else {
            self.scatterv(root, None)
        }
    }

    /// Allgather: every rank returns the concatenation of all
    /// contributions in rank order.
    pub fn allgather<T: MpiDatatype>(&self, buf: &[T]) -> Result<Vec<T>, MpiError> {
        let gathered = self.gather(0, buf)?;
        let mut out = gathered.unwrap_or_default();
        self.bcast(0, &mut out)?;
        Ok(out)
    }

    /// All-to-all personalized exchange: `chunks[i]` goes to rank `i`;
    /// returns what each rank sent to us, in rank order. Uses a rotated
    /// schedule so all pairs progress concurrently.
    pub fn alltoall<T: MpiDatatype>(&self, chunks: &[Vec<T>]) -> Result<Vec<Vec<T>>, MpiError> {
        let n = self.size();
        if chunks.len() != n {
            return Err(MpiError::BadCount(format!(
                "{} alltoall chunks for {n} ranks",
                chunks.len()
            )));
        }
        let window = self.next_collective_window();
        let mut out: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        out[self.rank()] = chunks[self.rank()].clone();
        for offset in 1..n {
            let to = (self.rank() + offset) % n;
            let from = (self.rank() + n - offset) % n;
            let tag = window + SLOT_ALLTOALL + (offset as u32 % 16);
            self.send_bytes_internal(to as i32, tag, Payload::from_vec(encode(&chunks[to])))?;
            let payload = self.recv_internal(from, tag)?;
            out[from] = decode(&payload.to_vec())?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::tests::world;
    use std::sync::{Arc, Barrier};
    use std::thread;

    /// Run one closure per rank on its own thread and collect results in
    /// rank order.
    fn run_ranks<R: Send + 'static>(
        comms: Vec<Communicator>,
        f: impl Fn(Communicator) -> R + Send + Sync + Clone + 'static,
    ) -> Vec<R> {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn barrier_completes_on_all_sizes() {
        for n in [1, 2, 3, 4, 7, 8] {
            let results = run_ranks(world(n), |c| c.barrier().is_ok());
            assert!(results.into_iter().all(|ok| ok), "barrier failed for n={n}");
        }
    }

    #[test]
    fn barrier_latency_grows_logarithmically() {
        // Virtual time for a barrier must scale ~log2(n), not ~n. A rank
        // takes delivery of a message when it pulls it, even one it only
        // stashes, so a rank that pulled round k+1's signal before round
        // k's would start its later rounds at that later time: the
        // virtual cost would follow how the OS interleaved the rank
        // threads. The rig runs the barrier's own rounds in lock-step
        // instead (no rank sends round k+1 before every rank finished
        // round k), so each rank pulls only the signal it waits for.
        let mut costs = vec![];
        for n in [2usize, 4, 8] {
            let lockstep = Arc::new(Barrier::new(n));
            let elapsed = run_ranks(world(n), move |c| {
                let window = c.next_collective_window();
                let start = c.clock().now();
                for round in 0..barrier_rounds(n) {
                    c.barrier_round(window, round).unwrap();
                    lockstep.wait();
                }
                c.clock().now() - start
            });
            costs.push(*elapsed.iter().max().unwrap() as f64);
        }
        // 8 ranks = 3 rounds vs 2 ranks = 1 round: the critical path grows
        // with the round count (×3), well under the ×7 a linear algorithm
        // would show.
        assert!(
            costs[2] / costs[0] < 7.0,
            "barrier cost should grow like log n: {costs:?}"
        );
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..3 {
            let results = run_ranks(world(3), move |c| {
                let mut buf = if c.rank() == root {
                    vec![13i32, 37]
                } else {
                    vec![]
                };
                c.bcast(root, &mut buf).unwrap();
                buf
            });
            for r in results {
                assert_eq!(r, vec![13, 37], "root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let results = run_ranks(world(4), |c| {
            let mine = vec![c.rank() as i64 + 1, 10 * (c.rank() as i64 + 1)];
            c.reduce(0, ReduceOp::Sum, &mine).unwrap()
        });
        assert_eq!(results[0].as_ref().unwrap(), &vec![10i64, 100]);
        assert!(results[1..].iter().all(|r| r.is_none()));

        let results = run_ranks(world(5), |c| {
            let mine = vec![(c.rank() as f64) * 1.5];
            c.reduce(2, ReduceOp::Max, &mine).unwrap()
        });
        assert_eq!(results[2].as_ref().unwrap(), &vec![6.0]);
    }

    #[test]
    fn allreduce_gives_everyone_the_answer() {
        let results = run_ranks(world(4), |c| {
            c.allreduce(ReduceOp::Sum, &[1i32, c.rank() as i32])
                .unwrap()
        });
        for r in results {
            assert_eq!(r, vec![4, 1 + 2 + 3]);
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let results = run_ranks(world(3), |c| c.gather(1, &[c.rank() as u16, 99]).unwrap());
        assert!(results[0].is_none());
        assert_eq!(results[1].as_ref().unwrap(), &vec![0u16, 99, 1, 99, 2, 99]);
    }

    #[test]
    fn gatherv_allows_ragged_contributions() {
        let results = run_ranks(world(3), |c| {
            let mine: Vec<u8> = vec![c.rank() as u8; c.rank() + 1];
            c.gatherv(0, &mine).unwrap()
        });
        let per_rank = results[0].as_ref().unwrap();
        assert_eq!(per_rank[0], vec![0]);
        assert_eq!(per_rank[1], vec![1, 1]);
        assert_eq!(per_rank[2], vec![2, 2, 2]);
    }

    #[test]
    fn scatter_distributes_equal_chunks() {
        let results = run_ranks(world(4), |c| {
            let data: Option<Vec<i32>> = (c.rank() == 0).then(|| (0..8).collect());
            c.scatter(0, data.as_deref()).unwrap()
        });
        assert_eq!(results[0], vec![0, 1]);
        assert_eq!(results[1], vec![2, 3]);
        assert_eq!(results[2], vec![4, 5]);
        assert_eq!(results[3], vec![6, 7]);
    }

    #[test]
    fn scatter_rejects_uneven_data() {
        let results = run_ranks(world(3), |c| {
            if c.rank() == 0 {
                let data = vec![1i32, 2, 3, 4]; // 4 % 3 != 0
                c.scatter(0, Some(&data)).err()
            } else {
                // Peers would block forever on a real error, so only the
                // root participates in this negative test.
                None
            }
        });
        assert!(matches!(results[0], Some(MpiError::BadCount(_))));
    }

    #[test]
    fn allgather_everywhere() {
        let results = run_ranks(world(3), |c| c.allgather(&[c.rank() as i32 * 10]).unwrap());
        for r in results {
            assert_eq!(r, vec![0, 10, 20]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let results = run_ranks(world(3), |c| {
            // Rank r sends [r*10 + dst] to each dst.
            let chunks: Vec<Vec<i32>> =
                (0..3).map(|dst| vec![c.rank() as i32 * 10 + dst]).collect();
            c.alltoall(&chunks).unwrap()
        });
        for (dst, got) in results.iter().enumerate() {
            let expected: Vec<Vec<i32>> = (0..3).map(|src| vec![src * 10 + dst as i32]).collect();
            assert_eq!(got, &expected);
        }
    }

    #[test]
    fn collectives_on_split_subgroups() {
        let results = run_ranks(world(4), |c| {
            let sub = c.split((c.rank() % 2) as u32, 0).unwrap();
            sub.allreduce(ReduceOp::Sum, &[c.rank() as i32]).unwrap()
        });
        assert_eq!(results[0], vec![2]);
        assert_eq!(results[1], vec![1 + 3]);
        assert_eq!(results[2], vec![2]);
        assert_eq!(results[3], vec![1 + 3]);
    }

    #[test]
    fn bad_root_rejected() {
        let comms = world(2);
        assert!(matches!(
            comms[0].reduce(7, ReduceOp::Sum, &[1i32]),
            Err(MpiError::BadRank { .. })
        ));
        let mut buf: Vec<i32> = vec![];
        assert!(matches!(
            comms[0].bcast(9, &mut buf),
            Err(MpiError::BadRank { .. })
        ));
    }
}
