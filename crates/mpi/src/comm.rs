//! Communicators and tagged point-to-point messaging.
//!
//! A [`Communicator`] is a view over an underlying circuit: a rank
//! numbering, a communication context (`comm id`) isolating its traffic
//! from sibling communicators on the same circuit, and the matching engine
//! that implements MPI receive semantics (FIFO per (source, tag), wildcard
//! source/tag, out-of-order stashing).
//!
//! Wire mapping: the circuit's opaque 64-bit transport header carries
//! `comm_id` (16 bits) and `tag` (32 bits); payloads travel untouched, so
//! the zero-copy `*_bytes` API preserves the fabric's hand-off semantics
//! end to end.

use padico_fabric::Payload;
use padico_tm::circuit::Circuit;
use padico_tm::driver::ArbitratedDriver;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::datatype::{decode, encode, MpiDatatype};
use crate::error::MpiError;
use crate::MPI_PROTOCOL_NS;

/// Wildcard source rank (like `MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (like `MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;

/// Highest user tag; tags above are reserved for collectives.
pub const MAX_USER_TAG: u32 = (1 << 30) - 1;

/// Completion information of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvStatus {
    /// Rank the message came from (in this communicator).
    pub source: usize,
    /// Tag it was sent with.
    pub tag: u32,
    /// Byte length of the message.
    pub len: usize,
}

struct Envelope {
    comm: u16,
    src_circuit_rank: u32,
    tag: u32,
    payload: Payload,
}

/// Shared matching engine: one per circuit, shared by all communicators
/// derived from it.
struct MatchEngine {
    circuit: Arc<Circuit>,
    stash: Mutex<VecDeque<Envelope>>,
}

impl MatchEngine {
    fn decode_header(header: u64) -> (u16, u32) {
        ((header >> 48) as u16, ((header >> 16) & 0xffff_ffff) as u32)
    }

    fn encode_header(comm: u16, tag: u32) -> u64 {
        (u64::from(comm) << 48) | (u64::from(tag) << 16)
    }

    /// Blocking matched receive.
    fn recv_match(
        &self,
        comm: u16,
        want_src: Option<u32>,
        want_tag: Option<u32>,
    ) -> Result<Envelope, MpiError> {
        loop {
            {
                let mut stash = self.stash.lock();
                if let Some(pos) = stash.iter().position(|e| {
                    e.comm == comm
                        && want_src.is_none_or(|s| s == e.src_circuit_rank)
                        && want_tag.is_none_or(|t| t == e.tag)
                }) {
                    return Ok(stash.remove(pos).expect("position valid"));
                }
            }
            let (src, header, payload) = self.circuit.recv().map_err(MpiError::from)?;
            self.circuit.clock().advance(MPI_PROTOCOL_NS);
            let (msg_comm, tag) = Self::decode_header(header);
            let envelope = Envelope {
                comm: msg_comm,
                src_circuit_rank: src,
                tag,
                payload,
            };
            let matches = msg_comm == comm
                && want_src.is_none_or(|s| s == src)
                && want_tag.is_none_or(|t| t == tag);
            if matches {
                return Ok(envelope);
            }
            self.stash.lock().push_back(envelope);
        }
    }

    /// Non-blocking matched receive.
    fn try_recv_match(
        &self,
        comm: u16,
        want_src: Option<u32>,
        want_tag: Option<u32>,
    ) -> Result<Option<Envelope>, MpiError> {
        // Drain everything currently pending into the stash first, then
        // search the stash once.
        while let Some((src, header, payload)) = self.circuit.try_recv().map_err(MpiError::from)? {
            self.circuit.clock().advance(MPI_PROTOCOL_NS);
            let (msg_comm, tag) = Self::decode_header(header);
            self.stash.lock().push_back(Envelope {
                comm: msg_comm,
                src_circuit_rank: src,
                tag,
                payload,
            });
        }
        let mut stash = self.stash.lock();
        if let Some(pos) = stash.iter().position(|e| {
            e.comm == comm
                && want_src.is_none_or(|s| s == e.src_circuit_rank)
                && want_tag.is_none_or(|t| t == e.tag)
        }) {
            return Ok(Some(stash.remove(pos).expect("position valid")));
        }
        Ok(None)
    }
}

/// An MPI communicator.
#[derive(Clone)]
pub struct Communicator {
    engine: Arc<MatchEngine>,
    comm_id: u16,
    rank: usize,
    /// Circuit rank of each member, indexed by communicator rank.
    members: Arc<Vec<u32>>,
    /// Per-parent derived-communicator sequence (kept identical across
    /// ranks because `dup`/`split` are collective).
    derive_seq: Arc<Mutex<u16>>,
    /// Collective call counter (identical across ranks because
    /// collectives are collective); isolates the reserved tags of
    /// successive collective calls so generations cannot mix.
    collective_epoch: Arc<std::sync::atomic::AtomicU64>,
}

impl Communicator {
    /// The `WORLD` communicator of a circuit.
    pub(crate) fn world(circuit: Arc<Circuit>) -> Communicator {
        let size = circuit.size();
        let rank = circuit.rank();
        Communicator {
            engine: Arc::new(MatchEngine {
                circuit,
                stash: Mutex::new(VecDeque::new()),
            }),
            comm_id: 0,
            rank,
            members: Arc::new((0..size as u32).collect()),
            derive_seq: Arc::new(Mutex::new(1)),
            collective_epoch: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Reserve the tag window for the next collective call; every rank
    /// obtains the same window because collectives are collective.
    pub(crate) fn next_collective_window(&self) -> u32 {
        let epoch = self
            .collective_epoch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        crate::comm::ITAG_COLLECTIVE_BASE + ((epoch % 4096) as u32) * 64
    }

    /// This process's rank in the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The communication context id (diagnostics).
    pub fn id(&self) -> u16 {
        self.comm_id
    }

    /// The node clock (for experiment timing).
    pub fn clock(&self) -> &padico_util::SimClock {
        self.engine.circuit.clock()
    }

    fn circuit_rank(&self, comm_rank: i32) -> Result<u32, MpiError> {
        usize::try_from(comm_rank)
            .ok()
            .and_then(|r| self.members.get(r).copied())
            .ok_or(MpiError::BadRank {
                rank: comm_rank,
                size: self.size(),
            })
    }

    fn comm_rank_of(&self, circuit_rank: u32) -> usize {
        self.members
            .iter()
            .position(|&m| m == circuit_rank)
            .expect("matched envelope is from a member")
    }

    fn check_tag(tag: u32) -> Result<(), MpiError> {
        if tag > MAX_USER_TAG {
            return Err(MpiError::BadTag(tag));
        }
        Ok(())
    }

    /// Zero-copy tagged send.
    pub fn send_bytes(&self, dst: i32, tag: u32, payload: Payload) -> Result<(), MpiError> {
        Self::check_tag(tag)?;
        self.send_bytes_internal(dst, tag, payload)
    }

    /// Internal send that may use reserved tags (collectives).
    pub(crate) fn send_bytes_internal(
        &self,
        dst: i32,
        tag: u32,
        payload: Payload,
    ) -> Result<(), MpiError> {
        let dst_circuit = self.circuit_rank(dst)?;
        self.clock().advance(MPI_PROTOCOL_NS);
        self.engine
            .circuit
            .send(
                dst_circuit as usize,
                MatchEngine::encode_header(self.comm_id, tag),
                payload,
            )
            .map_err(MpiError::from)?;
        // Eager protocol: an MPI send completes only once the message is
        // on the wire, so the send itself is the coalescing barrier — a
        // rank blocked in a matching recv must not wait on a frame parked
        // in our batch.
        self.engine.circuit.flush().map_err(MpiError::from)
    }

    /// Typed tagged send (encodes with one copy).
    pub fn send<T: MpiDatatype>(&self, dst: i32, tag: u32, buf: &[T]) -> Result<(), MpiError> {
        let bytes = encode(buf);
        padico_fabric::model::charge_copy(self.clock(), bytes.len());
        self.send_bytes(dst, tag, Payload::from_vec(bytes))
    }

    /// Zero-copy tagged receive.
    pub fn recv_bytes(&self, src: i32, tag: i32) -> Result<(RecvStatus, Payload), MpiError> {
        let want_src = if src == ANY_SOURCE {
            None
        } else {
            Some(self.circuit_rank(src)?)
        };
        let want_tag = if tag == ANY_TAG {
            None
        } else {
            Some(u32::try_from(tag).map_err(|_| MpiError::BadTag(0))?)
        };
        let envelope = self.engine.recv_match(self.comm_id, want_src, want_tag)?;
        Ok((
            RecvStatus {
                source: self.comm_rank_of(envelope.src_circuit_rank),
                tag: envelope.tag,
                len: envelope.payload.len(),
            },
            envelope.payload,
        ))
    }

    /// Typed tagged receive returning a fresh vector.
    pub fn recv<T: MpiDatatype>(
        &self,
        src: i32,
        tag: i32,
    ) -> Result<(RecvStatus, Vec<T>), MpiError> {
        let (status, payload) = self.recv_bytes(src, tag)?;
        let bytes = payload.to_vec();
        padico_fabric::model::charge_copy(self.clock(), bytes.len());
        Ok((status, decode(&bytes)?))
    }

    /// Typed receive into a caller buffer; errors if the message is longer
    /// than the buffer (like `MPI_ERR_TRUNCATE`). Returns the element
    /// count actually received.
    pub fn recv_into<T: MpiDatatype>(
        &self,
        src: i32,
        tag: i32,
        buf: &mut [T],
    ) -> Result<(RecvStatus, usize), MpiError> {
        let (status, data) = self.recv::<T>(src, tag)?;
        if data.len() > buf.len() {
            return Err(MpiError::Truncated {
                incoming: data.len() * T::SIZE,
                capacity: buf.len() * T::SIZE,
            });
        }
        buf[..data.len()].copy_from_slice(&data);
        Ok((status, data.len()))
    }

    /// Non-blocking probe-and-receive.
    pub fn try_recv_bytes(
        &self,
        src: i32,
        tag: i32,
    ) -> Result<Option<(RecvStatus, Payload)>, MpiError> {
        let want_src = if src == ANY_SOURCE {
            None
        } else {
            Some(self.circuit_rank(src)?)
        };
        let want_tag = if tag == ANY_TAG {
            None
        } else {
            Some(u32::try_from(tag).map_err(|_| MpiError::BadTag(0))?)
        };
        Ok(self
            .engine
            .try_recv_match(self.comm_id, want_src, want_tag)?
            .map(|envelope| {
                (
                    RecvStatus {
                        source: self.comm_rank_of(envelope.src_circuit_rank),
                        tag: envelope.tag,
                        len: envelope.payload.len(),
                    },
                    envelope.payload,
                )
            }))
    }

    /// Internal receive that may use reserved tags (collectives).
    pub(crate) fn recv_internal(&self, src: usize, tag: u32) -> Result<Payload, MpiError> {
        let want_src = Some(self.circuit_rank(src as i32)?);
        let envelope = self.engine.recv_match(self.comm_id, want_src, Some(tag))?;
        Ok(envelope.payload)
    }

    /// Collective duplicate: every rank must call it; the clone has a fresh
    /// communication context but the same group.
    pub fn dup(&self) -> Communicator {
        let mut seq = self.derive_seq.lock();
        let comm_id = derive_id(self.comm_id, *seq, 0);
        *seq += 1;
        Communicator {
            engine: Arc::clone(&self.engine),
            comm_id,
            rank: self.rank,
            members: Arc::clone(&self.members),
            derive_seq: Arc::new(Mutex::new(1)),
            collective_epoch: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Collective split by `color` (ranks with equal colors form a new
    /// communicator, ordered by `key` then by parent rank). Every rank of
    /// the parent must call it with its own color/key.
    pub fn split(&self, color: u32, key: i32) -> Result<Communicator, MpiError> {
        // Allgather (color, key) over the parent using the internal tag.
        let mut entries: Vec<(u32, i32, usize)> = Vec::with_capacity(self.size());
        let mine = encode(&[color as i32, key]);
        for dst in 0..self.size() {
            if dst != self.rank {
                self.send_bytes_internal(dst as i32, ITAG_SPLIT, Payload::from_vec(mine.clone()))?;
            }
        }
        entries.push((color, key, self.rank));
        for src in 0..self.size() {
            if src != self.rank {
                let payload = self.recv_internal(src, ITAG_SPLIT)?;
                let vals: Vec<i32> = decode(&payload.to_vec())?;
                if vals.len() != 2 {
                    return Err(MpiError::BadCount("split exchange".into()));
                }
                entries.push((vals[0] as u32, vals[1], src));
            }
        }
        let mut group: Vec<(u32, i32, usize)> = entries
            .into_iter()
            .filter(|(c, _, _)| *c == color)
            .collect();
        group.sort_by_key(|&(_, k, r)| (k, r));
        let members: Vec<u32> = group
            .iter()
            .map(|&(_, _, parent_rank)| self.members[parent_rank])
            .collect();
        let rank = group
            .iter()
            .position(|&(_, _, r)| r == self.rank)
            .expect("caller is in its own color group");
        let mut seq = self.derive_seq.lock();
        let comm_id = derive_id(self.comm_id, *seq, color as u16);
        *seq += 1;
        Ok(Communicator {
            engine: Arc::clone(&self.engine),
            comm_id,
            rank,
            members: Arc::new(members),
            derive_seq: Arc::new(Mutex::new(1)),
            collective_epoch: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        })
    }
}

/// Reserved tag used by `split`'s internal exchange.
pub(crate) const ITAG_SPLIT: u32 = MAX_USER_TAG + 1;
/// Base of the reserved tag space used by collectives.
pub(crate) const ITAG_COLLECTIVE_BASE: u32 = MAX_USER_TAG + 16;

fn derive_id(parent: u16, seq: u16, salt: u16) -> u16 {
    // Cheap mixing; collisions across *concurrently used* communicators
    // are what matters, and (parent, seq, salt) triples are unique per
    // collective call sequence.
    let x = (u32::from(parent) << 16) ^ (u32::from(seq) << 4) ^ u32::from(salt);
    let mut h = x.wrapping_mul(0x9e37_79b9);
    h ^= h >> 16;
    ((h & 0xffff) as u16) | 1 // never 0 (0 is WORLD)
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Communicator(id={} rank={}/{})",
            self.comm_id,
            self.rank,
            self.size()
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::init_world;
    use padico_fabric::topology::single_cluster;
    use padico_tm::runtime::PadicoTM;
    use padico_tm::selector::FabricChoice;

    pub(crate) fn world(n: usize) -> Vec<Communicator> {
        let (topo, ids) = single_cluster(n);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        tms.iter()
            .map(|tm| init_world(tm, "t", ids.clone(), FabricChoice::Auto).unwrap())
            .collect()
    }

    #[test]
    fn world_has_correct_shape() {
        let comms = world(3);
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 3);
            assert_eq!(c.id(), 0);
        }
    }

    #[test]
    fn typed_send_recv() {
        let comms = world(2);
        comms[0].send(1, 5, &[1.5f64, -2.5, 99.0]).unwrap();
        let (status, data) = comms[1].recv::<f64>(0, 5).unwrap();
        assert_eq!(status.source, 0);
        assert_eq!(status.tag, 5);
        assert_eq!(data, vec![1.5, -2.5, 99.0]);
    }

    #[test]
    fn tag_matching_is_selective() {
        let comms = world(2);
        comms[0].send(1, 1, &[1i32]).unwrap();
        comms[0].send(1, 2, &[2i32]).unwrap();
        // Ask for tag 2 first; tag 1 must be stashed, not lost.
        let (_, two) = comms[1].recv::<i32>(0, 2).unwrap();
        assert_eq!(two, vec![2]);
        let (_, one) = comms[1].recv::<i32>(0, 1).unwrap();
        assert_eq!(one, vec![1]);
    }

    #[test]
    fn wildcards_match_anything() {
        let comms = world(3);
        comms[2].send(0, 9, &[42u8]).unwrap();
        let (status, data) = comms[0].recv::<u8>(ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(status.source, 2);
        assert_eq!(status.tag, 9);
        assert_eq!(data, vec![42]);
    }

    #[test]
    fn recv_into_checks_capacity() {
        let comms = world(2);
        comms[0].send(1, 0, &[1i32, 2, 3, 4]).unwrap();
        let mut small = [0i32; 2];
        let err = comms[1].recv_into(0, 0, &mut small).unwrap_err();
        assert!(matches!(err, MpiError::Truncated { .. }));
        comms[0].send(1, 0, &[7i32]).unwrap();
        let mut big = [0i32; 8];
        let (_, n) = comms[1].recv_into(0, 0, &mut big).unwrap();
        assert_eq!(n, 1);
        assert_eq!(big[0], 7);
    }

    #[test]
    fn bad_rank_and_tag_rejected() {
        let comms = world(2);
        assert!(matches!(
            comms[0].send(5, 0, &[1u8]),
            Err(MpiError::BadRank { .. })
        ));
        assert!(matches!(
            comms[0].send_bytes(1, MAX_USER_TAG + 1, Payload::new()),
            Err(MpiError::BadTag(_))
        ));
    }

    #[test]
    fn dup_isolates_traffic() {
        let comms = world(2);
        let dups: Vec<Communicator> = comms.iter().map(|c| c.dup()).collect();
        assert_eq!(dups[0].id(), dups[1].id(), "collective dup agrees on id");
        assert_ne!(dups[0].id(), comms[0].id());
        // Same (src, tag) on both communicators; each recv sees its own.
        comms[0].send(1, 3, &[10i32]).unwrap();
        dups[0].send(1, 3, &[20i32]).unwrap();
        let (_, via_dup) = dups[1].recv::<i32>(0, 3).unwrap();
        assert_eq!(via_dup, vec![20]);
        let (_, via_world) = comms[1].recv::<i32>(0, 3).unwrap();
        assert_eq!(via_world, vec![10]);
    }

    #[test]
    fn split_forms_sub_communicators() {
        let comms = world(4);
        // Colors: even ranks vs odd ranks; run each rank on a thread since
        // split is collective.
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let color = (c.rank() % 2) as u32;
                    let sub = c.split(color, 0).unwrap();
                    (c.rank(), sub.rank(), sub.size(), sub.id())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (parent_rank, sub_rank, sub_size, _id) in &results {
            assert_eq!(*sub_size, 2);
            assert_eq!(*sub_rank, parent_rank / 2);
        }
        // Both members of one color agree on the id; colors differ.
        let even_ids: Vec<u16> = results
            .iter()
            .filter(|(p, _, _, _)| p % 2 == 0)
            .map(|(_, _, _, id)| *id)
            .collect();
        let odd_ids: Vec<u16> = results
            .iter()
            .filter(|(p, _, _, _)| p % 2 == 1)
            .map(|(_, _, _, id)| *id)
            .collect();
        assert_eq!(even_ids[0], even_ids[1]);
        assert_eq!(odd_ids[0], odd_ids[1]);
        assert_ne!(even_ids[0], odd_ids[0]);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let comms = world(2);
        assert!(comms[1].try_recv_bytes(0, ANY_TAG).unwrap().is_none());
        comms[0].send(1, 4, &[1u8]).unwrap();
        let mut got = None;
        for _ in 0..200 {
            if let Some(x) = comms[1].try_recv_bytes(0, 4).unwrap() {
                got = Some(x);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got.unwrap().1.to_vec(), vec![1]);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let comms = world(2);
        for i in 0..10i32 {
            comms[0].send(1, 7, &[i]).unwrap();
        }
        for i in 0..10i32 {
            let (_, v) = comms[1].recv::<i32>(0, 7).unwrap();
            assert_eq!(v, vec![i]);
        }
    }
}
