//! Circuit — the parallel-oriented abstract interface.
//!
//! A Circuit (paper §4.3.2) is a static group of nodes with logical ranks
//! exchanging messages — the shape parallel middleware (MPI, Madeleine
//! users) expects. It is provided *on top of every arbitrated driver*: the
//! mapping is straight on SAN hardware and cross-paradigm over sockets,
//! and the middleware built on it cannot tell which — it never names a
//! network.
//!
//! The circuit is a thin paradigm adapter over [`LinkCore`]: rank
//! bookkeeping, the wire header and the rank-directed stash live here;
//! route selection, retry, failover and span emission are the core's.
//!
//! Wire format per message: a 12-byte header segment
//! `[src_rank: u32 LE][user_header: u64 LE]` prepended (as a separate
//! zero-copy segment) to the payload; `user_header` is opaque transport
//! space for the layer above (padico-mpi packs communicator+tag into it).

use padico_fabric::{pool, Paradigm, Payload};
use padico_util::ids::{ChannelId, NodeId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::arbitration::named_channel;
use crate::driver::{ArbitratedDriver, LinkCore};
use crate::error::TmError;
use crate::runtime::PadicoTM;
use crate::security::{protect, SessionKey};
use crate::selector::FabricChoice;

/// Group-wide description of a circuit. Every member must build from an
/// identical spec (same name, same group order, same fabric choice).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Rendezvous name; the logical channel id is derived from it.
    pub name: String,
    /// Member nodes; position in this list is the member's rank.
    pub group: Vec<NodeId>,
    /// Fabric selection policy.
    pub choice: FabricChoice,
}

impl CircuitSpec {
    pub fn new(name: impl Into<String>, group: Vec<NodeId>) -> Self {
        CircuitSpec {
            name: name.into(),
            group,
            choice: FabricChoice::Auto,
        }
    }

    pub fn with_choice(mut self, choice: FabricChoice) -> Self {
        self.choice = choice;
        self
    }
}

/// One node's member of a circuit.
///
/// Receiving is single-consumer: one thread at a time may call
/// [`Circuit::recv`] / [`Circuit::recv_from`] (the MPI layer above
/// serializes naturally, since each rank is one logical process).
pub struct Circuit {
    core: LinkCore,
    spec: CircuitSpec,
    my_rank: usize,
    channel: ChannelId,
    key: SessionKey,
    /// Messages received while waiting for a specific rank.
    stash: Mutex<VecDeque<(u32, u64, Payload)>>,
}

impl ArbitratedDriver for Circuit {
    fn core(&self) -> &LinkCore {
        &self.core
    }
}

const HEADER_LEN: usize = 12;

impl Circuit {
    pub(crate) fn build(tm: Arc<PadicoTM>, spec: CircuitSpec) -> Result<Circuit, TmError> {
        let my_rank = spec
            .group
            .iter()
            .position(|&n| n == tm.node())
            .ok_or_else(|| {
                TmError::Protocol(format!(
                    "{} is not a member of circuit `{}`",
                    tm.node(),
                    spec.name
                ))
            })?;
        let channel = named_channel(&format!("circuit:{}", spec.name));
        let core = LinkCore::establish(
            tm,
            spec.group.clone(),
            Paradigm::Parallel,
            spec.choice,
            "tm.circuit",
            channel,
        )?;
        let key = SessionKey::derive(channel.0, spec.group.len() as u64);
        Ok(Circuit {
            core,
            spec,
            my_rank,
            channel,
            key,
            stash: Mutex::new(VecDeque::new()),
        })
    }

    /// This member's rank in the group.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.spec.group.len()
    }

    /// Send `payload` to `dst_rank` with an opaque transport header.
    pub fn send(&self, dst_rank: usize, header: u64, payload: Payload) -> Result<(), TmError> {
        let dst_node = *self
            .spec
            .group
            .get(dst_rank)
            .ok_or_else(|| TmError::Protocol(format!("rank {dst_rank} out of range")))?;
        let mut wire = Payload::new();
        let mut hdr = pool::lease(HEADER_LEN);
        hdr.extend_from_slice(&(self.my_rank as u32).to_le_bytes());
        hdr.extend_from_slice(&header.to_le_bytes());
        wire.push_segment(hdr.freeze());
        let body = if self.core.encrypt() {
            protect(self.key, &payload, self.core.clock())
        } else {
            payload
        };
        wire.append(body);
        self.core.send_wire(
            dst_node,
            self.channel,
            wire,
            &format!("send:rank{dst_rank}"),
        )
    }

    fn decode(&self, msg: padico_fabric::Message) -> Result<(u32, u64, Payload), TmError> {
        let raw = msg.payload;
        if raw.len() < HEADER_LEN {
            return Err(TmError::Protocol("circuit message too short".into()));
        }
        // The header was sent as its own segment, so this split (and the
        // contiguous view of the head) is pure reference counting; the
        // body segments pass through untouched.
        let (head, tail) = raw.split_at(HEADER_LEN);
        let hdr = head.to_contiguous();
        let src = u32::from_le_bytes(hdr[..4].try_into().expect("4 bytes"));
        let user = u64::from_le_bytes(hdr[4..].try_into().expect("8 bytes"));
        let body = if self.core.encrypt() {
            protect(self.key, &tail, self.core.clock())
        } else {
            tail
        };
        Ok((src, user, body))
    }

    /// Push any coalesced frames to the wire now (no-op when coalescing
    /// is off). With coalescing on by default, call this at protocol
    /// barriers — after the last send of a burst, before blocking on a
    /// peer that is waiting for it. Entering this circuit's own receive
    /// path flushes implicitly.
    pub fn flush(&self) -> Result<(), TmError> {
        self.core.flush()
    }

    /// Receive the next message from any rank: `(src_rank, header, body)`.
    pub fn recv(&self) -> Result<(u32, u64, Payload), TmError> {
        if let Some(entry) = self.stash.lock().pop_front() {
            return Ok(entry);
        }
        let msg = self.core.recv_intact(None)?;
        self.decode(msg)
    }

    /// Receive the next message from a specific rank; messages from other
    /// ranks arriving meanwhile are stashed in order.
    pub fn recv_from(&self, src_rank: usize) -> Result<(u64, Payload), TmError> {
        loop {
            {
                let mut stash = self.stash.lock();
                if let Some(pos) = stash.iter().position(|(r, _, _)| *r as usize == src_rank) {
                    let (_, h, p) = stash.remove(pos).expect("position valid");
                    return Ok((h, p));
                }
            }
            let msg = self.core.recv_intact(None)?;
            let entry = self.decode(msg)?;
            if entry.0 as usize == src_rank {
                return Ok((entry.1, entry.2));
            }
            self.stash.lock().push_back(entry);
        }
    }

    /// Non-blocking variant of [`Circuit::recv`].
    pub fn try_recv(&self) -> Result<Option<(u32, u64, Payload)>, TmError> {
        if let Some(entry) = self.stash.lock().pop_front() {
            return Ok(Some(entry));
        }
        match self.core.try_recv_intact()? {
            Some(msg) => Ok(Some(self.decode(msg)?)),
            None => Ok(None),
        }
    }
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Circuit(`{}` rank {}/{} on {})",
            self.spec.name,
            self.my_rank,
            self.size(),
            self.route().fabric.model().name
        )
    }
}

#[cfg(test)]
mod tests {
    //! Rank/header/stash semantics and zero-copy invariants. Core-owned
    //! behavior — failover, timeouts, encryption — is tested once in
    //! [`crate::driver`], through both adapters.
    use super::*;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;

    fn cluster_circuits(n: usize) -> Vec<Circuit> {
        let (topo, ids) = single_cluster(n);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        tms.iter()
            .map(|tm| {
                tm.circuit(
                    CircuitSpec::new("test", ids.clone())
                        .with_choice(FabricChoice::Kind(FabricKind::Myrinet)),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn ranks_follow_group_order() {
        let circuits = cluster_circuits(3);
        for (i, c) in circuits.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 3);
        }
    }

    #[test]
    fn send_recv_roundtrip_with_header() {
        let circuits = cluster_circuits(2);
        let data = padico_util::rng::payload(3, "circuit", 2048);
        circuits[0]
            .send(1, 0xdead_beef_cafe, Payload::from_vec(data.clone()))
            .unwrap();
        let (src, header, body) = circuits[1].recv().unwrap();
        assert_eq!(src, 0);
        assert_eq!(header, 0xdead_beef_cafe);
        assert_eq!(body.to_vec(), data);
    }

    #[test]
    fn recv_from_stashes_other_ranks() {
        let circuits = cluster_circuits(3);
        circuits[1].send(0, 1, Payload::from_vec(vec![1])).unwrap();
        circuits[1].flush().unwrap();
        // Wait until rank 1's message is queued, then send from rank 2.
        std::thread::sleep(std::time::Duration::from_millis(20));
        circuits[2].send(0, 2, Payload::from_vec(vec![2])).unwrap();
        circuits[2].flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Ask for rank 2 first: rank 1's message must be stashed, not lost.
        let (h2, p2) = circuits[0].recv_from(2).unwrap();
        assert_eq!((h2, p2.to_vec()), (2, vec![2]));
        let (h1, p1) = circuits[0].recv_from(1).unwrap();
        assert_eq!((h1, p1.to_vec()), (1, vec![1]));
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let circuits = cluster_circuits(2);
        assert!(matches!(
            circuits[0].send(5, 0, Payload::new()),
            Err(TmError::Protocol(_))
        ));
    }

    #[test]
    fn non_member_cannot_build() {
        let (topo, ids) = single_cluster(3);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        // Node 2 tries to join a circuit of nodes {0, 1}.
        let err = tms[2]
            .circuit(CircuitSpec::new("pair", vec![ids[0], ids[1]]))
            .unwrap_err();
        assert!(matches!(err, TmError::Protocol(_)));
    }

    #[test]
    fn try_recv_returns_none_when_idle() {
        let circuits = cluster_circuits(2);
        assert!(circuits[0].try_recv().unwrap().is_none());
        circuits[1].send(0, 3, Payload::from_vec(vec![8])).unwrap();
        circuits[1].flush().unwrap();
        // Poll until the progress engine delivers.
        let mut got = None;
        for _ in 0..200 {
            if let Some(entry) = circuits[0].try_recv().unwrap() {
                got = Some(entry);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (src, h, p) = got.expect("message should arrive");
        assert_eq!((src, h, p.to_vec()), (1, 3, vec![8]));
    }
}
