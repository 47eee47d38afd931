//! Automatic fabric selection.
//!
//! The abstraction layer is "responsible for automatically and dynamically
//! choosing the best available service from the low-level arbitration layer
//! according to the available hardware" (paper §4.3.2). A middleware built
//! on Circuit or VLink never names a network: it asks the selector for a
//! [`Route`] and gets (a) the best fabric connecting the peers for the
//! requested paradigm and (b) whether the route crosses an untrusted
//! domain and therefore must be encrypted (paper §2 "communication
//! security" and §6's planned optimization of disabling encryption inside
//! a trusted machine).

use padico_fabric::{FabricKind, Paradigm, SimFabric, Topology};
use padico_util::ids::{FabricId, NodeId};
use std::sync::Arc;

use crate::error::TmError;

/// How the caller wants the fabric chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FabricChoice {
    /// Let the selector rank candidates (the normal, transparent mode).
    #[default]
    Auto,
    /// Force a specific technology (used by experiments to pin a curve to
    /// one network, e.g. "omniORB over Myrinet-2000").
    Kind(FabricKind),
}

/// A selected route between two nodes (or within a group).
#[derive(Clone, Debug)]
pub struct Route {
    pub fabric: Arc<SimFabric>,
    /// Whether payloads must be encrypted on this route.
    pub encrypt: bool,
    /// Whether the mapping is *straight* (fabric paradigm matches the
    /// abstraction's paradigm) or *cross-paradigm*.
    pub straight: bool,
}

/// Message size used to rank candidate fabrics: large enough that
/// bandwidth dominates, small enough that latency still matters.
const RANKING_PROBE_BYTES: usize = 8 << 10;

/// Select the best fabric connecting all of `peers` for the given
/// abstraction paradigm.
pub fn select(
    topology: &Topology,
    peers: &[NodeId],
    paradigm: Paradigm,
    choice: FabricChoice,
) -> Result<Route, TmError> {
    select_excluding(topology, peers, paradigm, choice, &[])
}

/// [`select`] restricted to fabrics not in `excluded` — the failover path:
/// when a route's fabric fails persistently (dead mapping hardware, flap),
/// the caller re-selects with the failed fabric excluded and transparently
/// carries the flow over whatever connects the peers next-best, even
/// across paradigms (SAN mapping dies → socket driver takes over).
pub fn select_excluding(
    topology: &Topology,
    peers: &[NodeId],
    paradigm: Paradigm,
    choice: FabricChoice,
    excluded: &[FabricId],
) -> Result<Route, TmError> {
    assert!(!peers.is_empty(), "empty peer group");
    let candidates: Vec<Arc<SimFabric>> = topology
        .fabrics()
        .iter()
        .filter(|f| peers.iter().all(|&p| f.has_member(p)))
        .filter(|f| !excluded.contains(&f.id()))
        .filter(|f| match choice {
            FabricChoice::Auto => true,
            FabricChoice::Kind(k) => f.kind() == k,
        })
        .cloned()
        .collect();

    let best = candidates
        .into_iter()
        .min_by_key(|f| f.model().estimate_one_way(RANKING_PROBE_BYTES))
        .ok_or_else(|| match choice {
            FabricChoice::Auto => {
                if peers.len() >= 2 {
                    TmError::NoRoute {
                        from: peers[0],
                        to: peers[peers.len() - 1],
                    }
                } else {
                    TmError::NoUsableFabric("node has no fabrics".into())
                }
            }
            FabricChoice::Kind(k) => {
                TmError::NoUsableFabric(format!("no {k} fabric connects the group"))
            }
        })?;

    // Traffic may stay cleartext only when every pair of peers is inside
    // one trusted machine.
    let trusted = peers.iter().all(|&a| {
        peers
            .iter()
            .all(|&b| a == b || topology.link_is_trusted(a, b))
    });
    Ok(Route {
        straight: best.paradigm() == paradigm,
        encrypt: !trusted,
        fabric: best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::{single_cluster, two_clusters_wan};

    #[test]
    fn prefers_shmem_then_myrinet_in_cluster() {
        let (topo, ids) = single_cluster(4);
        // Shmem has the lowest one-way estimate in this topology.
        let r = select(
            &topo,
            &[ids[0], ids[1]],
            Paradigm::Parallel,
            FabricChoice::Auto,
        )
        .unwrap();
        assert_eq!(r.fabric.kind(), FabricKind::Shmem);
        assert!(r.straight);
        assert!(!r.encrypt, "intra-cluster trusted traffic is cleartext");
    }

    #[test]
    fn cross_cluster_falls_back_to_wan_with_encryption() {
        let (topo, a, b) = two_clusters_wan(2);
        let r = select(
            &topo,
            &[a[0], b[0]],
            Paradigm::Distributed,
            FabricChoice::Auto,
        )
        .unwrap();
        assert_eq!(r.fabric.kind(), FabricKind::Wan);
        assert!(r.straight, "WAN is distributed-oriented");
        assert!(r.encrypt, "WAN crossings must be encrypted");
    }

    #[test]
    fn explicit_kind_is_honoured() {
        let (topo, ids) = single_cluster(2);
        let r = select(
            &topo,
            &[ids[0], ids[1]],
            Paradigm::Distributed,
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap();
        assert_eq!(r.fabric.kind(), FabricKind::Myrinet);
        assert!(
            !r.straight,
            "distributed abstraction on a SAN is cross-paradigm"
        );
    }

    #[test]
    fn missing_kind_reports_no_usable_fabric() {
        let (topo, a, b) = two_clusters_wan(1);
        let err = select(
            &topo,
            &[a[0], b[0]],
            Paradigm::Parallel,
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap_err();
        assert!(matches!(err, TmError::NoUsableFabric(_)));
    }

    #[test]
    fn disconnected_pair_reports_no_route() {
        use padico_fabric::{presets, SecurityZone, Topology};
        let mut b = Topology::builder();
        let x = b.node("x", "m1", SecurityZone::Trusted);
        let y = b.node("y", "m2", SecurityZone::Trusted);
        b.fabric(presets::ethernet100(), vec![x]);
        b.fabric(presets::ethernet100(), vec![y]);
        let topo = b.build();
        let err = select(&topo, &[x, y], Paradigm::Distributed, FabricChoice::Auto).unwrap_err();
        assert!(matches!(err, TmError::NoRoute { .. }));
    }

    #[test]
    fn group_selection_requires_common_fabric() {
        let (topo, a, b) = two_clusters_wan(2);
        // The full 4-node group is only connected by the WAN.
        let peers = [a[0], a[1], b[0], b[1]];
        let r = select(&topo, &peers, Paradigm::Parallel, FabricChoice::Auto).unwrap();
        assert_eq!(r.fabric.kind(), FabricKind::Wan);
        assert!(
            !r.straight,
            "parallel abstraction over WAN is cross-paradigm"
        );
    }

    #[test]
    fn excluding_best_fabric_fails_over_to_next() {
        let (topo, ids) = single_cluster(2);
        let peers = [ids[0], ids[1]];
        let best = select(&topo, &peers, Paradigm::Parallel, FabricChoice::Auto).unwrap();
        let next = select_excluding(
            &topo,
            &peers,
            Paradigm::Parallel,
            FabricChoice::Auto,
            &[best.fabric.id()],
        )
        .unwrap();
        assert_ne!(next.fabric.id(), best.fabric.id());
        // Excluding everything leaves no route.
        let all: Vec<_> = topo.fabrics().iter().map(|f| f.id()).collect();
        let err = select_excluding(&topo, &peers, Paradigm::Parallel, FabricChoice::Auto, &all)
            .unwrap_err();
        assert!(matches!(err, TmError::NoRoute { .. }));
    }

    #[test]
    fn single_node_group_selects_local_fabric() {
        let (topo, ids) = single_cluster(1);
        let r = select(&topo, &[ids[0]], Paradigm::Parallel, FabricChoice::Auto).unwrap();
        assert_eq!(r.fabric.kind(), FabricKind::Shmem);
    }
}
