//! Calibrated fabric presets.
//!
//! Each preset pins the cost constants of one technology from the paper's
//! era. The calibration targets are the *measured anchors* of §4.4:
//!
//! * Myrinet-2000: 250 MB/s hardware line rate, of which MPI/omniORB
//!   extract 240 MB/s (96 %); MPI one-way latency 11 µs (fabric share
//!   ≈8.5 µs, middleware protocol adds the rest).
//! * Switched Fast-Ethernet with TCP: ≈11.2 MB/s effective, ~50-60 µs
//!   one-way for small messages, two kernel copies per transfer.
//! * SCI: lower latency than Myrinet, lower bandwidth, bounded mapping
//!   tables (the arbitration-layer motivation).
//! * Shared memory: intra-machine transport for co-located components.
//! * WAN: the inter-cluster link of the paper's first deployment
//!   configuration (two parallel machines coupled over a wide-area link).

use crate::fabric::{AccessMode, FabricKind, Paradigm, SimFabric};
use crate::model::LinkModel;
use padico_util::ids::{FabricId, NodeId};
use padico_util::Telemetry;
use std::sync::Arc;

/// SCI per-node mapping-table size.
pub const SCI_MAPPING_LIMIT: usize = 8;

/// A fabric preset: a cost model plus the hardware's admission quirks.
#[derive(Debug, Clone)]
pub struct FabricPreset {
    kind: FabricKind,
    paradigm: Paradigm,
    access: AccessMode,
    model: LinkModel,
    mapping_limit: Option<usize>,
}

impl FabricPreset {
    pub fn kind(&self) -> FabricKind {
        self.kind
    }

    pub fn paradigm(&self) -> Paradigm {
        self.paradigm
    }

    pub fn access(&self) -> AccessMode {
        self.access
    }

    pub fn model(&self) -> &LinkModel {
        &self.model
    }

    /// Instantiate a fabric connecting `members`, reporting into
    /// `telemetry`.
    pub fn build(
        &self,
        id: FabricId,
        members: Vec<NodeId>,
        telemetry: Arc<Telemetry>,
    ) -> Arc<SimFabric> {
        SimFabric::new(
            id,
            self.kind,
            self.paradigm,
            self.access,
            self.model.clone(),
            self.mapping_limit,
            members,
            telemetry,
        )
    }
}

/// Myrinet-2000 SAN through a BIP/GM-style user-level driver (exclusive NIC
/// access, OS-bypass, rendezvous protocol for large messages).
pub fn myrinet2000() -> FabricPreset {
    FabricPreset {
        kind: FabricKind::Myrinet,
        paradigm: Paradigm::Parallel,
        access: AccessMode::Exclusive,
        model: LinkModel {
            name: "Myrinet-2000",
            line_rate_mb_s: 250.0,
            latency_ns: 3_500,      // switch + wire
            send_overhead_ns: 1_500, // user-level doorbell, no syscall
            recv_overhead_ns: 1_500,
            mtu: 4096,
            per_packet_ns: 500,
            kernel_copy: false,
            rendezvous_threshold: Some(32 << 10),
        },
        mapping_limit: None,
    }
}

/// SCI SAN: lower latency, lower bandwidth, bounded remote-mapping table.
pub fn sci() -> FabricPreset {
    FabricPreset {
        kind: FabricKind::Sci,
        paradigm: Paradigm::Parallel,
        access: AccessMode::Exclusive,
        model: LinkModel {
            name: "SCI",
            line_rate_mb_s: 85.0,
            latency_ns: 2_000,
            send_overhead_ns: 1_000,
            recv_overhead_ns: 1_000,
            mtu: 8192,
            per_packet_ns: 400,
            kernel_copy: false,
            rendezvous_threshold: None, // PIO/DMA through mappings
        },
        mapping_limit: Some(SCI_MAPPING_LIMIT),
    }
}

/// Switched Fast-Ethernet carrying TCP (the paper's reference curve).
pub fn ethernet100() -> FabricPreset {
    FabricPreset {
        kind: FabricKind::Ethernet,
        paradigm: Paradigm::Distributed,
        access: AccessMode::Shared,
        model: LinkModel {
            name: "Ethernet-100/TCP",
            line_rate_mb_s: 12.5,
            latency_ns: 30_000,
            send_overhead_ns: 10_000, // syscall + TCP/IP stack
            recv_overhead_ns: 10_000,
            mtu: 1460,
            per_packet_ns: 3_000,
            kernel_copy: true,
            rendezvous_threshold: None,
        },
        mapping_limit: None,
    }
}

/// Wide-area link between clusters (the paper's two-cluster deployment).
pub fn wan() -> FabricPreset {
    FabricPreset {
        kind: FabricKind::Wan,
        paradigm: Paradigm::Distributed,
        access: AccessMode::Shared,
        model: LinkModel {
            name: "WAN/TCP",
            line_rate_mb_s: 2.5, // ~20 Mbit/s trans-campus link of the era
            latency_ns: 5_000_000,
            send_overhead_ns: 10_000,
            recv_overhead_ns: 10_000,
            mtu: 1460,
            per_packet_ns: 3_000,
            kernel_copy: true,
            rendezvous_threshold: None,
        },
        mapping_limit: None,
    }
}

/// Intra-machine shared-memory transport (components co-located on one
/// parallel machine, the paper's second deployment configuration).
pub fn shmem() -> FabricPreset {
    FabricPreset {
        kind: FabricKind::Shmem,
        paradigm: Paradigm::Parallel,
        access: AccessMode::Shared,
        model: LinkModel {
            name: "shmem",
            line_rate_mb_s: 400.0,
            latency_ns: 300,
            send_overhead_ns: 300,
            recv_overhead_ns: 300,
            mtu: 64 << 10,
            per_packet_ns: 100,
            kernel_copy: false,
            rendezvous_threshold: None,
        },
        mapping_limit: None,
    }
}

/// All presets, for parameter sweeps.
pub fn all() -> Vec<FabricPreset> {
    vec![myrinet2000(), sci(), ethernet100(), wan(), shmem()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_kinds() {
        let kinds: Vec<FabricKind> = all().iter().map(|p| p.kind()).collect();
        let mut dedup = kinds.clone();
        dedup.dedup();
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds, dedup);
    }

    #[test]
    fn san_presets_are_parallel_and_exclusive_where_expected() {
        assert_eq!(myrinet2000().paradigm(), Paradigm::Parallel);
        assert_eq!(myrinet2000().access(), AccessMode::Exclusive);
        assert_eq!(ethernet100().paradigm(), Paradigm::Distributed);
        assert_eq!(ethernet100().access(), AccessMode::Shared);
        assert!(sci().mapping_limit.is_some());
        assert!(myrinet2000().mapping_limit.is_none());
    }

    #[test]
    fn bandwidth_ordering_matches_paper() {
        let m = myrinet2000().model().asymptotic_bandwidth();
        let s = sci().model().asymptotic_bandwidth();
        let e = ethernet100().model().asymptotic_bandwidth();
        let w = wan().model().asymptotic_bandwidth();
        assert!(m > s && s > e && e > w, "{m} > {s} > {e} > {w}");
    }

    #[test]
    fn latency_ordering_matches_paper() {
        let m = myrinet2000().model().estimate_one_way(4);
        let e = ethernet100().model().estimate_one_way(4);
        let w = wan().model().estimate_one_way(4);
        assert!(m < e && e < w);
    }
}
