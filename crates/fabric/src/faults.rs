//! Deterministic fault injection for simulated fabrics.
//!
//! Grid links fail: WAN sockets drop and stall, SAN mapping hardware
//! wedges, whole fabrics flap. This module lets a test (or a chaos
//! harness) attach a [`FaultPlan`] to a [`crate::SimFabric`] and have the
//! fabric misbehave **reproducibly**: every per-message fault decision is
//! a pure function of the plan seed, the directed link, and a per-link
//! sequence number — never of wall-clock time or thread scheduling — so
//! two runs with the same seed inject exactly the same faults.
//!
//! Fault classes:
//!
//! * **drop** — the message is charged to the sender (it cannot know) and
//!   silently discarded before the wire;
//! * **corrupt** — the message is delivered with its `corrupted` flag set;
//!   receivers model CRC detection by discarding it at delivery;
//! * **delay** — the arrival stamp is pushed out by a fixed extra virtual
//!   duration;
//! * **partition** — a directed node pair is unreachable until healed
//!   ([`FabricError::LinkDown`]);
//! * **flap** — virtual-time windows during which the whole fabric is
//!   down (sends fail with [`FabricError::LinkDown`]);
//! * **mapping death** — a node's SAN mapping hardware dies: existing
//!   mappings vanish and re-establishment fails until revived (this is
//!   what forces the arbitration layer's cross-paradigm failover).

use crate::error::FabricError;
use padico_util::ids::NodeId;
use padico_util::simtime::{Vt, VtDuration};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Probabilistic per-message fault policy of one fabric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Percentage (0–100) of messages silently dropped.
    pub drop_pct: u8,
    /// Percentage (0–100) of messages delivered corrupted.
    pub corrupt_pct: u8,
    /// Extra arrival delay injected on every message (virtual ns).
    pub extra_delay_ns: VtDuration,
    /// Virtual-time windows `[start, end)` during which the fabric is
    /// down entirely (link flapping).
    pub down_windows: Vec<(Vt, Vt)>,
}

impl FaultPlan {
    /// A drop-only plan (the common WAN chaos case).
    pub fn drops(seed: u64, drop_pct: u8) -> FaultPlan {
        FaultPlan {
            seed,
            drop_pct,
            ..FaultPlan::default()
        }
    }
}

/// What the injector decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Deliver,
    Drop,
    Corrupt,
}

/// Counters of injected faults (observability for chaos tests).
#[derive(Debug, Default)]
pub struct FaultCounters {
    pub dropped: AtomicU64,
    pub corrupted: AtomicU64,
    pub link_down_refusals: AtomicU64,
    pub mapping_refusals: AtomicU64,
}

/// Plain-value snapshot of [`FaultCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    pub dropped: u64,
    pub corrupted: u64,
    pub link_down_refusals: u64,
    pub mapping_refusals: u64,
}

/// Per-fabric fault state. Owned by [`crate::SimFabric`]; completely
/// inert (no locking on the send path) until a plan or partition is
/// installed.
#[derive(Default)]
pub struct FaultInjector {
    /// Fast guard: set when any fault state is active.
    armed: std::sync::atomic::AtomicBool,
    plan: Mutex<Option<FaultPlan>>,
    /// Directed partitioned pairs.
    partitions: Mutex<HashSet<(NodeId, NodeId)>>,
    /// Nodes whose mapping hardware is dead.
    dead_mappings: Mutex<HashSet<NodeId>>,
    /// Per-directed-link message sequence numbers (fault stream index).
    seq: Mutex<HashMap<(NodeId, NodeId), u64>>,
    counters: FaultCounters,
}

/// SplitMix64 finalizer: decorrelates the (seed, link, seq) key into a
/// uniform 64-bit value. Cheap, stable, and good enough for percentages.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultInjector {
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether any fault state is installed (lock-free fast path).
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Install (or replace) the probabilistic plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = Some(plan);
        self.arm();
    }

    /// Remove the probabilistic plan (partitions and dead mappings stay).
    pub fn clear_plan(&self) {
        *self.plan.lock() = None;
    }

    /// Cut the directed link `from -> to`.
    pub fn partition(&self, from: NodeId, to: NodeId) {
        self.partitions.lock().insert((from, to));
        self.arm();
    }

    /// Cut both directions between `a` and `b`.
    pub fn partition_pair(&self, a: NodeId, b: NodeId) {
        let mut p = self.partitions.lock();
        p.insert((a, b));
        p.insert((b, a));
        drop(p);
        self.arm();
    }

    /// Restore both directions between `a` and `b`.
    pub fn heal_pair(&self, a: NodeId, b: NodeId) {
        let mut p = self.partitions.lock();
        p.remove(&(a, b));
        p.remove(&(b, a));
    }

    /// Declare `node`'s mapping hardware dead (map attempts will fail).
    pub fn kill_mappings(&self, node: NodeId) {
        self.dead_mappings.lock().insert(node);
        self.arm();
    }

    /// Revive `node`'s mapping hardware.
    pub fn revive_mappings(&self, node: NodeId) {
        self.dead_mappings.lock().remove(&node);
    }

    pub fn mappings_dead(&self, node: NodeId) -> bool {
        self.is_armed() && self.dead_mappings.lock().contains(&node)
    }

    /// Check link-level reachability for a send at virtual time `now`.
    pub fn check_link(&self, from: NodeId, to: NodeId, now: Vt) -> Result<(), FabricError> {
        if !self.is_armed() {
            return Ok(());
        }
        if self.partitions.lock().contains(&(from, to)) {
            self.counters
                .link_down_refusals
                .fetch_add(1, Ordering::Relaxed);
            return Err(FabricError::LinkDown { from, to });
        }
        let plan = self.plan.lock();
        if let Some(plan) = plan.as_ref() {
            if plan
                .down_windows
                .iter()
                .any(|&(start, end)| now >= start && now < end)
            {
                self.counters
                    .link_down_refusals
                    .fetch_add(1, Ordering::Relaxed);
                return Err(FabricError::LinkDown { from, to });
            }
        }
        Ok(())
    }

    /// Decide the fate of the next message on `from -> to`, consuming one
    /// entry of the link's deterministic fault stream. Also returns the
    /// extra arrival delay to apply.
    pub fn roll(&self, from: NodeId, to: NodeId) -> (Verdict, VtDuration) {
        if !self.is_armed() {
            return (Verdict::Deliver, 0);
        }
        let plan = self.plan.lock();
        let Some(plan) = plan.as_ref() else {
            return (Verdict::Deliver, 0);
        };
        if plan.drop_pct == 0 && plan.corrupt_pct == 0 && plan.extra_delay_ns == 0 {
            return (Verdict::Deliver, 0);
        }
        let n = {
            let mut seq = self.seq.lock();
            let slot = seq.entry((from, to)).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let link = u64::from(from.0) << 32 | u64::from(to.0);
        let roll = mix(plan.seed ^ mix(link) ^ n) % 100;
        let verdict = if roll < u64::from(plan.drop_pct) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            Verdict::Drop
        } else if roll < u64::from(plan.drop_pct) + u64::from(plan.corrupt_pct) {
            self.counters.corrupted.fetch_add(1, Ordering::Relaxed);
            Verdict::Corrupt
        } else {
            Verdict::Deliver
        };
        (verdict, plan.extra_delay_ns)
    }

    /// Record a refused mapping establishment (dead hardware).
    pub fn note_mapping_refusal(&self) {
        self.counters
            .mapping_refusals
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn counters(&self) -> FaultSnapshot {
        FaultSnapshot {
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            corrupted: self.counters.corrupted.load(Ordering::Relaxed),
            link_down_refusals: self.counters.link_down_refusals.load(Ordering::Relaxed),
            mapping_refusals: self.counters.mapping_refusals.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_is_transparent() {
        let inj = FaultInjector::new();
        assert!(!inj.is_armed());
        assert!(inj.check_link(NodeId(0), NodeId(1), 123).is_ok());
        assert_eq!(inj.roll(NodeId(0), NodeId(1)), (Verdict::Deliver, 0));
    }

    #[test]
    fn drop_stream_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let inj = FaultInjector::new();
            inj.set_plan(FaultPlan::drops(seed, 20));
            (0..200)
                .map(|_| inj.roll(NodeId(0), NodeId(1)).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same stream");
        assert_ne!(run(7), run(8), "different seed, different stream");
        let drops = run(7).iter().filter(|v| **v == Verdict::Drop).count();
        // 20% of 200 with a decent mixer: allow a wide band.
        assert!((20..=60).contains(&drops), "drops={drops}");
    }

    #[test]
    fn links_have_independent_streams() {
        let inj = FaultInjector::new();
        inj.set_plan(FaultPlan::drops(3, 50));
        let a: Vec<_> = (0..64).map(|_| inj.roll(NodeId(0), NodeId(1)).0).collect();
        let b: Vec<_> = (0..64).map(|_| inj.roll(NodeId(1), NodeId(0)).0).collect();
        assert_ne!(a, b, "directed links decorrelate");
    }

    #[test]
    fn partitions_and_heal() {
        let inj = FaultInjector::new();
        inj.partition_pair(NodeId(0), NodeId(1));
        assert!(matches!(
            inj.check_link(NodeId(0), NodeId(1), 0),
            Err(FabricError::LinkDown { .. })
        ));
        assert!(matches!(
            inj.check_link(NodeId(1), NodeId(0), 0),
            Err(FabricError::LinkDown { .. })
        ));
        assert!(inj.check_link(NodeId(0), NodeId(2), 0).is_ok());
        inj.heal_pair(NodeId(0), NodeId(1));
        assert!(inj.check_link(NodeId(0), NodeId(1), 0).is_ok());
        assert_eq!(inj.counters().link_down_refusals, 2);
    }

    #[test]
    fn down_windows_follow_virtual_time() {
        let inj = FaultInjector::new();
        inj.set_plan(FaultPlan {
            seed: 1,
            down_windows: vec![(100, 200)],
            ..FaultPlan::default()
        });
        assert!(inj.check_link(NodeId(0), NodeId(1), 99).is_ok());
        assert!(inj.check_link(NodeId(0), NodeId(1), 100).is_err());
        assert!(inj.check_link(NodeId(0), NodeId(1), 199).is_err());
        assert!(inj.check_link(NodeId(0), NodeId(1), 200).is_ok());
    }

    #[test]
    fn corrupt_and_delay_verdicts() {
        let inj = FaultInjector::new();
        inj.set_plan(FaultPlan {
            seed: 9,
            corrupt_pct: 100,
            extra_delay_ns: 5_000,
            ..FaultPlan::default()
        });
        let (v, d) = inj.roll(NodeId(0), NodeId(1));
        assert_eq!(v, Verdict::Corrupt);
        assert_eq!(d, 5_000);
        assert_eq!(inj.counters().corrupted, 1);
    }

    #[test]
    fn mapping_death_is_per_node() {
        let inj = FaultInjector::new();
        inj.kill_mappings(NodeId(3));
        assert!(inj.mappings_dead(NodeId(3)));
        assert!(!inj.mappings_dead(NodeId(4)));
        inj.revive_mappings(NodeId(3));
        assert!(!inj.mappings_dead(NodeId(3)));
    }
}
