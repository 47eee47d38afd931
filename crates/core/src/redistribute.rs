//! M→N redistribution schedules over strided runs.
//!
//! When a parallel component with M nodes invokes a parallel operation on
//! a component with N nodes, every distributed argument must move from
//! the client's distribution to the server's (paper §4.2.2). The
//! interception layer "can perform a redistribution of the data on the
//! client side, on the server side or during the communication"; this
//! module computes the *communication matrix* — which global element
//! ranges each source rank ships to each destination rank — and the
//! chooser that picks the redistribution site from feasibility (memory)
//! and efficiency (relative network speed) considerations.
//!
//! # Strided runs, not element lists
//!
//! The matrix is expressed as [`TransferRun`]s: arithmetic progressions
//! of equal-length pieces. A block↔block pair intersects into O(M+N)
//! single-piece runs; a block↔cyclic pair into at most three runs per
//! (src, dst) pair; and a cyclic↔cyclic pair repeats with period
//! `lcm(M·b_src, N·b_dst)`, so one period's intersection pattern is
//! computed once and replicated arithmetically via the runs' strides.
//! Schedule size and build time are therefore **independent of the
//! element count** — the property grid-enabled MPI implementations rely
//! on to scale communication schedules with data size. See DESIGN.md §9
//! for the periodicity argument.

use crate::dist::Distribution;
use crate::error::GridCcmError;

/// One contiguous piece of a redistribution schedule (the expanded,
/// per-piece view of a [`TransferRun`] — diagnostics and tests; hot
/// paths keep the run form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub src_rank: usize,
    pub dst_rank: usize,
    /// Global element range `[start, end)` this piece covers.
    pub global_start: u64,
    pub global_end: u64,
    /// Element offset inside the source's local block.
    pub src_offset: u64,
    /// Element offset inside the destination's local block.
    pub dst_offset: u64,
}

impl Transfer {
    pub fn elems(&self) -> u64 {
        self.global_end - self.global_start
    }
}

/// An arithmetic progression of `count` equal transfer pieces of
/// `chunk_elems` elements each: piece `k` covers global range
/// `[global_start + k·global_stride, … + chunk_elems)`, reads the source
/// block at `src_offset + k·src_stride` and writes the destination block
/// at `dst_offset + k·dst_stride`. A contiguous transfer is the
/// `count == 1` case (strides irrelevant). Runs are never empty
/// (`count ≥ 1`, `chunk_elems ≥ 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferRun {
    pub src_rank: usize,
    pub dst_rank: usize,
    /// Global index of the first element of the first piece.
    pub global_start: u64,
    /// Elements per piece.
    pub chunk_elems: u64,
    /// Number of pieces.
    pub count: u64,
    /// Global-index distance between consecutive piece starts.
    pub global_stride: u64,
    /// Source-local element offset of the first piece.
    pub src_offset: u64,
    /// Source-local distance between consecutive pieces.
    pub src_stride: u64,
    /// Destination-local element offset of the first piece.
    pub dst_offset: u64,
    /// Destination-local distance between consecutive pieces.
    pub dst_stride: u64,
}

impl TransferRun {
    /// Total elements this run moves.
    pub fn elems(&self) -> u64 {
        self.chunk_elems * self.count
    }

    /// Expand into per-piece [`Transfer`]s (O(count) — not a hot path).
    pub fn pieces(&self) -> impl Iterator<Item = Transfer> + '_ {
        (0..self.count).map(move |k| {
            let g = self.global_start + k * self.global_stride;
            Transfer {
                src_rank: self.src_rank,
                dst_rank: self.dst_rank,
                global_start: g,
                global_end: g + self.chunk_elems,
                src_offset: self.src_offset + k * self.src_stride,
                dst_offset: self.dst_offset + k * self.dst_stride,
            }
        })
    }
}

/// Expand a whole schedule into per-piece transfers, ordered by
/// `(src_rank, global_start)` — the pre-strided representation, kept for
/// tests and diagnostics. O(total pieces); never call this on a hot path.
pub fn expand(runs: &[TransferRun]) -> Vec<Transfer> {
    let mut out: Vec<Transfer> = runs.iter().flat_map(|r| r.pieces()).collect();
    out.sort_by_key(|t| (t.src_rank, t.global_start));
    out
}

/// Where the redistribution runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedistributionSite {
    /// The client reshapes before sending (server blocks arrive ready).
    ClientSide,
    /// Pieces travel as computed and the server assembles (the
    /// "during communication" strategy — the GridCCM default).
    InFlight,
    /// The client ships its blocks unchanged to block-mapped servers and
    /// the servers exchange among themselves.
    ServerSide,
}

/// Inputs to the site chooser.
#[derive(Clone, Copy, Debug)]
pub struct SiteFactors {
    /// Free memory per client node, bytes (feasibility).
    pub client_free_memory: u64,
    /// Free memory per server node, bytes (feasibility).
    pub server_free_memory: u64,
    /// Client-side internal network bandwidth, MB/s (efficiency).
    pub client_net_mb_s: f64,
    /// Server-side internal network bandwidth, MB/s (efficiency).
    pub server_net_mb_s: f64,
    /// Bytes of the argument per node, roughly.
    pub bytes_per_node: u64,
}

/// Pick the redistribution site (paper §4.2.2: "the decision depends on
/// several constraints like feasibility (mainly memory requirements) and
/// efficiency (client network performance versus server network
/// performance)").
pub fn choose_site(f: &SiteFactors) -> RedistributionSite {
    // Reshaping on a side needs roughly one extra copy of the argument.
    let client_feasible = f.client_free_memory >= 2 * f.bytes_per_node;
    let server_feasible = f.server_free_memory >= 2 * f.bytes_per_node;
    match (client_feasible, server_feasible) {
        (false, false) => RedistributionSite::InFlight,
        (true, false) => RedistributionSite::ClientSide,
        (false, true) => RedistributionSite::ServerSide,
        (true, true) => {
            // Both feasible: reshape where the internal network is faster,
            // unless neither is clearly faster — then stream in flight.
            if f.client_net_mb_s > 1.5 * f.server_net_mb_s {
                RedistributionSite::ClientSide
            } else if f.server_net_mb_s > 1.5 * f.client_net_mb_s {
                RedistributionSite::ServerSide
            } else {
                RedistributionSite::InFlight
            }
        }
    }
}

/// Start and end of rank `r`'s contiguous block under [`Distribution::Block`].
fn block_bounds(global: u64, r: usize, size: usize) -> (u64, u64) {
    let size_u = size as u64;
    let r_u = r as u64;
    let base = global / size_u;
    let extra = global % size_u;
    let start = r_u * base + r_u.min(extra);
    (start, start + base + u64::from(r_u < extra))
}

/// Block → Block: both sides are single contiguous ranges, so a merge
/// sweep over the two block boundaries emits O(M + N) one-piece runs.
fn schedule_block_block(global: u64, src_size: usize, dst_size: usize) -> Vec<TransferRun> {
    let mut out = Vec::new();
    let mut s = 0usize;
    let mut d = 0usize;
    let (mut ss, mut se) = block_bounds(global, s, src_size);
    let (mut ds, mut de) = block_bounds(global, d, dst_size);
    let mut g = 0u64;
    while g < global {
        while se <= g {
            s += 1;
            (ss, se) = block_bounds(global, s, src_size);
        }
        while de <= g {
            d += 1;
            (ds, de) = block_bounds(global, d, dst_size);
        }
        let hi = se.min(de);
        out.push(TransferRun {
            src_rank: s,
            dst_rank: d,
            global_start: g,
            chunk_elems: hi - g,
            count: 1,
            global_stride: 0,
            src_offset: g - ss,
            src_stride: 0,
            dst_offset: g - ds,
            dst_stride: 0,
        });
        g = hi;
    }
    out
}

/// Block ↔ BlockCyclic: each (block rank, cyclic rank) pair intersects
/// into at most one clipped head piece, one strided run of full chunks,
/// and one clipped tail piece — O(M·N) runs total, independent of
/// `global`. `block_is_src` orients the result.
fn schedule_block_periodic(
    global: u64,
    block_size: usize,
    b: u64,
    periodic_size: usize,
    block_is_src: bool,
) -> Vec<TransferRun> {
    let p = b * periodic_size as u64;
    let mut out = Vec::new();
    // Emit one piece / run with the block side's and periodic side's
    // offsets oriented by `block_is_src`.
    let mut emit = |block_rank: usize,
                    periodic_rank: usize,
                    global_start: u64,
                    chunk_elems: u64,
                    count: u64,
                    block_offset: u64,
                    periodic_offset: u64| {
        let (src_rank, dst_rank, src_offset, dst_offset, src_stride, dst_stride) = if block_is_src {
            (
                block_rank,
                periodic_rank,
                block_offset,
                periodic_offset,
                p,
                b,
            )
        } else {
            (
                periodic_rank,
                block_rank,
                periodic_offset,
                block_offset,
                b,
                p,
            )
        };
        out.push(TransferRun {
            src_rank,
            dst_rank,
            global_start,
            chunk_elems,
            count,
            global_stride: p,
            src_offset,
            src_stride: if count > 1 { src_stride } else { 0 },
            dst_offset,
            dst_stride: if count > 1 { dst_stride } else { 0 },
        });
    };
    for a in 0..block_size {
        let (s, e) = block_bounds(global, a, block_size);
        if s == e {
            continue;
        }
        for d in 0..periodic_size {
            let off = d as u64 * b; // first chunk start of periodic rank d
                                    // First chunk index whose end exceeds s.
            let j0 = if s <= off {
                0
            } else {
                let q = (s - off) / p;
                q + u64::from((s - off) % p >= b)
            };
            if e <= off + j0 * p {
                continue; // no chunk of rank d starts inside [s, e)
            }
            let jmax = (e - off - 1) / p; // last chunk starting before e
            debug_assert!(j0 <= jmax);
            let mut full_lo = j0;
            let mut full_hi = jmax;
            // Head piece clipped by the block range's start.
            if off + j0 * p < s {
                let lo = s;
                let hi = e.min(off + j0 * p + b);
                if lo < hi {
                    emit(a, d, lo, hi - lo, 1, lo - s, j0 * b + (lo - off - j0 * p));
                }
                full_lo = j0 + 1;
            }
            // Tail piece clipped by the block range's end (distinct from
            // the head chunk, which already accounted for both clips).
            if full_hi >= full_lo && off + jmax * p + b > e {
                let lo = off + jmax * p;
                emit(a, d, lo, e - lo, 1, lo - s, jmax * b);
                full_hi = jmax.wrapping_sub(1);
            }
            if full_lo <= full_hi && full_hi != u64::MAX {
                let first = off + full_lo * p;
                emit(
                    a,
                    d,
                    first,
                    b,
                    full_hi - full_lo + 1,
                    first - s,
                    full_lo * b,
                );
            }
        }
    }
    out
}

/// BlockCyclic ↔ BlockCyclic: the intersection pattern of the two
/// periodic layouts repeats with period `L = lcm(M·b_src, N·b_dst)`.
/// One sweep over a single period yields O(L/b_src + L/b_dst) pieces;
/// every piece becomes a run replicated `global / L` times through the
/// strides (each rank owns exactly `L/size` elements per period, so the
/// local offsets advance uniformly). When `L ≥ global` the sweep covers
/// `[0, global)` directly and no replication happens.
fn schedule_periodic_periodic(
    global: u64,
    bs: u64,
    src_size: usize,
    bd: u64,
    dst_size: usize,
) -> Vec<TransferRun> {
    let m = src_size as u64;
    let n = dst_size as u64;
    let ps = bs * m;
    let pd = bd * n;
    let l_wide = lcm_u128(ps, pd);
    let mut out = Vec::new();

    // Sweep [0, hi): both sides' chunk edges partition the line; every
    // maximal piece lies in exactly one src chunk and one dst chunk.
    let sweep = |hi: u64, mut piece: Box<dyn FnMut(u64, u64)>| {
        let mut g = 0u64;
        while g < hi {
            let src_end = (g / bs + 1) * bs;
            let dst_end = (g / bd + 1) * bd;
            let h = src_end.min(dst_end).min(hi);
            piece(g, h);
            g = h;
        }
    };
    // Local offset of global element `g` on its owner under a periodic
    // layout (chunk-aligned, so `g % b` is the in-chunk offset).
    let src_local = |g: u64| (g / ps) * bs + g % bs;
    let dst_local = |g: u64| (g / pd) * bd + g % bd;
    let src_rank_of = |g: u64| ((g / bs) % m) as usize;
    let dst_rank_of = |g: u64| ((g / bd) % n) as usize;

    if l_wide >= u128::from(global) {
        // Period at least as long as the data: direct single pass.
        sweep(
            global,
            Box::new(|g0, g1| {
                out.push(TransferRun {
                    src_rank: src_rank_of(g0),
                    dst_rank: dst_rank_of(g0),
                    global_start: g0,
                    chunk_elems: g1 - g0,
                    count: 1,
                    global_stride: 0,
                    src_offset: src_local(g0),
                    src_stride: 0,
                    dst_offset: dst_local(g0),
                    dst_stride: 0,
                });
            }),
        );
    } else {
        let l = l_wide as u64;
        let n_full = global / l;
        let tail = global % l;
        // Per-period local growth: every src rank owns exactly L/M
        // elements of each period, every dst rank L/N.
        let src_step = l / m;
        let dst_step = l / n;
        sweep(
            l,
            Box::new(|g0, g1| {
                let src_rank = src_rank_of(g0);
                let dst_rank = dst_rank_of(g0);
                let src_offset = src_local(g0);
                let dst_offset = dst_local(g0);
                // The piece recurs once per full period, plus once more
                // if it fits entirely inside the final partial period.
                let count = n_full + u64::from(g1 <= tail && tail > 0);
                if count > 0 {
                    out.push(TransferRun {
                        src_rank,
                        dst_rank,
                        global_start: g0,
                        chunk_elems: g1 - g0,
                        count,
                        global_stride: l,
                        src_offset,
                        src_stride: src_step,
                        dst_offset,
                        dst_stride: dst_step,
                    });
                }
                // A piece the final partial period clips in the middle.
                if g0 < tail && tail < g1 {
                    out.push(TransferRun {
                        src_rank,
                        dst_rank,
                        global_start: n_full * l + g0,
                        chunk_elems: tail - g0,
                        count: 1,
                        global_stride: 0,
                        src_offset: src_offset + n_full * src_step,
                        src_stride: 0,
                        dst_offset: dst_offset + n_full * dst_step,
                        dst_stride: 0,
                    });
                }
            }),
        );
    }
    out
}

fn lcm_u128(a: u64, b: u64) -> u128 {
    let mut x = a;
    let mut y = b;
    while y != 0 {
        (x, y) = (y, x % y);
    }
    u128::from(a) / u128::from(x) * u128::from(b)
}

/// The full M→N communication matrix for one distributed argument, as
/// strided runs ordered by `(src_rank, dst_rank, global_start)`.
///
/// Build time and run count are O(ranks + period), independent of
/// `global`; empty pairs produce no run and no run is empty.
pub fn schedule(
    global: u64,
    src_dist: Distribution,
    src_size: usize,
    dst_dist: Distribution,
    dst_size: usize,
) -> Result<Vec<TransferRun>, GridCcmError> {
    if src_size == 0 || dst_size == 0 {
        return Err(GridCcmError::Distribution(
            "schedule with an empty rank group".into(),
        ));
    }
    if global == 0 {
        return Ok(Vec::new());
    }
    let mut out = match (src_dist.cyclic_block(), dst_dist.cyclic_block()) {
        (None, None) => schedule_block_block(global, src_size, dst_size),
        (None, Some(b)) => schedule_block_periodic(global, src_size, b, dst_size, true),
        (Some(b), None) => schedule_block_periodic(global, dst_size, b, src_size, false),
        (Some(bs), Some(bd)) => schedule_periodic_periodic(global, bs, src_size, bd, dst_size),
    };
    out.sort_by_key(|t| (t.src_rank, t.dst_rank, t.global_start));
    debug_assert!(out.iter().all(|t| t.count >= 1 && t.chunk_elems >= 1));
    Ok(out)
}

/// Cache key: a schedule is fully determined by these five inputs.
type ScheduleKey = (u64, Distribution, usize, Distribution, usize);

/// Bound on cached schedules; overflow evicts one entry by second chance
/// (clock) instead of wiping the table, so steady-state shapes survive a
/// burst of one-off lookups.
const CACHE_CAP: usize = 1024;

struct CacheEntry {
    sched: std::sync::Arc<Vec<TransferRun>>,
    /// Second-chance bit: set on every hit, cleared (one reprieve) by the
    /// clock hand before the entry becomes evictable.
    referenced: bool,
}

#[derive(Default)]
struct CacheInner {
    map: std::collections::HashMap<ScheduleKey, CacheEntry>,
    /// Clock ring over the keys, oldest-inserted first.
    ring: std::collections::VecDeque<ScheduleKey>,
}

impl CacheInner {
    /// Evict exactly one unreferenced entry, giving referenced entries a
    /// second chance. Returns whether anything was evicted.
    fn evict_one(&mut self) -> bool {
        for _ in 0..2 * self.ring.len() {
            let Some(key) = self.ring.pop_front() else {
                return false;
            };
            match self.map.get_mut(&key) {
                None => continue, // stale ring slot
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.ring.push_back(key);
                }
                Some(_) => {
                    self.map.remove(&key);
                    return true;
                }
            }
        }
        false
    }
}

struct ScheduleCache {
    inner: parking_lot::Mutex<CacheInner>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
}

/// Process-wide on purpose: a schedule is a pure function of its key, so
/// worlds sharing the memo cannot observe one another through it.
static SCHEDULE_CACHE: std::sync::OnceLock<ScheduleCache> = std::sync::OnceLock::new();

fn cache() -> &'static ScheduleCache {
    SCHEDULE_CACHE.get_or_init(|| ScheduleCache {
        inner: parking_lot::Mutex::new(CacheInner::default()),
        hits: std::sync::atomic::AtomicU64::new(0),
        misses: std::sync::atomic::AtomicU64::new(0),
        evictions: std::sync::atomic::AtomicU64::new(0),
    })
}

/// Like [`schedule`], but memoized: parallel invocations repeat the same
/// `(len, distribution, group size)` shapes on every call. The shared
/// `Arc` also lets the three call sites on an invocation path (routing,
/// client sends, server reply) reuse one allocation instead of each
/// recomputing the matrix.
pub fn schedule_cached(
    global: u64,
    src_dist: Distribution,
    src_size: usize,
    dst_dist: Distribution,
    dst_size: usize,
) -> Result<std::sync::Arc<Vec<TransferRun>>, GridCcmError> {
    use std::sync::atomic::Ordering;
    let key: ScheduleKey = (global, src_dist, src_size, dst_dist, dst_size);
    let c = cache();
    if let Some(entry) = c.inner.lock().map.get_mut(&key) {
        entry.referenced = true;
        c.hits.fetch_add(1, Ordering::Relaxed);
        return Ok(std::sync::Arc::clone(&entry.sched));
    }
    c.misses.fetch_add(1, Ordering::Relaxed);
    let computed = std::sync::Arc::new(schedule(global, src_dist, src_size, dst_dist, dst_size)?);
    let mut inner = c.inner.lock();
    if let Some(existing) = inner.map.get(&key) {
        // Lost a race with another thread's miss: keep its Arc so every
        // caller observes one canonical matrix per shape.
        return Ok(std::sync::Arc::clone(&existing.sched));
    }
    if inner.map.len() >= CACHE_CAP && inner.evict_one() {
        c.evictions.fetch_add(1, Ordering::Relaxed);
    }
    inner.map.insert(
        key,
        CacheEntry {
            sched: std::sync::Arc::clone(&computed),
            referenced: false,
        },
    );
    inner.ring.push_back(key);
    Ok(computed)
}

/// Lifetime counters of the schedule cache — observability for
/// benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

pub fn schedule_cache_stats() -> CacheStats {
    use std::sync::atomic::Ordering;
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        evictions: c.evictions.load(Ordering::Relaxed),
    }
}

/// The runs a given source rank must send (its slice of the matrix),
/// without materializing anything.
pub fn sends_of(runs: &[TransferRun], src_rank: usize) -> impl Iterator<Item = &TransferRun> {
    runs.iter().filter(move |t| t.src_rank == src_rank)
}

/// The runs a given destination rank will receive.
pub fn receives_of(runs: &[TransferRun], dst_rank: usize) -> impl Iterator<Item = &TransferRun> {
    runs.iter().filter(move |t| t.dst_rank == dst_rank)
}

/// Source ranks that send anything to `dst_rank` (what the server-side
/// gather waits for).
pub fn senders_to(runs: &[TransferRun], dst_rank: usize) -> Vec<usize> {
    let mut srcs: Vec<usize> = receives_of(runs, dst_rank).map(|t| t.src_rank).collect();
    srcs.sort_unstable();
    srcs.dedup();
    srcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive per-element reference schedule: one transfer per global
    /// element, owners and local offsets found by scanning materialized
    /// range lists. The strided engine must match this piece set exactly.
    fn schedule_reference(
        global: u64,
        src_dist: Distribution,
        src_size: usize,
        dst_dist: Distribution,
        dst_size: usize,
    ) -> Vec<Transfer> {
        let local_offset = |dist: Distribution, size: usize, i: u64| -> (usize, u64) {
            for r in 0..size {
                let mut off = 0u64;
                for (s, e) in dist.owned_ranges(global, r, size) {
                    if s <= i && i < e {
                        return (r, off + (i - s));
                    }
                    off += e - s;
                }
            }
            panic!("element {i} unowned");
        };
        (0..global)
            .map(|i| {
                let (src_rank, src_offset) = local_offset(src_dist, src_size, i);
                let (dst_rank, dst_offset) = local_offset(dst_dist, dst_size, i);
                Transfer {
                    src_rank,
                    dst_rank,
                    global_start: i,
                    global_end: i + 1,
                    src_offset,
                    dst_offset,
                }
            })
            .collect()
    }

    /// Explode expanded transfers to per-element tuples for comparison.
    fn per_element(transfers: &[Transfer]) -> Vec<(u64, usize, usize, u64, u64)> {
        let mut out: Vec<(u64, usize, usize, u64, u64)> = transfers
            .iter()
            .flat_map(|t| {
                (0..t.elems()).map(move |k| {
                    (
                        t.global_start + k,
                        t.src_rank,
                        t.dst_rank,
                        t.src_offset + k,
                        t.dst_offset + k,
                    )
                })
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn dist_of(kind: u8, bc: u64) -> Distribution {
        match kind {
            0 => Distribution::Block,
            1 => Distribution::Cyclic,
            _ => Distribution::BlockCyclic(bc),
        }
    }

    #[test]
    fn identity_block_schedule_is_diagonal() {
        // Same distribution, same size: rank i ships exactly its own
        // block to rank i — the Figure 8 configuration.
        let t = expand(&schedule(64, Distribution::Block, 4, Distribution::Block, 4).unwrap());
        assert_eq!(t.len(), 4);
        for (i, tr) in t.iter().enumerate() {
            assert_eq!(tr.src_rank, i);
            assert_eq!(tr.dst_rank, i);
            assert_eq!(tr.elems(), 16);
            assert_eq!(tr.src_offset, 0);
            assert_eq!(tr.dst_offset, 0);
        }
    }

    #[test]
    fn one_to_many_scatter() {
        // Sequential client (1 rank) to parallel server (3 ranks).
        let t = expand(&schedule(10, Distribution::Block, 1, Distribution::Block, 3).unwrap());
        assert_eq!(t.len(), 3);
        assert_eq!(
            t[0],
            Transfer {
                src_rank: 0,
                dst_rank: 0,
                global_start: 0,
                global_end: 4,
                src_offset: 0,
                dst_offset: 0
            }
        );
        assert_eq!(
            t[1],
            Transfer {
                src_rank: 0,
                dst_rank: 1,
                global_start: 4,
                global_end: 7,
                src_offset: 4,
                dst_offset: 0
            }
        );
        assert_eq!(
            t[2],
            Transfer {
                src_rank: 0,
                dst_rank: 2,
                global_start: 7,
                global_end: 10,
                src_offset: 7,
                dst_offset: 0
            }
        );
    }

    #[test]
    fn many_to_one_gather() {
        let runs = schedule(10, Distribution::Block, 3, Distribution::Block, 1).unwrap();
        let t = expand(&runs);
        assert_eq!(t.len(), 3);
        assert_eq!(senders_to(&runs, 0), vec![0, 1, 2]);
        // Destination offsets follow the global order.
        assert_eq!(t[0].dst_offset, 0);
        assert_eq!(t[1].dst_offset, 4);
        assert_eq!(t[2].dst_offset, 7);
    }

    #[test]
    fn block_to_block_different_sizes() {
        // 2 → 3 over 12 elements: blocks [0,6),[6,12) → [0,4),[4,8),[8,12).
        let t = expand(&schedule(12, Distribution::Block, 2, Distribution::Block, 3).unwrap());
        let expect = vec![(0, 0, 0, 4), (0, 1, 4, 6), (1, 1, 6, 8), (1, 2, 8, 12)];
        let got: Vec<(usize, usize, u64, u64)> = t
            .iter()
            .map(|tr| (tr.src_rank, tr.dst_rank, tr.global_start, tr.global_end))
            .collect();
        assert_eq!(got, expect);
        // Check destination offsets: rank 1 receives [4,6) at offset 0 and
        // [6,8) at offset 2.
        assert_eq!(t[1].dst_offset, 0);
        assert_eq!(t[2].dst_offset, 2);
    }

    #[test]
    fn block_to_cyclic_cross_distribution() {
        let t = schedule(6, Distribution::Block, 2, Distribution::Cyclic, 2).unwrap();
        // Block rank 0 owns [0,3): elements 0,2 go to cyclic rank 0,
        // element 1 to cyclic rank 1.
        let to_r0: u64 = receives_of(&t, 0).map(|tr| tr.elems()).sum();
        let to_r1: u64 = receives_of(&t, 1).map(|tr| tr.elems()).sum();
        assert_eq!(to_r0, 3);
        assert_eq!(to_r1, 3);
    }

    #[test]
    fn cyclic_schedule_size_is_independent_of_element_count() {
        // The point of the strided engine: 64× more elements, same runs.
        let small = schedule(1 << 10, Distribution::Block, 8, Distribution::Cyclic, 16).unwrap();
        let large = schedule(1 << 16, Distribution::Block, 8, Distribution::Cyclic, 16).unwrap();
        assert_eq!(small.len(), large.len());
        let small = schedule(1 << 10, Distribution::Cyclic, 8, Distribution::Cyclic, 16).unwrap();
        let large = schedule(1 << 16, Distribution::Cyclic, 8, Distribution::Cyclic, 16).unwrap();
        assert_eq!(small.len(), large.len());
        // And the volume still matches the data.
        let total: u64 = large.iter().map(|t| t.elems()).sum();
        assert_eq!(total, 1 << 16);
    }

    #[test]
    fn empty_groups_rejected() {
        assert!(schedule(4, Distribution::Block, 0, Distribution::Block, 1).is_err());
        assert!(schedule(4, Distribution::Block, 1, Distribution::Block, 0).is_err());
    }

    #[test]
    fn cached_schedule_is_shared_and_correct() {
        let a = schedule_cached(4096, Distribution::Block, 3, Distribution::Cyclic, 5).unwrap();
        let b = schedule_cached(4096, Distribution::Block, 3, Distribution::Cyclic, 5).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "second lookup must return the cached matrix"
        );
        let fresh = schedule(4096, Distribution::Block, 3, Distribution::Cyclic, 5).unwrap();
        assert_eq!(*a, fresh);
        let stats = schedule_cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 1);
        // Errors are never cached.
        assert!(schedule_cached(4, Distribution::Block, 0, Distribution::Block, 1).is_err());
    }

    #[test]
    fn schedule_cache_concurrent_access() {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;
        use std::sync::Arc;
        const THREADS: usize = 8;
        const ITERS: usize = 64;
        // Shapes unique to this test so collisions with other tests'
        // lookups cannot skew the identity checks.
        let keys = [
            (70_001, Distribution::Block, 3, Distribution::Cyclic, 4),
            (70_002, Distribution::Cyclic, 4, Distribution::Block, 3),
            (70_003, Distribution::Block, 2, Distribution::Block, 5),
            (
                70_004,
                Distribution::BlockCyclic(8),
                3,
                Distribution::Block,
                2,
            ),
        ];
        let before = schedule_cache_stats();
        let per_thread: Vec<Vec<(u64, Arc<Vec<TransferRun>>)>> = std::thread::scope(|scope| {
            let keys = &keys;
            (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut got = Vec::with_capacity(ITERS);
                        for i in 0..ITERS {
                            let (g, sd, ss, dd, ds) = keys[(t + i) % keys.len()];
                            got.push((g, schedule_cached(g, sd, ss, dd, ds).unwrap()));
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Every thread must have observed the *same* Arc per shape, even
        // when two threads raced on the initial miss.
        let mut canonical: HashMap<u64, Arc<Vec<TransferRun>>> = HashMap::new();
        for (global, arc) in per_thread.into_iter().flatten() {
            match canonical.entry(global) {
                Entry::Occupied(e) => assert!(
                    Arc::ptr_eq(e.get(), &arc),
                    "cache returned distinct Arcs for one shape ({global})"
                ),
                Entry::Vacant(v) => {
                    v.insert(arc);
                }
            }
        }
        // Cached matrices match a fresh computation.
        for (g, sd, ss, dd, ds) in keys {
            assert_eq!(*canonical[&g], schedule(g, sd, ss, dd, ds).unwrap());
        }
        // Counter accounting is race-free: each of our lookups bumped
        // exactly one of the two counters (other tests may add more).
        let after = schedule_cache_stats();
        let counted = (after.hits - before.hits) + (after.misses - before.misses);
        assert!(
            counted >= (THREADS * ITERS) as u64,
            "lost counter updates: {counted} counted for {} lookups",
            THREADS * ITERS
        );
        assert!(after.misses > before.misses, "first lookups must miss");
    }

    #[test]
    fn cache_evicts_one_at_a_time_and_counts() {
        // Shapes unique to this test: a private band of global sizes.
        let before = schedule_cache_stats();
        // A hot shape, looked up repeatedly so its referenced bit stays
        // set while the one-off shapes churn the cache past its cap.
        let hot = (900_000u64, Distribution::Block, 2, Distribution::Block, 3);
        let hot_arc = schedule_cached(hot.0, hot.1, hot.2, hot.3, hot.4).unwrap();
        for i in 0..(CACHE_CAP as u64 + 64) {
            let g = 800_000 + i;
            schedule_cached(g, Distribution::Block, 2, Distribution::Block, 3).unwrap();
            // Keep the hot entry referenced throughout the churn.
            let again = schedule_cached(hot.0, hot.1, hot.2, hot.3, hot.4).unwrap();
            assert!(
                std::sync::Arc::ptr_eq(&hot_arc, &again),
                "hot entry must survive second-chance eviction (i={i})"
            );
        }
        let after = schedule_cache_stats();
        assert!(
            after.evictions > before.evictions,
            "churn past CACHE_CAP must evict"
        );
        // Eviction is bounded, not clear-on-overflow: the cache never
        // exceeds its cap, and the hot entry is still resident (hit, not
        // recomputed into a fresh Arc).
        let final_hit = schedule_cached(hot.0, hot.1, hot.2, hot.3, hot.4).unwrap();
        assert!(std::sync::Arc::ptr_eq(&hot_arc, &final_hit));
    }

    #[test]
    fn site_chooser_honours_feasibility_then_efficiency() {
        let base = SiteFactors {
            client_free_memory: 1 << 30,
            server_free_memory: 1 << 30,
            client_net_mb_s: 250.0,
            server_net_mb_s: 250.0,
            bytes_per_node: 1 << 20,
        };
        assert_eq!(choose_site(&base), RedistributionSite::InFlight);
        assert_eq!(
            choose_site(&SiteFactors {
                client_net_mb_s: 1_000.0,
                ..base
            }),
            RedistributionSite::ClientSide
        );
        assert_eq!(
            choose_site(&SiteFactors {
                server_net_mb_s: 1_000.0,
                ..base
            }),
            RedistributionSite::ServerSide
        );
        assert_eq!(
            choose_site(&SiteFactors {
                client_free_memory: 0,
                server_free_memory: 0,
                ..base
            }),
            RedistributionSite::InFlight
        );
        assert_eq!(
            choose_site(&SiteFactors {
                server_free_memory: 0,
                client_net_mb_s: 1.0, // slow client net, but only feasible side
                ..base
            }),
            RedistributionSite::ClientSide
        );
    }

    proptest! {
        /// The strided schedule is transfer-for-transfer equivalent to
        /// the naive per-element reference: every element moves between
        /// the same ranks at the same local offsets.
        #[test]
        fn strided_schedule_matches_reference(
            global in 0u64..400,
            src_size in 1usize..7,
            dst_size in 1usize..7,
            src_kind in 0u8..3,
            dst_kind in 0u8..3,
            src_bc in 1u64..9,
            dst_bc in 1u64..9,
        ) {
            let src = dist_of(src_kind, src_bc);
            let dst = dist_of(dst_kind, dst_bc);
            let runs = schedule(global, src, src_size, dst, dst_size).unwrap();
            let strided = per_element(&expand(&runs));
            let reference = per_element(&schedule_reference(
                global, src, src_size, dst, dst_size,
            ));
            prop_assert_eq!(strided, reference,
                "{:?}x{} -> {:?}x{} over {}", src, src_size, dst, dst_size, global);
        }

        /// Schedules conserve every element exactly once, for arbitrary
        /// distribution pairs and group sizes, and stay within the
        /// owners' ranges.
        #[test]
        fn schedule_is_a_bijection(
            global in 0u64..150,
            src_size in 1usize..6,
            dst_size in 1usize..6,
            src_kind in 0u8..3,
            dst_kind in 0u8..3,
            bc in 1u64..5,
        ) {
            let src = dist_of(src_kind, bc);
            let dst = dist_of(dst_kind, bc);
            let transfers = expand(&schedule(global, src, src_size, dst, dst_size).unwrap());
            let mut covered = vec![0u32; global as usize];
            for t in &transfers {
                prop_assert!(t.global_end <= global);
                prop_assert!(t.global_start < t.global_end);
                for i in t.global_start..t.global_end {
                    covered[i as usize] += 1;
                }
                // The source actually owns the range.
                let owns = src.owned_ranges(global, t.src_rank, src_size);
                prop_assert!(owns.iter().any(|&(s, e)| s <= t.global_start && t.global_end <= e));
                // The destination actually owns the range.
                let owns = dst.owned_ranges(global, t.dst_rank, dst_size);
                prop_assert!(owns.iter().any(|&(s, e)| s <= t.global_start && t.global_end <= e));
            }
            prop_assert!(covered.iter().all(|&c| c == 1), "every element moves exactly once");
        }

        /// Per-destination receive volumes equal the destination's local
        /// length, and receives tile the local block without overlap.
        #[test]
        fn receives_tile_destination_blocks(
            global in 1u64..120,
            src_size in 1usize..5,
            dst_size in 1usize..5,
        ) {
            let runs = schedule(
                global,
                Distribution::Block,
                src_size,
                Distribution::Cyclic,
                dst_size,
            ).unwrap();
            for dst in 0..dst_size {
                let local = Distribution::Cyclic.local_len(global, dst, dst_size);
                let mut slots = vec![0u32; local as usize];
                for t in receives_of(&runs, dst).flat_map(|r| r.pieces()) {
                    for k in 0..t.elems() {
                        slots[(t.dst_offset + k) as usize] += 1;
                    }
                }
                prop_assert!(slots.iter().all(|&c| c == 1));
            }
        }
    }
}
