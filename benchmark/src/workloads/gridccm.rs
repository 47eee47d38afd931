//! `gridccm_coupling`: two client ranks couple with a 3-replica parallel
//! component deployed through `GridDeployer` on a 5-node grid. A coupling
//! step is `store(values, tag)` — a 2 MiB global `i32` sequence, client
//! block-cyclic:256 → server block — followed by `fetch()`, which returns
//! the same sequence as a distributed result (3 server blocks → 2 client
//! ranks). Mico (copying) profile on Myrinet, as in the paper's Fig. 8.
//! Payload-heavy: redistribution schedules, strided assembly, copying CDR
//! and the segment pool; write and read of one layer inside one op.
//!
//! 2 MiB, not more, so that every block (1 MiB per client rank, 683 KiB
//! per replica) still fits the segment pool's largest class. At 4 MiB the
//! blocks bypass the pool, the adapters' 256-entry completed-invocation
//! caches hold 1.2 GiB of result blocks, and the run measures the kernel's
//! page allocator: p99 spread 42 % over ten runs, throughput halving at
//! times (README, "Observations").

use super::Begin;
use crate::harness::{count_in_window, Outcome, Params, Phases};
use crate::rig::MYRINET;
use crate::spans;
use crate::stats::{mix, now_ns, Samples};
use bytes::Bytes;
use padico::ccm::assembly::Assembly;
use padico::ccm::package::Package;
use padico::core::dist::{DistSeq, Distribution};
use padico::core::error::GridCcmError;
use padico::core::grid_deploy::GridDeployer;
use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelServant};
use padico::core::parallel::client::ParallelRef;
use padico::core::parallel::component::{GridCcmComponent, ParallelPort};
use padico::core::parallel::wire::ParValue;
use padico::core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico::core::Grid;
use padico::orb::profile::OrbProfile;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// 2 MiB of `i32`.
pub const GLOBAL_ELEMS: u64 = 1 << 19;
const ELEM: u32 = 4;
pub const CLIENT_DIST: Distribution = Distribution::BlockCyclic(256);
pub const CLIENTS: usize = 2;
pub const REPLICAS: usize = 3;
const NODES: usize = CLIENTS + REPLICAS;
/// Distinct seeded sequences the clients cycle through, so a stale block
/// answering a `fetch` is a wrong answer.
const EPOCHS: u64 = 4;
/// Tag bit asking servants to check every element instead of a sample.
const FULL: u64 = 1 << 63;
/// Inside the window every this-many-th local element is checked, which
/// keeps verification under 2 % of a step.
const SAMPLE_EVERY: u64 = 4096;
const REPO_ID: &str = "IDL:PadicoBenchmark/Field:1.0";

fn interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: REPO_ID.into(),
        ops: vec![
            OpDef::new(
                "store",
                vec![
                    ArgDef::new("values", ParamKind::Sequence),
                    ArgDef::new("tag", ParamKind::LongLong),
                ],
                None,
            ),
            OpDef::new("fetch", vec![], Some(ParamKind::Sequence)),
        ],
    }
}

const PARALLELISM_XML: &str = r#"
    <parallelism interface="IDL:PadicoBenchmark/Field:1.0">
      <operation name="store">
        <argument index="0" distribution="block"/>
      </operation>
      <operation name="fetch">
        <result distribution="block"/>
      </operation>
    </parallelism>"#;

const ASSEMBLY_XML: &str = r#"
    <assembly name="bench">
      <component id="field" package="field">
        <parallel replicas="3"/>
      </component>
    </assembly>"#;

/// Closed-form element `index` of the global sequence of one epoch.
#[inline]
fn element(key: u64, index: u64) -> i32 {
    ((index ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as i32
}

fn epoch_key(seed: u64, epoch: u64) -> u64 {
    mix(seed ^ mix(epoch))
}

/// Count elements of a local block that differ from the pattern. Walks
/// the block's global ranges, so it holds for whatever layout the block
/// arrived in.
fn mismatches(block: &DistSeq, key: u64, full: bool) -> u64 {
    if block.elem_size != ELEM || block.global_elems != GLOBAL_ELEMS {
        return 1;
    }
    let stride = if full { 1 } else { SAMPLE_EVERY };
    let data = &block.data[..];
    let mut bad = 0;
    let mut local = 0u64; // local index of the current range's first element
    let mut next = 0u64; // next local index to check
    for (start, end) in block
        .distribution
        .ranges(GLOBAL_ELEMS, block.rank, block.size)
    {
        let len = end - start;
        while next < local + len {
            let at = (next * 4) as usize;
            let Some(bytes) = data.get(at..at + 4) else {
                return bad + 1;
            };
            let got = i32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            if got != element(key, start + (next - local)) {
                bad += 1;
            }
            next += stride;
        }
        local += len;
    }
    bad + u64::from(local * 4 != data.len() as u64)
}

/// This rank's local block of one epoch's sequence.
fn client_block(seed: u64, epoch: u64, rank: usize) -> DistSeq {
    let key = epoch_key(seed, epoch);
    let mut data = Vec::with_capacity((GLOBAL_ELEMS as usize / CLIENTS) * 4);
    for (start, end) in CLIENT_DIST.ranges(GLOBAL_ELEMS, rank, CLIENTS) {
        for index in start..end {
            data.extend_from_slice(&element(key, index).to_le_bytes());
        }
    }
    DistSeq::from_local(
        ELEM,
        GLOBAL_ELEMS,
        CLIENT_DIST,
        rank,
        CLIENTS,
        Bytes::from(data),
    )
    .expect("client block matches its distribution")
}

/// The benchmark's own SPMD servant: checks what `store` delivers against
/// the pattern and hands the same block back on `fetch`.
struct FieldServant {
    seed: u64,
    wrong: Arc<AtomicU64>,
    held: Mutex<Option<(u64, DistSeq)>>,
}

impl ParallelServant for FieldServant {
    fn repository_id(&self) -> &str {
        REPO_ID
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        _ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        match op {
            "store" => {
                let block = args.dist(0)?;
                let tag = args.u64(1)?;
                let step = tag & !FULL;
                let _span = spans::span_in_op("servant.store", step);
                let key = epoch_key(self.seed, step % EPOCHS);
                self.wrong
                    .fetch_add(mismatches(block, key, tag & FULL != 0), Ordering::Relaxed);
                *self.held.lock() = Some((step, block.clone()));
                Ok(None)
            }
            "fetch" => {
                let held = self.held.lock().clone();
                let (step, block) =
                    held.ok_or_else(|| GridCcmError::Protocol("fetch before any store".into()))?;
                let _span = spans::span_in_op("servant.fetch", step);
                Ok(Some(ParValue::Dist(block)))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

pub struct Rig {
    /// One handle per client rank, in rank order.
    clients: Vec<ParallelRef>,
    /// `blocks[rank][epoch]`.
    blocks: Vec<Vec<DistSeq>>,
    seed: u64,
    /// Elements the servants found wrong.
    server_wrong: Arc<AtomicU64>,
    pub boot_s: f64,
    pub deploy_s: f64,
    _grid: Grid,
}

/// Boot the grid, deploy the parallel component, connect both client
/// ranks and run one fully verified coupling step.
pub fn setup(seed: u64) -> (Rig, f64) {
    // Inputs first: generating them is the benchmark's work, not set-up.
    let blocks: Vec<Vec<DistSeq>> = (0..CLIENTS)
        .map(|rank| (0..EPOCHS).map(|e| client_block(seed, e, rank)).collect())
        .collect();
    let plan = Arc::new(InterceptionPlan::compile(&interface(), PARALLELISM_XML).expect("plan"));
    let server_wrong = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let (topology, _ids) = padico::fabric::topology::single_cluster(NODES);
    let grid = Grid::boot(topology, OrbProfile::mico(), MYRINET).expect("grid boots");
    let boot_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    grid.register_factory("make_field", {
        let plan = Arc::clone(&plan);
        let wrong = Arc::clone(&server_wrong);
        move |env| {
            GridCcmComponent::new(
                "Field",
                "IDL:PadicoBenchmark/FieldComponent:1.0",
                env.clone(),
                vec![ParallelPort {
                    name: "field".into(),
                    plan: Arc::clone(&plan),
                    servant: Arc::new(FieldServant {
                        seed,
                        wrong: Arc::clone(&wrong),
                        held: Mutex::new(None),
                    }),
                }],
                vec![],
            ) as _
        }
    });
    let assembly = Assembly::parse(ASSEMBLY_XML).expect("assembly parses");
    let packages = [Package::new("field", "1.0", "make_field")];
    let mut deployer = GridDeployer::new(&grid);
    deployer.register_interface(interface(), Arc::clone(&plan));
    let app = {
        let _span = spans::span("deploy", spans::SETUP_OP);
        deployer
            .deploy(&assembly, &packages)
            .expect("assembly deploys")
    };
    let facets: Vec<_> = app
        .replicas("field")
        .iter()
        .map(|r| r.component.provide_facet("field").expect("facet"))
        .collect();
    let deploy_s = t1.elapsed().as_secs_f64();

    // Replicas took the first three nodes; the clients run on the rest.
    let clients: Vec<ParallelRef> = (0..CLIENTS)
        .map(|rank| {
            let orb = &grid.node(REPLICAS + rank).env.orb;
            let replicas = facets
                .iter()
                .map(|ior| orb.object_ref(ior.clone()))
                .collect();
            ParallelRef::new("bench-clients", Arc::clone(&plan), replicas, rank, CLIENTS)
                .expect("client handle")
        })
        .collect();
    let rig = Rig {
        clients,
        blocks,
        seed,
        server_wrong,
        boot_s,
        deploy_s,
        _grid: grid,
    };
    let wrong = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..CLIENTS)
            .map(|rank| {
                let rig = &rig;
                scope.spawn(move || rig.step(rank, 0, true).wrong)
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("client rank"))
            .sum::<u64>()
    });
    assert_eq!(
        wrong + rig.server_wrong.load(Ordering::Relaxed),
        0,
        "first step wrong"
    );
    (rig, t0.elapsed().as_secs_f64())
}

struct Step {
    start_ns: u64,
    stored_ns: u64,
    end_ns: u64,
    /// Elements (or whole calls) this rank found wrong.
    wrong: u64,
}

impl Rig {
    /// One coupling step of one client rank (collective over both ranks).
    fn step(&self, rank: usize, step: u64, full: bool) -> Step {
        let epoch = step % EPOCHS;
        let tag = step | if full { FULL } else { 0 };
        let client = &self.clients[rank];
        let op_id = ((rank as u64) << 48) | step;
        let _root = spans::span("step", op_id);
        let start_ns = now_ns();
        let stored = {
            let _s = spans::span("store", op_id);
            client.invoke(
                "store",
                vec![
                    ParValue::Dist(self.blocks[rank][epoch as usize].clone()),
                    ParValue::U64(tag),
                ],
            )
        };
        let stored_ns = now_ns();
        let fetched = {
            let _s = spans::span("fetch", op_id);
            client.invoke("fetch", vec![])
        };
        let wrong = match (stored, fetched) {
            (Ok(None), Ok(Some(ParValue::Dist(block)))) => {
                mismatches(&block, epoch_key(self.seed, epoch), full)
            }
            _ => 1,
        };
        Step {
            start_ns,
            stored_ns,
            end_ns: now_ns(),
            wrong,
        }
    }
}

/// Coupling steps a rank may log before its vectors have to grow.
const STEP_CAPACITY: usize = 1 << 16;

/// What one client rank logged: whole steps and their two halves.
pub struct RankLog {
    pub steps: Samples,
    pub store: Samples,
    pub fetch: Samples,
    attempted: u64,
    failed: u64,
}

/// One run of coupling steps.
pub struct Coupled {
    /// In rank order.
    pub ranks: Vec<RankLog>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run coupling steps on both ranks until `phases` ends, then one more,
/// fully verified. Rank 0 owns the decision to stop: it publishes the
/// number of the last step before starting it, and rank 1 can only finish
/// a step after rank 0 has started it (the servants gather both ranks'
/// chunks before the upcall), so both ranks always agree.
pub fn couple(rig: &Rig, phases: Phases) -> Coupled {
    let last_step = AtomicU64::new(u64::MAX);
    let run_rank = |rank: usize| {
        let mut log = RankLog {
            steps: Samples::with_capacity(STEP_CAPACITY),
            store: Samples::with_capacity(STEP_CAPACITY),
            fetch: Samples::with_capacity(STEP_CAPACITY),
            attempted: 0,
            failed: 0,
        };
        for step in 1u64.. {
            let mut last = last_step.load(Ordering::SeqCst);
            if rank == 0 && last == u64::MAX && now_ns() >= phases.stop_at_ns {
                last_step.store(step, Ordering::SeqCst);
                last = step;
            }
            if step > last {
                break;
            }
            let s = rig.step(rank, step, step == last);
            log.attempted += 1;
            log.failed += u64::from(s.wrong > 0);
            log.steps.push(s.start_ns, s.end_ns);
            log.store.push(s.start_ns, s.stored_ns);
            log.fetch.push(s.stored_ns, s.end_ns);
        }
        log
    };
    let ranks: Vec<RankLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|rank| scope.spawn(move || run_rank(rank)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client rank"))
            .collect()
    });
    Coupled {
        attempted: ranks.iter().map(|r| r.attempted).sum(),
        failed: ranks.iter().map(|r| r.failed).sum::<u64>()
            + u64::from(rig.server_wrong.load(Ordering::Relaxed) > 0),
        ranks,
    }
}

pub fn coupling(params: &Params, begin: Begin) -> Outcome {
    let (rig, setup_s) = setup(params.seed);
    let phases = begin(params);
    let run = couple(&rig, phases);
    let logs: Vec<_> = run.ranks.into_iter().map(|r| r.steps.into_vec()).collect();
    // A step is collective: count it once, by rank 0's log; latency is
    // what either rank waited.
    let steps = count_in_window(&logs[..1], phases.window());
    Outcome {
        setup_s,
        window: phases.window(),
        logs,
        ops_in_window: steps,
        // Argument out plus result back, the whole global sequence each way.
        payload_bytes_in_window: steps * 2 * GLOBAL_ELEMS * u64::from(ELEM),
        attempted: run.attempted,
        failed: run.failed,
        extra: Vec::new(),
    }
}
