//! Workspace-level integration: the whole Padico stack (fabric →
//! PadicoTM → ORB → CCM → GridCCM) exercised through the public facade.

use bytes::Bytes;
use padico::ccm::assembly::Assembly;
use padico::ccm::component::{CcmComponent, ComponentDescriptor, PortDesc, PortKind, PortRegistry};
use padico::ccm::package::Package;
use padico::ccm::CcmError;
use padico::core::dist::{DistSeq, Distribution};
use padico::core::error::GridCcmError;
use padico::core::grid_deploy::GridDeployer;
use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelAdapter, ParallelServant};
use padico::core::parallel::client::ParallelRef;
use padico::core::parallel::component::{GridCcmComponent, ParallelPort};
use padico::core::parallel::wire::ParValue;
use padico::core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico::core::Grid;
use padico::mpi::ReduceOp;
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::OrbError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A plain CCM echo component used by the sequential paths.
struct EchoComponent {
    registry: Arc<PortRegistry>,
}

struct EchoFacet;

impl Servant for EchoFacet {
    fn repository_id(&self) -> &str {
        "IDL:It/Echo:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "echo" => {
                let blob = args.read_octet_seq()?;
                reply.write_octet_seq(blob);
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

impl CcmComponent for EchoComponent {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor {
            name: "Echo".into(),
            repo_id: "IDL:It/EchoComponent:1.0".into(),
            ports: vec![PortDesc::new("echo", PortKind::Facet, "IDL:It/Echo:1.0")],
        }
    }

    fn registry(&self) -> &Arc<PortRegistry> {
        &self.registry
    }

    fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, CcmError> {
        match name {
            "echo" => Ok(Arc::new(EchoFacet)),
            other => Err(CcmError::NoSuchPort(other.into())),
        }
    }
}

fn echo_factory() -> Arc<dyn CcmComponent> {
    Arc::new(EchoComponent {
        registry: Arc::new(PortRegistry::new()),
    })
}

#[test]
fn payloads_survive_every_deployment_shape() {
    // One grid; echo components placed on every node; every pairing
    // checked bit-exactly. This sweeps loopback, shmem, Myrinet and
    // Ethernet paths under the same API.
    let grid = Grid::single_cluster(4).unwrap();
    grid.register_factory("make_echo", |_env| echo_factory());
    let assembly = Assembly::parse(
        r#"<assembly name="mesh">
             <component id="e0" package="echo"><placement node="n0"/></component>
             <component id="e1" package="echo"><placement node="n1"/></component>
             <component id="e2" package="echo"><placement node="n2"/></component>
             <component id="e3" package="echo"><placement node="n3"/></component>
           </assembly>"#,
    )
    .unwrap();
    let app = grid
        .deployer()
        .deploy(&assembly, &[Package::new("echo", "1.0", "make_echo")])
        .unwrap();
    let blob = padico::util::rng::payload(77, "full-stack", 64 << 10);
    for src in 0..4 {
        for dst in 0..4 {
            let facet = app
                .component(&format!("e{dst}"))
                .unwrap()
                .provide_facet("echo")
                .unwrap();
            let obj = grid.node(src).env.orb.object_ref(facet);
            let mut reply = obj
                .request("echo")
                .arg_octet_seq(Bytes::from(blob.clone()))
                .invoke()
                .unwrap();
            assert_eq!(
                reply.read_octet_seq().unwrap(),
                Bytes::from(blob.clone()),
                "payload corrupted {src}->{dst}"
            );
        }
    }
}

fn stat_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:It/Stat:1.0".into(),
        ops: vec![
            OpDef::new(
                "mean",
                vec![ArgDef::new("v", ParamKind::Sequence)],
                Some(ParamKind::Double),
            ),
            OpDef::new(
                "shift",
                vec![
                    ArgDef::new("v", ParamKind::Sequence),
                    ArgDef::new("delta", ParamKind::Double),
                ],
                Some(ParamKind::Sequence),
            ),
        ],
    }
}

fn stat_plan() -> Arc<InterceptionPlan> {
    let xml = r#"<parallelism interface="IDL:It/Stat:1.0">
        <operation name="mean">
          <argument index="0" distribution="cyclic"/>
        </operation>
        <operation name="shift">
          <argument index="0" distribution="block"/>
          <result distribution="block"/>
        </operation>
    </parallelism>"#;
    Arc::new(InterceptionPlan::compile(&stat_interface(), xml).unwrap())
}

struct StatServant;

impl ParallelServant for StatServant {
    fn repository_id(&self) -> &str {
        "IDL:It/Stat:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        match op {
            "mean" => {
                let local = args.dist(0)?;
                let vals = local.as_f64()?;
                let pair = [vals.iter().sum::<f64>(), vals.len() as f64];
                let total = match &ctx.comm {
                    Some(comm) => comm.allreduce(ReduceOp::Sum, &pair)?,
                    None => pair.to_vec(),
                };
                Ok(Some(ParValue::F64(total[0] / total[1])))
            }
            "shift" => {
                let local = args.dist(0)?;
                let delta = args.f64(1)?;
                let shifted: Vec<f64> = local.as_f64()?.iter().map(|v| v + delta).collect();
                Ok(Some(ParValue::Dist(DistSeq::from_f64_local(
                    local.global_elems,
                    local.distribution,
                    ctx.rank,
                    ctx.size,
                    &shifted,
                )?)))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

#[test]
fn cyclic_distribution_through_assembly_deployment() {
    // A parallel component with a *cyclic* server distribution, deployed
    // via assembly, driven by a sequential client through the proxy path
    // — crossing distributions (client block → server cyclic) for real.
    let grid = Grid::single_cluster(4).unwrap();
    grid.register_factory("make_stat", |env| {
        GridCcmComponent::new(
            "Stat",
            "IDL:It/StatComponent:1.0",
            env.clone(),
            vec![ParallelPort {
                name: "stat".into(),
                plan: stat_plan(),
                servant: Arc::new(StatServant),
            }],
            vec![],
        ) as _
    });
    let assembly = Assembly::parse(
        r#"<assembly name="stats">
             <component id="stat" package="stat"><parallel replicas="3"/></component>
           </assembly>"#,
    )
    .unwrap();
    let mut deployer = GridDeployer::new(&grid);
    deployer.register_interface(stat_interface(), stat_plan());
    let app = deployer
        .deploy(&assembly, &[Package::new("stat", "1.0", "make_stat")])
        .unwrap();

    let facets: Vec<padico::orb::Ior> = app
        .replicas("stat")
        .iter()
        .map(|r| r.component.provide_facet("stat").unwrap())
        .collect();
    let orb = &grid.node(3).env.orb;
    let proxy = padico::core::parallel::proxy::install_proxy(
        orb,
        stat_interface(),
        stat_plan(),
        facets,
        "stat-proxy",
    )
    .unwrap();
    let client = padico::core::parallel::proxy::SequentialClient::new(
        orb.object_ref(proxy),
        stat_interface(),
    );
    let values: Vec<f64> = (0..101).map(|i| i as f64).collect();
    match client.invoke_f64_seq("mean", &values).unwrap() {
        Some(ParValue::F64(m)) => assert!((m - 50.0).abs() < 1e-9, "mean {m}"),
        other => panic!("unexpected {other:?}"),
    }
    // Distributed result back through the proxy.
    let mut data = Vec::new();
    for v in &values {
        data.extend_from_slice(&v.to_le_bytes());
    }
    match client
        .invoke(
            "shift",
            &[
                ParValue::Seq {
                    elem_size: 8,
                    data: Bytes::from(data),
                },
                ParValue::F64(1.5),
            ],
        )
        .unwrap()
    {
        Some(ParValue::Seq { data, .. }) => {
            let got: Vec<f64> = data
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for (i, v) in got.iter().enumerate() {
                assert!((v - (i as f64 + 1.5)).abs() < 1e-9);
            }
        }
        other => panic!("unexpected {other:?}"),
    }
}

fn field_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:It/Field:1.0".into(),
        ops: vec![
            OpDef::new(
                "store",
                vec![ArgDef::new("values", ParamKind::Sequence)],
                None,
            ),
            OpDef::new("fetch", vec![], Some(ParamKind::Sequence)),
        ],
    }
}

fn field_plan() -> Arc<InterceptionPlan> {
    let xml = r#"<parallelism interface="IDL:It/Field:1.0">
        <operation name="store">
          <argument index="0" distribution="block"/>
        </operation>
        <operation name="fetch">
          <result distribution="block"/>
        </operation>
    </parallelism>"#;
    Arc::new(InterceptionPlan::compile(&field_interface(), xml).unwrap())
}

/// `store` keeps its local block, `fetch` hands it back.
struct FieldServant {
    held: Mutex<Option<DistSeq>>,
    upcalls: AtomicUsize,
}

impl ParallelServant for FieldServant {
    fn repository_id(&self) -> &str {
        "IDL:It/Field:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        _ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        self.upcalls.fetch_add(1, Ordering::SeqCst);
        match op {
            "store" => {
                *self.held.lock().unwrap() = Some(args.dist(0)?.clone());
                Ok(None)
            }
            "fetch" => {
                let held = self.held.lock().unwrap().clone();
                held.map(|block| Some(ParValue::Dist(block)))
                    .ok_or_else(|| GridCcmError::Protocol("fetch before store".into()))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

/// Couple a 2-rank client group with a 3-replica field for `steps`
/// `store`+`fetch` steps over a `field_bytes` sequence of `i32`, then
/// check that each replica keeps exactly one result — its block of the
/// last `fetch` — and nothing else: the dedup state is released by the
/// clients' own acknowledgements, not by a count.
fn coupling_keeps_one_result_per_group(field_bytes: usize, steps: u64) {
    const CLIENTS: usize = 2;
    const REPLICAS: usize = 3;
    let client_dist = Distribution::BlockCyclic(256);
    let grid = Grid::single_cluster(REPLICAS + CLIENTS).unwrap();
    let plan = field_plan();
    let servants: Vec<Arc<FieldServant>> = (0..REPLICAS)
        .map(|_| {
            Arc::new(FieldServant {
                held: Mutex::new(None),
                upcalls: AtomicUsize::new(0),
            })
        })
        .collect();
    let adapters: Vec<Arc<ParallelAdapter>> = servants
        .iter()
        .enumerate()
        .map(|(rank, servant)| {
            let adapter = ParallelAdapter::new(Arc::clone(servant) as _, Arc::clone(&plan));
            adapter.configure(rank, REPLICAS, None);
            adapter
        })
        .collect();
    let iors: Vec<_> = adapters
        .iter()
        .enumerate()
        .map(|(rank, a)| grid.node(rank).env.orb.activate(Arc::clone(a) as _))
        .collect();

    // Two epochs, so a stale block answering a `fetch` is a wrong answer.
    let elems = (field_bytes / 4) as u64;
    let epochs: Vec<Bytes> = (0..2u8)
        .map(|e| {
            Bytes::from(padico::util::rng::payload(
                u64::from(e),
                "field",
                field_bytes,
            ))
        })
        .collect();
    std::thread::scope(|scope| {
        for rank in 0..CLIENTS {
            let (grid, plan, iors, epochs) = (&grid, &plan, &iors, &epochs);
            scope.spawn(move || {
                let orb = &grid.node(REPLICAS + rank).env.orb;
                let replicas = iors.iter().map(|ior| orb.object_ref(ior.clone())).collect();
                let client =
                    ParallelRef::new("couplers", Arc::clone(plan), replicas, rank, CLIENTS)
                        .unwrap();
                let mine: Vec<DistSeq> = epochs
                    .iter()
                    .map(|g| DistSeq::from_global(4, client_dist, rank, CLIENTS, g).unwrap())
                    .collect();
                let back: Vec<Bytes> = epochs
                    .iter()
                    .map(|g| {
                        DistSeq::from_global(4, Distribution::Block, rank, CLIENTS, g)
                            .unwrap()
                            .data
                    })
                    .collect();
                for step in 0..steps {
                    let epoch = (step % 2) as usize;
                    let stored = client.invoke("store", vec![ParValue::Dist(mine[epoch].clone())]);
                    assert!(matches!(stored, Ok(None)), "step {step}: {stored:?}");
                    match client.invoke("fetch", vec![]) {
                        Ok(Some(ParValue::Dist(d))) => {
                            assert_eq!(d.global_elems, elems);
                            assert!(d.data == back[epoch], "step {step}: stale or torn block");
                        }
                        other => panic!("step {step}: {other:?}"),
                    }
                }
            });
        }
    });

    let invocations = 2 * steps;
    for (rank, adapter) in adapters.iter().enumerate() {
        assert_eq!(
            servants[rank].upcalls.load(Ordering::SeqCst) as u64,
            invocations,
            "replica {rank} ran an invocation twice (or skipped one)"
        );
        let block = Distribution::Block.local_len(elems, rank, REPLICAS) * 4;
        assert_eq!(
            adapter.retained(),
            (1, block),
            "replica {rank} keeps more than the last fetch"
        );
    }
    let metrics = grid.topology().telemetry().metrics();
    assert_eq!(
        metrics.counter("ccm.dedup.retained_bytes"),
        field_bytes as u64
    );
    // Every other invocation was released, on every replica.
    assert_eq!(
        metrics.counter("ccm.dedup.released"),
        REPLICAS as u64 * (invocations - 1)
    );
    assert_eq!(metrics.counter("ccm.dedup.stale_duplicates"), 0);
}

#[test]
fn gridccm_coupling_keeps_one_result_per_group() {
    coupling_keeps_one_result_per_group(96 << 10, 300);
}

#[test]
fn gridccm_coupling_keeps_one_result_per_group_at_4_mib() {
    // The field size the wall-clock benchmark had to drop: 256 kept
    // fetch results per replica pinned over 1 GiB there.
    coupling_keeps_one_result_per_group(4 << 20, 300);
}

#[test]
fn two_cluster_grid_crosses_the_wan_transparently() {
    // The same echo invocation, same code — but the components sit in
    // different clusters, so the bytes cross the (encrypted) WAN.
    let grid = Grid::two_clusters(1).unwrap();
    grid.register_factory("make_echo", |_env| echo_factory());
    let assembly = Assembly::parse(
        r#"<assembly name="wan">
             <component id="a" package="echo"><placement machine="cluster-a"/></component>
             <component id="b" package="echo"><placement machine="cluster-b"/></component>
           </assembly>"#,
    )
    .unwrap();
    let app = grid
        .deployer()
        .deploy(&assembly, &[Package::new("echo", "1.0", "make_echo")])
        .unwrap();
    let facet = app.component("b").unwrap().provide_facet("echo").unwrap();
    let a_env = &grid.node_by_name("a0").unwrap().env;
    let obj = a_env.orb.object_ref(facet);
    let blob = padico::util::rng::payload(3, "wan", 32 << 10);
    let before = a_env.tm.clock().now();
    let mut reply = obj
        .request("echo")
        .arg_octet_seq(Bytes::from(blob.clone()))
        .invoke()
        .unwrap();
    assert_eq!(reply.read_octet_seq().unwrap(), Bytes::from(blob));
    let elapsed_ms = (a_env.tm.clock().now() - before) as f64 / 1e6;
    // 64 KiB round trip over a 2.5 MB/s WAN with 5 ms propagation and
    // cipher cost: tens of milliseconds, not microseconds.
    assert!(
        elapsed_ms > 20.0,
        "WAN round trip should be slow, got {elapsed_ms:.2} ms"
    );
}
