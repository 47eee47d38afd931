//! End-to-end GridCCM: parallel components invoking parallel components
//! with real data redistribution over the simulated grid.

use bytes::Bytes;
use padico_core::dist::{DistSeq, Distribution};
use padico_core::error::GridCcmError;
use padico_core::parallel::adapter::{ParArgs, ParCtx, ParallelAdapter, ParallelServant};
use padico_core::parallel::client::ParallelRef;
use padico_core::parallel::proxy::{install_proxy, SequentialClient};
use padico_core::parallel::wire::ParValue;
use padico_core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico_core::Grid;
use padico_mpi::ReduceOp;
use padico_orb::profile::OrbProfile;
use padico_orb::Ior;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The test interface: a numerical field service.
fn field_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Test/Field:1.0".into(),
        ops: vec![
            // Global sum of a distributed vector (replicated result).
            OpDef::new(
                "global_sum",
                vec![ArgDef::new("values", ParamKind::Sequence)],
                Some(ParamKind::Double),
            ),
            // Scale a distributed vector (distributed result).
            OpDef::new(
                "scale",
                vec![
                    ArgDef::new("values", ParamKind::Sequence),
                    ArgDef::new("factor", ParamKind::Double),
                ],
                Some(ParamKind::Sequence),
            ),
            // Replicated no-argument operation.
            OpDef::new("ping", vec![], Some(ParamKind::Long)),
        ],
    }
}

const PARALLELISM: &str = r#"
    <parallelism interface="IDL:Test/Field:1.0">
      <operation name="global_sum">
        <argument index="0" distribution="block"/>
      </operation>
      <operation name="scale">
        <argument index="0" distribution="block"/>
        <result distribution="block"/>
      </operation>
    </parallelism>"#;

/// SPMD servant: sums and scales its local block, using MPI internally
/// for the global reduction.
struct FieldServant {
    upcalls: AtomicUsize,
}

impl ParallelServant for FieldServant {
    fn repository_id(&self) -> &str {
        "IDL:Test/Field:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        self.upcalls.fetch_add(1, Ordering::SeqCst);
        match op {
            "global_sum" => {
                let local = args.dist(0)?;
                let partial: f64 = local.as_f64()?.iter().sum();
                let total = match &ctx.comm {
                    Some(comm) => comm.allreduce(ReduceOp::Sum, &[partial])?[0],
                    None => partial,
                };
                Ok(Some(ParValue::F64(total)))
            }
            "scale" => {
                let local = args.dist(0)?;
                let factor = args.f64(1)?;
                let scaled: Vec<f64> = local.as_f64()?.iter().map(|v| v * factor).collect();
                let result = DistSeq::from_f64_local(
                    local.global_elems,
                    local.distribution,
                    ctx.rank,
                    ctx.size,
                    &scaled,
                )?;
                Ok(Some(ParValue::Dist(result)))
            }
            "ping" => {
                if let Some(comm) = &ctx.comm {
                    comm.barrier()?;
                }
                Ok(Some(ParValue::I32(ctx.size as i32)))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

struct ParallelFixture {
    grid: Arc<Grid>,
    plan: Arc<InterceptionPlan>,
    /// Derived facet IORs of the server replicas, in rank order.
    server_iors: Vec<Ior>,
    server_upcalls: Arc<FieldServant>,
    server_nodes: Vec<usize>,
    client_nodes: Vec<usize>,
}

/// Stand up S server replicas (with MPI among them) and leave C nodes for
/// clients, every node's ORB of `profile`.
fn fixture(profile: OrbProfile, server_count: usize, client_count: usize) -> ParallelFixture {
    let (topology, _) = padico_fabric::topology::single_cluster(server_count + client_count);
    let grid =
        Arc::new(Grid::boot(topology, profile, padico_tm::selector::FabricChoice::Auto).unwrap());
    let plan = Arc::new(InterceptionPlan::compile(&field_interface(), PARALLELISM).unwrap());
    let servant = Arc::new(FieldServant {
        upcalls: AtomicUsize::new(0),
    });
    let server_nodes: Vec<usize> = (0..server_count).collect();
    let client_nodes: Vec<usize> = (server_count..server_count + client_count).collect();
    // MPI world among the server replicas.
    let group: Vec<padico_util::ids::NodeId> = server_nodes
        .iter()
        .map(|&i| grid.node(i).env.tm.node())
        .collect();
    let mut server_iors = Vec::new();
    for (rank, &i) in server_nodes.iter().enumerate() {
        let adapter = ParallelAdapter::new(
            Arc::clone(&servant) as Arc<dyn ParallelServant>,
            Arc::clone(&plan),
        );
        let comm = padico_mpi::init_world(
            &grid.node(i).env.tm,
            "servers",
            group.clone(),
            padico_tm::selector::FabricChoice::Auto,
        )
        .unwrap();
        adapter.configure(rank, server_count, Some(comm));
        server_iors.push(grid.node(i).env.orb.activate(adapter));
    }
    ParallelFixture {
        grid,
        plan,
        server_iors,
        server_upcalls: servant,
        server_nodes,
        client_nodes,
    }
}

impl ParallelFixture {
    /// Build one client rank's handle on its node.
    fn client_ref(&self, rank: usize) -> ParallelRef {
        let node = self.client_nodes[rank];
        let replicas = self
            .server_iors
            .iter()
            .map(|ior| self.grid.node(node).env.orb.object_ref(ior.clone()))
            .collect();
        ParallelRef::new(
            "clients",
            Arc::clone(&self.plan),
            replicas,
            rank,
            self.client_nodes.len(),
        )
        .unwrap()
    }

    /// Run one closure per client rank, collecting results in rank order.
    fn run_clients<R: Send + 'static>(
        self: &Arc<Self>,
        f: impl Fn(&ParallelFixture, usize) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..self.client_nodes.len())
            .map(|rank| {
                let fx = Arc::clone(self);
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(&fx, rank))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }
}

/// The two marshal strategies: zero-copy (omniORB) and copying (Mico, the
/// profile of the paper's Fig. 8 coupling).
fn both_strategies() -> [OrbProfile; 2] {
    [OrbProfile::omniorb3(), OrbProfile::mico()]
}

#[test]
fn parallel_to_parallel_with_redistribution_and_mpi_reduce() {
    for profile in both_strategies() {
        // 2 servers, 3 clients: block(3) → block(2) redistribution, with
        // runs above the CDR zero-copy threshold.
        let fx = Arc::new(fixture(profile, 2, 3));
        let global: Vec<f64> = (0..3_001).map(|i| i as f64).collect();
        let expected_sum: f64 = global.iter().sum();

        let sums = fx.run_clients(move |fx, rank| {
            let client = fx.client_ref(rank);
            let blob = Bytes::from(
                global
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            );
            let local = DistSeq::from_global(8, Distribution::Block, rank, 3, &blob).unwrap();
            match client
                .invoke("global_sum", vec![ParValue::Dist(local)])
                .unwrap()
            {
                Some(ParValue::F64(sum)) => sum,
                other => panic!("unexpected result {other:?}"),
            }
        });
        for s in sums {
            assert!((s - expected_sum).abs() < 1e-9, "{s} != {expected_sum}");
        }
        // The servant ran exactly once per server replica.
        assert_eq!(fx.server_upcalls.upcalls.load(Ordering::SeqCst), 2);
    }
}

#[test]
fn distributed_result_comes_back_redistributed() {
    for profile in both_strategies() {
        // 3 servers, 2 clients; scale by 2.5 and check every element.
        let fx = Arc::new(fixture(profile, 3, 2));
        let global: Vec<f64> = (0..2_301).map(|i| i as f64 * 1.5).collect();
        let expected: Vec<f64> = global.iter().map(|v| v * 2.5).collect();

        let blocks = fx.run_clients(move |fx, rank| {
            let client = fx.client_ref(rank);
            let blob = Bytes::from(
                global
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            );
            let local = DistSeq::from_global(8, Distribution::Block, rank, 2, &blob).unwrap();
            match client
                .invoke("scale", vec![ParValue::Dist(local), ParValue::F64(2.5)])
                .unwrap()
            {
                Some(ParValue::Dist(d)) => {
                    assert_eq!(d.rank, rank);
                    assert_eq!(d.size, 2);
                    d.as_f64().unwrap()
                }
                other => panic!("unexpected result {other:?}"),
            }
        });
        // Rank 0 holds the first 1 151 elements, rank 1 the rest.
        assert_eq!(blocks[0].len(), 1_151);
        let rejoined = blocks.concat();
        assert_eq!(rejoined.len(), expected.len());
        for (got, want) in rejoined.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9);
        }
    }
}

#[test]
fn replicated_op_runs_on_every_server_with_internal_barrier() {
    let fx = Arc::new(fixture(OrbProfile::omniorb3(), 4, 2));
    let results = fx.run_clients(|fx, rank| {
        let client = fx.client_ref(rank);
        match client.invoke("ping", vec![]).unwrap() {
            Some(ParValue::I32(n)) => n,
            other => panic!("unexpected {other:?}"),
        }
    });
    assert_eq!(results, vec![4, 4]);
    assert_eq!(fx.server_upcalls.upcalls.load(Ordering::SeqCst), 4);
}

#[test]
fn sequential_proxy_hides_the_parallel_component() {
    // A sequential caller goes through the proxy and still gets the
    // globally-correct answer from 3 SPMD replicas.
    let fx = fixture(OrbProfile::omniorb3(), 3, 1);
    let proxy_node = fx.client_nodes[0];
    let orb = &fx.grid.node(proxy_node).env.orb;
    let proxy_ior = install_proxy(
        orb,
        field_interface(),
        Arc::clone(&fx.plan),
        fx.server_iors.clone(),
        "test-proxy",
    )
    .unwrap();
    let client = SequentialClient::new(orb.object_ref(proxy_ior), field_interface());

    let values: Vec<f64> = (0..17).map(|i| i as f64).collect();
    let expected: f64 = values.iter().sum();
    match client.invoke_f64_seq("global_sum", &values).unwrap() {
        Some(ParValue::F64(sum)) => assert!((sum - expected).abs() < 1e-9),
        other => panic!("unexpected {other:?}"),
    }
    // Distributed-result op through the proxy: full sequence back.
    let mut data = Vec::new();
    for v in &values {
        data.extend_from_slice(&v.to_le_bytes());
    }
    match client
        .invoke(
            "scale",
            &[
                ParValue::Seq {
                    elem_size: 8,
                    data: Bytes::from(data),
                },
                ParValue::F64(10.0),
            ],
        )
        .unwrap()
    {
        Some(ParValue::Seq { elem_size, data }) => {
            assert_eq!(elem_size, 8);
            let got: Vec<f64> = data
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let want: Vec<f64> = values.iter().map(|v| v * 10.0).collect();
            assert_eq!(got, want);
        }
        other => panic!("unexpected {other:?}"),
    }
    // All processes of the parallel component participated.
    assert_eq!(fx.server_upcalls.upcalls.load(Ordering::SeqCst), 6);
    assert_eq!(fx.server_nodes.len(), 3);
}

#[test]
fn threads_sharing_one_handle_never_see_already_completed() {
    // The proxy shape: two callers invoke concurrently on one handle.
    // Each request acknowledges only invocations below the lowest one
    // still in progress, so no replica refuses or forgets an invocation
    // a sibling call still waits for.
    let fx = fixture(OrbProfile::omniorb3(), 2, 1);
    let client = fx.client_ref(0);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let (client, start) = (&client, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..100 {
                    let factor = f64::from(thread * 1000 + i);
                    let local =
                        DistSeq::from_f64_local(6, Distribution::Block, 0, 1, &[1.0; 6]).unwrap();
                    match client.invoke("scale", vec![ParValue::Dist(local), ParValue::F64(factor)])
                    {
                        Ok(Some(ParValue::Dist(d))) => {
                            assert_eq!(d.as_f64().unwrap(), vec![factor; 6])
                        }
                        other => panic!("thread {thread} call {i}: {other:?}"),
                    }
                }
            });
        }
    });
    // Every invocation ran once on each replica.
    assert_eq!(fx.server_upcalls.upcalls.load(Ordering::SeqCst), 2 * 200);
    let metrics = fx.grid.topology().telemetry().metrics();
    assert_eq!(metrics.counter("ccm.dedup.stale_duplicates"), 0);
}

#[test]
fn validation_errors_surface_cleanly() {
    let fx = fixture(OrbProfile::omniorb3(), 2, 1);
    let client = fx.client_ref(0);
    // Wrong arity.
    assert!(matches!(
        client.invoke("global_sum", vec![]),
        Err(GridCcmError::Protocol(_))
    ));
    // Replicated value where a distributed one is expected.
    assert!(matches!(
        client.invoke("global_sum", vec![ParValue::F64(0.0)]),
        Err(GridCcmError::Protocol(_))
    ));
    // Unknown operation.
    assert!(matches!(
        client.invoke("nope", vec![]),
        Err(GridCcmError::Descriptor(_))
    ));
    // Wrong rank metadata on the local block.
    let bad = DistSeq::from_f64_local(4, Distribution::Block, 0, 4, &[0.0]).unwrap();
    assert!(matches!(
        client.invoke("global_sum", vec![ParValue::Dist(bad)]),
        Err(GridCcmError::Distribution(_))
    ));
}
