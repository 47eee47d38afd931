//! End-to-end GridCCM deployment: an assembly with parallel components
//! goes through the GridDeployer — placement, reserved attributes, MPI
//! world bring-up, parallel/proxy wiring, lifecycle.

use bytes::Bytes;
use padico_ccm::assembly::Assembly;
use padico_ccm::component::{PortDesc, PortKind};
use padico_ccm::package::Package;
use padico_core::dist::DistSeq;
use padico_core::error::GridCcmError;
use padico_core::grid_deploy::GridDeployer;
use padico_core::parallel::adapter::{ParArgs, ParCtx, ParallelServant};
use padico_core::parallel::component::{GridCcmComponent, ParallelPort};
use padico_core::parallel::proxy::SequentialClient;
use padico_core::parallel::wire::ParValue;
use padico_core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico_core::Grid;
use padico_mpi::ReduceOp;
use std::sync::Arc;

fn solver_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:App/Solver:1.0".into(),
        ops: vec![OpDef::new(
            "norm",
            vec![ArgDef::new("values", ParamKind::Sequence)],
            Some(ParamKind::Double),
        )],
    }
}

const SOLVER_PAR_XML: &str = r#"
    <parallelism interface="IDL:App/Solver:1.0">
      <operation name="norm">
        <argument index="0" distribution="block"/>
      </operation>
    </parallelism>"#;

struct SolverServant;

impl ParallelServant for SolverServant {
    fn repository_id(&self) -> &str {
        "IDL:App/Solver:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        match op {
            "norm" => {
                let local = args.dist(0)?;
                let partial: f64 = local.as_f64()?.iter().map(|v| v * v).sum();
                let total = match &ctx.comm {
                    Some(comm) => comm.allreduce(ReduceOp::Sum, &[partial])?[0],
                    None => partial,
                };
                Ok(Some(ParValue::F64(total.sqrt())))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

fn solver_plan() -> Arc<InterceptionPlan> {
    Arc::new(InterceptionPlan::compile(&solver_interface(), SOLVER_PAR_XML).unwrap())
}

fn register_solver(grid: &Grid) {
    let plan = solver_plan();
    grid.register_factory("make_solver", move |env| {
        GridCcmComponent::new(
            "Solver",
            "IDL:App/SolverComponent:1.0",
            env.clone(),
            vec![ParallelPort {
                name: "solve".into(),
                plan: Arc::clone(&plan),
                servant: Arc::new(SolverServant),
            }],
            vec![],
        ) as Arc<dyn padico_ccm::CcmComponent>
    });
}

#[test]
fn deploy_parallel_component_and_call_through_proxy_connection() {
    // 4 grid nodes: 3 solver replicas + 1 sequential visualizer that
    // connects to the solver through a GridCCM proxy.
    let grid = Grid::single_cluster(4).unwrap();
    register_solver(&grid);

    // The sequential peer is an ordinary CCM component with a receptacle;
    // reuse GridCcmComponent with no parallel ports as a stand-in shell.
    grid.register_factory("make_vis", |env| {
        GridCcmComponent::new(
            "Visualizer",
            "IDL:App/Vis:1.0",
            env.clone(),
            vec![],
            vec![PortDesc::new(
                "solver",
                PortKind::Receptacle,
                "IDL:App/Solver:1.0",
            )],
        ) as Arc<dyn padico_ccm::CcmComponent>
    });

    let assembly = Assembly::parse(
        r#"<assembly name="sim">
             <component id="solver" package="solver">
               <parallel replicas="3"/>
             </component>
             <component id="vis" package="vis">
               <placement node="n3"/>
             </component>
             <connection id="c">
               <provides component="solver" facet="solve"/>
               <uses component="vis" receptacle="solver"/>
             </connection>
           </assembly>"#,
    )
    .unwrap();
    let packages = [
        Package::new("solver", "1.0", "make_solver"),
        Package::new("vis", "1.0", "make_vis"),
    ];
    let mut deployer = GridDeployer::new(&grid);
    deployer.register_interface(solver_interface(), solver_plan());
    let app = deployer.deploy(&assembly, &packages).unwrap();

    // Replicas landed on three distinct nodes.
    let nodes: Vec<&str> = app
        .replicas("solver")
        .iter()
        .map(|r| r.node.as_str())
        .collect();
    assert_eq!(nodes, vec!["n0", "n1", "n2"]);

    // The visualizer's receptacle now points at a proxy installed next to
    // solver replica 0 (GridCCM's node-hiding). Verify the wiring took:
    // the receptacle is connected (a second connect attempt is refused).
    let vis_node = grid.node_by_name("n3").unwrap();
    let vis = vis_node.container.instance("vis").unwrap();
    let some_ior = app.replicas("solver")[0]
        .component
        .provide_facet("solve")
        .unwrap();
    assert!(
        matches!(
            vis.connect("solver", some_ior),
            Err(padico_ccm::CcmError::AlreadyConnected(_))
        ),
        "receptacle should already hold the proxy connection"
    );

    // Drive the parallel component end-to-end through a proxy of our own
    // (the deployed proxy is held inside the visualizer's receptacle).
    let values: Vec<f64> = (1..=9).map(|i| i as f64).collect();
    let expected = values.iter().map(|v| v * v).sum::<f64>().sqrt();

    let facet_iors: Vec<padico_orb::Ior> = app
        .replicas("solver")
        .iter()
        .map(|r| r.component.provide_facet("solve").unwrap())
        .collect();
    let proxy_ior = padico_core::parallel::proxy::install_proxy(
        &vis_node.env.orb,
        solver_interface(),
        solver_plan(),
        facet_iors,
        "vis-proxy",
    )
    .unwrap();
    let client = SequentialClient::new(vis_node.env.orb.object_ref(proxy_ior), solver_interface());
    match client.invoke_f64_seq("norm", &values).unwrap() {
        Some(ParValue::F64(norm)) => assert!((norm - expected).abs() < 1e-9),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn deploy_parallel_to_parallel_connection() {
    // A 2-replica "driver" component invokes a 3-replica solver through
    // a parallel connection bundle.
    let grid = Grid::single_cluster(5).unwrap();
    register_solver(&grid);

    // The driver is itself a GridCCM component with a receptacle; its
    // upcall reads the bundle and performs the collective invocation.
    let driver_plan = {
        let interface = InterfaceDef {
            repo_id: "IDL:App/Driver:1.0".into(),
            ops: vec![OpDef::new("run", vec![], Some(ParamKind::Double))],
        };
        Arc::new(InterceptionPlan::all_replicated(&interface))
    };

    struct DriverServant {
        component: parking_lot::Mutex<Option<Arc<GridCcmComponent>>>,
    }

    impl ParallelServant for DriverServant {
        fn repository_id(&self) -> &str {
            "IDL:App/Driver:1.0"
        }

        fn invoke_parallel(
            &self,
            op: &str,
            _args: &ParArgs,
            ctx: &ParCtx,
        ) -> Result<Option<ParValue>, GridCcmError> {
            assert_eq!(op, "run");
            let component = self
                .component
                .lock()
                .clone()
                .expect("component backref set by factory");
            let solver = component.parallel_connection("solver", solver_plan())?;
            // Each driver rank owns a block of a 10-element vector.
            let global: Vec<f64> = (0..10).map(|i| i as f64).collect();
            let blob = Bytes::from(
                global
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            );
            let local = DistSeq::from_global(
                8,
                padico_core::dist::Distribution::Block,
                ctx.rank,
                ctx.size,
                &blob,
            )?;
            match solver.invoke("norm", vec![ParValue::Dist(local)])? {
                Some(ParValue::F64(norm)) => Ok(Some(ParValue::F64(norm))),
                other => Err(GridCcmError::Protocol(format!("unexpected {other:?}"))),
            }
        }
    }

    let driver_plan_for_factory = Arc::clone(&driver_plan);
    grid.register_factory("make_driver", move |env| {
        let servant = Arc::new(DriverServant {
            component: parking_lot::Mutex::new(None),
        });
        let component = GridCcmComponent::new(
            "Driver",
            "IDL:App/DriverComponent:1.0",
            env.clone(),
            vec![ParallelPort {
                name: "drive".into(),
                plan: Arc::clone(&driver_plan_for_factory),
                servant: Arc::clone(&servant) as Arc<dyn ParallelServant>,
            }],
            vec![PortDesc::new(
                "solver",
                PortKind::Receptacle,
                "IDL:App/Solver:1.0",
            )],
        );
        *servant.component.lock() = Some(Arc::clone(&component));
        component as Arc<dyn padico_ccm::CcmComponent>
    });

    let assembly = Assembly::parse(
        r#"<assembly name="pipeline">
             <component id="solver" package="solver">
               <parallel replicas="3"/>
             </component>
             <component id="driver" package="driver">
               <parallel replicas="2"/>
             </component>
             <connection id="c">
               <provides component="solver" facet="solve"/>
               <uses component="driver" receptacle="solver"/>
             </connection>
           </assembly>"#,
    )
    .unwrap();
    let packages = [
        Package::new("solver", "1.0", "make_solver"),
        Package::new("driver", "1.0", "make_driver"),
    ];
    let mut deployer = GridDeployer::new(&grid);
    deployer.register_interface(solver_interface(), solver_plan());
    let app = deployer.deploy(&assembly, &packages).unwrap();

    // Drive the two driver replicas collectively through their own
    // derived facets (client of the driver = this test, sequential per
    // replica... the "run" op is replicated, so invoke each replica's
    // facet through a single-rank ParallelRef each on its own thread).
    let driver_iors: Vec<padico_orb::Ior> = app
        .replicas("driver")
        .iter()
        .map(|r| r.component.provide_facet("drive").unwrap())
        .collect();
    let expected = (0..10).map(|i| (i * i) as f64).sum::<f64>().sqrt();
    // The driver op is replicated over 2 replicas; a 1-rank client group
    // reaches both (control coverage) and each runs `run` once.
    let orb = Arc::clone(&grid.node(4).env.orb);
    let refs: Vec<padico_orb::orb::ObjectRef> = driver_iors
        .iter()
        .map(|i| orb.object_ref(i.clone()))
        .collect();
    let client =
        padico_core::parallel::client::ParallelRef::new("test-harness", driver_plan, refs, 0, 1)
            .unwrap();
    match client.invoke("run", vec![]).unwrap() {
        Some(ParValue::F64(norm)) => assert!(
            (norm - expected).abs() < 1e-9,
            "norm {norm} != expected {expected}"
        ),
        other => panic!("unexpected {other:?}"),
    }
}
