//! The paper's §2 motivating application: coupling a chemistry code and a
//! transport code, both parallel, inside one high-performance environment.
//!
//! Two SPMD components run on the grid:
//!
//! * **chemistry** (3 nodes) — computes the chemical product's density
//!   field and exposes it through a parallel facet;
//! * **transport** (2 nodes) — simulates the medium's porosity; each
//!   timestep it pulls the density field from chemistry through a
//!   *parallel connection* (GridCCM redistributes the blocks 3 → 2) and
//!   advances its local state with MPI-internal communication.
//!
//! ```text
//! cargo run --example code_coupling
//! ```

use padico::ccm::assembly::Assembly;
use padico::ccm::component::{PortDesc, PortKind};
use padico::ccm::package::Package;
use padico::core::dist::{DistSeq, Distribution};
use padico::core::error::GridCcmError;
use padico::core::grid_deploy::GridDeployer;
use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelServant};
use padico::core::parallel::component::{GridCcmComponent, ParallelPort};
use padico::core::parallel::wire::ParValue;
use padico::core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico::core::Grid;
use padico::mpi::ReduceOp;
use parking_lot::Mutex;
use std::sync::Arc;

const FIELD_ELEMS: u64 = 1 << 14; // 16 Ki doubles ≈ 128 KiB global field

/// The density-provider interface of the chemistry component.
fn chemistry_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Coupling/Density:1.0".into(),
        ops: vec![
            // Returns the current density field, block-distributed.
            OpDef::new("density", vec![], Some(ParamKind::Sequence)),
            // Advances the chemistry simulation one step.
            OpDef::new("step", vec![ArgDef::new("dt", ParamKind::Double)], None),
        ],
    }
}

const CHEMISTRY_PAR_XML: &str = r#"
    <parallelism interface="IDL:Coupling/Density:1.0">
      <operation name="density">
        <result distribution="block"/>
      </operation>
    </parallelism>"#;

fn chemistry_plan() -> Arc<InterceptionPlan> {
    Arc::new(InterceptionPlan::compile(&chemistry_interface(), CHEMISTRY_PAR_XML).unwrap())
}

/// SPMD chemistry servant: holds a local block of the density field.
struct ChemistryServant {
    field: Mutex<Option<Vec<f64>>>,
}

impl ParallelServant for ChemistryServant {
    fn repository_id(&self) -> &str {
        "IDL:Coupling/Density:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        match op {
            "step" => {
                let dt = args.f64(0)?;
                let mut guard = self.field.lock();
                let local_len =
                    Distribution::Block.local_len(FIELD_ELEMS, ctx.rank, ctx.size) as usize;
                let rank = ctx.rank;
                let field = guard.get_or_insert_with(|| {
                    // Non-uniform initial condition: each rank holds a
                    // different concentration plateau.
                    vec![1.0 + rank as f64; local_len]
                });
                // A toy reaction step: decay plus a neighbour average via
                // MPI (halo exchange stand-in: allreduce of the mean).
                let local_mean: f64 = field.iter().sum::<f64>() / field.len() as f64;
                let global_mean = match &ctx.comm {
                    Some(comm) => {
                        comm.allreduce(ReduceOp::Sum, &[local_mean])?[0] / ctx.size as f64
                    }
                    None => local_mean,
                };
                for v in field.iter_mut() {
                    *v = *v * (1.0 - dt) + global_mean * dt;
                }
                // Simulating the chemistry costs CPU time.
                ctx.clock.advance(50_000); // 50 µs per step per node
                Ok(None)
            }
            "density" => {
                let guard = self.field.lock();
                let local_len =
                    Distribution::Block.local_len(FIELD_ELEMS, ctx.rank, ctx.size) as usize;
                let field = guard
                    .clone()
                    .unwrap_or_else(|| vec![1.0 + ctx.rank as f64; local_len]);
                Ok(Some(ParValue::Dist(DistSeq::from_f64_local(
                    FIELD_ELEMS,
                    Distribution::Block,
                    ctx.rank,
                    ctx.size,
                    &field,
                )?)))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

/// The transport component's own interface (driven by this example).
fn transport_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Coupling/Transport:1.0".into(),
        ops: vec![OpDef::new(
            "advance",
            vec![ArgDef::new("dt", ParamKind::Double)],
            Some(ParamKind::Double), // returns the porosity residual
        )],
    }
}

/// SPMD transport servant: each `advance` pulls the density field from
/// chemistry through the parallel connection and integrates.
struct TransportServant {
    component: Mutex<Option<Arc<GridCcmComponent>>>,
    porosity: Mutex<f64>,
}

impl ParallelServant for TransportServant {
    fn repository_id(&self) -> &str {
        "IDL:Coupling/Transport:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        if op != "advance" {
            return Err(GridCcmError::Protocol(format!("unknown op {op}")));
        }
        let dt = args.f64(0)?;
        let component = self
            .component
            .lock()
            .clone()
            .expect("backref installed by the factory");
        // The paper's Figure 1 arrow: transport pulls density from
        // chemistry. GridCCM redistributes chemistry's 3 blocks onto
        // transport's 2 — all nodes participate, no bottleneck.
        let density = component.parallel_connection("density", chemistry_plan())?;
        let field = match density.invoke("density", vec![])? {
            Some(ParValue::Dist(d)) => d.as_f64()?,
            other => {
                return Err(GridCcmError::Protocol(format!(
                    "unexpected density reply {other:?}"
                )))
            }
        };
        // Toy porosity update + a residual via the internal MPI world.
        let local_residual: f64 = field.iter().map(|v| (v - 1.0).abs()).sum::<f64>() * dt;
        let residual = match &ctx.comm {
            Some(comm) => comm.allreduce(ReduceOp::Sum, &[local_residual])?[0],
            None => local_residual,
        };
        *self.porosity.lock() += residual;
        ctx.clock.advance(30_000); // 30 µs of transport compute
        Ok(Some(ParValue::F64(residual)))
    }
}

fn main() {
    // Five nodes: chemistry on 3, transport on 2.
    let grid = Grid::single_cluster(5).expect("grid boots");

    grid.register_factory("make_chemistry", |env| {
        GridCcmComponent::new(
            "Chemistry",
            "IDL:Coupling/ChemistryComponent:1.0",
            env.clone(),
            vec![ParallelPort {
                name: "density".into(),
                plan: chemistry_plan(),
                servant: Arc::new(ChemistryServant {
                    field: Mutex::new(None),
                }),
            }],
            vec![],
        ) as _
    });
    grid.register_factory("make_transport", |env| {
        let servant = Arc::new(TransportServant {
            component: Mutex::new(None),
            porosity: Mutex::new(0.0),
        });
        let component = GridCcmComponent::new(
            "Transport",
            "IDL:Coupling/TransportComponent:1.0",
            env.clone(),
            vec![ParallelPort {
                name: "advance".into(),
                plan: Arc::new(InterceptionPlan::all_replicated(&transport_interface())),
                servant: Arc::clone(&servant) as _,
            }],
            vec![PortDesc::new(
                "density",
                PortKind::Receptacle,
                "IDL:Coupling/Density:1.0",
            )],
        );
        *servant.component.lock() = Some(Arc::clone(&component));
        component as _
    });

    let assembly = Assembly::parse(
        r#"<assembly name="coupling">
             <component id="chemistry" package="chemistry">
               <parallel replicas="3"/>
             </component>
             <component id="transport" package="transport">
               <parallel replicas="2"/>
             </component>
             <connection id="density-feed">
               <provides component="chemistry" facet="density"/>
               <uses component="transport" receptacle="density"/>
             </connection>
           </assembly>"#,
    )
    .expect("assembly parses");

    let packages = [
        Package::new("chemistry", "1.0", "make_chemistry"),
        Package::new("transport", "1.0", "make_transport"),
    ];
    let mut deployer = GridDeployer::new(&grid);
    deployer.register_interface(chemistry_interface(), chemistry_plan());
    let app = deployer.deploy(&assembly, &packages).expect("deploys");
    println!(
        "deployed: chemistry on {:?}, transport on {:?}",
        app.replicas("chemistry")
            .iter()
            .map(|r| r.node.as_str())
            .collect::<Vec<_>>(),
        app.replicas("transport")
            .iter()
            .map(|r| r.node.as_str())
            .collect::<Vec<_>>()
    );

    // Drive a few coupled timesteps through the transport component's
    // replicated `advance` operation (this example is the sequential
    // "driver" of the coupled simulation).
    let transport_iors: Vec<padico::orb::Ior> = app
        .replicas("transport")
        .iter()
        .map(|r| r.component.provide_facet("advance").unwrap())
        .collect();
    let driver_orb = Arc::clone(&grid.node(0).env.orb);
    let refs = transport_iors
        .into_iter()
        .map(|i| driver_orb.object_ref(i))
        .collect();
    let transport = padico::core::parallel::client::ParallelRef::new(
        "driver",
        Arc::new(InterceptionPlan::all_replicated(&transport_interface())),
        refs,
        0,
        1,
    )
    .unwrap();

    // Also step the chemistry between pulls.
    let chem_iors: Vec<padico::orb::Ior> = app
        .replicas("chemistry")
        .iter()
        .map(|r| r.component.provide_facet("density").unwrap())
        .collect();
    let chem_refs = chem_iors
        .into_iter()
        .map(|i| driver_orb.object_ref(i))
        .collect();
    let chemistry = padico::core::parallel::client::ParallelRef::new(
        "driver-chem",
        chemistry_plan(),
        chem_refs,
        0,
        1,
    )
    .unwrap();

    for step in 0..3 {
        chemistry
            .invoke("step", vec![ParValue::F64(0.1)])
            .expect("chemistry step");
        let residual = match transport
            .invoke("advance", vec![ParValue::F64(0.1)])
            .expect("transport advance")
        {
            Some(ParValue::F64(r)) => r,
            other => panic!("unexpected reply {other:?}"),
        };
        println!("step {step}: porosity residual = {residual:.6}");
    }
    println!(
        "virtual time on the driver node: {:.2} ms",
        grid.node(0).env.tm.clock().now() as f64 / 1e6
    );
}
