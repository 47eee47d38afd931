//! Trace one GridCCM parallel invocation end to end.
//!
//! Boots a 4-node grid, deploys a 3-replica parallel component, drives
//! one invocation through the sequential-client proxy, then dumps what
//! the observability layer saw: the causal span tree (as a Chrome-trace
//! JSON file loadable in Perfetto / `chrome://tracing`), the
//! critical-path breakdown of the invocation's virtual latency, and the
//! metrics registry.
//!
//! ```text
//! cargo run --example trace_invocation [output.json]
//! ```

use bytes::Bytes;
use padico::ccm::assembly::Assembly;
use padico::ccm::package::Package;
use padico::core::dist::DistSeq;
use padico::core::error::GridCcmError;
use padico::core::grid_deploy::GridDeployer;
use padico::core::observability::ObservabilitySnapshot;
use padico::core::parallel::adapter::{ParArgs, ParCtx, ParallelServant};
use padico::core::parallel::component::{GridCcmComponent, ParallelPort};
use padico::core::parallel::wire::ParValue;
use padico::core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico::core::Grid;
use std::sync::Arc;

fn scale_interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Trace/Scale:1.0".into(),
        ops: vec![OpDef::new(
            "scale",
            vec![
                ArgDef::new("v", ParamKind::Sequence),
                ArgDef::new("factor", ParamKind::Double),
            ],
            Some(ParamKind::Sequence),
        )],
    }
}

fn scale_plan() -> Arc<InterceptionPlan> {
    let xml = r#"<parallelism interface="IDL:Trace/Scale:1.0">
        <operation name="scale">
          <argument index="0" distribution="block"/>
          <result distribution="block"/>
        </operation>
    </parallelism>"#;
    Arc::new(InterceptionPlan::compile(&scale_interface(), xml).unwrap())
}

struct ScaleServant;

impl ParallelServant for ScaleServant {
    fn repository_id(&self) -> &str {
        "IDL:Trace/Scale:1.0"
    }

    fn invoke_parallel(
        &self,
        op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        match op {
            "scale" => {
                let local = args.dist(0)?;
                let factor = args.f64(1)?;
                let scaled: Vec<f64> = local.as_f64()?.iter().map(|v| v * factor).collect();
                Ok(Some(ParValue::Dist(DistSeq::from_f64_local(
                    local.global_elems,
                    local.distribution,
                    ctx.rank,
                    ctx.size,
                    &scaled,
                )?)))
            }
            other => Err(GridCcmError::Protocol(format!("unknown op {other}"))),
        }
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_invocation.json".into());

    // Boot the grid and deploy a 3-replica parallel component.
    let grid = Grid::single_cluster(4).expect("grid boots");
    grid.register_factory("make_scale", |env| {
        GridCcmComponent::new(
            "Scale",
            "IDL:Trace/ScaleComponent:1.0",
            env.clone(),
            vec![ParallelPort {
                name: "scale".into(),
                plan: scale_plan(),
                servant: Arc::new(ScaleServant),
            }],
            vec![],
        ) as _
    });
    let assembly = Assembly::parse(
        r#"<assembly name="traced">
             <component id="scale" package="scale"><parallel replicas="3"/></component>
           </assembly>"#,
    )
    .unwrap();
    let mut deployer = GridDeployer::new(&grid);
    deployer.register_interface(scale_interface(), scale_plan());
    let app = deployer
        .deploy(&assembly, &[Package::new("scale", "1.0", "make_scale")])
        .expect("deploys");

    // Drive one parallel invocation from node 3 through the proxy: the
    // argument is block-scattered over the 3 replicas, the result block
    // comes back reassembled.
    let facets: Vec<padico::orb::Ior> = app
        .replicas("scale")
        .iter()
        .map(|r| r.component.provide_facet("scale").unwrap())
        .collect();
    let orb = &grid.node(3).env.orb;
    let proxy = padico::core::parallel::proxy::install_proxy(
        orb,
        scale_interface(),
        scale_plan(),
        facets,
        "scale-proxy",
    )
    .unwrap();
    let client = padico::core::parallel::proxy::SequentialClient::new(
        orb.object_ref(proxy),
        scale_interface(),
    );
    let values: Vec<f64> = (0..96).map(|i| i as f64).collect();
    let mut data = Vec::new();
    for v in &values {
        data.extend_from_slice(&v.to_le_bytes());
    }
    let reply = client
        .invoke(
            "scale",
            &[
                ParValue::Seq {
                    elem_size: 8,
                    data: Bytes::from(data),
                },
                ParValue::F64(2.0),
            ],
        )
        .expect("invocation");
    match reply {
        Some(ParValue::Seq { data, .. }) => {
            assert_eq!(data.len(), 96 * 8);
            println!("scaled 96 doubles across 3 replicas");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // What the observability layer saw.
    let obs = ObservabilitySnapshot::capture(grid.topology());
    let root = obs
        .spans
        .iter()
        .find(|s| s.layer == "ccm.invoke")
        .expect("a traced invocation");
    let trace = obs.trace(root.trace_id);
    let nodes: std::collections::BTreeSet<u32> = trace.iter().map(|s| s.node).collect();
    let layers: std::collections::BTreeSet<&str> = trace.iter().map(|s| s.layer).collect();
    println!(
        "trace {:016x}: {} spans across {} nodes and layers {:?}",
        root.trace_id,
        trace.len(),
        nodes.len(),
        layers
    );

    print!(
        "{}",
        obs.critical_path(root.trace_id, root.span_id)
            .expect("critical path")
            .render()
    );

    std::fs::write(&out_path, padico::util::span::chrome_trace_json(&trace))
        .expect("write trace file");
    println!("wrote {out_path} — load it in Perfetto or chrome://tracing");

    print!("{}", obs.metrics.render());
}
