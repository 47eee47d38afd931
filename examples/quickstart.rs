//! Quickstart: boot a simulated grid, deploy a two-component assembly
//! through the CCM deployment engine, and invoke across nodes.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use padico::ccm::assembly::Assembly;
use padico::ccm::component::{CcmComponent, ComponentDescriptor, PortDesc, PortKind, PortRegistry};
use padico::ccm::package::Package;
use padico::ccm::CcmError;
use padico::core::Grid;
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::OrbError;
use std::sync::Arc;

/// A component providing one facet: `greeter`, with a `greet(name)` op.
struct Greeter {
    registry: Arc<PortRegistry>,
}

struct GreeterFacet;

impl Servant for GreeterFacet {
    fn repository_id(&self) -> &str {
        "IDL:Quickstart/Greeter:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "greet" => {
                let name = args.read_string()?;
                reply.write_string(&format!("hello {name}, from {}", ctx.node));
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

impl CcmComponent for Greeter {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor {
            name: "Greeter".into(),
            repo_id: "IDL:Quickstart/GreeterComponent:1.0".into(),
            ports: vec![PortDesc::new(
                "greeter",
                PortKind::Facet,
                "IDL:Quickstart/Greeter:1.0",
            )],
        }
    }

    fn registry(&self) -> &Arc<PortRegistry> {
        &self.registry
    }

    fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, CcmError> {
        match name {
            "greeter" => Ok(Arc::new(GreeterFacet)),
            other => Err(CcmError::NoSuchPort(other.into())),
        }
    }
}

fn main() {
    // 1. Boot a 3-node grid: PadicoTM runtime, ORB, container and node
    //    daemon on every node, naming service on node 0.
    let grid = Grid::single_cluster(3).expect("grid boots");
    println!("grid up: {} nodes", grid.len());

    // 2. Register the component factory (the stand-in for a shipped
    //    binary's entry point) and describe the deployment in XML.
    grid.register_factory("make_greeter", |_env| {
        Arc::new(Greeter {
            registry: Arc::new(PortRegistry::new()),
        })
    });
    let assembly = Assembly::parse(
        r#"<assembly name="hello">
             <component id="greeter" package="greeter">
               <placement node="n2"/>
             </component>
           </assembly>"#,
    )
    .expect("assembly parses");
    let package = Package::new("greeter", "1.0", "make_greeter");

    // 3. Deploy: machine discovery, package upload, instantiation,
    //    lifecycle — all driven through CORBA calls.
    let app = grid
        .deployer()
        .deploy(&assembly, &[package])
        .expect("deploys");
    println!(
        "deployed `{}` on {}",
        app.name,
        app.replicas("greeter")[0].node
    );

    // 4. Invoke the facet from a different node.
    let facet_ior = app
        .component("greeter")
        .unwrap()
        .provide_facet("greeter")
        .expect("facet");
    let obj = grid.node(0).env.orb.object_ref(facet_ior);
    let mut reply = obj
        .request("greet")
        .arg_string("grid")
        .invoke()
        .expect("invocation");
    println!("reply: {}", reply.read_string().unwrap());

    // 5. Virtual time tells us what the exchange cost.
    println!(
        "virtual time spent on node 0: {:.1} µs",
        grid.node(0).env.tm.clock().now() as f64 / 1000.0
    );
}
