//! The paper's §2 deployment scenarios, exercised end to end:
//!
//! * **communication flexibility** — the same two components deployed on
//!   (a) two parallel machines coupled by a WAN and (b) one parallel
//!   machine; PadicoTM's selector transparently uses the WAN in the first
//!   case and the Myrinet SAN (or shared memory) in the second;
//! * **machine discovery** — the deployer finds nodes through the naming
//!   service and inspects their properties;
//! * **localization constraints** — company X's patented chemistry code
//!   may only run on company X's machines;
//! * **communication security** — traffic crossing the untrusted WAN is
//!   encrypted; traffic inside a trusted machine is not (the §6
//!   optimization), visible in the virtual-time cost.
//!
//! ```text
//! cargo run --example deployment_scenarios
//! ```

use padico::ccm::assembly::Assembly;
use padico::ccm::component::{CcmComponent, ComponentDescriptor, PortDesc, PortKind, PortRegistry};
use padico::ccm::package::Package;
use padico::ccm::CcmError;
use padico::core::Grid;
use padico::fabric::{FabricKind, Paradigm};
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::selector::FabricChoice;
use std::sync::Arc;

/// Minimal field-exchange component used by every scenario.
struct FieldComponent {
    registry: Arc<PortRegistry>,
}

struct FieldFacet;

impl Servant for FieldFacet {
    fn repository_id(&self) -> &str {
        "IDL:Scenario/Field:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "exchange" => {
                let blob = args.read_octet_seq()?;
                reply.write_octet_seq(blob);
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

impl CcmComponent for FieldComponent {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor {
            name: "Field".into(),
            repo_id: "IDL:Scenario/FieldComponent:1.0".into(),
            ports: vec![
                PortDesc::new("field", PortKind::Facet, "IDL:Scenario/Field:1.0"),
                PortDesc::new("peer", PortKind::Receptacle, "IDL:Scenario/Field:1.0"),
            ],
        }
    }

    fn registry(&self) -> &Arc<PortRegistry> {
        &self.registry
    }

    fn facet_servant(&self, name: &str) -> Result<Arc<dyn Servant>, CcmError> {
        match name {
            "field" => Ok(Arc::new(FieldFacet)),
            other => Err(CcmError::NoSuchPort(other.into())),
        }
    }
}

const ASSEMBLY_TWO_MACHINES: &str = r#"
    <assembly name="coupling">
      <component id="chem" package="chemistry">
        <placement machine="cluster-a"/>
      </component>
      <component id="trans" package="transport">
        <placement machine="cluster-b"/>
      </component>
      <connection id="c">
        <provides component="chem" facet="field"/>
        <uses component="trans" receptacle="peer"/>
      </connection>
    </assembly>"#;

const ASSEMBLY_ONE_MACHINE: &str = r#"
    <assembly name="coupling">
      <component id="chem" package="chemistry"/>
      <component id="trans" package="transport"/>
      <connection id="c">
        <provides component="chem" facet="field"/>
        <uses component="trans" receptacle="peer"/>
      </connection>
    </assembly>"#;

fn deploy_and_exchange(grid: &Grid, assembly_xml: &str) -> (String, String, f64) {
    grid.register_factory("make_field", |_env| {
        Arc::new(FieldComponent {
            registry: Arc::new(PortRegistry::new()),
        }) as _
    });
    let packages = [
        Package::new("chemistry", "1.0", "make_field"),
        Package::new("transport", "1.0", "make_field"),
    ];
    let assembly = Assembly::parse(assembly_xml).unwrap();
    let app = grid.deployer().deploy(&assembly, &packages).unwrap();
    let chem_node = app.replicas("chem")[0].node.clone();
    let trans_node = app.replicas("trans")[0].node.clone();

    // The transport component exchanges a field block with chemistry
    // through its connected receptacle; we drive the same call from the
    // transport node to measure the route cost.
    let facet = app
        .component("chem")
        .unwrap()
        .provide_facet("field")
        .unwrap();
    let trans_env = &grid.node_by_name(&trans_node).unwrap().env;
    let obj = trans_env.orb.object_ref(facet);
    let blob = bytes::Bytes::from(vec![5u8; 256 << 10]);
    let clock = trans_env.tm.clock();
    let start = clock.now();
    let mut reply = obj
        .request("exchange")
        .arg_octet_seq(blob)
        .invoke()
        .unwrap();
    reply.read_octet_seq().unwrap();
    let ms = (clock.now() - start) as f64 / 1e6;
    (chem_node, trans_node, ms)
}

fn main() {
    // --- Scenario A: two parallel machines coupled by a WAN. -----------
    let (topo_a, cluster_a, cluster_b) = padico::fabric::topology::two_clusters_wan(2);
    println!(
        "scenario A: clusters {:?} + {:?} coupled by a WAN",
        cluster_a, cluster_b
    );
    // Machine discovery first (paper: "a mechanism to find machines").
    let grid_a = Grid::boot(topo_a, OrbProfile::omniorb3(), FabricChoice::Auto).unwrap();
    for daemon in grid_a.deployer().discover().unwrap() {
        println!(
            "  discovered {} on machine {} (trusted: {})",
            daemon.props.name, daemon.props.machine, daemon.props.trusted
        );
    }
    let (chem, trans, ms) = deploy_and_exchange(&grid_a, ASSEMBLY_TWO_MACHINES);
    // Which fabric does the selector pick between the two components?
    let topo = grid_a.topology();
    let chem_id = grid_a.node_by_name(&chem).unwrap().env.tm.node();
    let trans_id = grid_a.node_by_name(&trans).unwrap().env.tm.node();
    let route = padico::tm::selector::select(
        topo,
        &[chem_id, trans_id],
        Paradigm::Distributed,
        FabricChoice::Auto,
    )
    .unwrap();
    println!(
        "  chem on {chem}, trans on {trans}: route = {} (encrypted: {}), \
         256 KiB exchange took {ms:.2} ms",
        route.fabric.model().name,
        route.encrypt
    );
    assert_eq!(route.fabric.kind(), FabricKind::Wan);
    assert!(route.encrypt, "WAN traffic must be secured");

    // --- Scenario B: one parallel machine, same assembly. --------------
    let (topo_b, _nodes) = padico::fabric::topology::single_cluster(4);
    let grid_b = Grid::boot(topo_b, OrbProfile::omniorb3(), FabricChoice::Auto).unwrap();
    println!("scenario B: one 4-node parallel machine");
    let (chem, trans, ms) = deploy_and_exchange(&grid_b, ASSEMBLY_ONE_MACHINE);
    let chem_id = grid_b.node_by_name(&chem).unwrap().env.tm.node();
    let trans_id = grid_b.node_by_name(&trans).unwrap().env.tm.node();
    let route = padico::tm::selector::select(
        grid_b.topology(),
        &[chem_id, trans_id],
        Paradigm::Distributed,
        FabricChoice::Auto,
    )
    .unwrap();
    println!(
        "  chem on {chem}, trans on {trans}: route = {} (encrypted: {}), \
         256 KiB exchange took {ms:.2} ms",
        route.fabric.model().name,
        route.encrypt
    );
    assert!(!route.encrypt, "intra-machine traffic stays cleartext");
    println!("  same binaries, same assembly — only the placement changed.");

    // --- Scenario C: localization constraint. ---------------------------
    println!("scenario C: company X's chemistry code is pinned to cluster-a");
    let (topo_c, _, _) = padico::fabric::topology::two_clusters_wan(1);
    let grid_c = Grid::boot(topo_c, OrbProfile::omniorb3(), FabricChoice::Auto).unwrap();
    grid_c.register_factory("make_field", |_env| {
        Arc::new(FieldComponent {
            registry: Arc::new(PortRegistry::new()),
        }) as _
    });
    let pinned =
        Package::new("chemistry", "1.0", "make_field").restrict_to_machines(&["cluster-a"]);
    // Trying to force it onto cluster-b fails with a localization error...
    let bad = Assembly::parse(
        r#"<assembly name="bad">
             <component id="chem" package="chemistry">
               <placement machine="cluster-b"/>
             </component>
           </assembly>"#,
    )
    .unwrap();
    match grid_c
        .deployer()
        .deploy(&bad, std::slice::from_ref(&pinned))
    {
        Err(e) => println!("  forced misplacement refused: {e}"),
        Ok(_) => unreachable!(),
    }
    // ...while an unconstrained placement lands it on company X's machine.
    let good = Assembly::parse(
        r#"<assembly name="good">
             <component id="chem" package="chemistry"/>
           </assembly>"#,
    )
    .unwrap();
    let app = grid_c.deployer().deploy(&good, &[pinned]).unwrap();
    println!(
        "  automatic placement honoured the constraint: chem on {}",
        app.replicas("chem")[0].node
    );
}
