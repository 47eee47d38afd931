//! The RTI gateway (RTIG): a CORBA servant managing federations.
//!
//! Operations (all CDR over GIOP, like every other service in this
//! reproduction):
//!
//! | op | in | out |
//! |---|---|---|
//! | `create_federation` | name | – |
//! | `join` | federation, federate name, lookahead, ambassador IOR | federate id |
//! | `resign` | federation, federate id | – |
//! | `publish` / `subscribe` | federation, federate id, class | – |
//! | `register_object` | federation, federate id, class, name | object id (subscribers get `discover`) |
//! | `update_attributes` | federation, federate id, object id, attrs, time | – (subscribers get `reflect`) |
//! | `time_advance_request` | federation, federate id, t | – (grant via `time_granted` callback) |

use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::Orb;
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::{Ior, OrbError};
use padico_tm::module::PadicoModule;
use padico_tm::runtime::PadicoTM;
use padico_tm::TmError;
use padico_util::ids::IdGen;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A timestamped attribute set.
pub type AttrSet = Vec<(String, Vec<u8>)>;

pub(crate) fn write_attrs(w: &mut CdrWriter, attrs: &AttrSet) {
    w.write_u32(attrs.len() as u32);
    for (name, value) in attrs {
        w.write_string(name);
        w.write_octet_slice(value);
    }
}

pub(crate) fn read_attrs(r: &mut CdrReader) -> Result<AttrSet, OrbError> {
    let count = r.read_u32()? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.read_string()?;
        let value = r.read_octet_seq()?.to_vec();
        out.push((name, value));
    }
    Ok(out)
}

struct FederateState {
    name: String,
    ambassador: padico_orb::orb::ObjectRef,
    time: f64,
    lookahead: f64,
    pending: Option<f64>,
    subscriptions: HashSet<String>,
}

#[derive(Default)]
struct Federation {
    federates: HashMap<u64, FederateState>,
    /// object id → (class, name, owner federate).
    objects: HashMap<u64, (String, String, u64)>,
}

impl Federation {
    /// The earliest event time federate `j` may still produce.
    fn guarantee(state: &FederateState) -> f64 {
        state.pending.unwrap_or(state.time) + state.lookahead
    }

    /// Grant every pending request allowed by the other federates'
    /// guarantees; returns `(federate id, granted time, ambassador)`.
    fn collect_grants(&mut self) -> Vec<(u64, f64, padico_orb::orb::ObjectRef)> {
        let mut grants = Vec::new();
        loop {
            let mut granted_one = false;
            let ids: Vec<u64> = self.federates.keys().copied().collect();
            for id in &ids {
                let Some(wanted) = self.federates[id].pending else {
                    continue;
                };
                let lbts = self
                    .federates
                    .iter()
                    .filter(|(other, _)| *other != id)
                    .map(|(_, s)| Self::guarantee(s))
                    .fold(f64::INFINITY, f64::min);
                if wanted <= lbts {
                    let state = self.federates.get_mut(id).expect("exists");
                    state.pending = None;
                    state.time = wanted;
                    grants.push((*id, wanted, state.ambassador.clone()));
                    granted_one = true;
                }
            }
            if !granted_one {
                return grants;
            }
        }
    }
}

/// The RTIG servant.
pub struct Rtig {
    orb: Arc<Orb>,
    ids: IdGen,
    federations: Mutex<HashMap<String, Federation>>,
}

impl Rtig {
    fn with_federation<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Federation) -> Result<R, OrbError>,
    ) -> Result<R, OrbError> {
        let mut federations = self.federations.lock();
        let federation = federations
            .get_mut(name)
            .ok_or_else(|| OrbError::System(format!("no federation `{name}`")))?;
        f(federation)
    }

    fn deliver_grants(grants: Vec<(u64, f64, padico_orb::orb::ObjectRef)>) {
        for (_id, time, ambassador) in grants {
            let _ = ambassador
                .request("time_granted")
                .arg_f64(time)
                .invoke_oneway();
        }
    }
}

impl Servant for Rtig {
    fn repository_id(&self) -> &str {
        "IDL:PadicoHLA/Rtig:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "create_federation" => {
                let name = args.read_string()?;
                let mut federations = self.federations.lock();
                if federations.contains_key(&name) {
                    return Err(OrbError::User(format!(
                        "IDL:PadicoHLA/FederationExists:1.0#{name}"
                    )));
                }
                federations.insert(name, Federation::default());
                Ok(())
            }
            "join" => {
                let federation = args.read_string()?;
                let federate_name = args.read_string()?;
                let lookahead = args.read_f64()?;
                let ambassador_ior = Ior::destringify(&args.read_string()?)?;
                let id = self.ids.next();
                let ambassador = self.orb.object_ref(ambassador_ior);
                self.with_federation(&federation, |fed| {
                    fed.federates.insert(
                        id,
                        FederateState {
                            name: federate_name.clone(),
                            ambassador,
                            time: 0.0,
                            lookahead,
                            pending: None,
                            subscriptions: HashSet::new(),
                        },
                    );
                    Ok(())
                })?;
                reply.write_u64(id);
                Ok(())
            }
            "resign" => {
                let federation = args.read_string()?;
                let id = args.read_u64()?;
                let grants = self.with_federation(&federation, |fed| {
                    fed.federates
                        .remove(&id)
                        .ok_or_else(|| OrbError::System(format!("unknown federate {id}")))?;
                    fed.objects.retain(|_, (_, _, owner)| *owner != id);
                    // A departing federate may unblock the others.
                    Ok(fed.collect_grants())
                })?;
                Self::deliver_grants(grants);
                Ok(())
            }
            "publish" | "subscribe" => {
                let federation = args.read_string()?;
                let id = args.read_u64()?;
                let class = args.read_string()?;
                let subscribing = operation == "subscribe";
                self.with_federation(&federation, |fed| {
                    let state = fed
                        .federates
                        .get_mut(&id)
                        .ok_or_else(|| OrbError::System(format!("unknown federate {id}")))?;
                    if subscribing {
                        state.subscriptions.insert(class.clone());
                    }
                    // Publication is implicit bookkeeping here: updates
                    // are validated against object ownership instead.
                    Ok(())
                })
            }
            "register_object" => {
                let federation = args.read_string()?;
                let id = args.read_u64()?;
                let class = args.read_string()?;
                let object_name = args.read_string()?;
                let object_id = self.ids.next();
                let notify = self.with_federation(&federation, |fed| {
                    if !fed.federates.contains_key(&id) {
                        return Err(OrbError::System(format!("unknown federate {id}")));
                    }
                    fed.objects
                        .insert(object_id, (class.clone(), object_name.clone(), id));
                    Ok(fed
                        .federates
                        .iter()
                        .filter(|(other, s)| **other != id && s.subscriptions.contains(&class))
                        .map(|(_, s)| s.ambassador.clone())
                        .collect::<Vec<_>>())
                })?;
                for ambassador in notify {
                    let _ = ambassador
                        .request("discover_object")
                        .arg_u64(object_id)
                        .arg_string(&class)
                        .arg_string(&object_name)
                        .invoke_oneway();
                }
                reply.write_u64(object_id);
                Ok(())
            }
            "update_attributes" => {
                let federation = args.read_string()?;
                let id = args.read_u64()?;
                let object_id = args.read_u64()?;
                let attrs = read_attrs(args)?;
                let time = args.read_f64()?;
                let notify = self.with_federation(&federation, |fed| {
                    let (class, _, owner) = fed
                        .objects
                        .get(&object_id)
                        .ok_or_else(|| OrbError::System(format!("unknown object {object_id}")))?
                        .clone();
                    if owner != id {
                        return Err(OrbError::User(format!(
                            "IDL:PadicoHLA/NotOwner:1.0#object {object_id}"
                        )));
                    }
                    let sender = &fed.federates[&id];
                    let earliest = sender.time + sender.lookahead;
                    if time < earliest {
                        return Err(OrbError::User(format!(
                            "IDL:PadicoHLA/InvalidTimestamp:1.0#{time} < {earliest}"
                        )));
                    }
                    Ok(fed
                        .federates
                        .iter()
                        .filter(|(other, s)| **other != id && s.subscriptions.contains(&class))
                        .map(|(_, s)| s.ambassador.clone())
                        .collect::<Vec<_>>())
                })?;
                for ambassador in notify {
                    let mut req = ambassador.request("reflect_attributes").arg_u64(object_id);
                    write_attrs(req.writer(), &attrs);
                    let _ = req.arg_f64(time).invoke_oneway();
                }
                Ok(())
            }
            "time_advance_request" => {
                let federation = args.read_string()?;
                let id = args.read_u64()?;
                let t = args.read_f64()?;
                let grants = self.with_federation(&federation, |fed| {
                    let state = fed
                        .federates
                        .get_mut(&id)
                        .ok_or_else(|| OrbError::System(format!("unknown federate {id}")))?;
                    if t < state.time {
                        return Err(OrbError::User(format!(
                            "IDL:PadicoHLA/TimeRegression:1.0#{t} < {}",
                            state.time
                        )));
                    }
                    state.pending = Some(t);
                    Ok(fed.collect_grants())
                })?;
                Self::deliver_grants(grants);
                Ok(())
            }
            "federate_names" => {
                let federation = args.read_string()?;
                let names = self.with_federation(&federation, |fed| {
                    let mut names: Vec<String> =
                        fed.federates.values().map(|s| s.name.clone()).collect();
                    names.sort();
                    Ok(names)
                })?;
                reply.write_u32(names.len() as u32);
                for n in &names {
                    reply.write_string(n);
                }
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Start an RTIG on an ORB; returns its IOR (bind it in naming for
/// discovery).
pub fn start_rtig(orb: &Arc<Orb>) -> Ior {
    orb.activate(Arc::new(Rtig {
        orb: Arc::clone(orb),
        ids: IdGen::new(),
        federations: Mutex::new(HashMap::new()),
    }))
}

/// The loadable middleware module.
pub struct HlaModule;

impl PadicoModule for HlaModule {
    fn name(&self) -> &str {
        "hla.certi"
    }

    fn init(&self, _tm: &Arc<PadicoTM>) -> Result<(), TmError> {
        Ok(())
    }
}
