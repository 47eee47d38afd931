//! A minimal naming service.
//!
//! The paper's "machine discovery" scenario needs a place where node
//! daemons advertise themselves and deployers look them up. This is a
//! flat name → IOR registry exposed as a CORBA object (a deliberately
//! small cousin of the CORBA Naming Service).

use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{ObjectRef, Orb};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::{Ior, OrbError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::CcmError;

/// The naming registry servant.
#[derive(Default)]
pub struct NamingServant {
    entries: Mutex<BTreeMap<String, String>>,
}

impl Servant for NamingServant {
    fn repository_id(&self) -> &str {
        "IDL:PadicoCCM/Naming:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "bind" => {
                let name = args.read_string()?;
                let ior = args.read_string()?;
                let mut entries = self.entries.lock();
                if entries.contains_key(&name) {
                    return Err(CcmError::AlreadyConnected(name).to_wire());
                }
                entries.insert(name, ior);
                Ok(())
            }
            "rebind" => {
                let name = args.read_string()?;
                let ior = args.read_string()?;
                self.entries.lock().insert(name, ior);
                Ok(())
            }
            "unbind" => {
                let name = args.read_string()?;
                match self.entries.lock().remove(&name) {
                    Some(_) => Ok(()),
                    None => Err(CcmError::NotFound(name).to_wire()),
                }
            }
            "resolve" => {
                let name = args.read_string()?;
                match self.entries.lock().get(&name) {
                    Some(ior) => {
                        reply.write_string(ior);
                        Ok(())
                    }
                    None => Err(CcmError::NotFound(name).to_wire()),
                }
            }
            "list" => {
                let prefix = args.read_string()?;
                let entries = self.entries.lock();
                let names: Vec<&String> =
                    entries.keys().filter(|k| k.starts_with(&prefix)).collect();
                reply.write_u32(names.len() as u32);
                for n in names {
                    reply.write_string(n);
                }
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Start a naming service on an ORB; returns its IOR.
pub fn start_naming(orb: &Arc<Orb>) -> Ior {
    orb.activate(Arc::new(NamingServant::default()))
}

/// Client handle to a naming service.
#[derive(Clone, Debug)]
pub struct NamingClient {
    obj: ObjectRef,
}

impl NamingClient {
    pub fn new(obj: ObjectRef) -> NamingClient {
        NamingClient { obj }
    }

    /// Bind a fresh name (fails on duplicates).
    pub fn bind(&self, name: &str, ior: &Ior) -> Result<(), CcmError> {
        self.obj
            .request("bind")
            .arg_string(name)
            .arg_string(&ior.stringify())
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    /// Bind or replace.
    pub fn rebind(&self, name: &str, ior: &Ior) -> Result<(), CcmError> {
        self.obj
            .request("rebind")
            .arg_string(name)
            .arg_string(&ior.stringify())
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn unbind(&self, name: &str) -> Result<(), CcmError> {
        self.obj
            .request("unbind")
            .arg_string(name)
            .invoke()
            .map(|_| ())
            .map_err(CcmError::from)
    }

    pub fn resolve(&self, name: &str) -> Result<Ior, CcmError> {
        let mut reply = self
            .obj
            .request("resolve")
            .arg_string(name)
            .invoke()
            .map_err(CcmError::from)?;
        Ok(Ior::destringify(
            &reply.read_string().map_err(CcmError::from)?,
        )?)
    }

    /// Names bound under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>, CcmError> {
        let mut reply = self
            .obj
            .request("list")
            .arg_string(prefix)
            .invoke()
            .map_err(CcmError::from)?;
        let count = reply.read_u32().map_err(CcmError::from)? as usize;
        let mut names = Vec::with_capacity(count);
        for _ in 0..count {
            names.push(reply.read_string().map_err(CcmError::from)?);
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::two_containers;
    use padico_util::ids::NodeId;

    fn fake_ior(n: u32) -> Ior {
        Ior {
            type_id: "IDL:X:1.0".into(),
            node: NodeId(n),
            endpoint: "giop:x".into(),
            key: padico_orb::ObjectKey(u64::from(n)),
        }
    }

    #[test]
    fn bind_resolve_list_unbind() {
        let (c0, c1) = two_containers();
        let naming_ior = start_naming(c0.orb());
        let client = NamingClient::new(c1.orb().object_ref(naming_ior));

        client.bind("daemon/a0", &fake_ior(1)).unwrap();
        client.bind("daemon/a1", &fake_ior(2)).unwrap();
        client.bind("service/naming", &fake_ior(3)).unwrap();

        assert_eq!(client.resolve("daemon/a1").unwrap(), fake_ior(2));
        assert_eq!(
            client.list("daemon/").unwrap(),
            vec!["daemon/a0".to_string(), "daemon/a1".to_string()]
        );
        assert_eq!(client.list("").unwrap().len(), 3);

        // Duplicate bind refused, rebind allowed.
        assert!(matches!(
            client.bind("daemon/a0", &fake_ior(9)),
            Err(CcmError::Remote(_))
        ));
        client.rebind("daemon/a0", &fake_ior(9)).unwrap();
        assert_eq!(client.resolve("daemon/a0").unwrap(), fake_ior(9));

        client.unbind("daemon/a0").unwrap();
        assert!(matches!(
            client.resolve("daemon/a0"),
            Err(CcmError::Remote(_))
        ));
        assert!(matches!(
            client.unbind("daemon/a0"),
            Err(CcmError::Remote(_))
        ));
    }
}
