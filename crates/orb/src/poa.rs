//! Portable Object Adapter: servant registry and dispatch.
//!
//! Servants implement [`Servant`]; the [`Poa`] assigns object keys,
//! produces [`crate::ior::Ior`]s, and routes incoming requests. The etherealize
//! path (deactivation) is supported so components can be removed at
//! runtime, which CCM containers rely on.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

use crate::cdr::{CdrReader, CdrWriter};
use crate::error::OrbError;
use crate::ior::ObjectKey;
use padico_util::ids::IdGen;
use padico_util::ids::NodeId;
use padico_util::simtime::SimClock;
use padico_util::Telemetry;

/// Context a servant sees while dispatching.
pub struct ServerCtx {
    /// Node the servant runs on.
    pub node: NodeId,
    /// The node's virtual clock (servants charge their own compute time).
    pub clock: SimClock,
    /// Requesting node (from the connection).
    pub caller: NodeId,
    /// The serving world's telemetry (servants adopting a shipped span
    /// context record into it).
    pub telemetry: Arc<Telemetry>,
}

/// A CORBA-style servant: dispatches operations by name, reading arguments
/// from a CDR stream and writing results to another.
pub trait Servant: Send + Sync {
    /// Interface repository id, e.g. `"IDL:Coupling/Density:1.0"`.
    fn repository_id(&self) -> &str;

    /// Handle one invocation.
    ///
    /// Returning `Err(OrbError::User(..))` maps to a GIOP user exception;
    /// other errors map to system exceptions.
    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        ctx: &ServerCtx,
    ) -> Result<(), OrbError>;
}

/// The object adapter of one ORB.
#[derive(Default)]
pub struct Poa {
    keys: IdGen,
    active: RwLock<HashMap<ObjectKey, Arc<dyn Servant>>>,
}

impl Poa {
    pub fn new() -> Self {
        Self::default()
    }

    /// Activate a servant; returns its object key.
    pub fn activate(&self, servant: Arc<dyn Servant>) -> ObjectKey {
        let key = ObjectKey(self.keys.next());
        self.active.write().insert(key, servant);
        key
    }

    /// Deactivate (etherealize) an object.
    pub fn deactivate(&self, key: ObjectKey) -> Result<(), OrbError> {
        self.active
            .write()
            .remove(&key)
            .map(|_| ())
            .ok_or_else(|| OrbError::ObjectNotExist(key.to_string()))
    }

    /// Look up the servant for a key.
    pub fn resolve(&self, key: ObjectKey) -> Result<Arc<dyn Servant>, OrbError> {
        self.active
            .read()
            .get(&key)
            .cloned()
            .ok_or_else(|| OrbError::ObjectNotExist(key.to_string()))
    }

    /// Whether an object is active (LocateRequest handling).
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.active.read().contains_key(&key)
    }

    /// Number of active objects.
    pub fn active_count(&self) -> usize {
        self.active.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MarshalStrategy;

    struct Echo;

    impl Servant for Echo {
        fn repository_id(&self) -> &str {
            "IDL:Test/Echo:1.0"
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
                    let v = args.read_i32()?;
                    reply.write_i32(v);
                    Ok(())
                }
                other => Err(OrbError::BadOperation(other.into())),
            }
        }
    }

    fn ctx() -> ServerCtx {
        ServerCtx {
            node: NodeId(0),
            clock: SimClock::new(),
            caller: NodeId(1),
            telemetry: Telemetry::new(),
        }
    }

    #[test]
    fn activate_resolve_dispatch_deactivate() {
        let poa = Poa::new();
        let key = poa.activate(Arc::new(Echo));
        assert!(poa.contains(key));
        assert_eq!(poa.active_count(), 1);

        let servant = poa.resolve(key).unwrap();
        let mut args = CdrWriter::new(MarshalStrategy::Copying);
        args.write_i32(77);
        let mut reader = CdrReader::new(&args.finish());
        let mut reply = CdrWriter::new(MarshalStrategy::Copying);
        servant.dispatch("echo", &mut reader, &mut reply, &ctx()).unwrap();
        let mut out = CdrReader::new(&reply.finish());
        assert_eq!(out.read_i32().unwrap(), 77);

        poa.deactivate(key).unwrap();
        assert!(!poa.contains(key));
        assert!(matches!(
            poa.resolve(key),
            Err(OrbError::ObjectNotExist(_))
        ));
        assert!(poa.deactivate(key).is_err());
    }

    #[test]
    fn unknown_operation_is_bad_operation() {
        let poa = Poa::new();
        let key = poa.activate(Arc::new(Echo));
        let servant = poa.resolve(key).unwrap();
        let empty = CdrWriter::new(MarshalStrategy::Copying).finish();
        let mut reader = CdrReader::new(&empty);
        let mut reply = CdrWriter::new(MarshalStrategy::Copying);
        assert!(matches!(
            servant.dispatch("no_such_op", &mut reader, &mut reply, &ctx()),
            Err(OrbError::BadOperation(_))
        ));
    }

    #[test]
    fn keys_are_unique() {
        let poa = Poa::new();
        let a = poa.activate(Arc::new(Echo));
        let b = poa.activate(Arc::new(Echo));
        assert_ne!(a, b);
        assert_eq!(poa.active_count(), 2);
    }
}
