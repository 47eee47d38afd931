//! Proxies: sequential clients for parallel components.
//!
//! "The nodes of a parallel component are not directly exposed to other
//! components. We introduced proxies to hide the nodes" (paper §4.2.1).
//! A [`SequentialProxy`] is a CORBA servant exposing the **original**
//! interface of a parallel component; behind it, a single-rank
//! [`ParallelRef`] scatters the arguments over the replicas and gathers
//! the result, so an unmodified sequential component can be connected to
//! a parallel one — the interoperability requirement of §4.2.1.
//!
//! Wire convention for sequence parameters on the proxy's *public* side:
//! `u32 elem_size` followed by `sequence<octet>` (a self-describing form
//! chosen so the proxy can rebuild typed distributed sequences without an
//! interface repository). [`SequentialClient`] builds matching calls.

use bytes::Bytes;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{ObjectRef, Orb};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::{Ior, OrbError};
use std::sync::Arc;

use crate::dist::{DistSeq, Distribution};
use crate::error::GridCcmError;
use crate::parallel::client::ParallelRef;
use crate::parallel::wire::ParValue;
use crate::paridl::{InterceptionPlan, InterfaceDef, ParamKind};

/// The proxy servant.
pub struct SequentialProxy {
    interface: InterfaceDef,
    par_ref: ParallelRef,
}

impl SequentialProxy {
    pub fn new(
        interface: InterfaceDef,
        plan: Arc<InterceptionPlan>,
        replicas: Vec<ObjectRef>,
        proxy_name: impl Into<String>,
    ) -> Result<SequentialProxy, GridCcmError> {
        let par_ref = ParallelRef::new(proxy_name, plan, replicas, 0, 1)?;
        Ok(SequentialProxy { interface, par_ref })
    }

    fn read_value(
        kind: ParamKind,
        distributed: bool,
        args: &mut CdrReader,
    ) -> Result<ParValue, OrbError> {
        Ok(match kind {
            ParamKind::Long => ParValue::I32(args.read_i32()?),
            ParamKind::ULong => ParValue::U32(args.read_u32()?),
            ParamKind::LongLong => ParValue::U64(args.read_u64()?),
            ParamKind::Double => ParValue::F64(args.read_f64()?),
            ParamKind::Boolean => ParValue::Bool(args.read_bool()?),
            ParamKind::Str => ParValue::Str(args.read_string()?),
            ParamKind::Sequence => {
                let elem_size = args.read_u32()?;
                let data = args.read_octet_seq()?;
                if distributed {
                    let d = DistSeq::from_global(elem_size, Distribution::Block, 0, 1, &data)
                        .map_err(|e| OrbError::Marshal(e.to_string()))?;
                    ParValue::Dist(d)
                } else {
                    ParValue::Seq { elem_size, data }
                }
            }
        })
    }

    fn write_value(v: &ParValue, reply: &mut CdrWriter) -> Result<(), OrbError> {
        match v {
            ParValue::I32(x) => reply.write_i32(*x),
            ParValue::U32(x) => reply.write_u32(*x),
            ParValue::U64(x) => reply.write_u64(*x),
            ParValue::F64(x) => reply.write_f64(*x),
            ParValue::Bool(x) => reply.write_bool(*x),
            ParValue::Str(x) => reply.write_string(x),
            ParValue::Seq { elem_size, data } => {
                reply.write_u32(*elem_size);
                reply.write_octet_seq(data.clone());
            }
            ParValue::Dist(d) => {
                // A single-rank gather: the local block IS the global
                // sequence.
                reply.write_u32(d.elem_size);
                reply.write_octet_seq(d.data.clone());
            }
        }
        Ok(())
    }
}

impl Servant for SequentialProxy {
    fn repository_id(&self) -> &str {
        &self.interface.repo_id
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        let op_def = self
            .interface
            .op(operation)
            .ok_or_else(|| OrbError::BadOperation(operation.into()))?;
        let op_plan = self
            .par_ref
            .plan()
            .op(operation)
            .map_err(|e| OrbError::BadOperation(e.to_string()))?
            .clone();
        let mut values = Vec::with_capacity(op_def.args.len());
        for (index, arg) in op_def.args.iter().enumerate() {
            let distributed = op_plan.arg_dists[index].is_some();
            values.push(Self::read_value(arg.kind, distributed, args)?);
        }
        let result = self
            .par_ref
            .invoke(operation, values)
            .map_err(|e| OrbError::System(format!("GridCCM proxy: {e}")))?;
        match (result, op_def.result) {
            (None, None) => Ok(()),
            (Some(v), Some(_)) => Self::write_value(&v, reply),
            (None, Some(_)) => Err(OrbError::System(
                "parallel component returned void for a non-void operation".into(),
            )),
            (Some(_), None) => Err(OrbError::System(
                "parallel component returned a value for a void operation".into(),
            )),
        }
    }
}

/// Activate a proxy on an ORB; the returned IOR can be connected to any
/// plain CCM receptacle.
pub fn install_proxy(
    orb: &Arc<Orb>,
    interface: InterfaceDef,
    plan: Arc<InterceptionPlan>,
    replica_iors: Vec<Ior>,
    proxy_name: &str,
) -> Result<Ior, GridCcmError> {
    let replicas = replica_iors
        .into_iter()
        .map(|ior| orb.object_ref(ior))
        .collect();
    let proxy = SequentialProxy::new(interface, plan, replicas, proxy_name)?;
    Ok(orb.activate(Arc::new(proxy)))
}

/// Helper for sequential callers: builds proxy-convention invocations.
pub struct SequentialClient {
    obj: ObjectRef,
    interface: InterfaceDef,
}

impl SequentialClient {
    pub fn new(obj: ObjectRef, interface: InterfaceDef) -> SequentialClient {
        SequentialClient { obj, interface }
    }

    /// Invoke `op` with the given values (sequences as
    /// `ParValue::Seq`/`Dist` are written in the proxy convention).
    pub fn invoke(&self, op: &str, args: &[ParValue]) -> Result<Option<ParValue>, GridCcmError> {
        let op_def = self
            .interface
            .op(op)
            .ok_or_else(|| GridCcmError::Protocol(format!("unknown operation `{op}`")))?
            .clone();
        if op_def.args.len() != args.len() {
            return Err(GridCcmError::Protocol(format!(
                "operation `{op}` takes {} arguments, got {}",
                op_def.args.len(),
                args.len()
            )));
        }
        let mut request = self.obj.request(op);
        let w = request.writer();
        for (def, v) in op_def.args.iter().zip(args) {
            match (def.kind, v) {
                (ParamKind::Long, ParValue::I32(x)) => w.write_i32(*x),
                (ParamKind::ULong, ParValue::U32(x)) => w.write_u32(*x),
                (ParamKind::LongLong, ParValue::U64(x)) => w.write_u64(*x),
                (ParamKind::Double, ParValue::F64(x)) => w.write_f64(*x),
                (ParamKind::Boolean, ParValue::Bool(x)) => w.write_bool(*x),
                (ParamKind::Str, ParValue::Str(x)) => w.write_string(x),
                (ParamKind::Sequence, ParValue::Seq { elem_size, data }) => {
                    w.write_u32(*elem_size);
                    w.write_octet_seq(data.clone());
                }
                (ParamKind::Sequence, ParValue::Dist(d)) => {
                    w.write_u32(d.elem_size);
                    w.write_octet_seq(d.data.clone());
                }
                (kind, value) => {
                    return Err(GridCcmError::Protocol(format!(
                        "argument `{}` expects {kind:?}, got {value:?}",
                        def.name
                    )))
                }
            }
        }
        let mut reply = request.invoke()?;
        match op_def.result {
            None => Ok(None),
            Some(kind) => Ok(Some(match kind {
                ParamKind::Long => ParValue::I32(reply.read_i32()?),
                ParamKind::ULong => ParValue::U32(reply.read_u32()?),
                ParamKind::LongLong => ParValue::U64(reply.read_u64()?),
                ParamKind::Double => ParValue::F64(reply.read_f64()?),
                ParamKind::Boolean => ParValue::Bool(reply.read_bool()?),
                ParamKind::Str => ParValue::Str(reply.read_string()?),
                ParamKind::Sequence => {
                    let elem_size = reply.read_u32()?;
                    let data = reply.read_octet_seq()?;
                    ParValue::Seq { elem_size, data }
                }
            })),
        }
    }

    /// Convenience: invoke with a f64 sequence argument.
    pub fn invoke_f64_seq(
        &self,
        op: &str,
        values: &[f64],
    ) -> Result<Option<ParValue>, GridCcmError> {
        let mut data = Vec::with_capacity(values.len() * 8);
        for v in values {
            data.extend_from_slice(&v.to_le_bytes());
        }
        self.invoke(
            op,
            &[ParValue::Seq {
                elem_size: 8,
                data: Bytes::from(data),
            }],
        )
    }
}
