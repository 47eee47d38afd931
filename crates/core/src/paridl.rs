//! The GridCCM "compiler" (paper Figure 5).
//!
//! GridCCM generates its interception layer from two inputs: the IDL
//! description of the component interface and an **XML description of the
//! component parallelism**. The IDL itself is never modified; instead a
//! *new, derived* IDL interface is generated in which distributed
//! arguments are replaced by their distributed data types (`Matrix` →
//! `MatrixDis`, Figure 4), and the GridCCM layers use that derived
//! interface internally.
//!
//! This module is the runtime equivalent of that compiler: it consumes an
//! [`InterfaceDef`] plus the parallelism XML and emits an
//! [`InterceptionPlan`] — the metadata both interception layers
//! (client-side scatter, server-side gather) execute — together with the
//! derived interface description.
//!
//! ```xml
//! <parallelism interface="IDL:Coupling/Field:1.0">
//!   <operation name="set_density">
//!     <argument index="0" distribution="block"/>
//!     <result distribution="block"/>
//!   </operation>
//! </parallelism>
//! ```
//!
//! Operations absent from the descriptor stay *replicated*: they are
//! invoked identically on every node of the parallel component, with the
//! result taken from rank 0 — the natural SPMD reading of a sequential
//! operation.

use padico_util::xml;
use std::collections::HashMap;

use crate::dist::Distribution;
use crate::error::GridCcmError;

/// Parameter kinds of the source IDL (the subset GridCCM handles).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParamKind {
    Long,
    ULong,
    LongLong,
    Double,
    Boolean,
    Str,
    /// An IDL `sequence<...>` — the only kind that may be distributed.
    Sequence,
}

/// One declared argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgDef {
    pub name: String,
    pub kind: ParamKind,
}

impl ArgDef {
    pub fn new(name: impl Into<String>, kind: ParamKind) -> ArgDef {
        ArgDef {
            name: name.into(),
            kind,
        }
    }
}

/// One declared operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpDef {
    pub name: String,
    pub args: Vec<ArgDef>,
    /// Result kind (`None` = void).
    pub result: Option<ParamKind>,
}

impl OpDef {
    pub fn new(name: impl Into<String>, args: Vec<ArgDef>, result: Option<ParamKind>) -> OpDef {
        OpDef {
            name: name.into(),
            args,
            result,
        }
    }
}

/// The source IDL interface description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceDef {
    pub repo_id: String,
    pub ops: Vec<OpDef>,
}

impl InterfaceDef {
    pub fn op(&self, name: &str) -> Option<&OpDef> {
        self.ops.iter().find(|o| o.name == name)
    }
}

/// How one operation is handled by the interception layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpPlan {
    pub name: String,
    /// `Some(d)` for distributed arguments, `None` for replicated ones —
    /// index-aligned with the source operation's arguments.
    pub arg_dists: Vec<Option<Distribution>>,
    /// Distribution of the result, if the result is distributed.
    pub result_dist: Option<Distribution>,
}

impl OpPlan {
    /// Whether any argument or the result is distributed.
    pub fn is_parallel(&self) -> bool {
        self.result_dist.is_some() || self.arg_dists.iter().any(Option::is_some)
    }
}

/// The compiled interception metadata for one interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterceptionPlan {
    /// Source interface repository id.
    pub repo_id: String,
    /// Derived internal interface repository id.
    pub derived_repo_id: String,
    ops: HashMap<String, OpPlan>,
}

/// Prefix of derived operation names in the internal interface.
pub const DERIVED_OP_PREFIX: &str = "_par_";

impl InterceptionPlan {
    /// Compile an interface against its parallelism descriptor.
    pub fn compile(interface: &InterfaceDef, parallelism_xml: &str) -> Result<Self, GridCcmError> {
        let root =
            xml::parse(parallelism_xml).map_err(|e| GridCcmError::Descriptor(e.to_string()))?;
        if root.name != "parallelism" {
            return Err(GridCcmError::Descriptor(format!(
                "expected <parallelism>, found <{}>",
                root.name
            )));
        }
        let declared_for = root.get_attr("interface").ok_or_else(|| {
            GridCcmError::Descriptor("parallelism without interface attribute".into())
        })?;
        if declared_for != interface.repo_id {
            return Err(GridCcmError::Descriptor(format!(
                "parallelism is for `{declared_for}`, interface is `{}`",
                interface.repo_id
            )));
        }

        // Start from all-replicated plans for every declared op.
        let mut ops: HashMap<String, OpPlan> = interface
            .ops
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    OpPlan {
                        name: o.name.clone(),
                        arg_dists: vec![None; o.args.len()],
                        result_dist: None,
                    },
                )
            })
            .collect();

        for op_el in root.find_all("operation") {
            let op_name = op_el
                .get_attr("name")
                .ok_or_else(|| GridCcmError::Descriptor("operation without name".into()))?;
            let op_def = interface.op(op_name).ok_or_else(|| {
                GridCcmError::Descriptor(format!(
                    "operation `{op_name}` is not declared by `{}`",
                    interface.repo_id
                ))
            })?;
            let plan = ops.get_mut(op_name).expect("prefilled above");
            for arg_el in op_el.find_all("argument") {
                let index: usize = arg_el
                    .get_attr("index")
                    .ok_or_else(|| GridCcmError::Descriptor("argument without index".into()))?
                    .parse()
                    .map_err(|_| GridCcmError::Descriptor("bad argument index".into()))?;
                let arg_def = op_def.args.get(index).ok_or_else(|| {
                    GridCcmError::Descriptor(format!(
                        "operation `{op_name}` has no argument {index}"
                    ))
                })?;
                if arg_def.kind != ParamKind::Sequence {
                    return Err(GridCcmError::Descriptor(format!(
                        "argument {index} of `{op_name}` is not a sequence type and \
                         cannot be distributed"
                    )));
                }
                let dist = Distribution::parse(arg_el.get_attr("distribution").unwrap_or("block"))?;
                plan.arg_dists[index] = Some(dist);
            }
            if let Some(res_el) = op_el.find("result") {
                match op_def.result {
                    Some(ParamKind::Sequence) => {}
                    _ => {
                        return Err(GridCcmError::Descriptor(format!(
                            "operation `{op_name}` does not return a sequence; its \
                             result cannot be distributed"
                        )))
                    }
                }
                let dist = Distribution::parse(res_el.get_attr("distribution").unwrap_or("block"))?;
                plan.result_dist = Some(dist);
            }
        }

        Ok(InterceptionPlan {
            repo_id: interface.repo_id.clone(),
            derived_repo_id: format!("{}:par", interface.repo_id),
            ops,
        })
    }

    /// A plan with every operation replicated (a sequential component
    /// viewed through the GridCCM machinery).
    pub fn all_replicated(interface: &InterfaceDef) -> Self {
        InterceptionPlan {
            repo_id: interface.repo_id.clone(),
            derived_repo_id: format!("{}:par", interface.repo_id),
            ops: interface
                .ops
                .iter()
                .map(|o| {
                    (
                        o.name.clone(),
                        OpPlan {
                            name: o.name.clone(),
                            arg_dists: vec![None; o.args.len()],
                            result_dist: None,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Plan for one operation.
    pub fn op(&self, name: &str) -> Result<&OpPlan, GridCcmError> {
        self.ops.get(name).ok_or_else(|| {
            GridCcmError::Descriptor(format!(
                "operation `{name}` is not declared by `{}`",
                self.repo_id
            ))
        })
    }

    /// The derived (internal) operation name.
    pub fn derived_op(name: &str) -> String {
        format!("{DERIVED_OP_PREFIX}{name}")
    }

    /// Operation names, sorted (diagnostics).
    pub fn op_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.ops.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_interface() -> InterfaceDef {
        InterfaceDef {
            repo_id: "IDL:Coupling/Field:1.0".into(),
            ops: vec![
                OpDef::new(
                    "set_density",
                    vec![
                        ArgDef::new("values", ParamKind::Sequence),
                        ArgDef::new("step", ParamKind::Long),
                    ],
                    None,
                ),
                OpDef::new(
                    "exchange",
                    vec![ArgDef::new("input", ParamKind::Sequence)],
                    Some(ParamKind::Sequence),
                ),
                OpDef::new("reset", vec![], None),
                OpDef::new(
                    "scale",
                    vec![ArgDef::new("factor", ParamKind::Double)],
                    Some(ParamKind::Double),
                ),
            ],
        }
    }

    const DESCRIPTOR: &str = r#"
        <parallelism interface="IDL:Coupling/Field:1.0">
          <operation name="set_density">
            <argument index="0" distribution="block"/>
          </operation>
          <operation name="exchange">
            <argument index="0" distribution="cyclic"/>
            <result distribution="block"/>
          </operation>
        </parallelism>"#;

    #[test]
    fn compile_marks_distributed_args_and_results() {
        let plan = InterceptionPlan::compile(&field_interface(), DESCRIPTOR).unwrap();
        assert_eq!(plan.derived_repo_id, "IDL:Coupling/Field:1.0:par");
        let set = plan.op("set_density").unwrap();
        assert_eq!(set.arg_dists, vec![Some(Distribution::Block), None]);
        assert!(set.result_dist.is_none());
        assert!(set.is_parallel());
        let ex = plan.op("exchange").unwrap();
        assert_eq!(ex.arg_dists, vec![Some(Distribution::Cyclic)]);
        assert_eq!(ex.result_dist, Some(Distribution::Block));
        // Ops not mentioned stay replicated.
        let reset = plan.op("reset").unwrap();
        assert!(!reset.is_parallel());
        let scale = plan.op("scale").unwrap();
        assert!(!scale.is_parallel());
        assert_eq!(scale.arg_dists, vec![None]);
    }

    #[test]
    fn derived_op_names() {
        assert_eq!(InterceptionPlan::derived_op("exchange"), "_par_exchange");
    }

    #[test]
    fn mismatched_interface_rejected() {
        let wrong = DESCRIPTOR.replace("Coupling/Field", "Other/Thing");
        let err = InterceptionPlan::compile(&field_interface(), &wrong).unwrap_err();
        assert!(matches!(err, GridCcmError::Descriptor(_)));
    }

    #[test]
    fn unknown_operation_rejected() {
        let bad = r#"<parallelism interface="IDL:Coupling/Field:1.0">
            <operation name="ghost"><argument index="0"/></operation>
        </parallelism>"#;
        let err = InterceptionPlan::compile(&field_interface(), bad).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn non_sequence_argument_cannot_be_distributed() {
        let bad = r#"<parallelism interface="IDL:Coupling/Field:1.0">
            <operation name="set_density"><argument index="1"/></operation>
        </parallelism>"#;
        let err = InterceptionPlan::compile(&field_interface(), bad).unwrap_err();
        assert!(err.to_string().contains("not a sequence"));
    }

    #[test]
    fn non_sequence_result_cannot_be_distributed() {
        let bad = r#"<parallelism interface="IDL:Coupling/Field:1.0">
            <operation name="scale"><result distribution="block"/></operation>
        </parallelism>"#;
        assert!(InterceptionPlan::compile(&field_interface(), bad).is_err());
    }

    #[test]
    fn out_of_range_index_rejected() {
        let bad = r#"<parallelism interface="IDL:Coupling/Field:1.0">
            <operation name="set_density"><argument index="5"/></operation>
        </parallelism>"#;
        assert!(InterceptionPlan::compile(&field_interface(), bad).is_err());
    }

    #[test]
    fn all_replicated_plan() {
        let plan = InterceptionPlan::all_replicated(&field_interface());
        assert_eq!(plan.op_names().len(), 4);
        assert!(plan
            .op_names()
            .iter()
            .all(|n| !plan.op(n).unwrap().is_parallel()));
        assert!(plan.op("missing").is_err());
    }

    #[test]
    fn default_distribution_is_block() {
        let xml = r#"<parallelism interface="IDL:Coupling/Field:1.0">
            <operation name="set_density"><argument index="0"/></operation>
        </parallelism>"#;
        let plan = InterceptionPlan::compile(&field_interface(), xml).unwrap();
        assert_eq!(
            plan.op("set_density").unwrap().arg_dists[0],
            Some(Distribution::Block)
        );
    }
}
