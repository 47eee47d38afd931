//! Software packages: the CCM deployment model's unit of shipping.
//!
//! CCM packages are ZIP archives holding an OSD (Open Software
//! Description) XML descriptor plus implementations. Here a package is a
//! flat **`.car` archive** (Component ARchive — documented substitute for
//! ZIP, see DESIGN.md): length-prefixed named entries, one of which is
//! the `softpkg.xml` descriptor. The "binary" entry carries a *factory
//! symbol*: deployment looks the symbol up in the process-wide
//! [`FactoryRegistry`], which is this reproduction's stand-in for
//! dlopen-ing a shipped `.so` — the packaging, upload, constraint and
//! instantiation paths are all exercised for real.
//!
//! Localization constraints (paper §2: "the chemistry code — source and
//! binaries — must stay on the machines of the company") ride in the
//! descriptor as `<allowed-machine>` elements.

use padico_util::xml::{self, Element};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::component::CcmComponent;
use crate::error::CcmError;

/// Magic prefix of the `.car` archive format.
pub const CAR_MAGIC: &[u8; 4] = b"CAR1";

/// An entry name the descriptor must use.
pub const DESCRIPTOR_ENTRY: &str = "softpkg.xml";

/// A software package.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Package {
    /// Package (component type) name.
    pub name: String,
    pub version: String,
    /// Factory symbol naming the component entry point.
    pub factory_symbol: String,
    /// Machines the package may be deployed on (`None` = anywhere).
    pub allowed_machines: Option<Vec<String>>,
    /// Additional archive entries (documentation, resources).
    pub extra_entries: Vec<(String, Vec<u8>)>,
}

impl Package {
    pub fn new(
        name: impl Into<String>,
        version: impl Into<String>,
        factory_symbol: impl Into<String>,
    ) -> Package {
        Package {
            name: name.into(),
            version: version.into(),
            factory_symbol: factory_symbol.into(),
            allowed_machines: None,
            extra_entries: Vec::new(),
        }
    }

    /// Restrict deployment to the given machines.
    pub fn restrict_to_machines(mut self, machines: &[&str]) -> Package {
        self.allowed_machines = Some(machines.iter().map(|m| m.to_string()).collect());
        self
    }

    /// Whether the package may run on `machine`.
    pub fn allows_machine(&self, machine: &str) -> bool {
        match &self.allowed_machines {
            None => true,
            Some(allowed) => allowed.iter().any(|m| m == machine),
        }
    }

    /// The OSD-style descriptor XML.
    pub fn descriptor_xml(&self) -> String {
        let mut root = Element::new("softpkg")
            .attr("name", self.name.clone())
            .attr("version", self.version.clone())
            .child(Element::new("implementation").attr("entrypoint", self.factory_symbol.clone()));
        if let Some(machines) = &self.allowed_machines {
            let mut loc = Element::new("localization");
            for m in machines {
                loc = loc.child(Element::new("allowed-machine").with_text(m.clone()));
            }
            root = root.child(loc);
        }
        root.to_xml()
    }

    fn from_descriptor_xml(text: &str) -> Result<Package, CcmError> {
        let root = xml::parse(text)?;
        if root.name != "softpkg" {
            return Err(CcmError::Descriptor(format!(
                "expected <softpkg>, found <{}>",
                root.name
            )));
        }
        let name = root
            .get_attr("name")
            .ok_or_else(|| CcmError::Descriptor("softpkg without name".into()))?
            .to_string();
        let version = root.get_attr("version").unwrap_or("0.0").to_string();
        let factory_symbol = root
            .find("implementation")
            .and_then(|e| e.get_attr("entrypoint"))
            .ok_or_else(|| CcmError::Descriptor("softpkg without implementation".into()))?
            .to_string();
        let allowed_machines = root.find("localization").map(|loc| {
            loc.find_all("allowed-machine")
                .map(|m| m.text.clone())
                .collect()
        });
        Ok(Package {
            name,
            version,
            factory_symbol,
            allowed_machines,
            extra_entries: Vec::new(),
        })
    }

    /// Serialize to `.car` archive bytes.
    pub fn to_archive(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CAR_MAGIC);
        let descriptor = self.descriptor_xml().into_bytes();
        let entries: Vec<(&str, &[u8])> =
            std::iter::once((DESCRIPTOR_ENTRY, descriptor.as_slice()))
                .chain(
                    self.extra_entries
                        .iter()
                        .map(|(n, d)| (n.as_str(), d.as_slice())),
                )
                .collect();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (name, data) in entries {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
        out
    }

    /// Parse a `.car` archive.
    pub fn from_archive(bytes: &[u8]) -> Result<Package, CcmError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CcmError> {
            if *pos + n > bytes.len() {
                return Err(CcmError::Package("truncated archive".into()));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != CAR_MAGIC {
            return Err(CcmError::Package("bad magic".into()));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
        let mut descriptor: Option<String> = None;
        let mut extra = Vec::new();
        for _ in 0..count {
            let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| CcmError::Package("entry name is not UTF-8".into()))?;
            let data_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
            let data = take(&mut pos, data_len)?.to_vec();
            if name == DESCRIPTOR_ENTRY {
                descriptor = Some(
                    String::from_utf8(data)
                        .map_err(|_| CcmError::Package("descriptor is not UTF-8".into()))?,
                );
            } else {
                extra.push((name, data));
            }
        }
        if pos != bytes.len() {
            return Err(CcmError::Package("trailing bytes after archive".into()));
        }
        let text =
            descriptor.ok_or_else(|| CcmError::Package("archive has no softpkg.xml".into()))?;
        let mut package = Package::from_descriptor_xml(&text)?;
        package.extra_entries = extra;
        Ok(package)
    }
}

type Factory = Box<dyn Fn() -> Arc<dyn CcmComponent> + Send + Sync>;

/// Process-wide registry of component entry points — the stand-in for the
/// dynamic loader resolving a shipped binary's factory symbol.
#[derive(Default)]
pub struct FactoryRegistry {
    factories: Mutex<HashMap<String, Arc<Factory>>>,
}

impl FactoryRegistry {
    pub fn new() -> Arc<FactoryRegistry> {
        Arc::new(FactoryRegistry::default())
    }

    /// Register an entry point under a symbol name.
    pub fn register(
        &self,
        symbol: &str,
        factory: impl Fn() -> Arc<dyn CcmComponent> + Send + Sync + 'static,
    ) {
        self.factories
            .lock()
            .insert(symbol.to_string(), Arc::new(Box::new(factory)));
    }

    /// Instantiate through a symbol.
    pub fn instantiate(&self, symbol: &str) -> Result<Arc<dyn CcmComponent>, CcmError> {
        let factory = self
            .factories
            .lock()
            .get(symbol)
            .cloned()
            .ok_or_else(|| CcmError::NotFound(format!("factory symbol `{symbol}`")))?;
        Ok(factory())
    }

    pub fn symbols(&self) -> Vec<String> {
        let mut syms: Vec<String> = self.factories.lock().keys().cloned().collect();
        syms.sort();
        syms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::FieldComponent;

    #[test]
    fn archive_roundtrip_plain() {
        let pkg = Package::new("chemistry", "1.2", "make_chemistry");
        let bytes = pkg.to_archive();
        assert_eq!(&bytes[..4], CAR_MAGIC);
        let back = Package::from_archive(&bytes).unwrap();
        assert_eq!(back, pkg);
    }

    #[test]
    fn archive_roundtrip_with_constraints_and_entries() {
        let mut pkg = Package::new("chemistry", "2.0", "make_chemistry")
            .restrict_to_machines(&["company-x-cluster"]);
        pkg.extra_entries
            .push(("README".into(), b"patented".to_vec()));
        let back = Package::from_archive(&pkg.to_archive()).unwrap();
        assert_eq!(back, pkg);
        assert!(back.allows_machine("company-x-cluster"));
        assert!(!back.allows_machine("public-cluster"));
        let unrestricted = Package::new("t", "1", "f");
        assert!(unrestricted.allows_machine("anywhere"));
    }

    #[test]
    fn malformed_archives_rejected() {
        assert!(Package::from_archive(b"NOPE").is_err());
        assert!(Package::from_archive(b"CAR1").is_err());
        let good = Package::new("x", "1", "f").to_archive();
        assert!(Package::from_archive(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Package::from_archive(&trailing).is_err());
    }

    #[test]
    fn descriptor_xml_is_valid_osd_style() {
        let pkg =
            Package::new("transport", "1.0", "make_transport").restrict_to_machines(&["m1", "m2"]);
        let xml_text = pkg.descriptor_xml();
        let parsed = padico_util::xml::parse(&xml_text).unwrap();
        assert_eq!(parsed.name, "softpkg");
        assert_eq!(
            parsed
                .find("localization")
                .unwrap()
                .find_all("allowed-machine")
                .count(),
            2
        );
    }

    #[test]
    fn factory_registry_resolves_symbols() {
        let reg = FactoryRegistry::new();
        reg.register("make_field", || FieldComponent::new(3) as _);
        assert_eq!(reg.symbols(), vec!["make_field".to_string()]);
        let component = reg.instantiate("make_field").unwrap();
        assert_eq!(component.descriptor().name, "Field");
        assert!(matches!(
            reg.instantiate("missing"),
            Err(CcmError::NotFound(_))
        ));
    }
}
