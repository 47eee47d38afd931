//! Dynamically loadable middleware modules.
//!
//! In the paper, "the middleware systems, like any other PadicoTM module,
//! are dynamically loadable. Thus, any combination of them may be used at
//! the same time and can be dynamically changed" (§4.3.4). The Rust
//! equivalent of a dlopen'd plugin is a boxed trait object registered at
//! runtime: a [`PadicoModule`] declares its name and dependencies, gets
//! initialized against the node's [`crate::runtime::PadicoTM`], and can be
//! started, stopped and unloaded while the process runs.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::TmError;
use crate::runtime::PadicoTM;

/// A loadable middleware system (MPI, an ORB, a SOAP stack, a JVM, …).
pub trait PadicoModule: Send + Sync {
    /// Unique module name, e.g. `"mpi"` or `"orb.omni"`.
    fn name(&self) -> &str;

    /// Names of modules that must be loaded first.
    fn requires(&self) -> Vec<String> {
        Vec::new()
    }

    /// One-time initialization against the node runtime (allocate
    /// channels, register services).
    fn init(&self, tm: &Arc<PadicoTM>) -> Result<(), TmError>;

    /// Begin serving (spawn service loops). Called after `init`.
    fn start(&self, _tm: &Arc<PadicoTM>) -> Result<(), TmError> {
        Ok(())
    }

    /// Stop serving. Called before unload.
    fn stop(&self, _tm: &Arc<PadicoTM>) -> Result<(), TmError> {
        Ok(())
    }
}

/// Lifecycle state of a loaded module.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModuleState {
    Loaded,
    Started,
    Stopped,
}

struct Slot {
    module: Arc<dyn PadicoModule>,
    state: ModuleState,
}

/// Per-node module registry.
#[derive(Default)]
pub struct ModuleManager {
    slots: Mutex<HashMap<String, Slot>>,
}

impl ModuleManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Load and initialize a module. Fails on duplicates and missing
    /// dependencies.
    pub fn load(
        &self,
        tm: &Arc<PadicoTM>,
        module: Arc<dyn PadicoModule>,
    ) -> Result<(), TmError> {
        let name = module.name().to_string();
        {
            let slots = self.slots.lock();
            if slots.contains_key(&name) {
                return Err(TmError::Module(format!("module `{name}` already loaded")));
            }
            for dep in module.requires() {
                if !slots.contains_key(&dep) {
                    return Err(TmError::Module(format!(
                        "module `{name}` requires `{dep}`, which is not loaded"
                    )));
                }
            }
        }
        module.init(tm)?;
        self.slots.lock().insert(
            name,
            Slot {
                module,
                state: ModuleState::Loaded,
            },
        );
        Ok(())
    }

    /// Start a loaded module.
    pub fn start(&self, tm: &Arc<PadicoTM>, name: &str) -> Result<(), TmError> {
        let module = {
            let mut slots = self.slots.lock();
            let slot = slots
                .get_mut(name)
                .ok_or_else(|| TmError::Module(format!("module `{name}` not loaded")))?;
            if slot.state == ModuleState::Started {
                return Err(TmError::Module(format!("module `{name}` already started")));
            }
            slot.state = ModuleState::Started;
            Arc::clone(&slot.module)
        };
        module.start(tm)
    }

    /// Stop a started module.
    pub fn stop(&self, tm: &Arc<PadicoTM>, name: &str) -> Result<(), TmError> {
        let module = {
            let mut slots = self.slots.lock();
            let slot = slots
                .get_mut(name)
                .ok_or_else(|| TmError::Module(format!("module `{name}` not loaded")))?;
            slot.state = ModuleState::Stopped;
            Arc::clone(&slot.module)
        };
        module.stop(tm)
    }

    /// Unload a module; refuses while another loaded module depends on it.
    pub fn unload(&self, tm: &Arc<PadicoTM>, name: &str) -> Result<(), TmError> {
        let module = {
            let slots = self.slots.lock();
            let slot = slots
                .get(name)
                .ok_or_else(|| TmError::Module(format!("module `{name}` not loaded")))?;
            for (other_name, other) in slots.iter() {
                if other_name != name && other.module.requires().iter().any(|d| d == name) {
                    return Err(TmError::Module(format!(
                        "cannot unload `{name}`: `{other_name}` depends on it"
                    )));
                }
            }
            Arc::clone(&slot.module)
        };
        if self.state(name) == Some(ModuleState::Started) {
            // The unload goes ahead regardless; the failure is counted.
            if module.stop(tm).is_err() {
                tm.telemetry().counter_add("tm.module.stop_failed", 1);
            }
        }
        self.slots.lock().remove(name);
        Ok(())
    }

    /// State of a module, if loaded.
    pub fn state(&self, name: &str) -> Option<ModuleState> {
        self.slots.lock().get(name).map(|s| s.state)
    }

    /// Names of loaded modules (sorted, for determinism).
    pub fn loaded(&self) -> Vec<String> {
        let mut names: Vec<String> = self.slots.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct TestModule {
        name: String,
        deps: Vec<String>,
        inits: Arc<AtomicUsize>,
        starts: Arc<AtomicUsize>,
        stops: Arc<AtomicUsize>,
    }

    impl TestModule {
        fn new(name: &str, deps: &[&str]) -> (Arc<Self>, Arc<AtomicUsize>) {
            let inits = Arc::new(AtomicUsize::new(0));
            (
                Arc::new(TestModule {
                    name: name.into(),
                    deps: deps.iter().map(|s| s.to_string()).collect(),
                    inits: Arc::clone(&inits),
                    starts: Arc::new(AtomicUsize::new(0)),
                    stops: Arc::new(AtomicUsize::new(0)),
                }),
                inits,
            )
        }
    }

    impl PadicoModule for TestModule {
        fn name(&self) -> &str {
            &self.name
        }
        fn requires(&self) -> Vec<String> {
            self.deps.clone()
        }
        fn init(&self, _tm: &Arc<PadicoTM>) -> Result<(), TmError> {
            self.inits.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn start(&self, _tm: &Arc<PadicoTM>) -> Result<(), TmError> {
            self.starts.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn stop(&self, _tm: &Arc<PadicoTM>) -> Result<(), TmError> {
            self.stops.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    fn boot_one() -> Arc<PadicoTM> {
        let (topo, ids) = single_cluster(1);
        PadicoTM::boot_all(Arc::new(topo)).unwrap().remove(ids[0].0 as usize)
    }

    #[test]
    fn load_start_stop_unload_lifecycle() {
        let tm = boot_one();
        let (m, inits) = TestModule::new("mpi", &[]);
        tm.modules().load(&tm, m.clone()).unwrap();
        assert_eq!(inits.load(Ordering::SeqCst), 1);
        assert_eq!(tm.modules().state("mpi"), Some(ModuleState::Loaded));
        tm.modules().start(&tm, "mpi").unwrap();
        assert_eq!(m.starts.load(Ordering::SeqCst), 1);
        tm.modules().stop(&tm, "mpi").unwrap();
        assert_eq!(m.stops.load(Ordering::SeqCst), 1);
        tm.modules().unload(&tm, "mpi").unwrap();
        assert_eq!(tm.modules().state("mpi"), None);
    }

    #[test]
    fn duplicate_load_rejected() {
        let tm = boot_one();
        let (m1, _) = TestModule::new("orb", &[]);
        let (m2, _) = TestModule::new("orb", &[]);
        tm.modules().load(&tm, m1).unwrap();
        assert!(matches!(
            tm.modules().load(&tm, m2),
            Err(TmError::Module(_))
        ));
    }

    #[test]
    fn dependencies_enforced_on_load_and_unload() {
        let tm = boot_one();
        let (gridccm, _) = TestModule::new("gridccm", &["orb", "mpi"]);
        // Missing deps refused.
        assert!(tm.modules().load(&tm, gridccm.clone()).is_err());
        let (orb, _) = TestModule::new("orb", &[]);
        let (mpi, _) = TestModule::new("mpi", &[]);
        tm.modules().load(&tm, orb).unwrap();
        tm.modules().load(&tm, mpi).unwrap();
        tm.modules().load(&tm, gridccm).unwrap();
        // Unloading a dependency of a loaded module is refused.
        let err = tm.modules().unload(&tm, "orb").unwrap_err();
        assert!(err.to_string().contains("gridccm"), "{err}");
        // Unload in dependency order works.
        tm.modules().unload(&tm, "gridccm").unwrap();
        tm.modules().unload(&tm, "orb").unwrap();
        tm.modules().unload(&tm, "mpi").unwrap();
        assert!(tm.modules().loaded().is_empty());
    }

    #[test]
    fn unload_of_started_module_stops_it_first() {
        let tm = boot_one();
        let (m, _) = TestModule::new("soap", &[]);
        tm.modules().load(&tm, m.clone()).unwrap();
        tm.modules().start(&tm, "soap").unwrap();
        tm.modules().unload(&tm, "soap").unwrap();
        assert_eq!(m.stops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn any_combination_may_be_loaded_simultaneously() {
        // The paper's headline claim for the module system.
        let tm = boot_one();
        for name in ["mpi", "orb.omni", "orb.mico", "soap", "jvm", "hla"] {
            let (m, _) = TestModule::new(name, &[]);
            tm.modules().load(&tm, m).unwrap();
        }
        assert_eq!(tm.modules().loaded().len(), 6);
    }
}
