//! The static facts of one load module, built once and borrowed by the
//! verifier, the procedure summaries, the abstract interpreter and the
//! classifier.

use crate::cfg::Cfg;
use crate::loops::LoopForest;
use crate::module::{LoadModule, ModuleLayout};
use crate::proc::ProcId;

/// The layout of a module and, per procedure, its CFG and loop forest.
#[derive(Debug, Clone)]
pub struct ModuleFacts {
    layout: ModuleLayout,
    procs: Vec<(Cfg, LoopForest)>,
}

impl ModuleFacts {
    /// Build the facts of `module`.
    ///
    /// # Panics
    /// May panic on a module that fails [`LoadModule::validate`];
    /// [`crate::verify_module`] builds them only after its structural
    /// pass found no error.
    pub fn build(module: &LoadModule) -> ModuleFacts {
        let procs = module.procs.iter().map(|p| {
            let cfg = Cfg::build(p);
            let forest = LoopForest::build(p, &cfg);
            (cfg, forest)
        });
        ModuleFacts {
            layout: module.layout(),
            procs: procs.collect(),
        }
    }

    /// The module's instruction-address layout.
    pub fn layout(&self) -> &ModuleLayout {
        &self.layout
    }

    /// The CFG of procedure `p`.
    pub fn cfg(&self, p: ProcId) -> &Cfg {
        &self.procs[p.index()].0
    }

    /// The loop forest of procedure `p`.
    pub fn forest(&self, p: ProcId) -> &LoopForest {
        &self.procs[p.index()].1
    }
}
