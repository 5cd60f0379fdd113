//! Proxy selection and the instrumentation plan (paper §III-B, Fig. 2).
//!
//! Per basic block: Strided and Irregular loads are always instrumented;
//! Constant loads are never instrumented directly. Their execution count
//! is implied by a *proxy* — a Strided/Irregular load in the same block if
//! one exists, otherwise the block's first Constant load (which is then
//! instrumented itself). The proxy's annotation carries the number of
//! implied Constant loads, making the compression non-lossy.

use crate::classify::{ClassifiedLoad, ModuleClassification};
use crate::InstrumentConfig;
use memgaze_isa::{AddrKind, LoadModule};
use memgaze_model::Ip;

/// What the plan decides for one static load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedLoad {
    /// Whether a `ptwrite` (per source register) precedes this load.
    pub instrument: bool,
    /// Constant loads this load stands proxy for (0 for non-proxies).
    pub implied_const: u32,
    /// Elided proven-strided load: not instrumented because its address
    /// sequence is reconstructible from the annotation's stride literal.
    pub elided: bool,
}

/// The full instrumentation plan: one decision per static load, in
/// address order — entry `k` decides the classification's load `k`.
#[derive(Debug, Clone, Default)]
pub struct InstrPlan {
    decisions: Vec<(Ip, PlannedLoad)>,
}

/// The loads of one basic block: a run of the address-ordered table.
pub(crate) fn same_block(a: &ClassifiedLoad, b: &ClassifiedLoad) -> bool {
    (a.proc, a.block) == (b.proc, b.block)
}

impl InstrPlan {
    /// Build the plan for `module` under `config`.
    ///
    /// # Panics
    /// Panics if `classification` does not classify `module`'s loads.
    pub fn build(
        module: &LoadModule,
        classification: &ModuleClassification,
        config: &InstrumentConfig,
    ) -> InstrPlan {
        assert_eq!(
            classification.len(),
            module.num_loads(),
            "classification of another module: {} classified loads, module has {}",
            classification.len(),
            module.num_loads()
        );
        // A load with no source register (global-absolute addressing)
        // cannot be `ptwrite`n without an extra register, which the
        // paper's scheme deliberately avoids (§III-A); such loads are only
        // ever implied by a proxy.
        let instrumentable = |cl: &ClassifiedLoad| cl.num_sources > 0;
        let constant = |cl: &ClassifiedLoad| cl.kind == AddrKind::Constant;
        // A load may be elided only when both oracles agree on the same
        // nonzero stride: the final class says Strided{s} and the
        // abstract interpreter *proved* that exact s. The annotation then
        // reconstructs the address sequence.
        let elidable = |cl: &ClassifiedLoad| {
            config.elides()
                && instrumentable(cl)
                && matches!(cl.kind, AddrKind::Strided { stride }
                            if stride != 0 && cl.absint.stride() == Some(stride))
        };

        let mut decisions = Vec::with_capacity(classification.len());
        for loads in classification.as_slice().chunk_by(same_block) {
            let in_roi = config.in_roi(&module.proc(loads[0].proc).name);
            if !in_roi || !config.compresses() {
                // Outside the region of interest nothing is instrumented;
                // uncompressed, every instrumentable load is and none
                // imply others.
                decisions.extend(loads.iter().map(|cl| {
                    let planned = PlannedLoad {
                        instrument: in_roi && instrumentable(cl),
                        implied_const: 0,
                        elided: false,
                    };
                    (cl.ip, planned)
                }));
                continue;
            }

            let const_count = loads.iter().filter(|cl| constant(cl)).count() as u32;
            // Proxy preference (Fig. 2): first instrumentable non-elided
            // Strided/Irregular load, else first instrumentable Constant
            // load.
            let mut proxy_pos = loads
                .iter()
                .position(|cl| !elidable(cl) && !constant(cl) && instrumentable(cl))
                .or_else(|| {
                    loads
                        .iter()
                        .position(|cl| constant(cl) && instrumentable(cl))
                });
            // Constant loads need a proxy to imply their counts; if
            // elision removed every candidate, un-elide one to serve.
            if proxy_pos.is_none() && const_count > 0 {
                proxy_pos = loads.iter().position(elidable);
            }

            decisions.extend(loads.iter().enumerate().map(|(i, cl)| {
                let is_proxy = proxy_pos == Some(i);
                let elided = elidable(cl) && !is_proxy;
                // Strided/Irregular loads are always instrumented when
                // possible (unless elided); a Constant load only when it
                // is the proxy.
                let instrument = if constant(cl) {
                    is_proxy
                } else {
                    !elided && instrumentable(cl)
                };
                // The proxy implies all Constant loads in the block —
                // minus itself when the proxy *is* a Constant load (its
                // own execution is observed directly).
                let implied_const = match (is_proxy, constant(cl)) {
                    (false, _) => 0,
                    (true, true) => const_count.saturating_sub(1),
                    (true, false) => const_count,
                };
                let planned = PlannedLoad {
                    instrument,
                    implied_const,
                    elided,
                };
                (cl.ip, planned)
            }));
        }
        InstrPlan { decisions }
    }

    /// The decision for the load at `ip`; `None` for any address that is
    /// not a load's.
    pub fn get(&self, ip: Ip) -> Option<PlannedLoad> {
        let at = self.decisions.binary_search_by_key(&ip, |d| d.0).ok()?;
        self.decisions.get(at).map(|d| d.1)
    }

    /// Iterate all decisions in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ip, &PlannedLoad)> + '_ {
        self.decisions.iter().map(|(ip, d)| (ip, d))
    }

    /// The same, as the table the rewriter and checker index by load
    /// position.
    pub(crate) fn as_slice(&self) -> &[(Ip, PlannedLoad)] {
        &self.decisions
    }

    /// Number of instrumented loads.
    pub fn num_instrumented(&self) -> u64 {
        self.decisions.iter().filter(|d| d.1.instrument).count() as u64
    }

    /// Number of elided proven-strided loads.
    pub fn num_elided(&self) -> u64 {
        self.decisions.iter().filter(|d| d.1.elided).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_isa::builder::{ModuleBuilder, ProcBuilder};
    use memgaze_isa::{AddrMode, Reg};

    /// A straight-line proc: [const, const, irregular, const].
    fn mixed_block_module() -> LoadModule {
        let mut mb = ModuleBuilder::new("m");
        let mut pb = ProcBuilder::new("f", "f.c");
        pb.load(Reg::gp(0), AddrMode::base_disp(Reg::FP, -8));
        pb.load(Reg::gp(1), AddrMode::base_disp(Reg::FP, -16));
        pb.load(Reg::gp(2), AddrMode::base_disp(Reg::gp(0), 0));
        pb.load(Reg::gp(3), AddrMode::base_disp(Reg::FP, -24));
        pb.ret();
        mb.add(pb);
        mb.finish()
    }

    /// A straight-line proc with only constant loads.
    fn const_only_module() -> LoadModule {
        let mut mb = ModuleBuilder::new("m");
        let mut pb = ProcBuilder::new("f", "f.c");
        pb.load(Reg::gp(0), AddrMode::base_disp(Reg::FP, -8));
        pb.load(Reg::gp(1), AddrMode::base_disp(Reg::FP, -16));
        pb.load(Reg::gp(2), AddrMode::global(0x6000));
        pb.ret();
        mb.add(pb);
        mb.finish()
    }

    /// Lookup by address against the layout, byte by byte from below the
    /// module to past its end: `Some` for exactly the loads, `None` for
    /// every other instruction, terminator, padding byte, unaligned and
    /// out-of-range address — in both tables.
    #[test]
    fn lookup_answers_for_exactly_the_loads() {
        use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
        let generated = |opt| {
            codegen::generate(&UKernelSpec {
                compose: Compose::Serial(vec![Pattern::strided(2), Pattern::Irregular]),
                elems: 32,
                reps: 2,
                opt,
            })
        };
        let mut padding = 0;
        for m in [
            mixed_block_module(),
            const_only_module(),
            generated(OptLevel::O0),
            generated(OptLevel::O3),
        ] {
            let c = ModuleClassification::analyze(&m);
            let plan = InstrPlan::build(&m, &c, &InstrumentConfig::eliding());
            let layout = m.layout();
            let code = m.base_ip..m.base_ip + layout.code_bytes();
            let mut loads = 0;
            for raw in code.start - 8..code.end + 8 {
                let ip = Ip(raw);
                let located = layout.locate(ip);
                padding += usize::from(located.is_none() && raw % 4 == 0 && code.contains(&raw));
                let is_load = located.is_some_and(|(p, b, idx)| {
                    m.proc(p)
                        .block(b)
                        .instrs
                        .get(idx)
                        .is_some_and(|i| i.is_load())
                });
                assert_eq!(c.get(ip).map(|l| l.ip), is_load.then_some(ip), "{ip}");
                assert_eq!(plan.get(ip).is_some(), is_load, "{ip}");
                loads += usize::from(is_load);
            }
            assert_eq!(loads, m.num_loads());
            assert_eq!((c.len(), plan.iter().count()), (loads, loads));
            // Positional agreement: entry `k` of one is entry `k` of the other.
            assert!(c.loads().zip(plan.iter()).all(|(l, (ip, _))| l.ip == *ip));
            assert_eq!(c.get(Ip(u64::MAX)).map(|l| l.ip), None);
            assert_eq!(plan.get(Ip(0)), None);
        }
        assert!(padding > 0, "no inter-procedure padding address probed");
    }

    #[test]
    fn noncost_proxy_carries_all_constants() {
        let m = mixed_block_module();
        let c = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &c, &InstrumentConfig::default());
        let decisions: Vec<_> = plan.iter().map(|(_, d)| *d).collect();
        // Loads in address order: const, const, irregular(proxy), const.
        assert_eq!(decisions.len(), 4);
        assert!(!decisions[0].instrument);
        assert!(!decisions[1].instrument);
        assert!(decisions[2].instrument);
        assert_eq!(decisions[2].implied_const, 3);
        assert!(!decisions[3].instrument);
        assert_eq!(plan.num_instrumented(), 1);
    }

    #[test]
    fn const_only_block_instruments_first_as_proxy() {
        let m = const_only_module();
        let c = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &c, &InstrumentConfig::default());
        let decisions: Vec<_> = plan.iter().map(|(_, d)| *d).collect();
        assert!(decisions[0].instrument);
        assert_eq!(decisions[0].implied_const, 2);
        assert!(!decisions[1].instrument);
        assert!(!decisions[2].instrument);
    }

    #[test]
    fn uncompressed_instruments_everything() {
        let m = mixed_block_module();
        let c = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &c, &InstrumentConfig::uncompressed());
        assert_eq!(plan.num_instrumented(), 4);
        assert!(plan.iter().all(|(_, d)| d.implied_const == 0));
    }

    #[test]
    fn out_of_roi_gets_nothing() {
        let m = mixed_block_module();
        let c = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &c, &InstrumentConfig::with_roi(["other"]));
        assert_eq!(plan.num_instrumented(), 0);
        assert_eq!(plan.iter().count(), 4);
    }

    /// Fig. 2 accounting: with one proxy per block, the implied counts
    /// plus elisions reconstruct the block's total loads.
    #[test]
    fn implied_counts_conserve_loads() {
        for m in [mixed_block_module(), const_only_module()] {
            for config in [InstrumentConfig::default(), InstrumentConfig::eliding()] {
                let c = ModuleClassification::analyze(&m);
                let plan = InstrPlan::build(&m, &c, &config);
                let instrumented: u64 = plan.num_instrumented();
                let implied: u64 = plan.iter().map(|(_, d)| d.implied_const as u64).sum();
                assert_eq!(instrumented + implied + plan.num_elided(), c.len() as u64);
            }
        }
    }

    #[test]
    fn eliding_drops_proven_strided_loads() {
        use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::strided(1)),
            elems: 64,
            reps: 1,
            opt: OptLevel::O3,
        });
        let c = ModuleClassification::analyze(&m);
        let base = InstrPlan::build(&m, &c, &InstrumentConfig::default());
        let elide = InstrPlan::build(&m, &c, &InstrumentConfig::eliding());
        assert_eq!(base.num_elided(), 0);
        assert!(elide.num_elided() > 0, "no load was elided");
        assert!(elide.num_instrumented() < base.num_instrumented());
        // Conservation holds under elision too.
        let implied: u64 = elide.iter().map(|(_, d)| d.implied_const as u64).sum();
        assert_eq!(
            elide.num_instrumented() + implied + elide.num_elided(),
            c.len() as u64
        );
    }

    #[test]
    fn elision_keeps_a_proxy_for_constants() {
        // O0 strided kernel: frame reloads (Constant) share blocks with the
        // strided data load. If elision removes the only candidate proxy,
        // one load must be un-elided so the constants stay implied.
        use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::strided(1)),
            elems: 64,
            reps: 1,
            opt: OptLevel::O0,
        });
        let c = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &c, &InstrumentConfig::eliding());
        let implied: u64 = plan.iter().map(|(_, d)| d.implied_const as u64).sum();
        assert_eq!(
            plan.num_instrumented() + implied + plan.num_elided(),
            c.len() as u64
        );
    }
}
