//! Lint framework: differential classification checking and the
//! instrumentation-plan checker.
//!
//! Three layers of defense against silent instrumentation bugs (a load
//! misclassified as Constant is dropped from the trace and corrupts every
//! downstream metric — paper §III-B):
//!
//! 1. the multi-pass IR verifier of `memgaze_isa::verify`, run over both
//!    the original and the rewritten module;
//! 2. a **differential classification pass**: the affine
//!    abstract-interpretation oracle (`memgaze_isa::absint`) re-derives
//!    every load's class independently of `dataflow`. Where the oracle
//!    has a *proof* and the classifier disagrees, that is a bug: a
//!    provably-striding load classified Constant ([`LintId::UnsoundConstant`])
//!    would be compressed away unsoundly; a provably-regular load
//!    classified Irregular ([`LintId::LostCompression`]) costs trace
//!    bandwidth. Where the oracle has no proof it stays silent —
//!    `Unknown` is compatible with everything;
//! 3. an **instrumentation-plan checker** over `rewrite::apply` output:
//!    `ptwrite` groups are complete and well-ordered, the address remap
//!    is injective and order-preserving, source-map recovery round-trips
//!    into the original module, and annotation implied-Constant counts
//!    reconcile with the plan and per-block load counts.

use crate::classify::{regularity, ClassifiedLoad, ModuleClassification};
use crate::plan::{same_block, InstrPlan, PlannedLoad};
use crate::rewrite::{self, Instrumented, PtwInfo, PtwRole};
use crate::InstrumentConfig;
use memgaze_isa::absint::AbsResult;
use memgaze_isa::module::ModuleLayout;
use memgaze_isa::verify::{self, Diagnostic, LintId, Severity, Site};
use memgaze_isa::{AddrKind, Instr, LoadModule};
use memgaze_model::{Ip, LoadClass};
use serde::{Deserialize, Serialize};

/// Aggregate outcome of the differential classification pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffSummary {
    /// Static loads compared.
    pub loads: u64,
    /// Both oracles prove the same class (and stride, when strided).
    pub agree: u64,
    /// The abstract interpreter has no proof (compatible, not counted as
    /// agreement).
    pub absint_unknown: u64,
    /// Agreements where the absint proof *upgraded* the raw dataflow
    /// answer to a more regular class (subset of `agree`).
    pub upgraded: u64,
    /// The oracle proves a strictly more regular class than assigned
    /// (warnings: compression left on the table).
    pub lost_compression: u64,
    /// The oracle's proof contradicts the assigned class or stride
    /// (errors: the compression would be unsound).
    pub unsound: u64,
}

impl DiffSummary {
    /// Fraction of compared loads where both oracles agree outright.
    pub fn agreement_rate(&self) -> f64 {
        if self.loads == 0 {
            1.0
        } else {
            self.agree as f64 / self.loads as f64
        }
    }

    /// Fold another summary into this one.
    pub fn merge(&mut self, other: &DiffSummary) {
        self.loads += other.loads;
        self.agree += other.agree;
        self.absint_unknown += other.absint_unknown;
        self.upgraded += other.upgraded;
        self.lost_compression += other.lost_compression;
        self.unsound += other.unsound;
    }
}

/// Result of linting one module end to end.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Module name.
    pub module: String,
    /// All diagnostics from every pass, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Differential classification summary.
    pub differential: DiffSummary,
}

impl LintReport {
    /// Whether any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Count diagnostics of a severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }
}

/// Run the differential classification pass over every load of `module`.
///
/// The comparison is between the absint *proof* and the *final* class
/// the instrumentor will act on (dataflow fused with the proof). A proof
/// that is less regular than the final class is a soundness error; one
/// that is more regular means an upgrade was computed but not consumed
/// (a fusion bug, surfaced as lost compression).
fn differential_pass(
    module: &LoadModule,
    classification: &ModuleClassification,
) -> (Vec<Diagnostic>, DiffSummary) {
    let mut diags = Vec::new();
    let mut summary = DiffSummary::default();
    for cl in classification.loads() {
        let proc_name = &module.proc(cl.proc).name;
        summary.loads += 1;
        let site = || Site::instr(&module.name, cl.proc, cl.block, cl.idx, Some(cl.ip));
        let Some(ai_class) = cl.absint_class else {
            summary.absint_unknown += 1;
            continue;
        };
        let final_class = cl.class();
        if ai_class == final_class {
            // Same class; for Strided both sides carry a stride — they
            // must be the same number.
            if let (AddrKind::Strided { stride }, AbsResult::Proven { stride: s, .. }) =
                (cl.kind, cl.absint)
            {
                if stride != s {
                    summary.unsound += 1;
                    diags.push(Diagnostic::error(
                        LintId::StrideMismatch,
                        site(),
                        format!(
                            "{proc_name}: classifier stride {stride} but abstract \
                             interpretation proves {s}"
                        ),
                    ));
                    continue;
                }
            }
            summary.agree += 1;
            if cl.upgraded() {
                summary.upgraded += 1;
            }
        } else if regularity(ai_class) < regularity(final_class) {
            // Oracle proves the address is LESS regular than the class
            // the instrumentor acts on: compression would drop packets.
            summary.unsound += 1;
            let lint = if final_class == LoadClass::Constant {
                LintId::UnsoundConstant
            } else {
                LintId::UnsoundStrided
            };
            diags.push(Diagnostic::error(
                lint,
                site(),
                format!(
                    "{proc_name}: classified {final_class:?} but abstract interpretation \
                     proves {ai_class:?} ({:?})",
                    cl.absint
                ),
            ));
        } else {
            summary.lost_compression += 1;
            diags.push(Diagnostic::warning(
                LintId::LostCompression,
                site(),
                format!(
                    "{proc_name}: classified {final_class:?} but abstract interpretation \
                     proves {ai_class:?} ({:?}) — upgrade computed but not consumed",
                    cl.absint
                ),
            ));
        }
    }
    (diags, summary)
}

/// Check `rewrite::apply` output against the plan it was built from.
///
/// `classification` and `plan` must be recomputed from the *original*
/// module with the same `config` (they are deterministic); handed tables
/// of another module the checker says so in one [`LintId::StatsMismatch`]
/// and stops. The artifacts in `inst` are what is under suspicion: each
/// is read once, in address order, against the tables, and an entry that
/// is missing, surplus or out of place is reported, never assumed away.
pub fn check_instrumented(
    orig: &LoadModule,
    inst: &Instrumented,
    classification: &ModuleClassification,
    plan: &InstrPlan,
    config: &InstrumentConfig,
) -> Vec<Diagnostic> {
    let name = &inst.module.name;
    let (classified, planned) = (classification.as_slice(), plan.as_slice());
    let orig_layout = orig.layout();
    if !tables_line_up(orig, &orig_layout, classified, planned) {
        return vec![Diagnostic::error(
            LintId::StatsMismatch,
            Site::module(name),
            format!(
                "plan of {} loads and classification of {} loads were not built from this \
                 module of {} loads",
                planned.len(),
                classified.len(),
                orig.num_loads()
            ),
        )];
    }
    let new_layout = inst.module.layout();
    let mut diags = Vec::new();
    check_ptwrites(orig, inst, &new_layout, classified, planned, &mut diags);
    check_source_map(&orig_layout, inst, &new_layout, &mut diags);
    check_annotations(inst, classified, planned, &mut diags);
    let counts = check_conservation(orig, name, classified, planned, config, &mut diags);

    // --- stats reconcile ---------------------------------------------------
    let s = &inst.stats;
    let expect = [
        ("constant_loads", s.constant_loads, counts[0]),
        ("strided_loads", s.strided_loads, counts[1]),
        ("irregular_loads", s.irregular_loads, counts[2]),
        (
            "instrumented_loads",
            s.instrumented_loads,
            plan.num_instrumented(),
        ),
        ("elided_loads", s.elided_loads, plan.num_elided()),
        (
            "ptwrites_inserted",
            s.ptwrites_inserted,
            inst.ptw_map.len() as u64,
        ),
        (
            "blocks",
            s.blocks,
            orig.procs.iter().map(|p| p.blocks.len() as u64).sum(),
        ),
    ];
    for (field, got, want) in expect {
        if got != want {
            diags.push(Diagnostic::error(
                LintId::StatsMismatch,
                Site::module(name),
                format!("stats.{field} = {got}, recomputed {want}"),
            ));
        }
    }
    diags
}

/// Whether entry `k` of both tables is the `k`-th load a walk over
/// `orig` meets, for every `k` — the address-order invariant every pass
/// below reads the tables by.
fn tables_line_up(
    orig: &LoadModule,
    layout: &ModuleLayout,
    classified: &[ClassifiedLoad],
    planned: &[(Ip, PlannedLoad)],
) -> bool {
    let mut tabled = classified.iter().zip(planned);
    for proc in &orig.procs {
        for block in &proc.blocks {
            for idx in block.load_positions() {
                let ip = layout.ip_of(proc.id, block.id, idx);
                let in_place = tabled.next().is_some_and(|(cl, (planned_ip, _))| {
                    (cl.ip, cl.proc, cl.block, cl.idx) == (ip, proc.id, block.id, idx)
                        && *planned_ip == ip
                });
                if !in_place {
                    return false;
                }
            }
        }
    }
    classified.len() == planned.len() && tabled.next().is_none()
}

/// One `ptw_map` entry and the instruction of the rewritten module it
/// points at (`None`: a terminator, padding, or no address of the
/// module at all).
struct PtwEntry {
    ptw_ip: Ip,
    info: PtwInfo,
    target: Option<Instr>,
}

/// `ptwrite` groups: complete, well-ordered, pointing at the right
/// instructions, and covering every `ptwrite` of the rewritten module.
fn check_ptwrites(
    orig: &LoadModule,
    inst: &Instrumented,
    new_layout: &ModuleLayout,
    classified: &[ClassifiedLoad],
    planned: &[(Ip, PlannedLoad)],
    diags: &mut Vec<Diagnostic>,
) {
    let name = &inst.module.name;

    // Walk the rewritten code and `ptw_map` together, both in new-address
    // order: each entry meets the instruction at its address, and each
    // `ptwrite` instruction its entry.
    let mut entries: Vec<PtwEntry> = Vec::with_capacity(inst.ptw_map.len());
    let mut unmapped = Vec::new();
    let mut map = inst.ptw_map.iter().peekable();
    let entry = |(&ptw_ip, &info): (&Ip, &PtwInfo), target| PtwEntry {
        ptw_ip,
        info,
        target,
    };
    for proc in &inst.module.procs {
        for block in &proc.blocks {
            for (idx, ins) in block.instrs.iter().enumerate() {
                let ip = new_layout.ip_of(proc.id, block.id, idx);
                while let Some(e) = map.next_if(|e| *e.0 < ip) {
                    entries.push(entry(e, None));
                }
                match map.next_if(|e| *e.0 == ip) {
                    Some(e) => entries.push(entry(e, Some(*ins))),
                    None if ins.is_ptwrite() => unmapped.push(Diagnostic::error(
                        LintId::OrphanPtwrite,
                        Site::instr(name, proc.id, block.id, idx, Some(ip)),
                        "ptwrite instruction missing from ptw_map".to_string(),
                    )),
                    None => {}
                }
            }
        }
    }
    entries.extend(map.map(|e| entry(e, None)));

    // Group the entries by the load they instrument. A sound rewrite
    // emits them grouped already; within a group they stay in address
    // order either way.
    if !entries.is_sorted_by_key(|e| e.info.load_ip) {
        entries.sort_by_key(|e| e.info.load_ip);
    }
    let mut groups = entries
        .chunk_by(|a, b| a.info.load_ip == b.info.load_ip)
        .peekable();
    // Groups instrumenting a load the plan doesn't know.
    let mut unplanned = Vec::new();
    let mut orphan = |group: &[PtwEntry]| {
        unplanned.push(Diagnostic::error(
            LintId::OrphanPtwrite,
            Site::module(name),
            format!(
                "{} ptwrites for unplanned load {}",
                group.len(),
                group[0].info.load_ip
            ),
        ));
    };

    for (cl, &(load_ip, decision)) in classified.iter().zip(planned) {
        while let Some(g) = groups.next_if(|g| g[0].info.load_ip < load_ip) {
            orphan(g);
        }
        let group = groups
            .next_if(|g| g[0].info.load_ip == load_ip)
            .unwrap_or(&[]);
        let site = || Site::instr(name, cl.proc, cl.block, cl.idx, Some(load_ip));
        let expected = if decision.instrument {
            cl.num_sources
        } else {
            0
        };
        if group.len() != expected {
            let lint = if group.len() < expected {
                LintId::MissingPtwrite
            } else {
                LintId::DuplicatePtwrite
            };
            diags.push(Diagnostic::error(
                lint,
                site(),
                format!(
                    "load has {} ptwrites, plan requires {expected}",
                    group.len()
                ),
            ));
            continue;
        }
        // Role order (Base before Index), exactly one `last` on the final
        // entry, and payload registers matching the addressing mode.
        let addr = orig.proc(cl.proc).block(cl.block).instrs[cl.idx]
            .addr_mode()
            .expect("tables line up: a load");
        let expected_roles = [(addr.base, PtwRole::Base), (addr.index, PtwRole::Index)]
            .into_iter()
            .filter_map(|(reg, role)| reg.map(|_| role));
        let roles = group.iter().map(|e| e.info.role);
        if expected > 0 && !roles.clone().eq(expected_roles.clone()) {
            diags.push(Diagnostic::error(
                LintId::PtwriteGroupOrder,
                site(),
                format!(
                    "ptwrite roles {:?}, expected {:?}",
                    roles.collect::<Vec<_>>(),
                    expected_roles.collect::<Vec<_>>()
                ),
            ));
        }
        let lasts = group.iter().map(|e| e.info.last);
        if !lasts.clone().eq((1..=expected).map(|nth| nth == expected)) {
            diags.push(Diagnostic::error(
                LintId::PtwriteGroupOrder,
                site(),
                format!(
                    "bad `last` marking {:?} in ptwrite group",
                    lasts.collect::<Vec<_>>()
                ),
            ));
        }
        // Each entry must point at an actual Ptwrite of the right register
        // placed before the load in the same block.
        for &PtwEntry {
            ptw_ip,
            info,
            target,
        } in group
        {
            match target {
                Some(Instr::Ptwrite { src }) => {
                    let want = match info.role {
                        PtwRole::Base => addr.base,
                        PtwRole::Index => addr.index,
                    };
                    if want != Some(src) {
                        diags.push(Diagnostic::error(
                            LintId::OrphanPtwrite,
                            site(),
                            format!(
                                "ptwrite at {ptw_ip} writes {src}, expected {want:?} for \
                                 role {:?}",
                                info.role
                            ),
                        ));
                    }
                }
                other => diags.push(Diagnostic::error(
                    LintId::OrphanPtwrite,
                    site(),
                    format!("ptw_map entry {ptw_ip} points at {other:?}, not a ptwrite"),
                )),
            }
        }
    }
    groups.for_each(orphan);
    diags.append(&mut unplanned);
    // Reverse direction: every Ptwrite instruction has a ptw_map entry.
    diags.append(&mut unmapped);
}

/// Source map: total, round-tripping, injective, order-preserving.
fn check_source_map(
    orig_layout: &ModuleLayout,
    inst: &Instrumented,
    new_layout: &ModuleLayout,
    diags: &mut Vec<Diagnostic>,
) {
    let name = &inst.module.name;
    let mut map = inst.source_map.iter().peekable();
    // A sound remap names the original instructions in order, so the next
    // original address answers "is this one?" without a search; anything
    // else is looked up, so an out-of-order but real address is told
    // apart from a dangling one.
    let mut next_orig = orig_layout.instr_ips().peekable();
    let mut prev: Option<Ip> = None;
    let mut remap = Vec::new();
    for proc in &inst.module.procs {
        for block in &proc.blocks {
            for idx in 0..block.len() {
                let new_ip = new_layout.ip_of(proc.id, block.id, idx);
                let site = || Site::instr(name, proc.id, block.id, idx, Some(new_ip));
                while map.next_if(|e| *e.0 < new_ip).is_some() {}
                let Some((_, loc)) = map.next_if(|e| *e.0 == new_ip) else {
                    diags.push(Diagnostic::error(
                        LintId::SourceMapMissing,
                        site(),
                        "new instruction has no source-map entry".to_string(),
                    ));
                    continue;
                };
                let in_order = next_orig.peek() == Some(&loc.orig_ip);
                if !in_order && orig_layout.locate(loc.orig_ip).is_none() {
                    diags.push(Diagnostic::error(
                        LintId::SourceMapDangling,
                        site(),
                        format!(
                            "source-map target {} is not an original instruction",
                            loc.orig_ip
                        ),
                    ));
                    continue;
                }
                // Inserted ptwrites legitimately share their load's origin;
                // every other instruction must map to a distinct original
                // in the original order.
                if block.instrs.get(idx).is_some_and(Instr::is_ptwrite) {
                    continue;
                }
                if in_order {
                    next_orig.next();
                }
                match prev {
                    Some(p) if loc.orig_ip == p => remap.push(Diagnostic::error(
                        LintId::RemapNotInjective,
                        Site::module(name),
                        format!("two non-inserted instructions map to original {p}"),
                    )),
                    Some(p) if loc.orig_ip < p => remap.push(Diagnostic::error(
                        LintId::RemapOrderViolation,
                        Site::module(name),
                        format!("original order inverted: {} after {p}", loc.orig_ip),
                    )),
                    _ => {}
                }
                prev = Some(loc.orig_ip);
            }
        }
    }
    diags.append(&mut remap);
}

/// Annotations reconcile with classification and plan.
fn check_annotations(
    inst: &Instrumented,
    classified: &[ClassifiedLoad],
    planned: &[(Ip, PlannedLoad)],
    diags: &mut Vec<Diagnostic>,
) {
    let name = &inst.module.name;
    let mut annots = inst.annots.iter().peekable();
    for (cl, (_, planned)) in classified.iter().zip(planned) {
        let site = || Site::instr(name, cl.proc, cl.block, cl.idx, Some(cl.ip));
        while annots.next_if(|a| *a.0 < cl.ip).is_some() {}
        let Some((_, a)) = annots.next_if(|a| *a.0 == cl.ip) else {
            diags.push(Diagnostic::error(
                LintId::AnnotationMismatch,
                site(),
                "load has no annotation".to_string(),
            ));
            continue;
        };
        if a.class != cl.class() || a.scale != cl.scale || a.offset != cl.disp {
            diags.push(Diagnostic::error(
                LintId::AnnotationMismatch,
                site(),
                format!(
                    "annotation (class {:?}, scale {}, offset {}) disagrees with \
                     classification (class {:?}, scale {}, offset {})",
                    a.class,
                    a.scale,
                    a.offset,
                    cl.class(),
                    cl.scale,
                    cl.disp
                ),
            ));
        }
        if a.implied_const != planned.implied_const {
            diags.push(Diagnostic::error(
                LintId::ImpliedCountMismatch,
                site(),
                format!(
                    "annotation implies {} constant loads, plan says {}",
                    a.implied_const, planned.implied_const
                ),
            ));
        }
    }
    if inst.annots.len() != classified.len() {
        diags.push(Diagnostic::error(
            LintId::AnnotationMismatch,
            Site::module(name),
            format!(
                "{} annotations for {} classified loads",
                inst.annots.len(),
                classified.len()
            ),
        ));
    }
}

/// Per-block conservation (Fig. 2): in a compressed ROI block with any
/// instrumentation, observed + implied + elided loads reconstruct the
/// block's static load count. Returns the ROI's Constant, Strided and
/// Irregular load counts, which the same walk over the blocks tallies.
fn check_conservation(
    orig: &LoadModule,
    name: &str,
    classified: &[ClassifiedLoad],
    planned: &[(Ip, PlannedLoad)],
    config: &InstrumentConfig,
    diags: &mut Vec<Diagnostic>,
) -> [u64; 3] {
    let mut counts = [0u64; 3];
    let mut done = 0;
    for loads in classified.chunk_by(same_block) {
        let decisions = &planned[done..done + loads.len()];
        done += loads.len();
        let (proc, block) = (loads[0].proc, loads[0].block);
        let proc_name = &orig.proc(proc).name;
        if !config.in_roi(proc_name) {
            continue;
        }
        for cl in loads {
            counts[match cl.kind {
                AddrKind::Constant => 0,
                AddrKind::Strided { .. } => 1,
                AddrKind::Irregular => 2,
            }] += 1;
        }
        if !config.compresses() {
            continue;
        }
        let instrumented = decisions.iter().filter(|d| d.1.instrument).count() as u64;
        let elided = decisions.iter().filter(|d| d.1.elided).count() as u64;
        let implied: u64 = decisions.iter().map(|d| d.1.implied_const as u64).sum();
        if (instrumented > 0 || elided > 0) && instrumented + implied + elided != loads.len() as u64
        {
            diags.push(Diagnostic::error(
                LintId::ImpliedCountMismatch,
                Site {
                    proc: Some(proc),
                    block: Some(block),
                    ..Site::module(name)
                },
                format!(
                    "{proc_name}: block observes {instrumented} + implies {implied} + \
                     elides {elided} loads but contains {}",
                    loads.len()
                ),
            ));
        }
    }
    counts
}

/// What a lint pass built on the way to its report, for a caller that
/// goes on to use it instead of classifying and rewriting again.
#[derive(Debug, Clone)]
pub struct LintArtifacts {
    /// The module's classification.
    pub classification: ModuleClassification,
    /// The plan under the linted configuration.
    pub plan: InstrPlan,
    /// The rewritten module and side tables the checker examined.
    pub instrumented: Instrumented,
}

/// Lint a module end to end: verify the original IR, run the differential
/// classification pass, instrument under `config`, verify the rewritten
/// module, and check the plan artifacts.
pub fn lint_module(module: &LoadModule, config: &InstrumentConfig) -> LintReport {
    lint_and_instrument(module, config).0
}

/// [`lint_module`], handing back what it classified, planned and
/// rewrote — once each — beside the report. `None` when the verifier
/// found structural errors and nothing further ran.
pub fn lint_and_instrument(
    module: &LoadModule,
    config: &InstrumentConfig,
) -> (LintReport, Option<LintArtifacts>) {
    // One set of facts serves the verifier and the classification.
    let (mut diagnostics, facts) = verify::verify_module_facts(module);
    let mut differential = DiffSummary::default();
    // Instrumenting a structurally broken module would panic; stop at the
    // verifier's findings in that case.
    let errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
    let artifacts = facts.filter(|_| !errors).map(|facts| {
        let classification = ModuleClassification::analyze_with(module, &facts);
        // Nothing after the classification reads them: free them before
        // the rewrite, where the lint's heap peaks.
        drop(facts);
        let (diff_diags, summary) = differential_pass(module, &classification);
        diagnostics.extend(diff_diags);
        differential = summary;

        let plan = InstrPlan::build(module, &classification, config);
        let instrumented = rewrite::apply(module, &classification, &plan, config);
        diagnostics.extend(verify::verify_module(&instrumented.module));
        diagnostics.extend(check_instrumented(
            module,
            &instrumented,
            &classification,
            &plan,
            config,
        ));
        LintArtifacts {
            classification,
            plan,
            instrumented,
        }
    });
    let report = LintReport {
        module: module.name.clone(),
        diagnostics,
        differential,
    };
    (report, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instrumenter;
    use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};

    fn gen(compose: Compose, opt: OptLevel) -> LoadModule {
        codegen::generate(&UKernelSpec {
            compose,
            elems: 64,
            reps: 2,
            opt,
        })
    }

    #[test]
    fn clean_generated_modules_lint_without_errors() {
        for opt in [OptLevel::O0, OptLevel::O3] {
            for compose in [
                Compose::Single(Pattern::strided(1)),
                Compose::Single(Pattern::Irregular),
                Compose::Serial(vec![Pattern::strided(2), Pattern::Irregular]),
            ] {
                let m = gen(compose.clone(), opt);
                let report = lint_module(&m, &InstrumentConfig::default());
                let errors: Vec<_> = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect();
                assert!(errors.is_empty(), "{opt:?} {compose:?}: {errors:?}");
                assert_eq!(report.differential.unsound, 0);
                assert!(report.differential.loads > 0);
            }
        }
    }

    #[test]
    fn differential_flags_corrupted_annotation() {
        use memgaze_model::LoadClass;
        let m = gen(Compose::Single(Pattern::strided(1)), OptLevel::O0);
        let config = InstrumentConfig::default();
        let classification = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &classification, &config);
        let mut inst = Instrumenter::default().instrument(&m);
        // Flip one annotation's class.
        let (&ip, annot) = inst.annots.iter().next().expect("has annotations");
        let mut bad = *annot;
        bad.class = match bad.class {
            LoadClass::Constant => LoadClass::Irregular,
            _ => LoadClass::Constant,
        };
        inst.annots.insert(ip, bad);
        let diags = check_instrumented(&m, &inst, &classification, &plan, &config);
        assert!(diags.iter().any(|d| d.lint == LintId::AnnotationMismatch));
    }

    #[test]
    fn checker_flags_remapped_ptwrite() {
        let m = gen(Compose::Single(Pattern::Irregular), OptLevel::O3);
        let config = InstrumentConfig::default();
        let classification = ModuleClassification::analyze(&m);
        let plan = InstrPlan::build(&m, &classification, &config);
        let mut inst = Instrumenter::default().instrument(&m);
        // Point one ptwrite at a different load.
        let ips: Vec<Ip> = inst.ptw_map.keys().copied().collect();
        let loads: Vec<Ip> = inst.ptw_map.values().map(|i| i.load_ip).collect();
        let victim = ips[0];
        let other_load = loads.iter().find(|&&l| l != loads[0]).copied().unwrap();
        inst.ptw_map.get_mut(victim).unwrap().load_ip = other_load;
        let diags = check_instrumented(&m, &inst, &classification, &plan, &config);
        assert!(
            diags.iter().any(|d| matches!(
                d.lint,
                LintId::MissingPtwrite | LintId::DuplicatePtwrite | LintId::PtwriteGroupOrder
            )),
            "{diags:?}"
        );
    }
}
