//! Mutation tests of the static verifier and lint framework: corrupt
//! generated modules (and instrumentation artifacts) in targeted ways and
//! check each corruption is caught with its own lint id, while clean
//! generated modules verify with zero errors and zero unsound differential
//! disagreements.

use memgaze::instrument::lint::check_instrumented;
use memgaze::instrument::plan::InstrPlan;
use memgaze::instrument::{
    lint_module, ClassifiedLoad, InstrumentConfig, Instrumenter, ModuleClassification,
};
use memgaze::isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
use memgaze::isa::{
    verify_module, AbsResult, AddrKind, AddrMode, BasicBlock, BlockId, DataInit, Diagnostic, Instr,
    LintId, LoadModule, Operand, ProcId, Reg, Severity, Terminator,
};
use memgaze::model::{Ip, LoadClass};
use memgaze::workloads::modules::{
    call_graph_module, masked_index_module, nested_loop_module, spilled_iv_module, synthetic_module,
};
use proptest::prelude::*;

fn gen(compose: Compose, opt: OptLevel) -> LoadModule {
    codegen::generate(&UKernelSpec {
        compose,
        elems: 64,
        reps: 2,
        opt,
    })
}

/// A generated module with all three load classes present.
fn mixed(opt: OptLevel) -> LoadModule {
    gen(
        Compose::Serial(vec![Pattern::strided(2), Pattern::Irregular]),
        opt,
    )
}

fn has(diags: &[Diagnostic], lint: LintId) -> bool {
    diags.iter().any(|d| d.lint == lint)
}

fn assert_flags(m: &LoadModule, lint: LintId) {
    let diags = verify_module(m);
    assert!(
        has(&diags, lint),
        "expected {lint} among diagnostics, got: {diags:?}"
    );
}

// --- structural mutations (V0xx) ---------------------------------------

#[test]
fn mutation_proc_id_mismatch() {
    for opt in [OptLevel::O0, OptLevel::O3] {
        let mut m = mixed(opt);
        m.procs[0].id = ProcId(7);
        assert_flags(&m, LintId::ProcIdMismatch);
    }
}

#[test]
fn mutation_block_id_mismatch() {
    let mut m = mixed(OptLevel::O3);
    let b = m.procs[0].blocks.len() - 1;
    m.procs[0].blocks[b].id = BlockId(b as u32 + 5);
    assert_flags(&m, LintId::BlockIdMismatch);
}

#[test]
fn mutation_entry_out_of_range() {
    let mut m = mixed(OptLevel::O0);
    m.procs[0].entry = BlockId(99);
    assert_flags(&m, LintId::EntryOutOfRange);
}

#[test]
fn mutation_terminator_target_out_of_range() {
    let mut m = mixed(OptLevel::O3);
    let last = m.procs[0].blocks.len() - 1;
    m.procs[0].blocks[last].term = Terminator::Jmp(BlockId(999));
    assert_flags(&m, LintId::TermTargetOutOfRange);
}

#[test]
fn mutation_call_target_missing() {
    let mut m = mixed(OptLevel::O0);
    let entry = m.procs[0].entry.index();
    m.procs[0].blocks[entry]
        .instrs
        .push(Instr::Call { proc: ProcId(99) });
    assert_flags(&m, LintId::CallTargetMissing);
}

// --- CFG and dataflow mutations (C1xx) ----------------------------------

#[test]
fn mutation_unreachable_block_is_warning() {
    let mut m = mixed(OptLevel::O3);
    let next = m.procs[0].blocks.len() as u32;
    m.procs[0].blocks.push(BasicBlock {
        id: BlockId(next),
        instrs: vec![],
        term: Terminator::Ret,
        src_line: 0,
    });
    let diags = verify_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.lint == LintId::UnreachableBlock)
        .expect("unreachable block flagged");
    assert_eq!(hit.severity, Severity::Warning);
}

#[test]
fn mutation_use_before_def_is_warning() {
    let mut m = mixed(OptLevel::O0);
    // r13 is not in the entry-defined set and codegen never writes it, so
    // a copy out of it at the procedure's entry reads an undefined value.
    let entry = m.procs[0].entry.index();
    m.procs[0].blocks[entry].instrs.insert(
        0,
        Instr::Mov {
            dst: Reg::gp(6),
            src: Reg::gp(13),
        },
    );
    let diags = verify_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.lint == LintId::UseBeforeDef)
        .expect("use-before-def flagged");
    assert_eq!(hit.severity, Severity::Warning);
}

// --- data-layout mutations (D3xx) ---------------------------------------

#[test]
fn mutation_data_overlap() {
    let mut m = mixed(OptLevel::O3);
    let first = m.data.first().expect("generated module has data").clone();
    m.data.push(DataInit {
        label: "shadow".into(),
        base: first.base,
        words: vec![0],
    });
    assert_flags(&m, LintId::DataOverlap);
}

#[test]
fn mutation_code_data_overlap() {
    let mut m = mixed(OptLevel::O0);
    m.data.push(DataInit {
        label: "in_text".into(),
        base: m.base_ip,
        words: vec![0],
    });
    assert_flags(&m, LintId::CodeDataOverlap);
}

#[test]
fn mutation_data_break_behind() {
    let mut m = mixed(OptLevel::O3);
    m.data_break = 0;
    assert_flags(&m, LintId::DataBreakBehind);
}

// --- instrumentation-artifact mutations (P5xx) --------------------------

struct Artifacts {
    module: LoadModule,
    classification: ModuleClassification,
    plan: InstrPlan,
    inst: memgaze::instrument::Instrumented,
    config: InstrumentConfig,
}

fn artifacts(opt: OptLevel) -> Artifacts {
    let module = mixed(opt);
    let config = InstrumentConfig::default();
    let classification = ModuleClassification::analyze(&module);
    let plan = InstrPlan::build(&module, &classification, &config);
    let inst = Instrumenter::new(config.clone()).instrument(&module);
    Artifacts {
        module,
        classification,
        plan,
        inst,
        config,
    }
}

fn check(a: &Artifacts) -> Vec<Diagnostic> {
    check_instrumented(&a.module, &a.inst, &a.classification, &a.plan, &a.config)
}

#[test]
fn mutation_remapped_ptwrite_breaks_group() {
    let mut a = artifacts(OptLevel::O3);
    let first_load = a.inst.ptw_map.values().next().unwrap().load_ip;
    let other = a
        .inst
        .ptw_map
        .values()
        .map(|i| i.load_ip)
        .find(|&l| l != first_load)
        .expect("module has more than one instrumented load");
    let victim = *a.inst.ptw_map.keys().next().unwrap();
    a.inst.ptw_map.get_mut(&victim).unwrap().load_ip = other;
    let diags = check(&a);
    assert!(has(&diags, LintId::MissingPtwrite), "{diags:?}");
}

#[test]
fn mutation_dropped_ptw_map_entry_is_orphan() {
    let mut a = artifacts(OptLevel::O0);
    let victim = *a.inst.ptw_map.keys().next().unwrap();
    a.inst.ptw_map.remove(&victim);
    let diags = check(&a);
    assert!(has(&diags, LintId::OrphanPtwrite), "{diags:?}");
}

#[test]
fn mutation_annotation_class_flip() {
    let mut a = artifacts(OptLevel::O3);
    let (&ip, annot) = a.inst.annots.iter().next().expect("has annotations");
    let mut bad = *annot;
    bad.class = match bad.class {
        LoadClass::Constant => LoadClass::Irregular,
        _ => LoadClass::Constant,
    };
    a.inst.annots.insert(ip, bad);
    let diags = check(&a);
    assert!(has(&diags, LintId::AnnotationMismatch), "{diags:?}");
}

#[test]
fn mutation_implied_count_bump() {
    let mut a = artifacts(OptLevel::O0);
    let (&ip, annot) = a.inst.annots.iter().next().expect("has annotations");
    let mut bad = *annot;
    bad.implied_const += 3;
    a.inst.annots.insert(ip, bad);
    let diags = check(&a);
    assert!(has(&diags, LintId::ImpliedCountMismatch), "{diags:?}");
}

#[test]
fn mutation_stats_bump() {
    let mut a = artifacts(OptLevel::O3);
    a.inst.stats.constant_loads += 1;
    let diags = check(&a);
    assert!(has(&diags, LintId::StatsMismatch), "{diags:?}");
}

/// `check_instrumented` is public and takes the plan and classification
/// on trust; handed tables of another module it used to panic in
/// `expect`. It now refuses them in one `StatsMismatch` naming the load
/// counts — also when the counts agree and only the addresses differ.
#[test]
fn foreign_tables_are_refused_not_indexed() {
    let a = artifacts(OptLevel::O3);
    let other = gen(Compose::Single(Pattern::Irregular), OptLevel::O0);
    let mut shifted = a.module.clone();
    let entry = shifted.procs[0].entry.index();
    shifted.procs[0].blocks[entry].instrs.insert(0, Instr::Nop);
    assert_ne!(other.num_loads(), a.module.num_loads());
    assert_eq!(shifted.num_loads(), a.module.num_loads());

    for foreign in [&other, &shifted] {
        let classification = ModuleClassification::analyze(foreign);
        let plan = InstrPlan::build(foreign, &classification, &a.config);
        for (c, p) in [
            (&classification, &a.plan),
            (&a.classification, &plan),
            (&classification, &plan),
        ] {
            let diags = check_instrumented(&a.module, &a.inst, c, p, &a.config);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].lint, LintId::StatsMismatch);
            for loads in [p.iter().count(), c.len(), a.module.num_loads()] {
                assert!(
                    diags[0].message.contains(&format!("{loads} loads")),
                    "{}",
                    diags[0].message
                );
            }
        }
    }
    assert!(check(&a).is_empty());
}

// --- clean modules verify; differential agreement -----------------------

/// Every generated microbenchmark module and every synthetic workload
/// module lints with zero errors and zero unsound differential
/// disagreements (the abstract interpreter never proves a load *more*
/// regular than the dataflow classifier observes).
#[test]
fn differential_no_unsound_disagreements_across_suites() {
    let mut modules: Vec<LoadModule> = Vec::new();
    for opt in [OptLevel::O0, OptLevel::O3] {
        for bench in memgaze::workloads::ubench::suite(opt) {
            modules.push(bench.module());
        }
    }
    modules.push(synthetic_module(4, 9));
    modules.push(synthetic_module(16, 12));

    let config = InstrumentConfig::default();
    let mut total = memgaze::instrument::DiffSummary::default();
    for m in &modules {
        let report = lint_module(m, &config);
        assert!(
            !report.has_errors(),
            "{}: {:?}",
            report.module,
            report.diagnostics
        );
        assert_eq!(
            report.differential.unsound, 0,
            "{}: unsound disagreement",
            report.module
        );
        total.merge(&report.differential);
    }
    assert!(total.loads > 0);
    assert!(
        total.agreement_rate() > 0.5,
        "rate {}",
        total.agreement_rate()
    );
}

/// The uncompressed configuration must also produce clean artifacts.
#[test]
fn uncompressed_config_lints_clean() {
    let m = mixed(OptLevel::O3);
    let report = lint_module(&m, &InstrumentConfig::uncompressed());
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
}

// --- abstract-interpretation proof mutations ----------------------------
//
// Each new analysis layer (slot forwarding, loop-nest induction,
// interprocedural summaries, value-range identities) gets a pair of
// tests: one that the proof goes through on the workload built to need
// it, and one that a targeted mutation invalidating the proof's premise
// actually refutes it — the classifier must drop back to the dataflow
// verdict instead of keeping a now-wrong upgrade. Every mutation also
// re-lints the module and asserts the differential stays sound.

/// The unique classified load matching `pred`.
fn the_load(c: &ModuleClassification, pred: impl Fn(&ClassifiedLoad) -> bool) -> ClassifiedLoad {
    let hits: Vec<&ClassifiedLoad> = c.loads().filter(|l| pred(l)).collect();
    assert_eq!(hits.len(), 1, "expected exactly one matching load");
    *hits[0]
}

/// Mutated modules must still lint without unsound disagreements (and,
/// since upgrades were refuted rather than miscarried, without errors).
fn assert_sound(m: &LoadModule) {
    let report = lint_module(m, &InstrumentConfig::default());
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    assert_eq!(report.differential.unsound, 0, "unsound after mutation");
}

#[test]
fn slot_forwarding_proves_spilled_iv() {
    let m = spilled_iv_module(64);
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert_eq!(l.dataflow_kind, AddrKind::Irregular, "dataflow gives up");
    assert_eq!(l.kind, AddrKind::Strided { stride: 8 }, "absint forwards");
    assert!(l.upgraded());
    assert_sound(&m);
}

#[test]
fn mutation_unknown_store_kills_slot_forwarding() {
    let mut m = spilled_iv_module(64);
    // A store through an untracked pointer may alias the spill slot, so
    // the forwarded recurrence is no longer provable.
    m.procs[0].blocks[1].instrs.push(Instr::Store {
        src: Reg::gp(5),
        addr: AddrMode::base_disp(Reg::gp(12), 0),
    });
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert!(!l.upgraded(), "forwarding must die: {:?}", l.absint);
    assert_eq!(l.kind, AddrKind::Irregular);
    assert_sound(&m);
}

#[test]
fn mutation_overlapping_slot_store_kills_forwarding() {
    let mut m = spilled_iv_module(64);
    // An 8-byte store at FP-12 overlaps the FP-8 slot's window, so the
    // precise same-base kill must discard the tracked content.
    m.procs[0].blocks[1].instrs.push(Instr::Store {
        src: Reg::gp(4),
        addr: AddrMode::base_disp(Reg::FP, -12),
    });
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert!(!l.upgraded(), "overlap must kill the slot: {:?}", l.absint);
    assert_sound(&m);
}

#[test]
fn nest_proof_carries_outer_stride() {
    let m = nested_loop_module(8, 16);
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert_eq!(l.kind, AddrKind::Strided { stride: 8 });
    match l.absint {
        AbsResult::Proven {
            stride,
            outer_stride,
            ..
        } => {
            assert_eq!(stride, 8);
            assert_eq!(outer_stride, Some(16 * 8), "row pitch proven");
        }
        other => panic!("expected nest proof, got {other:?}"),
    }
    assert_sound(&m);
}

#[test]
fn mutation_loaded_row_base_refutes_nest_proof() {
    let mut m = nested_loop_module(8, 16);
    // Redefine the row base from memory inside the inner loop: the
    // address now depends on loaded data, so the induction proof must
    // collapse (ProvenIrregular or Unknown, never a stride).
    m.procs[0].blocks[2].instrs.insert(
        0,
        Instr::Load {
            dst: Reg::gp(1),
            addr: AddrMode::base_disp(Reg::gp(1), 0),
        },
    );
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert!(l.absint.stride().is_none(), "no stride: {:?}", l.absint);
    assert_sound(&m);
}

#[test]
fn summaries_keep_caller_pointer_and_prove_leaf_const() {
    let m = call_graph_module(64);
    let c = ModuleClassification::analyze(&m);
    // Caller's array walk survives the calls because the leaf's summary
    // proves gp2 is not clobbered.
    let caller = the_load(&c, |l| l.scale == 8);
    assert_eq!(caller.kind, AddrKind::Strided { stride: 8 });
    // The leaf's argument dereference resolves to the one global scalar
    // every call site passes, upgrading Irregular to Constant.
    let leaf = the_load(&c, |l| l.scale != 8);
    assert_eq!(leaf.dataflow_kind, AddrKind::Irregular);
    assert_eq!(leaf.kind, AddrKind::Constant);
    assert!(leaf.upgraded());
    assert_sound(&m);
}

#[test]
fn mutation_clobbering_leaf_refutes_caller_proof() {
    let mut m = call_graph_module(64);
    // Make the leaf scribble over the caller's array pointer: its
    // summary must report the clobber and the caller's stride proof
    // (and the summary-aware dataflow verdict) must both collapse.
    m.procs[0].blocks[1].instrs.push(Instr::MovImm {
        dst: Reg::gp(2),
        imm: 0,
    });
    let c = ModuleClassification::analyze(&m);
    let caller = the_load(&c, |l| l.scale == 8);
    assert_ne!(caller.kind, AddrKind::Strided { stride: 8 });
    assert_sound(&m);
}

#[test]
fn mutation_disagreeing_call_sites_refute_const_addr() {
    let mut m = call_graph_module(64);
    // Point the second call site's argument somewhere else: the leaf's
    // argument is no longer a single known constant, so the Constant
    // upgrade must not happen.
    let main = &mut m.procs[1];
    let exit = main.blocks.len() - 1;
    for ins in &mut main.blocks[exit].instrs {
        if let Instr::MovImm { dst, imm } = ins {
            if dst.index() == 0 {
                *imm += 64;
            }
        }
    }
    let c = ModuleClassification::analyze(&m);
    let leaf = the_load(&c, |l| l.scale != 8);
    assert_ne!(leaf.kind, AddrKind::Constant, "upgrade must be refuted");
    assert_sound(&m);
}

#[test]
fn mutation_recursive_arg_scramble_degrades_const_to_top() {
    let mut m = call_graph_module(64);
    // Make the leaf call itself with a data-dependent argument: the
    // summary fixpoint must terminate, and the recursive call site's
    // loaded gp0 drives the argument fact to ⊤, refuting the leaf's
    // Constant upgrade. The caller's cross-call stride proof is
    // unaffected (the clobber set is still precise under recursion).
    let leaf_id = m.procs[0].id;
    let body = &mut m.procs[0].blocks[1].instrs;
    body.push(Instr::Mov {
        dst: Reg::gp(0),
        src: Reg::gp(9),
    });
    body.push(Instr::Call { proc: leaf_id });
    let c = ModuleClassification::analyze(&m);
    let leaf = the_load(&c, |l| l.scale != 8);
    assert_ne!(leaf.kind, AddrKind::Constant, "arg fact must hit top");
    let caller = the_load(&c, |l| l.scale == 8);
    assert_eq!(caller.kind, AddrKind::Strided { stride: 8 });
    assert_sound(&m);
}

#[test]
fn range_identity_proves_masked_index() {
    let m = masked_index_module(64);
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert_eq!(l.dataflow_kind, AddrKind::Irregular, "mask defeats IVs");
    assert_eq!(l.kind, AddrKind::Strided { stride: 8 });
    assert!(l.upgraded());
    assert_sound(&m);
}

#[test]
fn mutation_narrow_mask_refutes_range_identity() {
    let mut m = masked_index_module(64);
    // Shrink the mask below the loop bound: the index genuinely wraps
    // at 16 now, so `i & 15 == i` no longer holds and the affine proof
    // must be refuted.
    for b in &mut m.procs[0].blocks {
        for ins in &mut b.instrs {
            if let Instr::Bin {
                rhs: Operand::Imm(imm),
                ..
            } = ins
            {
                if *imm == 63 {
                    *imm = 15;
                }
            }
        }
    }
    let c = ModuleClassification::analyze(&m);
    let l = the_load(&c, |l| l.scale == 8);
    assert!(!l.upgraded(), "wrapping mask: {:?}", l.absint);
    assert_eq!(l.kind, AddrKind::Irregular);
    assert_sound(&m);
}

#[test]
fn gather_loads_are_proven_irregular() {
    // A dependent (pointer-chasing) load must come back ProvenIrregular,
    // not merely Unknown: the interpreter positively established the
    // address is data-dependent.
    let m = gen(Compose::Single(Pattern::Irregular), OptLevel::O3);
    let c = ModuleClassification::analyze(&m);
    assert!(
        c.loads()
            .any(|l| matches!(l.absint, AbsResult::ProvenIrregular)),
        "no ProvenIrregular load in the gather kernel"
    );
    assert_sound(&m);
}

/// The eliding configuration keeps every artifact invariant the linter
/// checks (including observe/imply/elide conservation) on the showcase
/// workloads and a mixed microbenchmark.
#[test]
fn eliding_config_lints_clean_and_conserves() {
    let modules = [
        spilled_iv_module(64),
        nested_loop_module(8, 16),
        call_graph_module(64),
        masked_index_module(64),
        mixed(OptLevel::O3),
    ];
    let config = InstrumentConfig::eliding();
    for m in &modules {
        let report = lint_module(m, &config);
        assert!(!report.has_errors(), "{}: {:?}", m.name, report.diagnostics);
        let c = ModuleClassification::analyze(m);
        let plan = InstrPlan::build(m, &c, &config);
        let implied: u64 = plan.iter().map(|(_, d)| d.implied_const as u64).sum();
        assert_eq!(
            plan.num_instrumented() + implied + plan.num_elided(),
            c.len() as u64,
            "{}: conservation",
            m.name
        );
    }
}

// --- properties ----------------------------------------------------------

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (1u32..=8).prop_map(Pattern::strided),
        Just(Pattern::Irregular),
    ]
}

fn arb_compose() -> impl Strategy<Value = Compose> {
    prop_oneof![
        arb_pattern().prop_map(Compose::Single),
        prop::collection::vec(arb_pattern(), 1..3).prop_map(Compose::Serial),
        (arb_pattern(), arb_pattern(), 0u8..=100).prop_map(|(first, second, likelihood)| {
            Compose::Conditional {
                first,
                second,
                likelihood,
            }
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = UKernelSpec> {
    (
        arb_compose(),
        16u32..256,
        1u32..4,
        prop_oneof![Just(OptLevel::O0), Just(OptLevel::O3)],
    )
        .prop_map(|(compose, elems, reps, opt)| UKernelSpec {
            compose,
            elems,
            reps,
            opt,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean generated modules always verify with zero errors and a sound
    /// differential: the verifier has no false positives on the code the
    /// generator actually produces.
    #[test]
    fn clean_generated_modules_always_lint_clean(spec in arb_spec()) {
        let m = codegen::generate(&spec);
        let report = lint_module(&m, &InstrumentConfig::default());
        prop_assert!(!report.has_errors(), "{:?}", report.diagnostics);
        prop_assert_eq!(report.differential.unsound, 0);
    }

    /// The abstract interpreter never produces an unsound proof — a load
    /// it claims is *more* regular than the final fused class — on any
    /// generated kernel, under either planner configuration. This is the
    /// soundness half of the precision ratchet.
    #[test]
    fn absint_never_unsound(spec in arb_spec()) {
        let m = codegen::generate(&spec);
        for config in [InstrumentConfig::default(), InstrumentConfig::eliding()] {
            let report = lint_module(&m, &config);
            prop_assert_eq!(report.differential.unsound, 0);
            prop_assert!(!report.has_errors(), "{:?}", report.diagnostics);
        }
    }

    /// Every address the layout hands out round-trips through locate, and
    /// addresses in inter-procedure padding resolve to nothing.
    #[test]
    fn layout_locate_round_trips(spec in arb_spec()) {
        let m = codegen::generate(&spec);
        let layout = m.layout();
        for (p, proc) in m.procs.iter().enumerate() {
            let pid = ProcId(p as u32);
            for block in &proc.blocks {
                for idx in 0..block.len() {
                    let ip = layout.ip_of(pid, block.id, idx);
                    prop_assert_eq!(layout.locate(ip), Some((pid, block.id, idx)));
                }
            }
            let end = layout.proc_end(pid);
            let next = if p + 1 < m.procs.len() {
                layout.proc_base(ProcId(p as u32 + 1)).0
            } else {
                end.0
            };
            for gap in (end.0..next).step_by(1) {
                prop_assert_eq!(layout.locate(Ip(gap)), None);
            }
        }
    }
}
