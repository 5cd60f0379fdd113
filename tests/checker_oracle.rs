//! The plan checker against the checker it replaced.
//!
//! `check_instrumented` reads each artifact once, in address order,
//! beside the address-ordered classification and plan. Its job is to
//! distrust the artifacts, so the ordered passes must report what a
//! checker that assumes no order reports — under any damage, not only on
//! clean output. `reference_check` below is that checker: the
//! implementation of commit 5cdd8ac, which groups `ptw_map` in a tree
//! and probes `ptw_map`, `annots`, `source_map`, the plan, the
//! classification and the layout by address for every load and every
//! instruction. The test damages the artifacts of clean rewrites at
//! random — entries dropped, added, redirected and re-labelled in each
//! table, instructions replaced, inserted and deleted in the rewritten
//! module, statistics bumped, up to three at once — and demands the same
//! diagnostics in the same order.

use memgaze::instrument::lint::check_instrumented;
use memgaze::instrument::plan::InstrPlan;
use memgaze::instrument::{
    InstrumentConfig, Instrumented, Instrumenter, ModuleClassification, PtwInfo, PtwRole,
};
use memgaze::isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
use memgaze::isa::{AddrKind, Diagnostic, Instr, LintId, LoadModule, Reg, Site};
use memgaze::model::symbols::SourceMap;
use memgaze::model::{AuxAnnotations, Ip, LoadClass};
use memgaze::workloads::modules::synthetic_module;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The checker of commit 5cdd8ac, unchanged but for its name.
fn reference_check(
    orig: &LoadModule,
    inst: &Instrumented,
    classification: &ModuleClassification,
    plan: &InstrPlan,
    config: &InstrumentConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let name = &inst.module.name;
    let orig_layout = orig.layout();
    let new_layout = inst.module.layout();

    // --- ptwrite groups ---------------------------------------------------
    // Group ptw_map entries by the load they instrument; BTreeMap keys are
    // new addresses, so each group comes out in address order.
    let mut groups: BTreeMap<Ip, Vec<(Ip, PtwInfo)>> = BTreeMap::new();
    for (&ip, &info) in &inst.ptw_map {
        groups.entry(info.load_ip).or_default().push((ip, info));
    }
    for (&load_ip, decision) in plan.iter() {
        let cl = classification
            .get(load_ip)
            .expect("planned load classified");
        let site = || Site::instr(name, cl.proc, cl.block, cl.idx, Some(load_ip));
        let expected = if decision.instrument {
            cl.num_sources
        } else {
            0
        };
        let group = groups.remove(&load_ip).unwrap_or_default();
        if group.len() < expected {
            diags.push(Diagnostic::error(
                LintId::MissingPtwrite,
                site(),
                format!(
                    "load has {} ptwrites, plan requires {expected}",
                    group.len()
                ),
            ));
            continue;
        }
        if group.len() > expected {
            diags.push(Diagnostic::error(
                LintId::DuplicatePtwrite,
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
        let roles: Vec<PtwRole> = group.iter().map(|(_, i)| i.role).collect();
        let mut expected_roles: Vec<PtwRole> = Vec::new();
        if base_reg_of(orig, cl.proc, cl.block, cl.idx).is_some() {
            expected_roles.push(PtwRole::Base);
        }
        if index_reg_of(orig, cl.proc, cl.block, cl.idx).is_some() {
            expected_roles.push(PtwRole::Index);
        }
        if expected > 0 && roles != expected_roles {
            diags.push(Diagnostic::error(
                LintId::PtwriteGroupOrder,
                site(),
                format!("ptwrite roles {roles:?}, expected {expected_roles:?}"),
            ));
        }
        let lasts: Vec<bool> = group.iter().map(|(_, i)| i.last).collect();
        if expected > 0
            && (lasts.iter().filter(|&&l| l).count() != 1 || lasts.last() != Some(&true))
        {
            diags.push(Diagnostic::error(
                LintId::PtwriteGroupOrder,
                site(),
                format!("bad `last` marking {lasts:?} in ptwrite group"),
            ));
        }
        // Each entry must point at an actual Ptwrite of the right register
        // placed before the load in the same block.
        for (ptw_ip, info) in &group {
            match located_instr(&inst.module, &new_layout, *ptw_ip) {
                Some(Instr::Ptwrite { src }) => {
                    let want = match info.role {
                        PtwRole::Base => base_reg_of(orig, cl.proc, cl.block, cl.idx),
                        PtwRole::Index => index_reg_of(orig, cl.proc, cl.block, cl.idx),
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
    // Groups not consumed above instrument a load the plan doesn't know.
    for (load_ip, group) in groups {
        diags.push(Diagnostic::error(
            LintId::OrphanPtwrite,
            Site::module(name),
            format!("{} ptwrites for unplanned load {load_ip}", group.len()),
        ));
    }
    // Reverse direction: every Ptwrite instruction has a ptw_map entry.
    for proc in &inst.module.procs {
        for block in &proc.blocks {
            for (idx, ins) in block.instrs.iter().enumerate() {
                if ins.is_ptwrite() {
                    let ip = new_layout.ip_of(proc.id, block.id, idx);
                    if !inst.ptw_map.contains_key(&ip) {
                        diags.push(Diagnostic::error(
                            LintId::OrphanPtwrite,
                            Site::instr(name, proc.id, block.id, idx, Some(ip)),
                            "ptwrite instruction missing from ptw_map".to_string(),
                        ));
                    }
                }
            }
        }
    }

    // --- source map: total, round-tripping, injective, order-preserving ---
    let mut remap: Vec<Ip> = Vec::new();
    for proc in &inst.module.procs {
        for block in &proc.blocks {
            for idx in 0..block.len() {
                let new_ip = new_layout.ip_of(proc.id, block.id, idx);
                let Some(loc) = inst.source_map.resolve(new_ip) else {
                    diags.push(Diagnostic::error(
                        LintId::SourceMapMissing,
                        Site::instr(name, proc.id, block.id, idx, Some(new_ip)),
                        "new instruction has no source-map entry".to_string(),
                    ));
                    continue;
                };
                if orig_layout.locate(loc.orig_ip).is_none() {
                    diags.push(Diagnostic::error(
                        LintId::SourceMapDangling,
                        Site::instr(name, proc.id, block.id, idx, Some(new_ip)),
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
                let is_ptw = idx < block.instrs.len() && block.instrs[idx].is_ptwrite();
                if !is_ptw {
                    remap.push(loc.orig_ip);
                }
            }
        }
    }
    for w in remap.windows(2) {
        if w[1] == w[0] {
            diags.push(Diagnostic::error(
                LintId::RemapNotInjective,
                Site::module(name),
                format!("two non-inserted instructions map to original {}", w[0]),
            ));
        } else if w[1] < w[0] {
            diags.push(Diagnostic::error(
                LintId::RemapOrderViolation,
                Site::module(name),
                format!("original order inverted: {} after {}", w[1], w[0]),
            ));
        }
    }

    // --- annotations reconcile with classification and plan ---------------
    for cl in classification.loads() {
        let site = || Site::instr(name, cl.proc, cl.block, cl.idx, Some(cl.ip));
        let Some(a) = inst.annots.get(cl.ip) else {
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
        let planned = plan.get(cl.ip).expect("classified load planned");
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
    if inst.annots.len() != classification.len() {
        diags.push(Diagnostic::error(
            LintId::AnnotationMismatch,
            Site::module(name),
            format!(
                "{} annotations for {} classified loads",
                inst.annots.len(),
                classification.len()
            ),
        ));
    }
    // Per-block conservation (Fig. 2): in a compressed ROI block with any
    // instrumentation, observed + implied loads reconstruct the block's
    // static load count.
    if config.compresses() {
        for proc in &orig.procs {
            if !config.in_roi(&proc.name) {
                continue;
            }
            for block in &proc.blocks {
                let loads: Vec<Ip> = block
                    .load_positions()
                    .map(|idx| orig_layout.ip_of(proc.id, block.id, idx))
                    .collect();
                if loads.is_empty() {
                    continue;
                }
                let decisions: Vec<_> = loads
                    .iter()
                    .map(|ip| plan.get(*ip).expect("planned"))
                    .collect();
                let instrumented = decisions.iter().filter(|d| d.instrument).count() as u64;
                let implied: u64 = decisions.iter().map(|d| d.implied_const as u64).sum();
                let elided = decisions.iter().filter(|d| d.elided).count() as u64;
                if (instrumented > 0 || elided > 0)
                    && instrumented + implied + elided != loads.len() as u64
                {
                    diags.push(Diagnostic::error(
                        LintId::ImpliedCountMismatch,
                        Site {
                            proc: Some(proc.id),
                            block: Some(block.id),
                            ..Site::module(name)
                        },
                        format!(
                            "{}: block observes {instrumented} + implies {implied} + \
                             elides {elided} loads but contains {}",
                            proc.name,
                            loads.len()
                        ),
                    ));
                }
            }
        }
    }

    // --- stats reconcile ---------------------------------------------------
    let mut counts = (0u64, 0u64, 0u64);
    for cl in classification.loads() {
        if !config.in_roi(&orig.proc(cl.proc).name) {
            continue;
        }
        match cl.kind {
            AddrKind::Constant => counts.0 += 1,
            AddrKind::Strided { .. } => counts.1 += 1,
            AddrKind::Irregular => counts.2 += 1,
        }
    }
    let s = &inst.stats;
    let expect = [
        ("constant_loads", s.constant_loads, counts.0),
        ("strided_loads", s.strided_loads, counts.1),
        ("irregular_loads", s.irregular_loads, counts.2),
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

fn located_instr(
    module: &LoadModule,
    layout: &memgaze::isa::module::ModuleLayout,
    ip: Ip,
) -> Option<Instr> {
    let (p, b, idx) = layout.locate(ip)?;
    module.proc(p).block(b).instrs.get(idx).copied()
}

fn base_reg_of(
    module: &LoadModule,
    proc: memgaze::isa::ProcId,
    block: memgaze::isa::BlockId,
    idx: usize,
) -> Option<memgaze::isa::Reg> {
    module.proc(proc).block(block).instrs[idx]
        .addr_mode()
        .and_then(|a| a.base)
}

fn index_reg_of(
    module: &LoadModule,
    proc: memgaze::isa::ProcId,
    block: memgaze::isa::BlockId,
    idx: usize,
) -> Option<memgaze::isa::Reg> {
    module.proc(proc).block(block).instrs[idx]
        .addr_mode()
        .and_then(|a| a.index)
}

fn below(rng: &mut SmallRng, n: usize) -> usize {
    rng.gen_range(0..n.max(1))
}

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[below(rng, items.len())])
}

/// Addresses to aim damaged entries at: every instruction of the module
/// (terminators included), plus padding, unaligned and out-of-range ones.
fn addresses(module: &LoadModule) -> Vec<Ip> {
    let layout = module.layout();
    let end = module.base_ip + layout.code_bytes();
    let mut ips: Vec<Ip> = layout.instr_ips().collect();
    ips.extend((module.base_ip..end).step_by(4).map(Ip));
    ips.extend(
        [
            module.base_ip + 1,
            module.base_ip - 4,
            end,
            end + 6,
            0,
            u64::MAX,
        ]
        .map(Ip),
    );
    ips
}

/// One random injury to the artifacts.
fn damage(inst: &mut Instrumented, orig: &LoadModule, rng: &mut SmallRng) {
    let new_ips = addresses(&inst.module);
    let orig_ips = addresses(orig);
    let ptw_keys: Vec<Ip> = inst.ptw_map.keys().copied().collect();
    let annot_keys: Vec<Ip> = inst.annots.iter().map(|(ip, _)| *ip).collect();
    let map_keys: Vec<Ip> = inst.source_map.iter().map(|(ip, _)| *ip).collect();
    match below(rng, 18) {
        0 => {
            if let Some(k) = pick(rng, &ptw_keys) {
                inst.ptw_map.remove(&k);
            }
        }
        // Redirect an entry: at another load, or at no load at all.
        1 | 2 => {
            if let (Some(k), Some(to)) = (pick(rng, &ptw_keys), pick(rng, &orig_ips)) {
                inst.ptw_map.get_mut(&k).expect("picked").load_ip = to;
            }
        }
        3 => {
            if let Some(k) = pick(rng, &ptw_keys) {
                let info = inst.ptw_map.get_mut(&k).expect("picked");
                info.role = match info.role {
                    PtwRole::Base => PtwRole::Index,
                    PtwRole::Index => PtwRole::Base,
                };
            }
        }
        4 => {
            if let Some(k) = pick(rng, &ptw_keys) {
                let info = inst.ptw_map.get_mut(&k).expect("picked");
                info.last = !info.last;
            }
        }
        // A new entry anywhere, labelled for any address.
        5 | 6 => {
            if let (Some(at), Some(load_ip)) = (pick(rng, &new_ips), pick(rng, &orig_ips)) {
                let info = PtwInfo {
                    load_ip,
                    role: if below(rng, 2) == 0 {
                        PtwRole::Base
                    } else {
                        PtwRole::Index
                    },
                    last: below(rng, 2) == 0,
                };
                inst.ptw_map.insert(at, info);
            }
        }
        // Move an entry to another address.
        7 => {
            if let (Some(k), Some(to)) = (pick(rng, &ptw_keys), pick(rng, &new_ips)) {
                let info = inst.ptw_map.remove(&k).expect("picked");
                inst.ptw_map.insert(to, info);
            }
        }
        8 => {
            if let Some(k) = pick(rng, &annot_keys) {
                inst.annots = inst
                    .annots
                    .iter()
                    .filter(|(ip, _)| **ip != k)
                    .map(|(ip, a)| (*ip, *a))
                    .collect::<AuxAnnotations>();
            }
        }
        // An annotation where no load is, or a copy of one on another load.
        9 => {
            if let (Some(from), Some(to)) = (pick(rng, &annot_keys), pick(rng, &orig_ips)) {
                let a = *inst.annots.get(from).expect("picked");
                inst.annots.insert(to, a);
            }
        }
        10 => {
            if let Some(k) = pick(rng, &annot_keys) {
                let mut a = *inst.annots.get(k).expect("picked");
                match below(rng, 4) {
                    0 => {
                        a.class = match a.class {
                            LoadClass::Constant => LoadClass::Strided,
                            LoadClass::Strided => LoadClass::Irregular,
                            LoadClass::Irregular => LoadClass::Constant,
                        }
                    }
                    1 => a.scale ^= 4,
                    2 => a.offset += 8,
                    _ => a.implied_const += 1 + below(rng, 3) as u32,
                }
                inst.annots.insert(k, a);
            }
        }
        11 => {
            if let Some(k) = pick(rng, &map_keys) {
                inst.source_map = inst
                    .source_map
                    .iter()
                    .filter(|(ip, _)| **ip != k)
                    .map(|(ip, loc)| (*ip, *loc))
                    .collect::<SourceMap>();
            }
        }
        // Re-aim a source-map entry: at another original instruction
        // (order, injectivity) or at none (dangling).
        12 | 13 => {
            if let (Some(k), Some(to)) = (pick(rng, &map_keys), pick(rng, &orig_ips)) {
                let line = inst.source_map.resolve(k).expect("picked").line;
                inst.source_map.record(k, to, line);
            }
        }
        // Entries for addresses that may hold no instruction.
        14 => {
            if let (Some(at), Some(to)) = (pick(rng, &new_ips), pick(rng, &orig_ips)) {
                inst.source_map.record(at, to, 0);
            }
        }
        // Damage the rewritten code itself: replace, insert or delete an
        // instruction (the last two move every later address).
        15 | 16 => {
            let p = below(rng, inst.module.procs.len());
            let b = below(rng, inst.module.procs[p].blocks.len());
            let instrs = &mut inst.module.procs[p].blocks[b].instrs;
            let with = match below(rng, 3) {
                0 => Instr::Nop,
                1 => Instr::Ptwrite {
                    src: Reg::gp(below(rng, 8) as u8),
                },
                _ => Instr::Mov {
                    dst: Reg::gp(3),
                    src: Reg::gp(4),
                },
            };
            match (below(rng, 3), instrs.is_empty()) {
                (0, false) => {
                    let at = below(rng, instrs.len());
                    instrs[at] = with;
                }
                (1, false) => {
                    let at = below(rng, instrs.len());
                    instrs.remove(at);
                }
                _ => {
                    let at = below(rng, instrs.len() + 1);
                    instrs.insert(at, with);
                }
            }
        }
        _ => {
            let s = &mut inst.stats;
            let fields = [
                &mut s.constant_loads,
                &mut s.strided_loads,
                &mut s.irregular_loads,
                &mut s.instrumented_loads,
                &mut s.elided_loads,
                &mut s.ptwrites_inserted,
                &mut s.blocks,
            ];
            let n = fields.len();
            *fields.into_iter().nth(below(rng, n)).expect("in range") += 1;
        }
    }
}

#[test]
fn ordered_passes_report_what_the_probing_checker_reports() {
    let gen = |compose, opt| {
        codegen::generate(&UKernelSpec {
            compose,
            elems: 64,
            reps: 2,
            opt,
        })
    };
    let mixed = || Compose::Serial(vec![Pattern::strided(2), Pattern::Irregular]);
    let modules = [
        gen(mixed(), OptLevel::O0),
        gen(mixed(), OptLevel::O3),
        gen(
            Compose::Conditional {
                first: Pattern::strided(1),
                second: Pattern::Irregular,
                likelihood: 50,
            },
            OptLevel::O0,
        ),
        synthetic_module(4, 9),
    ];
    let configs = [
        InstrumentConfig::default(),
        InstrumentConfig::eliding(),
        InstrumentConfig::uncompressed(),
        InstrumentConfig::with_roi(["kernel", "f1"]),
    ];
    let mut rng = SmallRng::seed_from_u64(19);
    let mut raised: BTreeSet<&'static str> = BTreeSet::new();
    for module in &modules {
        let classification = ModuleClassification::analyze(module);
        for config in &configs {
            let plan = InstrPlan::build(module, &classification, config);
            let clean =
                Instrumenter::new(config.clone()).instrument_classified(module, &classification);
            let both = |inst: &Instrumented| {
                let got = check_instrumented(module, inst, &classification, &plan, config);
                let want = reference_check(module, inst, &classification, &plan, config);
                assert_eq!(got, want, "{} under {config:?}", module.name);
                got
            };
            assert_eq!(both(&clean), vec![]);
            for _ in 0..250 {
                let mut inst = clean.clone();
                for _ in 0..1 + below(&mut rng, 3) {
                    damage(&mut inst, module, &mut rng);
                }
                raised.extend(both(&inst).iter().map(|d| d.lint.code()));
            }
        }
    }
    // The damage reaches every lint the checker can raise.
    let all: BTreeSet<&str> = [
        LintId::MissingPtwrite,
        LintId::DuplicatePtwrite,
        LintId::OrphanPtwrite,
        LintId::PtwriteGroupOrder,
        LintId::RemapNotInjective,
        LintId::RemapOrderViolation,
        LintId::SourceMapMissing,
        LintId::SourceMapDangling,
        LintId::ImpliedCountMismatch,
        LintId::AnnotationMismatch,
        LintId::StatsMismatch,
    ]
    .iter()
    .map(|l| l.code())
    .collect();
    assert_eq!(raised, all);
}
