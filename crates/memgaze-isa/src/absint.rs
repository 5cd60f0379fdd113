//! Abstract interpretation of register values: a layered affine stride
//! domain used as a second, independent classification oracle.
//!
//! [`crate::dataflow`] classifies loads by pattern-matching induction
//! variables (single def site `r ← r ± imm`, one level of derivation).
//! This module proves the same facts a different way: each register is
//! tracked as an **affine form** over symbolic *dimensions* — the
//! register values at loop-header entry plus the contents of tracked
//! frame slots at loop-header entry,
//!
//! ```text
//! v  =  Σ_d  coef[d] · d_H  +  konst
//! ```
//!
//! a **Loaded** taint (the value came from an in-loop memory load that
//! could not be forwarded), or ⊤ ("no proof"). A fixpoint over the loop
//! body yields, at each latch, every dimension's end-of-iteration value
//! in terms of its header-entry value; a dimension `d` has a **proven
//! per-iteration delta** iff every latch ends with the unit-coefficient
//! self-recurrence `d = d_H + δ`. A load address affine in proven
//! dimensions has stride `Σ coef·δ`; an address tainted `Loaded` is
//! **provably irregular** (see the taint argument below).
//!
//! Four layers sharpen the original PR 3 domain (DESIGN.md §16):
//!
//! * **stack-slot forwarding** — stores to `fp`/`sp`-relative slots are
//!   remembered (keyed on the *semantic* address, base register still at
//!   its header value) and forwarded to later loads, so spilled
//!   induction variables at -O0 keep their recurrence. Slots are killed
//!   conservatively: a store with an unresolvable address, a write that
//!   overlaps the slot's 8-byte window, any cross-base frame store, or a
//!   call whose summary cannot prove `!may_store` wipes the facts.
//! * **loop-nest awareness** — every loop in the
//!   [`LoopForest`](crate::loops) is analyzed, and a load proven in its
//!   innermost loop is re-expressed in the parent loop's dimensions at
//!   the inner-loop entry edge, yielding the per-outer-iteration stride
//!   (`outer_stride`) for multi-level recurrences like
//!   `base + k·s_outer + j·s_inner`.
//! * **procedure summaries** — [`crate::summary`] computes, per
//!   procedure, the registers a call may clobber, whether it may store,
//!   and argument constants agreed by every call site. Calls then
//!   clobber only the proven set, and callee analyses start from
//!   caller-proven entry facts.
//! * **value ranges** — [`crate::ranges`] intervals license the masking
//!   identities (`and r, 2^k−1` / `rem r, n` leave an affine value
//!   unchanged when the proven range already fits) and instantiate
//!   loop-invariant addresses to concrete data addresses
//!   (`const_addr`) when every contributing register has a point range
//!   at the loop header.
//!
//! Soundness of the `Loaded` taint: a register holding a `Loaded` value
//! at some point in the loop necessarily has an in-loop definition that
//! is either a `Load` or an operation over another `Loaded` register
//! (`Bin` is two-address, so derivation chains always redefine their
//! destination). The dataflow oracle's induction patterns — a single
//! `r ← r ± imm` def, or a `Mov`/`Lea` over such — can never produce
//! that shape, so every register the taint reaches is classified
//! `Varying` there, and any address using it is `Irregular` for both
//! oracles. `Loaded` therefore *proves* irregularity instead of
//! abstaining, which is what closes the pointer-chase/gather agreement
//! gap.
//!
//! General soundness: ⊤ is contagious, joins of unequal forms go to ⊤,
//! body blocks entered from outside the loop are pessimized to ⊤, and
//! all arithmetic is wrapping (mod 2⁶⁴), matching the interpreter. The
//! domain never claims a stride it cannot prove; disagreements with
//! `dataflow` where this oracle has a proof are real classification
//! bugs (see `memgaze-instrument::lint`).

use crate::cfg::Cfg;
use crate::facts::ModuleFacts;
use crate::instr::{AddrMode, BinOp, Instr, Operand};
use crate::loops::LoopForest;
use crate::module::LoadModule;
use crate::proc::{BlockId, ProcId, Procedure};
use crate::ranges::{self, RangeAnalysis, RegRanges};
use crate::reg::{Reg, NUM_REGS};
use crate::summary::ProcSummaries;
use serde::{Deserialize, Serialize};

/// Maximum number of frame slots tracked per loop; stores beyond the
/// cap still get precise overlap kills, they just never forward.
const MAX_SLOTS: usize = 8;
/// Affine dimensions: register header values plus slot header contents.
const NUM_DIMS: usize = NUM_REGS + MAX_SLOTS;

/// An abstract value: affine over loop-header dimensions, tainted by an
/// in-loop load, or ⊤ (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// `Σ coef[d] · d_header + konst`, all arithmetic wrapping.
    Affine {
        /// Coefficient per dimension (registers, then slots).
        coef: [i64; NUM_DIMS],
        /// Constant term.
        konst: i64,
    },
    /// Derived from an in-loop, non-forwarded memory load — provably
    /// `Varying` under the dataflow oracle (see module docs).
    Loaded,
    /// No information.
    Top,
}

impl AbsVal {
    fn konst(k: i64) -> AbsVal {
        AbsVal::Affine {
            coef: [0; NUM_DIMS],
            konst: k,
        }
    }

    /// The symbolic header-entry value of register `r`.
    fn ident(r: Reg) -> AbsVal {
        let mut coef = [0i64; NUM_DIMS];
        coef[r.index()] = 1;
        AbsVal::Affine { coef, konst: 0 }
    }

    /// The symbolic header-entry content of tracked slot `s`.
    fn slot_ident(s: usize) -> AbsVal {
        let mut coef = [0i64; NUM_DIMS];
        coef[NUM_REGS + s] = 1;
        AbsVal::Affine { coef, konst: 0 }
    }

    fn add(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (
                AbsVal::Affine { coef: a, konst: x },
                AbsVal::Affine {
                    coef: mut b,
                    konst: y,
                },
            ) => {
                for (bi, ai) in b.iter_mut().zip(a.iter()) {
                    *bi = bi.wrapping_add(*ai);
                }
                AbsVal::Affine {
                    coef: b,
                    konst: x.wrapping_add(y),
                }
            }
            (AbsVal::Top, _) | (_, AbsVal::Top) => AbsVal::Top,
            // Loaded + affine / Loaded + Loaded: still load-derived.
            _ => AbsVal::Loaded,
        }
    }

    fn scale(self, k: i64) -> AbsVal {
        match self {
            AbsVal::Affine { mut coef, konst } => {
                for c in coef.iter_mut() {
                    *c = c.wrapping_mul(k);
                }
                AbsVal::Affine {
                    coef,
                    konst: konst.wrapping_mul(k),
                }
            }
            AbsVal::Loaded => AbsVal::Loaded,
            AbsVal::Top => AbsVal::Top,
        }
    }

    fn neg(self) -> AbsVal {
        self.scale(-1)
    }

    /// `self + k` for a literal `k`: what `add(konst(k))` gives.
    fn offset(self, k: i64) -> AbsVal {
        match self {
            AbsVal::Affine { coef, konst } => AbsVal::Affine {
                coef,
                konst: konst.wrapping_add(k),
            },
            tainted => tainted,
        }
    }

    /// Constant term of a coefficient-free form, if this is one.
    fn as_const(self) -> Option<i64> {
        match self {
            AbsVal::Affine { coef, konst } if coef.iter().all(|&c| c == 0) => Some(konst),
            _ => None,
        }
    }

    /// Result taint for an operation with no affine model: ⊤ dominates,
    /// otherwise a `Loaded` operand keeps the result load-derived.
    fn taint(self, other: AbsVal) -> AbsVal {
        if self == AbsVal::Top || other == AbsVal::Top {
            AbsVal::Top
        } else if self == AbsVal::Loaded || other == AbsVal::Loaded {
            AbsVal::Loaded
        } else {
            AbsVal::Top
        }
    }

    /// Flat-lattice join: equal forms survive, anything else is ⊤.
    fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            AbsVal::Top
        }
    }
}

/// Abstract machine state: one value per register plus one per tracked
/// frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    regs: [AbsVal; NUM_REGS],
    slots: [AbsVal; MAX_SLOTS],
}

fn identity_state() -> State {
    State {
        regs: std::array::from_fn(|i| AbsVal::ident(Reg(i as u8))),
        slots: std::array::from_fn(AbsVal::slot_ident),
    }
}

fn top_state() -> State {
    State {
        regs: [AbsVal::Top; NUM_REGS],
        slots: [AbsVal::Top; MAX_SLOTS],
    }
}

fn join_states(a: &State, b: &State) -> State {
    State {
        regs: std::array::from_fn(|i| a.regs[i].join(b.regs[i])),
        slots: std::array::from_fn(|i| a.slots[i].join(b.slots[i])),
    }
}

/// Evaluate an address expression in a state: `base + index·scale +
/// disp`, summed from the base register's value so the common
/// one-register address costs one copy.
fn eval_addr(addr: &AddrMode, st: &State) -> AbsVal {
    let mut v = match addr.base {
        Some(b) => st.regs[b.index()],
        None => AbsVal::konst(0),
    };
    if let Some(i) = addr.index {
        v = v.add(st.regs[i.index()].scale(addr.scale as i64));
    }
    v.offset(addr.disp)
}

/// Per-loop analysis context: which frame slots are tracked, and the
/// module facts available.
struct LoopCtx<'a> {
    /// Tracked slot keys `(frame base, disp)`, indexed by slot number.
    slot_keys: &'a [(Reg, i64)],
    summaries: &'a ProcSummaries,
}

impl LoopCtx<'_> {
    /// Resolve a memory operand to a frame-slot key: the *semantic*
    /// address must be exactly `base_H + disp` for a frame base still at
    /// its header value (this catches `lea`-computed frame addresses and
    /// rejects any address whose base has been modified).
    fn frame_slot(&self, addr: &AddrMode, st: &State) -> Option<(Reg, i64)> {
        if let AbsVal::Affine { coef, konst } = eval_addr(addr, st) {
            for b in [Reg::FP, Reg::SP] {
                let unit = coef
                    .iter()
                    .enumerate()
                    .all(|(i, &c)| c == i64::from(i == b.index()));
                if unit {
                    return Some((b, konst));
                }
            }
        }
        None
    }

    fn slot_index(&self, key: (Reg, i64)) -> Option<usize> {
        self.slot_keys.iter().position(|&k| k == key)
    }
}

/// Transfer one instruction. `rst` holds the interval state *before*
/// the instruction (the caller steps it separately).
fn transfer(ins: &Instr, st: &mut State, rst: &RegRanges, ctx: &LoopCtx) {
    match ins {
        Instr::Load { dst, addr } => {
            // With no slot tracked nothing can forward: skip resolving
            // the address (most loops store to no frame slot).
            let fwd = (!ctx.slot_keys.is_empty())
                .then(|| ctx.frame_slot(addr, st))
                .flatten()
                .and_then(|key| ctx.slot_index(key))
                .map(|s| st.slots[s]);
            st.regs[dst.index()] = match fwd {
                // A tracked slot with unknown content is still a load.
                Some(AbsVal::Top) | None => AbsVal::Loaded,
                Some(v) => v,
            };
        }
        Instr::Store { src, addr } => match ctx.frame_slot(addr, st) {
            Some((b, d)) => {
                // Precise kill: an 8-byte store at `base_H + d` can only
                // touch same-base slots within 8 bytes; cross-base
                // distances are unknown, so those all die.
                for (s, &(kb, kd)) in ctx.slot_keys.iter().enumerate() {
                    if kb != b || kd.wrapping_sub(d).unsigned_abs() < 8 {
                        st.slots[s] = AbsVal::Top;
                    }
                }
                if let Some(s) = ctx.slot_index((b, d)) {
                    st.slots[s] = st.regs[src.index()];
                }
            }
            // Unresolvable store address: anything may alias.
            None => st.slots = [AbsVal::Top; MAX_SLOTS],
        },
        Instr::Ptwrite { .. } | Instr::Nop => {}
        Instr::MovImm { dst, imm } => st.regs[dst.index()] = AbsVal::konst(*imm),
        Instr::Mov { dst, src } => st.regs[dst.index()] = st.regs[src.index()],
        Instr::Lea { dst, addr } => st.regs[dst.index()] = eval_addr(addr, st),
        Instr::Bin { op, dst, rhs } => {
            let lhs = st.regs[dst.index()];
            let rhs_val = match rhs {
                Operand::Imm(i) => AbsVal::konst(*i),
                Operand::Reg(r) => st.regs[r.index()],
            };
            st.regs[dst.index()] = match op {
                BinOp::Add => lhs.add(rhs_val),
                BinOp::Sub => lhs.add(rhs_val.neg()),
                BinOp::Mul => match (lhs.as_const(), rhs_val.as_const()) {
                    (_, Some(k)) => lhs.scale(k),
                    (Some(k), _) => rhs_val.scale(k),
                    _ => lhs.taint(rhs_val),
                },
                BinOp::Shl => match rhs_val.as_const() {
                    Some(k) if (0..64).contains(&k) => lhs.scale(1i64.wrapping_shl(k as u32)),
                    _ => lhs.taint(rhs_val),
                },
                // Bitwise/shift-right/remainder: foldable when both sides
                // are literal constants; preserved when the proven value
                // range shows the mask/modulus cannot change the value;
                // otherwise only the taint survives.
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shr | BinOp::Rem => {
                    match (lhs.as_const(), rhs_val.as_const()) {
                        (Some(a), Some(b)) => {
                            let (a, b) = (a as u64, b as u64);
                            let v = match op {
                                BinOp::And => a & b,
                                BinOp::Or => a | b,
                                BinOp::Xor => a ^ b,
                                BinOp::Shr => {
                                    if b < 64 {
                                        a >> b
                                    } else {
                                        0
                                    }
                                }
                                BinOp::Rem => {
                                    if b == 0 {
                                        0
                                    } else {
                                        a % b
                                    }
                                }
                                _ => unreachable!(),
                            };
                            AbsVal::konst(v as i64)
                        }
                        _ => {
                            if range_identity(*op, *rhs, rst, dst) {
                                lhs
                            } else {
                                lhs.taint(rhs_val)
                            }
                        }
                    }
                }
            };
        }
        Instr::Call { proc } => {
            let s = ctx.summaries.get(*proc);
            for r in 0..NUM_REGS.min(14) {
                if s.clobbers & (1 << r) != 0 {
                    st.regs[r] = AbsVal::Top;
                }
            }
            if s.may_store {
                st.slots = [AbsVal::Top; MAX_SLOTS];
            }
        }
    }
}

/// Whether `dst op rhs` provably leaves `dst`'s value unchanged given
/// the interval state before the instruction: `and` with an all-ones
/// low mask covering the proven range, or `rem` by a modulus the proven
/// range never reaches.
fn range_identity(op: BinOp, rhs: Operand, rst: &RegRanges, dst: &Reg) -> bool {
    let Operand::Imm(m) = rhs else {
        return false;
    };
    let r = rst[dst.index()];
    match op {
        BinOp::And => m >= 0 && (m as u64).wrapping_add(1).is_power_of_two() && r.within(0, m),
        BinOp::Rem => m > 0 && r.within(0, m - 1),
        _ => false,
    }
}

/// What the abstract interpreter proves about one load's address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbsResult {
    /// The address is affine in proven-recurrence dimensions: its
    /// per-iteration delta in the innermost enclosing loop is exactly
    /// `stride` bytes (0 means the address repeats every iteration).
    Proven {
        /// Per-iteration address delta in bytes (innermost loop).
        stride: i64,
        /// Per-iteration delta of the enclosing loop at a fixed inner
        /// position, when the nest proof goes through (informational).
        outer_stride: Option<i64>,
        /// Concrete address, when the form is loop-invariant and every
        /// contributing register has a point range inside the module's
        /// data segment.
        const_addr: Option<i64>,
    },
    /// The address is derived from an in-loop, non-forwarded load
    /// (pointer chase / gather): provably irregular.
    ProvenIrregular,
    /// In a loop, but no proof (some contributing dimension is ⊤ or has
    /// no self-recurrence).
    Unknown,
    /// Not inside any natural loop.
    NoLoop,
}

impl AbsResult {
    /// A plain innermost-loop stride proof with no nest or range facts —
    /// the common case and the test shorthand.
    pub fn strided(stride: i64) -> AbsResult {
        AbsResult::Proven {
            stride,
            outer_stride: None,
            const_addr: None,
        }
    }

    /// The proven innermost stride, if any.
    pub fn stride(self) -> Option<i64> {
        match self {
            AbsResult::Proven { stride, .. } => Some(stride),
            _ => None,
        }
    }
}

/// Per-procedure abstract-interpretation results for every load.
#[derive(Debug, Clone)]
pub struct AbsInterp {
    /// `results[block][instr]` is `Some(result)` iff that instruction is
    /// a load.
    results: Vec<Vec<Option<AbsResult>>>,
}

/// Per-loop analysis: block states and proven per-dimension deltas.
struct LoopStates {
    /// Fixpoint in-state per body block (indexed by block id).
    in_states: Vec<Option<State>>,
    /// Fixpoint out-state per body block.
    out_states: Vec<Option<State>>,
    /// Proven per-iteration delta per dimension (`None` = no proof).
    deltas: [Option<i64>; NUM_DIMS],
    /// Tracked slot keys (dimension `NUM_REGS + s` is `slot_keys[s]`).
    slot_keys: Vec<(Reg, i64)>,
}

fn analyze_loop(
    proc: &Procedure,
    cfg: &Cfg,
    forest: &LoopForest,
    li: usize,
    summaries: &ProcSummaries,
    ranges: &RangeAnalysis,
) -> LoopStates {
    let l = &forest.loops[li];
    // Track the first MAX_SLOTS syntactic frame-store targets; semantic
    // resolution at transfer time re-checks that the base register still
    // holds its header value.
    let mut slot_keys: Vec<(Reg, i64)> = Vec::new();
    for &b in &l.body {
        for ins in &proc.block(b).instrs {
            if let Instr::Store { addr, .. } = ins {
                if addr.index.is_none() {
                    if let Some(base) = addr.base {
                        if (base.is_fp() || base.is_sp()) && slot_keys.len() < MAX_SLOTS {
                            let key = (base, addr.disp);
                            if !slot_keys.contains(&key) {
                                slot_keys.push(key);
                            }
                        }
                    }
                }
            }
        }
    }
    let ctx = LoopCtx {
        slot_keys: &slot_keys,
        summaries,
    };

    // How a body block's in-state comes about. Only a joined one depends
    // on other blocks' out-states.
    #[derive(Clone, Copy, PartialEq)]
    enum Entry {
        /// The header: every dimension at its symbolic header value.
        Header,
        /// Entered from outside the loop: no guarantees.
        Outside,
        /// The join of its predecessors' out-states.
        Joined,
    }
    let n = proc.blocks.len();
    let mut entry: Vec<Option<Entry>> = vec![None; n];
    let order: Vec<BlockId> = cfg
        .rpo()
        .iter()
        .copied()
        .filter(|b| l.contains(*b))
        .collect();
    for &b in &order {
        entry[b.index()] = Some(if b == l.header {
            Entry::Header
        } else if cfg.preds(b).iter().any(|p| !l.body.contains(p)) {
            Entry::Outside
        } else {
            Entry::Joined
        });
    }

    // Sweep the body in reverse postorder until nothing is pending. A
    // block is pending when an input of its transfer changed since it
    // last ran: once to begin with for the header and the blocks entered
    // from outside, whose in-states are fixed, and for a joined block
    // whenever a predecessor's out-state moved. Re-running a block whose
    // inputs stand would reproduce its states, so skipping it leaves
    // every sweep's result, and the fixpoint, what a full sweep gives.
    // Flat lattice (unvisited → affine/loaded → ⊤): the fixpoint
    // terminates in O(body · NUM_DIMS) joins.
    // (`vec![None; n]` would copy a 4.8 KB `None` per slot.)
    let unvisited = || -> Vec<Option<State>> { (0..n).map(|_| None).collect() };
    let (mut in_states, mut out_states) = (unvisited(), unvisited());
    let mut pending: Vec<bool> = entry
        .iter()
        .map(|e| matches!(e, Some(Entry::Header | Entry::Outside)))
        .collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for &b in &order {
            if !std::mem::take(&mut pending[b.index()]) {
                continue;
            }
            progressed = true;
            let inn = match entry[b.index()] {
                Some(Entry::Header) => identity_state(),
                Some(Entry::Outside) => top_state(),
                _ => {
                    let mut acc: Option<State> = None;
                    for &p in cfg.preds(b) {
                        if let Some(ref o) = out_states[p.index()] {
                            acc = Some(match acc {
                                None => *o,
                                Some(a) => join_states(&a, o),
                            });
                        }
                    }
                    match acc {
                        Some(a) => a,
                        None => continue, // no pred processed yet
                    }
                }
            };
            in_states[b.index()] = Some(inn);
            let mut st = inn;
            let mut rr = *ranges.block_entry(b);
            for ins in &proc.block(b).instrs {
                transfer(ins, &mut st, &rr, &ctx);
                ranges::step(ins, &mut rr, summaries);
            }
            if out_states[b.index()].as_ref() != Some(&st) {
                out_states[b.index()] = Some(st);
                for &succ in cfg.succs(b) {
                    pending[succ.index()] |= entry[succ.index()] == Some(Entry::Joined);
                }
            }
        }
    }
    // A dimension's delta is proven iff every latch (body block
    // branching back to the header) ends the iteration with the
    // unit-coefficient self-recurrence `d = d_header + δ`, with one `δ`
    // across latches.
    let latches: Vec<BlockId> = l
        .body
        .iter()
        .copied()
        .filter(|&b| cfg.succs(b).contains(&l.header))
        .collect();
    let dim_val = |st: &State, d: usize| -> AbsVal {
        if d < NUM_REGS {
            st.regs[d]
        } else {
            st.slots[d - NUM_REGS]
        }
    };
    let mut deltas: [Option<i64>; NUM_DIMS] = [None; NUM_DIMS];
    for (d, slot) in deltas.iter_mut().enumerate() {
        let mut proven: Option<i64> = None;
        let mut ok = !latches.is_empty();
        for &latch in &latches {
            let dv = out_states[latch.index()]
                .as_ref()
                .and_then(|st| match dim_val(st, d) {
                    AbsVal::Affine { coef, konst } => {
                        let unit = coef
                            .iter()
                            .enumerate()
                            .all(|(i, &c)| c == i64::from(i == d));
                        unit.then_some(konst)
                    }
                    _ => None,
                });
            match (dv, proven) {
                (Some(x), None) => proven = Some(x),
                (Some(x), Some(p)) if x == p => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            *slot = proven;
        }
    }
    LoopStates {
        in_states,
        out_states,
        deltas,
        slot_keys,
    }
}

/// Stride of an affine form under a loop's proven deltas: `Σ coef·δ`,
/// `None` if any contributing dimension is unproven.
fn stride_of(coef: &[i64; NUM_DIMS], deltas: &[Option<i64>; NUM_DIMS]) -> Option<i64> {
    let mut stride = 0i64;
    for (d, &c) in coef.iter().enumerate() {
        if c == 0 {
            continue;
        }
        stride = stride.wrapping_add(c.wrapping_mul(deltas[d]?));
    }
    Some(stride)
}

impl AbsInterp {
    /// The full layered analysis; `ModuleAbsInterp` supplies summaries,
    /// summary-seeded ranges, and the module data segment.
    fn analyze_full(
        proc: &Procedure,
        cfg: &Cfg,
        forest: &LoopForest,
        summaries: &ProcSummaries,
        ranges: &RangeAnalysis,
        data_range: Option<(u64, u64)>,
    ) -> AbsInterp {
        // One fixpoint per loop in the forest — parents included, so
        // nest proofs can substitute into the enclosing loop's frame.
        let per_loop: Vec<LoopStates> = (0..forest.loops.len())
            .map(|li| analyze_loop(proc, cfg, forest, li, summaries, ranges))
            .collect();
        let mut results = Vec::with_capacity(proc.blocks.len());
        for blk in &proc.blocks {
            let mut row = Vec::with_capacity(blk.instrs.len());
            match forest.innermost_index(blk.id) {
                None => {
                    for ins in &blk.instrs {
                        row.push(ins.is_load().then_some(AbsResult::NoLoop));
                    }
                }
                Some(li) => {
                    let ls = &per_loop[li];
                    let ctx = LoopCtx {
                        slot_keys: &ls.slot_keys,
                        summaries,
                    };
                    let mut st = match ls.in_states[blk.id.index()] {
                        Some(s) => s,
                        None => top_state(),
                    };
                    let mut rr = *ranges.block_entry(blk.id);
                    for ins in &blk.instrs {
                        let res = if let Instr::Load { addr, .. } = ins {
                            Some(match eval_addr(addr, &st) {
                                AbsVal::Affine { coef, konst } => {
                                    match stride_of(&coef, &ls.deltas) {
                                        Some(stride) => {
                                            let outer_stride = outer_stride(
                                                forest, &per_loop, li, &coef, konst, cfg,
                                            );
                                            let const_addr = (stride == 0)
                                                .then(|| {
                                                    const_addr(
                                                        &coef,
                                                        konst,
                                                        forest.loops[li].header,
                                                        ranges,
                                                        data_range,
                                                    )
                                                })
                                                .flatten();
                                            AbsResult::Proven {
                                                stride,
                                                outer_stride,
                                                const_addr,
                                            }
                                        }
                                        None => AbsResult::Unknown,
                                    }
                                }
                                AbsVal::Loaded => AbsResult::ProvenIrregular,
                                AbsVal::Top => AbsResult::Unknown,
                            })
                        } else {
                            None
                        };
                        row.push(res);
                        transfer(ins, &mut st, &rr, &ctx);
                        ranges::step(ins, &mut rr, summaries);
                    }
                }
            }
            results.push(row);
        }
        AbsInterp { results }
    }

    /// The result for the load at `(block, idx)`, or `None` if that
    /// instruction is not a load.
    pub fn load_result(&self, block: BlockId, idx: usize) -> Option<AbsResult> {
        self.results
            .get(block.index())
            .and_then(|row| row.get(idx))
            .copied()
            .flatten()
    }

    /// Collapse a result to a definite load class, when one is proven.
    ///
    /// Applies the same structural rule as `dataflow` — a zero-stride
    /// (loop-invariant) or loop-free address is Constant only for scalar
    /// frame/global addressing — *unless* the range layer resolved the
    /// invariant address to a concrete data address, which is Constant
    /// regardless of addressing shape. `Unknown` yields `None`: the
    /// oracle declines to classify rather than guess.
    pub fn proven_class(res: AbsResult, addr: &AddrMode) -> Option<memgaze_model::LoadClass> {
        use memgaze_model::LoadClass;
        match res {
            AbsResult::Proven {
                stride: 0,
                const_addr,
                ..
            } => Some(
                if addr.is_scalar_frame_or_global() || const_addr.is_some() {
                    LoadClass::Constant
                } else {
                    LoadClass::Irregular
                },
            ),
            AbsResult::NoLoop => Some(if addr.is_scalar_frame_or_global() {
                LoadClass::Constant
            } else {
                LoadClass::Irregular
            }),
            AbsResult::Proven { .. } => Some(LoadClass::Strided),
            AbsResult::ProvenIrregular => Some(LoadClass::Irregular),
            AbsResult::Unknown => None,
        }
    }
}

/// Re-express a load's affine form in the parent loop's dimensions at
/// the inner-loop entry edge and take its stride under the parent's
/// deltas. Sound because a `Proven` inner result means every
/// contributing dimension advances linearly within the inner loop, so
/// at a fixed inner position the address moves exactly by the entry
/// form's parent-stride per outer iteration.
fn outer_stride(
    forest: &LoopForest,
    per_loop: &[LoopStates],
    li: usize,
    coef: &[i64; NUM_DIMS],
    konst: i64,
    cfg: &Cfg,
) -> Option<i64> {
    let inner = &forest.loops[li];
    let pi = inner.parent?;
    let parent = &forest.loops[pi];
    let ps = &per_loop[pi];
    // Entry state: join of the parent-frame out-states on edges into the
    // inner header from outside the inner loop.
    let mut entry: Option<State> = None;
    for &p in cfg.preds(inner.header) {
        if inner.body.contains(&p) {
            continue;
        }
        let o = if parent.body.contains(&p) {
            ps.out_states[p.index()].unwrap_or_else(top_state)
        } else {
            top_state()
        };
        entry = Some(match entry {
            None => o,
            Some(a) => join_states(&a, &o),
        });
    }
    let entry = entry?;
    // Substitute each inner dimension with its parent-frame value.
    let inner_keys = &per_loop[li].slot_keys;
    let mut acc = AbsVal::konst(konst);
    for (d, &c) in coef.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let v = if d < NUM_REGS {
            entry.regs[d]
        } else {
            let key = inner_keys.get(d - NUM_REGS)?;
            match ps.slot_keys.iter().position(|k| k == key) {
                Some(os) => entry.slots[os],
                None => return None,
            }
        };
        acc = acc.add(v.scale(c));
    }
    match acc {
        AbsVal::Affine { coef, .. } => stride_of(&coef, &ps.deltas),
        _ => None,
    }
}

/// Instantiate a loop-invariant affine address to a concrete value via
/// point ranges at the loop header; accepted only inside the module's
/// data segment.
fn const_addr(
    coef: &[i64; NUM_DIMS],
    konst: i64,
    header: BlockId,
    ranges: &RangeAnalysis,
    data_range: Option<(u64, u64)>,
) -> Option<i64> {
    let (lo, hi) = data_range?;
    let entry = ranges.block_entry(header);
    let mut addr = konst;
    for (d, &c) in coef.iter().enumerate() {
        if c == 0 {
            continue;
        }
        // Slot dimensions have no interval information.
        if d >= NUM_REGS {
            return None;
        }
        let v = entry[d].as_point()?;
        addr = addr.checked_add(c.checked_mul(v)?)?;
    }
    ((addr as u64) >= lo && (addr as u64) < hi).then_some(addr)
}

/// Module-level analysis: procedure summaries, summary-seeded range
/// analyses, and the full layered abstract interpretation per
/// procedure.
#[derive(Debug, Clone)]
pub struct ModuleAbsInterp {
    summaries: ProcSummaries,
    procs: Vec<AbsInterp>,
}

impl ModuleAbsInterp {
    /// Analyze every procedure of `module` with interprocedural facts,
    /// over the CFGs and loop forests of its `facts`. A caller's ranges
    /// are the ones its last summary round computed; only a procedure
    /// that calls nothing gets its range analysis here.
    pub fn analyze(module: &LoadModule, facts: &ModuleFacts) -> ModuleAbsInterp {
        let (summaries, caller_ranges) = ProcSummaries::compute(module, facts);
        let data_range = module.data_range();
        let procs = module
            .procs
            .iter()
            .zip(caller_ranges)
            .map(|(p, ranges)| {
                let cfg = facts.cfg(p.id);
                let ranges = ranges.unwrap_or_else(|| {
                    RangeAnalysis::analyze(p, cfg, summaries.entry_ranges(p.id), &summaries)
                });
                AbsInterp::analyze_full(p, cfg, facts.forest(p.id), &summaries, &ranges, data_range)
            })
            .collect();
        ModuleAbsInterp { summaries, procs }
    }

    /// Results for one procedure.
    pub fn proc(&self, id: ProcId) -> &AbsInterp {
        &self.procs[id.index()]
    }

    /// The computed procedure summaries (shared with `dataflow`).
    pub fn summaries(&self) -> &ProcSummaries {
        &self.summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, ProcBuilder};
    use crate::instr::{CmpOp, Terminator};
    use crate::proc::{BasicBlock, ProcId};
    use crate::ranges::top_ranges;

    /// One procedure with no module context: the empty summary table
    /// (conventional call clobbers), no argument facts, no data segment.
    fn analyze(proc: &Procedure) -> AbsInterp {
        let cfg = Cfg::build(proc);
        let forest = LoopForest::build(proc, &cfg);
        let sums = ProcSummaries::default();
        let ranges = RangeAnalysis::analyze(proc, &cfg, top_ranges(), &sums);
        AbsInterp::analyze_full(proc, &cfg, &forest, &sums, &ranges, None)
    }

    fn loop_proc(body_instrs: Vec<Instr>, latch_reg: Reg) -> Procedure {
        Procedure {
            id: ProcId(0),
            name: "k".into(),
            blocks: vec![
                BasicBlock {
                    id: BlockId(0),
                    instrs: vec![
                        Instr::MovImm {
                            dst: Reg::gp(0),
                            imm: 0,
                        },
                        Instr::MovImm {
                            dst: Reg::gp(1),
                            imm: 0x1000,
                        },
                    ],
                    term: Terminator::Jmp(BlockId(1)),
                    src_line: 1,
                },
                BasicBlock {
                    id: BlockId(1),
                    instrs: body_instrs,
                    term: Terminator::Br {
                        lhs: latch_reg,
                        op: CmpOp::Lt,
                        rhs: Operand::Imm(100),
                        taken: BlockId(1),
                        not_taken: BlockId(2),
                    },
                    src_line: 2,
                },
                BasicBlock {
                    id: BlockId(2),
                    instrs: vec![],
                    term: Terminator::Ret,
                    src_line: 3,
                },
            ],
            entry: BlockId(0),
            src_file: "k.c".into(),
        }
    }

    #[test]
    fn proves_index_iv_stride() {
        let (i, a, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_index(a, i, 8, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 0), Some(AbsResult::strided(8)));
    }

    #[test]
    fn proves_through_mov_copy() {
        // j ← mov i; load [a + j*8]; i += 1 — the dataflow analysis
        // handles this via derived IVs, the affine domain natively.
        let (i, a, j, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let p = loop_proc(
            vec![
                Instr::Mov { dst: j, src: i },
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_index(a, j, 8, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 1), Some(AbsResult::strided(8)));
    }

    #[test]
    fn pointer_chase_is_unknown() {
        // x ← load [x] at the top of the body: the address is the
        // symbolic header value of x, whose recurrence is load-derived
        // and therefore unproven — the oracle declines to classify.
        let (i, x, y) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: y,
                    addr: AddrMode::base_disp(x, 0),
                },
                Instr::Mov { dst: x, src: y },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 0), Some(AbsResult::Unknown));
    }

    #[test]
    fn gather_index_is_proven_irregular() {
        // idx ← load [p + i*8]; x ← load [a + idx*8]: the second
        // address is tainted by the in-loop index load — a *proof* of
        // irregularity (dataflow necessarily sees Varying too).
        let (i, a, idx, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: idx,
                    addr: AddrMode::base_index(a, i, 8, 0),
                },
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_index(a, idx, 8, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 0), Some(AbsResult::strided(8)));
        let res = ai.load_result(BlockId(1), 1).unwrap();
        assert_eq!(res, AbsResult::ProvenIrregular);
        assert_eq!(
            AbsInterp::proven_class(res, &AddrMode::base_index(a, idx, 8, 0)),
            Some(memgaze_model::LoadClass::Irregular)
        );
        let df = crate::dataflow::tests::analyze(&p);
        assert_eq!(
            df.load_kind(BlockId(1), 1),
            Some(crate::dataflow::AddrKind::Irregular)
        );
    }

    #[test]
    fn frame_reload_is_invariant_constant() {
        let (i, s) = (Reg::gp(0), Reg::gp(2));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: s,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        let res = ai.load_result(BlockId(1), 0).unwrap();
        assert_eq!(res, AbsResult::strided(0));
        assert_eq!(
            AbsInterp::proven_class(res, &AddrMode::base_disp(Reg::FP, -8)),
            Some(memgaze_model::LoadClass::Constant)
        );
    }

    #[test]
    fn scaled_pointer_bump_proves_wide_stride() {
        // p += 16 via two +8 increments: still one proven recurrence.
        let (i, p_reg, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_disp(p_reg, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: p_reg,
                    rhs: Operand::Imm(8),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: p_reg,
                    rhs: Operand::Imm(8),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        // Two def sites defeat the dataflow IV pattern; the affine domain
        // composes them into one +16 recurrence.
        assert_eq!(ai.load_result(BlockId(1), 0), Some(AbsResult::strided(16)));
        let df = crate::dataflow::tests::analyze(&p);
        assert_eq!(
            df.load_kind(BlockId(1), 0),
            Some(crate::dataflow::AddrKind::Irregular)
        );
    }

    #[test]
    fn no_loop_loads_are_flagged_no_loop() {
        let p = Procedure {
            id: ProcId(0),
            name: "s".into(),
            blocks: vec![BasicBlock {
                id: BlockId(0),
                instrs: vec![Instr::Load {
                    dst: Reg::gp(0),
                    addr: AddrMode::base_disp(Reg::FP, -16),
                }],
                term: Terminator::Ret,
                src_line: 1,
            }],
            entry: BlockId(0),
            src_file: "s.c".into(),
        };
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(0), 0), Some(AbsResult::NoLoop));
    }

    #[test]
    fn call_clobbers_scratch() {
        // Load through r0 after a call in the loop: no claim without a
        // summary proving r0 is preserved.
        let (i, x) = (Reg::gp(6), Reg::gp(7));
        let p = loop_proc(
            vec![
                Instr::Call { proc: ProcId(0) },
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_disp(Reg::gp(0), 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 1), Some(AbsResult::Unknown));
    }

    #[test]
    fn conditional_reset_defeats_invariance_claim() {
        // i is reset to 0 on one path: joins drive it to ⊤, so a load
        // indexed by it makes no claim (a naive "invariant" call here
        // would be unsound).
        let (i, a, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        let p = Procedure {
            id: ProcId(0),
            name: "k".into(),
            blocks: vec![
                BasicBlock {
                    id: BlockId(0),
                    instrs: vec![
                        Instr::MovImm { dst: i, imm: 0 },
                        Instr::MovImm {
                            dst: a,
                            imm: 0x1000,
                        },
                    ],
                    term: Terminator::Jmp(BlockId(1)),
                    src_line: 1,
                },
                // header: branch on x to 2 or 3
                BasicBlock {
                    id: BlockId(1),
                    instrs: vec![Instr::Load {
                        dst: x,
                        addr: AddrMode::base_index(a, i, 8, 0),
                    }],
                    term: Terminator::Br {
                        lhs: x,
                        op: CmpOp::Eq,
                        rhs: Operand::Imm(0),
                        taken: BlockId(2),
                        not_taken: BlockId(3),
                    },
                    src_line: 2,
                },
                BasicBlock {
                    id: BlockId(2),
                    instrs: vec![Instr::MovImm { dst: i, imm: 0 }],
                    term: Terminator::Jmp(BlockId(4)),
                    src_line: 3,
                },
                BasicBlock {
                    id: BlockId(3),
                    instrs: vec![Instr::Bin {
                        op: BinOp::Add,
                        dst: i,
                        rhs: Operand::Imm(1),
                    }],
                    term: Terminator::Jmp(BlockId(4)),
                    src_line: 4,
                },
                // latch
                BasicBlock {
                    id: BlockId(4),
                    instrs: vec![],
                    term: Terminator::Br {
                        lhs: i,
                        op: CmpOp::Lt,
                        rhs: Operand::Imm(100),
                        taken: BlockId(1),
                        not_taken: BlockId(5),
                    },
                    src_line: 5,
                },
                BasicBlock {
                    id: BlockId(5),
                    instrs: vec![],
                    term: Terminator::Ret,
                    src_line: 6,
                },
            ],
            entry: BlockId(0),
            src_file: "k.c".into(),
        };
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 0), Some(AbsResult::Unknown));
    }

    #[test]
    fn spilled_iv_forwards_through_frame_slot() {
        // t ← load [fp-8]; load [a + t*8]; t += 1; store t, [fp-8]:
        // slot forwarding turns the spilled counter into a proven +8
        // recurrence; dataflow sees two defs of t and gives Irregular.
        let (i, a, t, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: t,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_index(a, t, 8, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: t,
                    rhs: Operand::Imm(1),
                },
                Instr::Store {
                    src: t,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 1), Some(AbsResult::strided(8)));
        let df = crate::dataflow::tests::analyze(&p);
        assert_eq!(
            df.load_kind(BlockId(1), 1),
            Some(crate::dataflow::AddrKind::Irregular)
        );
    }

    #[test]
    fn unknown_store_kills_slot_forwarding() {
        // Same shape, but a store through a loaded pointer follows the
        // spill: every slot dies, so no stride survives.
        let (i, a, t, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: t,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_index(a, t, 8, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: t,
                    rhs: Operand::Imm(1),
                },
                Instr::Store {
                    src: t,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Store {
                    src: t,
                    addr: AddrMode::base_disp(x, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        let res = ai.load_result(BlockId(1), 1).unwrap();
        assert_eq!(res.stride(), None, "killed slot must refute the proof");
    }

    #[test]
    fn adjacent_slot_store_does_not_kill_disjoint_slot() {
        // Stores to [fp-16] are 8 bytes away from [fp-8]: disjoint, so
        // the forwarded fact survives.
        let (i, a, t, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let p = loop_proc(
            vec![
                Instr::Load {
                    dst: t,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Load {
                    dst: x,
                    addr: AddrMode::base_index(a, t, 8, 0),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: t,
                    rhs: Operand::Imm(1),
                },
                Instr::Store {
                    src: t,
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                Instr::Store {
                    src: i,
                    addr: AddrMode::base_disp(Reg::FP, -16),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: i,
                    rhs: Operand::Imm(1),
                },
            ],
            i,
        );
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 1), Some(AbsResult::strided(8)));
        // An overlapping store (4 bytes off) must kill it.
        let mut instrs = p.blocks[1].instrs.clone();
        instrs[4] = Instr::Store {
            src: i,
            addr: AddrMode::base_disp(Reg::FP, -12),
        };
        let p2 = loop_proc(instrs, i);
        let ai2 = analyze(&p2);
        assert_eq!(ai2.load_result(BlockId(1), 1).unwrap().stride(), None);
    }

    #[test]
    fn nested_loops_prove_outer_stride() {
        // for k { a = base + k*400; for j { load [a + j*8] } }
        let (k, a, j, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let base = Reg::gp(4);
        let mut pb = ProcBuilder::new("nest", "t.c");
        let outer = pb.new_block();
        let inner = pb.new_block();
        let outer_latch = pb.new_block();
        let exit = pb.new_block();
        pb.mov_imm(k, 0);
        pb.mov_imm(base, 0x1000);
        pb.jmp(outer);
        pb.switch_to(outer);
        pb.mov(a, base);
        pb.mov(x, k);
        pb.bin(BinOp::Mul, x, Operand::Imm(400));
        pb.bin(BinOp::Add, a, Operand::Reg(x));
        pb.mov_imm(j, 0);
        pb.jmp(inner);
        pb.switch_to(inner);
        pb.load(x, AddrMode::base_index(a, j, 8, 0));
        pb.add_imm(j, 1);
        pb.br(j, CmpOp::Lt, Operand::Imm(50), inner, outer_latch);
        pb.switch_to(outer_latch);
        pb.add_imm(k, 1);
        pb.br(k, CmpOp::Lt, Operand::Imm(100), outer, exit);
        pb.switch_to(exit);
        pb.ret();
        let p = pb.finish(ProcId(0));
        let ai = analyze(&p);
        // Entry block is 0, outer header 1, inner body 2.
        let res = ai.load_result(BlockId(2), 0).unwrap();
        assert_eq!(
            res,
            AbsResult::Proven {
                stride: 8,
                outer_stride: Some(400),
                const_addr: None,
            }
        );
    }

    #[test]
    fn masked_index_proves_stride_via_ranges() {
        // j ← mov i; j &= 511; load [a + j*8]; i += 1 with i < 512:
        // the range analysis proves i in [0, 511], so the mask is an
        // identity and the stride survives.
        let (i, a, j, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let mut pb = ProcBuilder::new("mask", "t.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.mov_imm(i, 0);
        pb.mov_imm(a, 0x1000);
        pb.jmp(body);
        pb.switch_to(body);
        pb.mov(j, i);
        pb.bin(BinOp::And, j, Operand::Imm(511));
        pb.load(x, AddrMode::base_index(a, j, 8, 0));
        pb.add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(512), body, exit);
        pb.switch_to(exit);
        pb.ret();
        let p = pb.finish(ProcId(0));
        let ai = analyze(&p);
        assert_eq!(ai.load_result(BlockId(1), 2), Some(AbsResult::strided(8)));
        // With a mask smaller than the trip bound the identity fails and
        // the domain must decline (the index genuinely wraps).
        let mut pb2 = ProcBuilder::new("mask2", "t.c");
        let body = pb2.new_block();
        let exit = pb2.new_block();
        pb2.mov_imm(i, 0);
        pb2.mov_imm(a, 0x1000);
        pb2.jmp(body);
        pb2.switch_to(body);
        pb2.mov(j, i);
        pb2.bin(BinOp::And, j, Operand::Imm(255));
        pb2.load(x, AddrMode::base_index(a, j, 8, 0));
        pb2.add_imm(i, 1);
        pb2.br(i, CmpOp::Lt, Operand::Imm(512), body, exit);
        pb2.switch_to(exit);
        pb2.ret();
        let p2 = pb2.finish(ProcId(0));
        let ai2 = analyze(&p2);
        assert_eq!(ai2.load_result(BlockId(1), 2), Some(AbsResult::Unknown));
    }

    #[test]
    fn summary_preserves_slots_across_pure_calls() {
        // The spilled-IV loop calls a pure leaf each iteration: with a
        // module summary proving the leaf neither stores nor clobbers t,
        // the forwarded stride survives; a storing leaf refutes it.
        fn build(leaf_stores: bool) -> LoadModule {
            let mut mb = ModuleBuilder::new(if leaf_stores { "impure" } else { "pure" });
            mb.alloc_global("data", 64);
            let leaf_id = mb.next_proc_id();
            let mut leaf = ProcBuilder::new("leaf", "t.c");
            leaf.mov_imm(Reg::gp(9), 7);
            if leaf_stores {
                leaf.store(Reg::gp(9), AddrMode::base_disp(Reg::FP, -8));
            }
            leaf.ret();
            mb.add(leaf);

            let (i, a, t, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
            let mut kb = ProcBuilder::new("kern", "t.c");
            let body = kb.new_block();
            let exit = kb.new_block();
            kb.mov_imm(i, 0);
            kb.mov_imm(a, 0x1000);
            kb.mov_imm(t, 0);
            kb.store(t, AddrMode::base_disp(Reg::FP, -8));
            kb.jmp(body);
            kb.switch_to(body);
            kb.load(t, AddrMode::base_disp(Reg::FP, -8));
            kb.load(x, AddrMode::base_index(a, t, 8, 0));
            kb.add_imm(t, 1);
            kb.store(t, AddrMode::base_disp(Reg::FP, -8));
            kb.call(leaf_id);
            kb.add_imm(i, 1);
            kb.br(i, CmpOp::Lt, Operand::Imm(100), body, exit);
            kb.switch_to(exit);
            kb.ret();
            mb.add(kb);
            mb.finish()
        }

        let pure = {
            let m = build(false);
            ModuleAbsInterp::analyze(&m, &ModuleFacts::build(&m))
        };
        let res = pure.proc(ProcId(1)).load_result(BlockId(1), 1).unwrap();
        assert_eq!(res.stride(), Some(8), "pure call must preserve the slot");

        let impure = {
            let m = build(true);
            ModuleAbsInterp::analyze(&m, &ModuleFacts::build(&m))
        };
        let res = impure.proc(ProcId(1)).load_result(BlockId(1), 1).unwrap();
        assert_eq!(res.stride(), None, "storing callee must kill the slot");
    }

    #[test]
    fn arg_const_resolves_invariant_address_to_data_constant() {
        // main passes the same global pointer at every call site; the
        // leaf's loop-invariant load through it resolves to a concrete
        // data address and classifies Constant despite the register
        // base.
        let mut mb = ModuleBuilder::new("argconst");
        let g = mb.alloc_global("g", 8);
        let leaf_id = mb.next_proc_id();
        let (i, x) = (Reg::gp(6), Reg::gp(7));
        let mut leaf = ProcBuilder::new("leaf", "t.c");
        let body = leaf.new_block();
        let exit = leaf.new_block();
        leaf.mov_imm(i, 0);
        leaf.jmp(body);
        leaf.switch_to(body);
        leaf.load(x, AddrMode::base_disp(Reg::gp(0), 0));
        leaf.add_imm(i, 1);
        leaf.br(i, CmpOp::Lt, Operand::Imm(100), body, exit);
        leaf.switch_to(exit);
        leaf.ret();
        mb.add(leaf);
        let mut main = ProcBuilder::new("main", "t.c");
        main.mov_imm(Reg::gp(0), g as i64);
        main.call(leaf_id);
        main.mov_imm(Reg::gp(0), g as i64);
        main.call(leaf_id);
        main.ret();
        mb.add(main);
        let m = mb.finish();

        let mai = ModuleAbsInterp::analyze(&m, &ModuleFacts::build(&m));
        let res = mai.proc(ProcId(0)).load_result(BlockId(1), 0).unwrap();
        assert_eq!(
            res,
            AbsResult::Proven {
                stride: 0,
                outer_stride: None,
                const_addr: Some(g as i64),
            }
        );
        assert_eq!(
            AbsInterp::proven_class(res, &AddrMode::base_disp(Reg::gp(0), 0)),
            Some(memgaze_model::LoadClass::Constant)
        );
    }
}
