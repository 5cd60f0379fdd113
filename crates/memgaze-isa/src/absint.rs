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
//! The coefficient vectors live in one hash-consed table per module
//! ([`Forms`]): a value holds the id of its vector and its constant, so
//! two forms are equal iff their ids are, and sums and multiples are
//! computed once per pair of operands. Every vector is kept whole and
//! exact, one wrapping `i64` per dimension.
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
use crate::proc::{BasicBlock, BlockId, ProcId, Procedure};
use crate::ranges::{self, RangeAnalysis, RegRanges};
use crate::reg::{Reg, NUM_REGS};
use crate::summary::ProcSummaries;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of frame slots tracked per loop; stores beyond the
/// cap still get precise overlap kills, they just never forward.
const MAX_SLOTS: usize = 8;
/// Affine dimensions: register header values plus slot header contents.
const NUM_DIMS: usize = NUM_REGS + MAX_SLOTS;
// A form's nonzero dimensions are one `u32` mask.
const _: () = assert!(NUM_DIMS <= 32);

/// Coefficient per dimension (registers, then slots).
type Coefs = [i64; NUM_DIMS];

/// The id of a coefficient vector in a module's [`Forms`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct FormId(u32);

/// The ids of the set bits of `mask`, lowest first: a form's nonzero
/// dimensions in dimension order.
fn dims(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let d = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            d
        })
    })
}

/// Multiply-rotate hashing (the rustc "Fx" hash) for the table's keys:
/// ids, literals and coefficient vectors the analysis made itself.
#[derive(Default)]
struct FormHasher(u64);

impl FormHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FormHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

type FormMap<K> = HashMap<K, FormId, BuildHasherDefault<FormHasher>>;

/// One module's coefficient vectors, hash-consed: each distinct vector
/// is stored once, so equal forms have equal ids however they were
/// reached, and a `join` that compares ids compares vectors. Sums and
/// multiples are memoised on the operand ids. Nothing is capped or
/// rounded: a vector has every dimension, each a wrapping `i64`.
struct Forms {
    /// Coefficient vector and nonzero-dimension mask (bit `d` for
    /// dimension `d`) per id.
    forms: Vec<(Coefs, u32)>,
    /// Id per interned vector.
    ids: FormMap<Coefs>,
    /// `a + b` per `(a, b)` with `a < b`.
    sums: FormMap<(FormId, FormId)>,
    /// `k · a` per `(a, k)`.
    scaled: FormMap<(FormId, i64)>,
}

impl Forms {
    /// The zero vector, a constant's form.
    const ZERO: FormId = FormId(0);
    /// Room the table starts with: the zero and unit vectors and the few
    /// dozen a module's address arithmetic adds.
    const ROOM: usize = 64;

    /// A table holding the zero vector and the unit vectors.
    fn new() -> Forms {
        let mut forms = Forms {
            forms: Vec::with_capacity(Forms::ROOM),
            ids: FormMap::with_capacity_and_hasher(Forms::ROOM, Default::default()),
            sums: FormMap::with_capacity_and_hasher(Forms::ROOM, Default::default()),
            scaled: FormMap::with_capacity_and_hasher(Forms::ROOM, Default::default()),
        };
        forms.intern([0; NUM_DIMS]);
        for d in 0..NUM_DIMS {
            let mut coefs = [0; NUM_DIMS];
            coefs[d] = 1;
            forms.intern(coefs);
        }
        forms
    }

    /// The unit vector of dimension `d`: its symbolic header value.
    fn unit(d: usize) -> FormId {
        FormId(1 + d as u32)
    }

    fn intern(&mut self, coefs: Coefs) -> FormId {
        if let Some(&id) = self.ids.get(&coefs) {
            return id;
        }
        let id = FormId(self.forms.len() as u32);
        let mask = (0..NUM_DIMS)
            .filter(|&d| coefs[d] != 0)
            .fold(0u32, |m, d| m | 1 << d);
        self.forms.push((coefs, mask));
        self.ids.insert(coefs, id);
        id
    }

    fn mask(&self, f: FormId) -> u32 {
        self.forms[f.0 as usize].1
    }

    fn coef(&self, f: FormId, d: usize) -> i64 {
        self.forms[f.0 as usize].0[d]
    }

    fn add(&mut self, a: FormId, b: FormId) -> FormId {
        if a == Forms::ZERO {
            return b;
        }
        if b == Forms::ZERO {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&sum) = self.sums.get(&key) {
            return sum;
        }
        let mut coefs = self.forms[a.0 as usize].0;
        for (c, x) in coefs.iter_mut().zip(&self.forms[b.0 as usize].0) {
            *c = c.wrapping_add(*x);
        }
        let sum = self.intern(coefs);
        self.sums.insert(key, sum);
        sum
    }

    fn scale(&mut self, a: FormId, k: i64) -> FormId {
        if k == 1 {
            return a;
        }
        if a == Forms::ZERO || k == 0 {
            return Forms::ZERO;
        }
        let key = (a, k);
        if let Some(&scaled) = self.scaled.get(&key) {
            return scaled;
        }
        let mut coefs = self.forms[a.0 as usize].0;
        for c in coefs.iter_mut() {
            *c = c.wrapping_mul(k);
        }
        let scaled = self.intern(coefs);
        self.scaled.insert(key, scaled);
        scaled
    }
}

/// An abstract value: affine over loop-header dimensions, tainted by an
/// in-loop load, or ⊤ (unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// `Σ coef[d] · d_header + konst`, all arithmetic wrapping, the
    /// coefficients those of `form`.
    Affine {
        /// Coefficient vector (registers, then slots).
        form: FormId,
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
            form: Forms::ZERO,
            konst: k,
        }
    }

    /// The symbolic header-entry value of dimension `d`: register `d`,
    /// or tracked slot `d - NUM_REGS`.
    fn dim(d: usize) -> AbsVal {
        AbsVal::Affine {
            form: Forms::unit(d),
            konst: 0,
        }
    }

    fn add(self, other: AbsVal, forms: &mut Forms) -> AbsVal {
        match (self, other) {
            (AbsVal::Affine { form: a, konst: x }, AbsVal::Affine { form: b, konst: y }) => {
                AbsVal::Affine {
                    form: forms.add(a, b),
                    konst: x.wrapping_add(y),
                }
            }
            (AbsVal::Top, _) | (_, AbsVal::Top) => AbsVal::Top,
            // Loaded + affine / Loaded + Loaded: still load-derived.
            _ => AbsVal::Loaded,
        }
    }

    fn scale(self, k: i64, forms: &mut Forms) -> AbsVal {
        match self {
            AbsVal::Affine { form, konst } => AbsVal::Affine {
                form: forms.scale(form, k),
                konst: konst.wrapping_mul(k),
            },
            tainted => tainted,
        }
    }

    fn neg(self, forms: &mut Forms) -> AbsVal {
        self.scale(-1, forms)
    }

    /// `self + k` for a literal `k`: what `add(konst(k))` gives.
    fn offset(self, k: i64) -> AbsVal {
        match self {
            AbsVal::Affine { form, konst } => AbsVal::Affine {
                form,
                konst: konst.wrapping_add(k),
            },
            tainted => tainted,
        }
    }

    /// Constant term of a coefficient-free form, if this is one.
    fn as_const(self) -> Option<i64> {
        match self {
            AbsVal::Affine {
                form: Forms::ZERO,
                konst,
            } => Some(konst),
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
        regs: std::array::from_fn(AbsVal::dim),
        slots: std::array::from_fn(|s| AbsVal::dim(NUM_REGS + s)),
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
/// disp`.
fn eval_addr(addr: &AddrMode, st: &State, forms: &mut Forms) -> AbsVal {
    let mut v = match addr.base {
        Some(b) => st.regs[b.index()],
        None => AbsVal::konst(0),
    };
    if let Some(i) = addr.index {
        v = v.add(st.regs[i.index()].scale(addr.scale as i64, forms), forms);
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
    fn frame_slot(&self, addr: &AddrMode, st: &State, forms: &mut Forms) -> Option<(Reg, i64)> {
        if let AbsVal::Affine { form, konst } = eval_addr(addr, st, forms) {
            for b in [Reg::FP, Reg::SP] {
                if form == Forms::unit(b.index()) {
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

/// Whether `ins` reads the interval state in [`transfer`]: an `and` or a
/// `rem` by a literal, the masking identities' shape.
fn reads_ranges(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::Bin {
            op: BinOp::And | BinOp::Rem,
            rhs: Operand::Imm(_),
            ..
        }
    )
}

/// Transfer one instruction. `rst` holds the interval state *before*
/// the instruction (the caller steps it separately); it may be `None`
/// in a block where no instruction [`reads_ranges`].
fn transfer(
    ins: &Instr,
    st: &mut State,
    rst: Option<&RegRanges>,
    ctx: &LoopCtx,
    forms: &mut Forms,
) {
    match ins {
        Instr::Load { dst, addr } => {
            // With no slot tracked nothing can forward: skip resolving
            // the address (most loops store to no frame slot).
            let fwd = (!ctx.slot_keys.is_empty())
                .then(|| ctx.frame_slot(addr, st, forms))
                .flatten()
                .and_then(|key| ctx.slot_index(key))
                .map(|s| st.slots[s]);
            st.regs[dst.index()] = match fwd {
                // A tracked slot with unknown content is still a load.
                Some(AbsVal::Top) | None => AbsVal::Loaded,
                Some(v) => v,
            };
        }
        Instr::Store { src, addr } => match ctx.frame_slot(addr, st, forms) {
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
        Instr::Lea { dst, addr } => st.regs[dst.index()] = eval_addr(addr, st, forms),
        Instr::Bin { op, dst, rhs } => {
            let lhs = st.regs[dst.index()];
            let rhs_val = match rhs {
                Operand::Imm(i) => AbsVal::konst(*i),
                Operand::Reg(r) => st.regs[r.index()],
            };
            st.regs[dst.index()] = match op {
                BinOp::Add => lhs.add(rhs_val, forms),
                BinOp::Sub => lhs.add(rhs_val.neg(forms), forms),
                BinOp::Mul => match (lhs.as_const(), rhs_val.as_const()) {
                    (_, Some(k)) => lhs.scale(k, forms),
                    (Some(k), _) => rhs_val.scale(k, forms),
                    _ => lhs.taint(rhs_val),
                },
                BinOp::Shl => match rhs_val.as_const() {
                    Some(k) if (0..64).contains(&k) => {
                        lhs.scale(1i64.wrapping_shl(k as u32), forms)
                    }
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
                            if rst.is_some_and(|rst| range_identity(*op, *rhs, rst, dst)) {
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

/// Run `blk` from `st` and return its out-state. With `record` (the
/// block's slice of the per-instruction value table), each load's
/// address value is written at the load's position, so the last run
/// leaves the values of the last in-state. The interval state is
/// stepped beside only when some instruction of the block reads it.
fn walk_block(
    blk: &BasicBlock,
    mut st: State,
    ranges: &RangeAnalysis,
    ctx: &LoopCtx,
    forms: &mut Forms,
    mut record: Option<&mut [Option<AbsVal>]>,
) -> State {
    let mut rr = blk
        .instrs
        .iter()
        .any(reads_ranges)
        .then(|| *ranges.block_entry(blk.id));
    for (i, ins) in blk.instrs.iter().enumerate() {
        if let (Instr::Load { addr, .. }, Some(rec)) = (ins, record.as_deref_mut()) {
            rec[i] = Some(eval_addr(addr, &st, forms));
        }
        transfer(ins, &mut st, rr.as_ref(), ctx, forms);
        if let Some(rr) = rr.as_mut() {
            ranges::step(ins, rr, ctx.summaries);
        }
    }
    st
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
    /// Position in `results` of each block's first instruction, then the
    /// instruction count.
    starts: Vec<u32>,
    /// One entry per instruction, block by block: `Some(result)` iff
    /// that instruction is a load.
    results: Vec<Option<AbsResult>>,
}

/// Per-loop analysis: block out-states and proven per-dimension deltas.
struct LoopStates {
    /// Fixpoint out-state per body block (indexed by block id; `None`
    /// for a block the fixpoint never ran).
    out_states: Vec<Option<State>>,
    /// Proven per-iteration delta per dimension (`None` = no proof).
    deltas: [Option<i64>; NUM_DIMS],
    /// Tracked slot keys (dimension `NUM_REGS + s` is `slot_keys[s]`).
    slot_keys: Vec<(Reg, i64)>,
}

/// Each instruction's address value, laid out block by block: the
/// per-procedure table the loop fixpoints write and the results read.
struct LoadValues {
    /// Position of each block's first instruction, then the count.
    starts: Vec<u32>,
    /// `Some(address value)` at each load a fixpoint ran.
    values: Vec<Option<AbsVal>>,
}

impl LoadValues {
    fn new(proc: &Procedure) -> LoadValues {
        let mut starts = Vec::with_capacity(proc.blocks.len() + 1);
        let mut len = 0u32;
        for blk in &proc.blocks {
            starts.push(len);
            len += blk.instrs.len() as u32;
        }
        starts.push(len);
        LoadValues {
            starts,
            values: vec![None; len as usize],
        }
    }

    fn block(&mut self, b: BlockId) -> &mut [Option<AbsVal>] {
        let (s, e) = (self.starts[b.index()], self.starts[b.index() + 1]);
        &mut self.values[s as usize..e as usize]
    }
}

/// Run loop `li`'s fixpoint. Each run of a block whose innermost loop
/// is `li` records its loads' address values in `values`; a block runs
/// again whenever its in-state moves, so its last run is on the
/// fixpoint in-state.
#[allow(clippy::too_many_arguments)]
fn analyze_loop(
    proc: &Procedure,
    cfg: &Cfg,
    forest: &LoopForest,
    li: usize,
    summaries: &ProcSummaries,
    ranges: &RangeAnalysis,
    forms: &mut Forms,
    values: &mut LoadValues,
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
    // Per block: how its in-state comes about (`None` outside the
    // loop), and whether it is pending (see below).
    let n = proc.blocks.len();
    let mut sched: Vec<(Option<Entry>, bool)> = vec![(None, false); n];
    let order: Vec<BlockId> = cfg
        .rpo()
        .iter()
        .copied()
        .filter(|b| l.contains(*b))
        .collect();
    for &b in &order {
        sched[b.index()] = if b == l.header {
            (Some(Entry::Header), true)
        } else if cfg.preds(b).iter().any(|p| !l.body.contains(p)) {
            (Some(Entry::Outside), true)
        } else {
            (Some(Entry::Joined), false)
        };
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
    let mut out_states: Vec<Option<State>> = vec![None; n];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for &b in &order {
            if !std::mem::take(&mut sched[b.index()].1) {
                continue;
            }
            progressed = true;
            let inn = match sched[b.index()].0 {
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
            let record = (forest.innermost_index(b) == Some(li)).then(|| values.block(b));
            let st = walk_block(proc.block(b), inn, ranges, &ctx, forms, record);
            if out_states[b.index()].as_ref() != Some(&st) {
                out_states[b.index()] = Some(st);
                for &succ in cfg.succs(b) {
                    let (entry, pending) = &mut sched[succ.index()];
                    *pending |= *entry == Some(Entry::Joined);
                }
            }
        }
    }
    // A dimension's delta is proven iff every latch (body block
    // branching back to the header) ends the iteration with the
    // unit-coefficient self-recurrence `d = d_header + δ`, with one `δ`
    // across latches.
    let dim_val = |st: &State, d: usize| -> AbsVal {
        if d < NUM_REGS {
            st.regs[d]
        } else {
            st.slots[d - NUM_REGS]
        }
    };
    let mut deltas: [Option<i64>; NUM_DIMS] = [None; NUM_DIMS];
    let mut refuted = [false; NUM_DIMS];
    let latches = l.body.iter().filter(|b| cfg.succs(**b).contains(&l.header));
    for latch in latches {
        let st = out_states[latch.index()].as_ref();
        for d in 0..NUM_DIMS {
            let dv = st.and_then(|st| match dim_val(st, d) {
                AbsVal::Affine { form, konst } if form == Forms::unit(d) => Some(konst),
                _ => None,
            });
            match (dv, deltas[d]) {
                _ if refuted[d] => {}
                (Some(x), None) => deltas[d] = Some(x),
                (Some(x), Some(p)) if x == p => {}
                _ => {
                    refuted[d] = true;
                    deltas[d] = None;
                }
            }
        }
    }
    LoopStates {
        out_states,
        deltas,
        slot_keys,
    }
}

/// Stride of an affine form under a loop's proven deltas: `Σ coef·δ`,
/// `None` if any contributing dimension is unproven.
fn stride_of(form: FormId, deltas: &[Option<i64>; NUM_DIMS], forms: &Forms) -> Option<i64> {
    let mut stride = 0i64;
    for d in dims(forms.mask(form)) {
        stride = stride.wrapping_add(forms.coef(form, d).wrapping_mul(deltas[d]?));
    }
    Some(stride)
}

impl AbsInterp {
    /// The full layered analysis; `ModuleAbsInterp` supplies summaries,
    /// summary-seeded ranges, the module data segment and the module's
    /// form table.
    fn analyze_full(
        proc: &Procedure,
        cfg: &Cfg,
        forest: &LoopForest,
        summaries: &ProcSummaries,
        ranges: &RangeAnalysis,
        data_range: Option<(u64, u64)>,
        forms: &mut Forms,
    ) -> AbsInterp {
        let mut values = LoadValues::new(proc);
        // One fixpoint per loop in the forest — parents included, so
        // nest proofs can substitute into the enclosing loop's frame.
        let per_loop: Vec<LoopStates> = (0..forest.loops.len())
            .map(|li| analyze_loop(proc, cfg, forest, li, summaries, ranges, forms, &mut values))
            .collect();
        let mut results = Vec::with_capacity(values.values.len());
        for blk in &proc.blocks {
            let Some(li) = forest.innermost_index(blk.id) else {
                let no_loop = |ins: &Instr| ins.is_load().then_some(AbsResult::NoLoop);
                results.extend(blk.instrs.iter().map(no_loop));
                continue;
            };
            let ls = &per_loop[li];
            if ls.out_states[blk.id.index()].is_none() {
                // The fixpoint never ran this block: its loads are
                // evaluated from ⊤.
                let ctx = LoopCtx {
                    slot_keys: &ls.slot_keys,
                    summaries,
                };
                walk_block(
                    blk,
                    top_state(),
                    ranges,
                    &ctx,
                    forms,
                    Some(values.block(blk.id)),
                );
            }
            for &value in values.block(blk.id).iter() {
                results.push(value.map(|v| {
                    match v {
                        AbsVal::Affine { form, konst } => {
                            match stride_of(form, &ls.deltas, forms) {
                                Some(stride) => AbsResult::Proven {
                                    stride,
                                    outer_stride: outer_stride(
                                        forest, &per_loop, li, form, konst, cfg, forms,
                                    ),
                                    const_addr: (stride == 0)
                                        .then(|| {
                                            let header = forest.loops[li].header;
                                            const_addr(
                                                form, konst, header, ranges, data_range, forms,
                                            )
                                        })
                                        .flatten(),
                                },
                                None => AbsResult::Unknown,
                            }
                        }
                        AbsVal::Loaded => AbsResult::ProvenIrregular,
                        AbsVal::Top => AbsResult::Unknown,
                    }
                }));
            }
        }
        let starts = values.starts;
        AbsInterp { starts, results }
    }

    /// The result for the load at `(block, idx)`, or `None` if that
    /// instruction is not a load.
    pub fn load_result(&self, block: BlockId, idx: usize) -> Option<AbsResult> {
        let start = *self.starts.get(block.index())? as usize;
        let end = *self.starts.get(block.index() + 1)? as usize;
        if idx >= end - start {
            return None;
        }
        self.results.get(start + idx).copied().flatten()
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
    form: FormId,
    konst: i64,
    cfg: &Cfg,
    forms: &mut Forms,
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
    for d in dims(forms.mask(form)) {
        let v = if d < NUM_REGS {
            entry.regs[d]
        } else {
            let key = inner_keys.get(d - NUM_REGS)?;
            match ps.slot_keys.iter().position(|k| k == key) {
                Some(os) => entry.slots[os],
                None => return None,
            }
        };
        let term = v.scale(forms.coef(form, d), forms);
        acc = acc.add(term, forms);
    }
    match acc {
        AbsVal::Affine { form, .. } => stride_of(form, &ps.deltas, forms),
        _ => None,
    }
}

/// Instantiate a loop-invariant affine address to a concrete value via
/// point ranges at the loop header; accepted only inside the module's
/// data segment.
fn const_addr(
    form: FormId,
    konst: i64,
    header: BlockId,
    ranges: &RangeAnalysis,
    data_range: Option<(u64, u64)>,
    forms: &Forms,
) -> Option<i64> {
    let (lo, hi) = data_range?;
    let entry = ranges.block_entry(header);
    let mut addr = konst;
    for d in dims(forms.mask(form)) {
        // Slot dimensions have no interval information.
        if d >= NUM_REGS {
            return None;
        }
        let v = entry[d].as_point()?;
        addr = addr.checked_add(forms.coef(form, d).checked_mul(v)?)?;
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
    /// that calls nothing gets its range analysis here. The procedures
    /// share one form table.
    pub fn analyze(module: &LoadModule, facts: &ModuleFacts) -> ModuleAbsInterp {
        let (summaries, caller_ranges) = ProcSummaries::compute(module, facts);
        let data_range = module.data_range();
        let mut forms = Forms::new();
        let procs = module
            .procs
            .iter()
            .zip(caller_ranges)
            .map(|(p, ranges)| {
                let cfg = facts.cfg(p.id);
                let ranges = ranges.unwrap_or_else(|| {
                    RangeAnalysis::analyze(p, cfg, summaries.entry_ranges(p.id), &summaries)
                });
                let forest = facts.forest(p.id);
                AbsInterp::analyze_full(p, cfg, forest, &summaries, &ranges, data_range, &mut forms)
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

    /// A plain innermost-loop stride proof with no nest or range facts.
    fn strided(stride: i64) -> AbsResult {
        AbsResult::Proven {
            stride,
            outer_stride: None,
            const_addr: None,
        }
    }

    /// One procedure with no module context: the empty summary table
    /// (conventional call clobbers), no argument facts, no data segment.
    fn analyze(proc: &Procedure) -> AbsInterp {
        let cfg = Cfg::build(proc);
        let forest = LoopForest::build(proc, &cfg);
        let sums = ProcSummaries::default();
        let ranges = RangeAnalysis::analyze(proc, &cfg, top_ranges(), &sums);
        AbsInterp::analyze_full(proc, &cfg, &forest, &sums, &ranges, None, &mut Forms::new())
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
    fn equal_vectors_intern_to_one_id_in_any_order() {
        // 2·r0 + 3·r3 − slot2, reached three ways: the table hands out
        // one id, so `join`'s equality is the vectors' equality.
        let forms = &mut Forms::new();
        let (r0, r3, s2) = (AbsVal::dim(0), AbsVal::dim(3), AbsVal::dim(NUM_REGS + 2));
        let x = r0
            .scale(2, forms)
            .add(r3.scale(3, forms), forms)
            .add(s2.neg(forms), forms);
        let y = s2
            .neg(forms)
            .add(r3.add(r3, forms).add(r3, forms), forms)
            .add(r0.add(r0, forms), forms);
        let z = r0
            .add(r3, forms)
            .scale(2, forms)
            .add(r3.add(s2.scale(-1, forms), forms), forms);
        assert_eq!(x, y);
        assert_eq!(y, z);
        assert_eq!(x.join(z), x);
        assert_ne!(x.join(x.offset(8)), x, "unequal constants still join to ⊤");
        // Cancelling every term is the zero form, a constant.
        assert_eq!(x.add(x.neg(forms), forms).as_const(), Some(0));
        // Coefficients wrap mod 2⁶⁴ like the interpreter: 2⁶³ · 2 is 0.
        let wrapped = r0.scale(i64::MIN, forms).scale(2, forms);
        assert_eq!(wrapped.as_const(), Some(0));
        let units = forms.forms.len();
        assert_eq!(x.add(r0, forms).add(r0.neg(forms), forms), x);
        assert_eq!(
            forms.forms.len(),
            units + 2,
            "two new vectors, no duplicate"
        );
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
        assert_eq!(ai.load_result(BlockId(1), 0), Some(strided(8)));
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
        assert_eq!(ai.load_result(BlockId(1), 1), Some(strided(8)));
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
        assert_eq!(ai.load_result(BlockId(1), 0), Some(strided(8)));
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
        assert_eq!(res, strided(0));
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
        assert_eq!(ai.load_result(BlockId(1), 0), Some(strided(16)));
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
        assert_eq!(ai.load_result(BlockId(1), 1), Some(strided(8)));
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
        assert_eq!(ai.load_result(BlockId(1), 1), Some(strided(8)));
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
        assert_eq!(ai.load_result(BlockId(1), 2), Some(strided(8)));
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
