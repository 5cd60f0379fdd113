//! A compact x64-like ISA with the static structure MemGaze's binary
//! instrumentation needs.
//!
//! The paper's instrumentor (DynInst-based) analyzes each procedure's
//! object code — addressing modes, basic blocks, and data dependencies —
//! to classify loads and select instrumentation points (paper §III). This
//! crate models exactly that information: registers and addressing modes
//! (`[base + index*scale + disp]`), basic blocks and procedures
//! ([`proc`]), load modules with instruction addresses ([`module`]),
//! control-flow analysis (dominators and natural loops, [`cfg`] and
//! [`loops`], built once per module into [`facts`]),
//! induction-variable/data-dependence analysis ([`dataflow`]),
//! an IR [`builder`], microbenchmark code generation at O0/O3 ([`codegen`]),
//! an interpreter that executes modules and streams load/`ptwrite` events
//! ([`interp`]), a multi-pass IR verifier with typed diagnostics
//! ([`verify`]), and an abstract-interpretation stride domain that serves
//! as a second classification oracle ([`absint`]).

pub mod absint;
pub mod builder;
mod cfg;
pub mod codegen;
mod dataflow;
mod disasm;
mod facts;
mod instr;
pub mod interp;
mod loops;
pub mod module;
mod proc;
mod ranges;
mod reg;
mod summary;
pub mod verify;

pub use absint::{AbsInterp, AbsResult, ModuleAbsInterp};
pub use builder::{ModuleBuilder, ProcBuilder};
pub use dataflow::{AddrKind, DataflowAnalysis};
pub use facts::ModuleFacts;
pub use instr::{AddrMode, BinOp, CmpOp, Instr, Operand, Terminator};
pub use interp::{EventSink, ExecStats, Machine, NullSink};
pub use loops::LoopForest;
pub use module::{DataInit, LoadModule};
pub use proc::{BasicBlock, BlockId, ProcId, Procedure};
pub use ranges::Interval;
pub use reg::Reg;
pub use summary::{ProcSummaries, ProcSummary};
pub use verify::{verify_module, Diagnostic, LintId, Severity, Site};
