//! The six workloads. Each is a state built once from the seed (inputs,
//! reference outputs, a server or store where the workload has one) and
//! a `round` that drives one path through the program's public API,
//! checks what came back against the reference, and reports what it
//! timed.

pub mod analyze_report;
pub mod analyze_stream;
pub mod collect_sparse;
pub mod ir_toolchain;
pub mod serve_closed;
pub mod store_cycle;

use crate::inputs::Scale;
use crate::metrics::Metrics;
use crate::span::{Layer, Recorder};
use memgaze_model::fnv1a64;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name and reason of every workload, in the order they run.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "collect_sparse",
        "Fig. 7's regime: native kernels under the sparse application sampler, nearly all time on the per-load path; a sampler gain must show here, an analysis gain must not",
    ),
    (
        "analyze_stream",
        "memgaze analyze on stored traces: shard decode into the streaming analyzer, irregular and strided shapes side by side; where engine and kernel work must show",
    ),
    (
        "analyze_report",
        "the resident multi-table report off one trace, the path ArtifactCache exists for; uses the analysis layer differently from analyze_stream",
    ),
    (
        "ir_toolchain",
        "the only path through isa, instrument and the ptsim packet decoder: build, lint and instrument load modules, then the microbenchmark suite under the interpreter",
    ),
    (
        "store_cycle",
        "writes beside reads on one layer: put, cold, LRU-warm and cached analyze, catalog queries, reassembly and gc, so a read gain bought with write cost shows",
    ),
    (
        "serve_closed",
        "the same engine behind HTTP: closed loop of 2 clients over real sockets, create, 4 feeds, seal per session, default admission limits",
    ),
];

/// What one round did.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Raw seconds of the round's timed work (verification excluded).
    pub timed_s: f64,
    /// Raw latency of every operation, in seconds.
    pub op_s: Vec<f64>,
    /// Operations attempted: a trace through the round's path, or an
    /// HTTP request.
    pub attempted: u64,
    /// Operations that erred, were refused, or differed from the
    /// reference.
    pub failed: u64,
}

impl RoundOutcome {
    /// Time `f` as one operation. Verification the program's user would
    /// not do stays out of `f`: check after, with [`Self::verify`].
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let t = start.elapsed().as_secs_f64();
        self.timed_s += t;
        self.op_s.push(t);
        self.attempted += 1;
        out
    }

    /// Time `f` as part of the round without counting an operation.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.timed_s += start.elapsed().as_secs_f64();
        out
    }

    /// Count the last operation as failed unless `ok`.
    pub fn verify(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }
}

pub trait Workload {
    /// One round. Calls into the program go through `rec.span`.
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome;

    /// Program loads one round's traces stand for.
    fn loads_per_round(&self) -> u64;

    /// Encoded trace bytes one round produces or consumes.
    fn trace_bytes_per_round(&self) -> u64;

    /// FNV digest of the reference report rows: two commits that print
    /// the same digest computed the same reports.
    fn digest(&self) -> u64;

    /// Extra calls that measure a layer this workload owns but whose
    /// cost a round cannot show from outside. Traced pass only; not
    /// part of the round. An `Err` is an oracle failure.
    fn probe(&mut self, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }

    /// Round time per layer. The default is the spans' self time; a
    /// workload whose round makes one call that crosses several layers
    /// splits that call by what its probe measured.
    fn attribute(&self, rec: &Recorder) -> BTreeMap<Layer, f64> {
        self_time_by_layer(rec)
    }

    /// The per-layer metrics this workload owns, from its spans.
    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics);

    /// Stop whatever set-up started (a server, a temp directory).
    fn teardown(self: Box<Self>, _rec: &mut Recorder, _m: &mut Metrics) {}
}

/// Build a workload's state. An oracle mismatch in set-up is an error:
/// there is nothing meaningful to time on a program that computes the
/// wrong report.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "collect_sparse" => Box::new(collect_sparse::CollectSparse::setup(seed, scale)?),
        "analyze_stream" => Box::new(analyze_stream::AnalyzeStream::setup(seed, scale)?),
        "analyze_report" => Box::new(analyze_report::AnalyzeReport::setup(seed, scale)?),
        "ir_toolchain" => Box::new(ir_toolchain::IrToolchain::setup(seed, scale)?),
        "store_cycle" => Box::new(store_cycle::StoreCycle::setup(seed, scale)?),
        "serve_closed" => Box::new(serve_closed::ServeClosed::setup(seed, scale)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Self time of the spans inside rounds (probe spans excluded), summed
/// per layer.
pub fn self_time_by_layer(rec: &Recorder) -> BTreeMap<Layer, f64> {
    let own = rec.self_times();
    let mut by_layer = BTreeMap::new();
    for (s, t) in rec.spans.iter().zip(own) {
        if in_round(rec, s) {
            *by_layer.entry(s.layer).or_insert(0.0) += t;
        }
    }
    by_layer
}

/// Whether `s` sits under a round (not under a probe).
fn in_round(rec: &Recorder, s: &crate::span::Span) -> bool {
    let mut cur = s;
    loop {
        if cur.name == "probe" {
            return false;
        }
        match cur.parent {
            Some(p) => cur = &rec.spans[p],
            None => return true,
        }
    }
}

/// FNV-1a-64 over the `Debug` rendering of report rows: every digit of
/// every field, so any change in a row changes the digest.
pub fn digest_of<T: std::fmt::Debug>(rows: &T) -> u64 {
    fnv1a64(format!("{rows:?}").as_bytes())
}

/// `Err` with a message naming the oracle that failed.
pub fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("oracle failed: {what}"))
    }
}
