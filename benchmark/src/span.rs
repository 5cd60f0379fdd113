//! The benchmark's own span recorder.
//!
//! A span wraps one call from the benchmark into a layer's public API:
//! layer, name, start, end, the span that caused it and the round it
//! belongs to, with the allocator's counters read at the same two
//! instants. Spans stay in memory and are written out when the run
//! ends. A span's self time is its duration minus its children's. With
//! the recorder off (the untraced pass) `span` only calls the closure.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers: one per crate of the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Workloads,
    Isa,
    Instrument,
    Ptsim,
    Model,
    Analysis,
    Core,
    Store,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Workloads,
        Layer::Isa,
        Layer::Instrument,
        Layer::Ptsim,
        Layer::Model,
        Layer::Analysis,
        Layer::Core,
        Layer::Store,
        Layer::Serve,
    ];

    /// The layer's `<name>.share` metric; the part before the dot is
    /// the layer's name.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads.share",
            Layer::Isa => "isa.share",
            Layer::Instrument => "instrument.share",
            Layer::Ptsim => "ptsim.share",
            Layer::Model => "model.share",
            Layer::Analysis => "analysis.share",
            Layer::Core => "core.share",
            Layer::Store => "store.share",
            Layer::Serve => "serve.share",
        }
    }

    pub fn name(self) -> &'static str {
        self.share_metric().trim_end_matches(".share")
    }
}

/// One recorded span. Times are seconds since the recorder was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub round: u32,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    round: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off between rounds (the traced pass
    /// alternates traced and untraced rounds to price the tracing).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` as a span of `layer`. Nested calls become children.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let before = alloc::snapshot();
        self.spans.push(Span {
            layer,
            name,
            round: self.round,
            parent: self.stack.last().copied(),
            start: self.now(),
            end: 0.0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        let after = alloc::snapshot();
        let s = &mut self.spans[id];
        s.end = end;
        s.allocs = after.count - before.count;
        s.alloc_bytes = after.bytes - before.bytes;
        out
    }

    /// Record a span that was timed elsewhere (a client thread's HTTP
    /// request) under `parent`. Returns its id, `None` when not recording.
    pub fn add(
        &mut self,
        layer: Layer,
        name: &'static str,
        started: Instant,
        secs: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = started.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            layer,
            name,
            round: self.round,
            parent,
            start,
            end: start + secs,
            allocs: 0,
            alloc_bytes: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time of every span: duration minus direct children, and
    /// zero where concurrent children add up to more than the parent.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own.iter_mut().for_each(|t| *t = t.max(0.0));
        own
    }

    /// Duration of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Durations of the spans called `name`, one total per round.
    pub fn per_round(&self, name: &str) -> Vec<f64> {
        let mut by_round: std::collections::BTreeMap<u32, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_default() += s.dur();
        }
        by_round.into_values().collect()
    }

    /// Allocations inside the spans called `name`, summed.
    pub fn allocs_in(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"round\":{},\"id\":{id},\"parent\":{parent},\
                 \"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"self_us\":{:.1},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.round,
                s.layer.name(),
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                own[id] * 1e6,
                s.allocs,
                s.alloc_bytes
            );
        }
        out
    }
}
