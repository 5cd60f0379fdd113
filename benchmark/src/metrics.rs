//! The metric tables: every end-to-end and per-layer metric the
//! benchmark reports, with unit, direction and (end-to-end only) the
//! bound by which it may worsen. `BENCHMARK.json` is generated from
//! these tables (`--manifest`), and a run fails if what it measured is
//! not exactly the table's set, so the two cannot drift apart.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one.
/// Times are seconds at reference host speed (see `timing`).
///
/// Bounds are `max(what the issue asked for, 2 × the widest spread seen)`
/// over four sets of ten runs per workload on the builder host, each
/// run with another seed (spread = IQR ÷ median of the ten values),
/// capped at the contract's 0.25. Widest spreads seen: `setup_s` 20%,
/// `round_s` 13%, `op_ms_p50` 13%, `op_ms_p95` 15%, `peak_heap_bytes` 4%,
/// `allocs_per_kload` 6%, `trace_bytes_per_kload` 6%.
pub const END_TO_END: &[Def] = &[
    // Set-up: input generation, reference computation, store or server
    // start and one warm-up round; median of SETUP_REPS set-ups.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Median time of one round.
    e2e("round_s", "s", Better::Lower, 0.25),
    // Program loads the round's traces stand for, per second of round.
    e2e("loads_per_s", "1/s", Better::Higher, 0.25),
    // Latency of one operation (a trace through the round's path, or an
    // HTTP request): the quantile within a round, median over rounds.
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("op_ms_p95", "ms", Better::Lower, 0.25),
    // Most heap live at once during the timed rounds.
    e2e("peak_heap_bytes", "bytes", Better::Lower, 0.1),
    // Heap allocations per 1000 program loads.
    e2e("allocs_per_kload", "count", Better::Lower, 0.15),
    // Encoded trace bytes produced or consumed per 1000 program loads
    // (Table III's cost).
    e2e("trace_bytes_per_kload", "bytes", Better::Lower, 0.15),
];

/// Single-layer metrics, from the traced pass. A metric is measured at
/// full size in the traced run of the workload that owns its layer (see
/// the README's map) and at check size in the others.
pub const PER_LAYER: &[Def] = &[
    // Round time attributed to each layer, as a share of the round.
    lo("workloads.share", "ratio"),
    lo("isa.share", "ratio"),
    lo("instrument.share", "ratio"),
    lo("ptsim.share", "ratio"),
    lo("model.share", "ratio"),
    lo("analysis.share", "ratio"),
    lo("core.share", "ratio"),
    lo("store.share", "ratio"),
    lo("serve.share", "ratio"),
    // workloads — owner collect_sparse
    lo("workloads.dry_run_s", "s"),
    hi("workloads.loads", "count"),
    hi("workloads.sites", "count"),
    // ptsim — owner collect_sparse (collect_sampled_s, packets: ir_toolchain)
    lo("ptsim.sampler_s", "s"),
    lo("ptsim.collect_slowdown", "ratio"),
    lo("ptsim.on_load_ns", "ns"),
    hi("ptsim.samples", "count"),
    hi("ptsim.accesses_recorded", "count"),
    lo("ptsim.drop_share", "ratio"),
    lo("ptsim.collect_sampled_s", "s"),
    lo("ptsim.packets", "count"),
    // isa — owner ir_toolchain
    lo("isa.build_s", "s"),
    lo("isa.codegen_s", "s"),
    lo("isa.interp_s", "s"),
    hi("isa.instrs_per_s", "1/s"),
    // instrument — owner ir_toolchain
    lo("instrument.instrument_s", "s"),
    lo("instrument.lint_s", "s"),
    hi("instrument.kb_per_s", "kB/s"),
    hi("instrument.loads_classified", "count"),
    lo("instrument.ptwrites_inserted", "count"),
    lo("instrument.instrumented_share", "ratio"),
    hi("instrument.elided_share", "ratio"),
    // model — owner analyze_stream
    lo("model.encode_s", "s"),
    hi("model.encode_mb_per_s", "MB/s"),
    lo("model.decode_s", "s"),
    hi("model.decode_mb_per_s", "MB/s"),
    lo("model.container_bytes", "bytes"),
    lo("model.bytes_per_access", "bytes"),
    lo("model.frames", "count"),
    lo("model.decode_allocs_per_kaccess", "count"),
    // analysis, streaming engine — owner analyze_stream
    lo("analysis.ingest_s", "s"),
    lo("analysis.finish_s", "s"),
    hi("analysis.accesses_per_s", "1/s"),
    lo("analysis.merge_events", "count"),
    lo("analysis.peak_shard_bytes", "bytes"),
    lo("analysis.allocs_per_kaccess", "count"),
    hi("analysis.par_speedup", "ratio"),
    // analysis, resident report — owner analyze_report
    lo("analysis.first_table_s", "s"),
    lo("analysis.region_rows_s", "s"),
    lo("analysis.interval_rows_s", "s"),
    lo("analysis.heatmap_s", "s"),
    lo("analysis.histogram_s", "s"),
    lo("analysis.series_s", "s"),
    lo("analysis.render_s", "s"),
    lo("analysis.cache_computes", "ratio"),
    // analysis, mergeable partials — owner store_cycle
    lo("analysis.partial_encode_s", "s"),
    lo("analysis.partial_decode_s", "s"),
    lo("analysis.partial_bytes", "bytes"),
    lo("analysis.merge_many_s", "s"),
    // core — pipeline_s, watch_window_ms: collect_sparse; fanout: analyze_stream
    lo("core.pipeline_s", "s"),
    lo("core.watch_window_ms", "ms"),
    lo("core.fanout_s", "s"),
    lo("core.fanout_vs_stream", "ratio"),
    // store — owner store_cycle
    lo("store.put_s", "s"),
    hi("store.put_mb_per_s", "MB/s"),
    lo("store.stored_bytes", "bytes"),
    hi("store.compression_ratio", "ratio"),
    hi("store.dedup_share", "ratio"),
    lo("store.cold_analyze_s", "s"),
    lo("store.lru_warm_analyze_s", "s"),
    lo("store.cached_analyze_s", "s"),
    hi("store.result_hit_share", "ratio"),
    hi("store.lru_hit_share", "ratio"),
    lo("store.query_us", "us"),
    lo("store.query_frames_decoded", "count"),
    lo("store.reassemble_s", "s"),
    lo("store.gc_s", "s"),
    // serve — owner serve_closed
    lo("serve.create_ms_p50", "ms"),
    lo("serve.feed_ms_p50", "ms"),
    lo("serve.feed_ms_p95", "ms"),
    lo("serve.feed_ms_p99", "ms"),
    lo("serve.seal_ms_p50", "ms"),
    lo("serve.seal_ms_p95", "ms"),
    hi("serve.requests", "count"),
    lo("serve.refused_429", "count"),
    lo("serve.refused_503", "count"),
    hi("serve.bytes_uploaded", "bytes"),
    hi("serve.sse_events", "count"),
    hi("serve.windows_published", "count"),
    lo("serve.peak_session_bytes", "bytes"),
    lo("serve.drain_s", "s"),
    // obs — the price of the traced pass, for the run's own workload
    lo("obs.overhead_share", "ratio"),
    hi("obs.spans_captured", "count"),
    hi("obs.events_per_round", "count"),
    // host — the machine and the stated noise floor
    hi("host.cpus", "count"),
    hi("host.threads", "count"),
    lo("host.calib_s", "s"),
    lo("host.calib_spread", "ratio"),
    lo("host.round_wall_s", "s"),
];

/// Measured values by metric name, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// What differs between the names set and the table: the contract
    /// is that a run reports every metric of its table and no other.
    pub fn mismatch(&self, table: &[Def]) -> Vec<String> {
        let mut out = Vec::new();
        for d in table {
            match self.get(d.name) {
                None => out.push(format!("{} not measured", d.name)),
                Some(v) if !v.is_finite() => out.push(format!("{} is {v}", d.name)),
                Some(_) => {}
            }
        }
        for (n, _) in &self.0 {
            if !table.iter().any(|d| d.name == *n) {
                out.push(format!("{n} not in the table"));
            }
        }
        out
    }

    /// The human-readable listing: one `name value unit` line each.
    pub fn print(&self, table: &[Def]) {
        for d in table {
            if let Some(v) = self.get(d.name) {
                println!("  {:<34} {:>18} {}", d.name, fmt_value(v), d.unit);
            }
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self, table: &[Def]) -> String {
        let mut out = String::from("{");
        for (i, d) in table.iter().enumerate() {
            let v = self.get(d.name).unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                fmt_value(v),
                d.unit
            );
        }
        out.push('}');
        out
    }
}

/// A number with all its digits, in a form JSON accepts.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn defs_json(out: &mut String, key: &str, table: &[Def], last: bool) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, d) in table.iter().enumerate() {
        let better = match d.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}{}",
            d.name,
            d.unit,
            if i + 1 == table.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}",
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n");
    defs_json(&mut out, "end_to_end", END_TO_END, false);
    defs_json(&mut out, "per_layer", PER_LAYER, true);
    out.push_str("}\n");
    out
}
