//! The `memgaze` command-line tool: trace and analyze the bundled
//! workloads without writing any code.
//!
//! ```text
//! memgaze ubench <pattern> [--opt O0|O3] [--period N] [--elems N] [--reps N]
//! memgaze minivite [v1|v2|v3] [--scale N] [--period N]
//! memgaze gap <pr|pr-spmv|cc|cc-sv> [--scale N] [--period N]
//! memgaze darknet <alexnet|resnet152> [--period N]
//! memgaze profile <any subcommand...> [--obs-out FILE]
//! memgaze list
//! ```
//!
//! Every subcommand prints the hot-function table (paper Table IV shape),
//! the hot-memory regions from the location zoom (Table V shape), the
//! working set, and collection statistics.

use memgaze::analysis::{fmt_f3, fmt_pct, fmt_si, AnalysisConfig, Analyzer, Table};
use memgaze::core::{
    trace_workload, trace_workload_streaming, MemGaze, PipelineConfig, StreamingWorkloadReport,
};
use memgaze::model::DecompressionInfo;
use memgaze::ptsim::SamplerConfig;
use memgaze::store::{QueryEngine, StoreConfig, TraceStore};
use memgaze::workloads::darknet::{self, Network};
use memgaze::workloads::gap::{self, GapConfig, GapKernel};
use memgaze::workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze::workloads::ubench::{MicroBench, OptLevel};

/// Minimal flag parsing: `--key value` pairs after positional args.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

/// Flags that take no value (presence alone means "yes").
const BOOL_FLAGS: &[&str] = &["json", "smoke"];

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    flags.push((key.to_string(), "yes".to_string()));
                    continue;
                }
                let val = it.next().unwrap_or_else(|| {
                    eprintln!("missing value for --{key}");
                    std::process::exit(2);
                });
                flags.push((key.to_string(), val));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v}");
                std::process::exit(2);
            }),
            None => default,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         memgaze ubench <pattern> [--opt O0|O3] [--period N] [--elems N] [--reps N]\n  \
         memgaze minivite [v1|v2|v3] [--scale N] [--degree N] [--iters N] [--period N]\n  \
         memgaze gap <pr|pr-spmv|cc|cc-sv> [--scale N] [--degree N] [--period N]\n  \
         memgaze darknet <alexnet|resnet152> [--period N]\n  \
         memgaze store put <pr|pr-spmv|cc|cc-sv> --dir DIR [--id ID] [--scale N]\n  \
         \u{20}                [--period N] [--shard N]\n  \
         memgaze store get <id> --dir DIR [--out FILE]\n  \
         memgaze store ls --dir DIR\n  \
         memgaze store gc --dir DIR\n  \
         memgaze store analyze <id> --dir DIR\n  \
         memgaze query <id> --dir DIR [--region lo:hi] [--time lo:hi] [--function NAME]\n  \
         memgaze serve [--addr HOST:PORT] [--threads N] [--max-sessions N] [--queue N]\n  \
         \u{20}                [--session-mb N] [--idle-secs N] [--smoke]\n  \
         memgaze watch [--window N] [--anomaly-threshold X] [--controller pinned|adaptive]\n  \
         \u{20}                [--period N] [--buffer-kb N] [--steps N] [--smoke]\n  \
         memgaze lint [pattern] [--opt O0|O3] [--elems N] [--reps N] [--json]\n  \
         memgaze profile <subcommand args...> [--obs-out FILE]\n  \
         memgaze list\n\n\
         patterns: str<k>, irr, a|b (serial), a/b (conditional), e.g. \"str2|irr\"\n\
         lint with no pattern verifies the full O0+O3 suites plus the synthetic\n\
         workload modules and exits nonzero on any error-severity diagnostic"
    );
    std::process::exit(2);
}

/// `memgaze lint`: run the IR verifier, the differential classification
/// pass, and the instrumentation-plan checker over generated modules.
fn run_lint(args: &Args) -> i32 {
    let elems = args.num("elems", 4096u32);
    let reps = args.num("reps", 50u32);
    let mut modules: Vec<memgaze::isa::LoadModule> = Vec::new();
    if let Some(pattern) = args.positional.get(1) {
        let opt = match args.get("opt") {
            Some("O0") => OptLevel::O0,
            _ => OptLevel::O3,
        };
        let bench = MicroBench::parse(pattern, elems, reps, opt).unwrap_or_else(|| usage());
        modules.push(bench.module());
    } else {
        for opt in [OptLevel::O0, OptLevel::O3] {
            for bench in memgaze::workloads::ubench::suite(opt) {
                modules.push(bench.module());
            }
        }
        // Synthetic application-shaped modules (Table II sizing).
        for (procs, loads) in [(4, 9), (16, 12), (64, 9)] {
            modules.push(memgaze::workloads::modules::synthetic_module(procs, loads));
        }
    }

    let config = memgaze::instrument::InstrumentConfig::default();
    let mut table = Table::new(
        "Lint results",
        &[
            "Module", "loads", "agree", "unknown", "upgraded", "lost", "unsound", "errors",
            "warnings",
        ],
    );
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut reports = Vec::new();
    for module in &modules {
        let report = memgaze::instrument::lint_module(module, &config);
        let d = &report.differential;
        table.push_row(vec![
            report.module.clone(),
            d.loads.to_string(),
            d.agree.to_string(),
            d.absint_unknown.to_string(),
            d.upgraded.to_string(),
            d.lost_compression.to_string(),
            d.unsound.to_string(),
            report.count(memgaze::isa::Severity::Error).to_string(),
            report.count(memgaze::isa::Severity::Warning).to_string(),
        ]);
        errors += report.count(memgaze::isa::Severity::Error);
        warnings += report.count(memgaze::isa::Severity::Warning);
        reports.push(report);
    }
    if args.get("json").is_some() {
        print!("{}", lint_reports_json(&reports, errors, warnings));
    } else {
        print!("{}", table.render());
        for report in &reports {
            for diag in &report.diagnostics {
                println!("{diag}");
            }
        }
        println!(
            "\n{} modules linted: {errors} errors, {warnings} warnings",
            modules.len()
        );
    }
    if errors > 0 {
        1
    } else {
        0
    }
}

/// Hand-rolled JSON for `memgaze lint --json`: per-module differential
/// summaries plus every diagnostic, the latter sorted by lint id then
/// site so the output is diffable across runs.
fn lint_reports_json(
    reports: &[memgaze::instrument::LintReport],
    errors: usize,
    warnings: usize,
) -> String {
    let mut out = String::from("{\n  \"modules\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let d = &r.differential;
        out.push_str(&format!(
            "    {{\"module\": \"{}\", \"loads\": {}, \"agree\": {}, \
             \"absint_unknown\": {}, \"upgraded\": {}, \"lost_compression\": {}, \
             \"unsound\": {}, \"errors\": {}, \"warnings\": {}}}{}\n",
            memgaze::obs::json::escape(&r.module),
            d.loads,
            d.agree,
            d.absint_unknown,
            d.upgraded,
            d.lost_compression,
            d.unsound,
            r.count(memgaze::isa::Severity::Error),
            r.count(memgaze::isa::Severity::Warning),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"diagnostics\": [\n");
    let mut diags: Vec<&memgaze::isa::Diagnostic> =
        reports.iter().flat_map(|r| &r.diagnostics).collect();
    diags.sort_by(|a, b| {
        (a.lint.code(), a.site.to_string()).cmp(&(b.lint.code(), b.site.to_string()))
    });
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"severity\": \"{}\", \"site\": \"{}\", \
             \"message\": \"{}\"}}{}\n",
            d.lint.code(),
            d.severity,
            memgaze::obs::json::escape(&d.site.to_string()),
            memgaze::obs::json::escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    let total: u64 = reports.iter().map(|r| r.differential.loads).sum();
    let agree: u64 = reports.iter().map(|r| r.differential.agree).sum();
    let agreement = if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    };
    out.push_str(&format!(
        "  ],\n  \"totals\": {{\"modules\": {}, \"loads\": {total}, \"agreement\": {agreement}, \
         \"errors\": {errors}, \"warnings\": {warnings}}}\n}}\n",
        reports.len()
    ));
    out
}

fn print_analysis(analyzer: &Analyzer<'_>, name: &str) {
    let mut span = memgaze::obs::span("pipeline.analyze");
    if span.is_active() {
        span.set_label(name.to_string());
    }
    let info = analyzer.decompression();
    println!(
        "{name}: {} samples over {} loads, A(σ) = {}, κ = {:.2}, ρ = {:.1}\n",
        analyzer.trace().num_samples(),
        fmt_si(info.loads as f64),
        fmt_si(info.observed as f64),
        info.kappa(),
        info.rho()
    );
    print!(
        "{}",
        analyzer.function_table_rendered("Hot functions").render()
    );

    let mut regions = Table::new(
        "\nHot memory (location zoom)",
        &["Region", "%", "D", "MaxD", "blocks", "A/block", "code"],
    );
    for r in analyzer.region_rows().into_iter().take(8) {
        regions.push_row(vec![
            format!(
                "{:#x}+{}",
                r.range.0,
                fmt_si((r.range.1 - r.range.0) as f64)
            ),
            fmt_pct(r.pct_of_total),
            fmt_f3(r.reuse_d),
            r.max_d.to_string(),
            r.blocks.to_string(),
            fmt_f3(r.accesses_per_block()),
            r.code.first().cloned().unwrap_or_default(),
        ]);
    }
    print!("{}", regions.render());

    let ws = analyzer.working_set();
    println!(
        "\nWorking set: {} pages observed (est. {} pages ≈ {}), inter-sample D ≈ {:.0} pages",
        ws.pages_observed,
        fmt_si(ws.pages_estimated),
        fmt_si(ws.pages_estimated * 4096.0),
        ws.est_intersample_distance
    );
}

fn run_workload(
    name: &str,
    period: u64,
    run: impl FnOnce(&mut memgaze::workloads::TracedSpace<memgaze::core::SamplerRecorder>),
) {
    let sampler = SamplerConfig::application(period);
    let (report, ()) = trace_workload(name, &sampler, |s| run(s));
    let analyzer = report.analyzer(AnalysisConfig::default());
    print_analysis(&analyzer, name);
    println!(
        "\nPhases: {}",
        report
            .phases
            .iter()
            .filter(|p| p.counters.loads > 0)
            .map(|p| format!("{} ({} loads)", p.name, fmt_si(p.counters.loads as f64)))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Trace the GAP kernel named at `args.positional[pos]` through the
/// streaming recorder, with the shared
/// `--scale/--degree/--iters/--seed/--period/--shard` knobs.
fn trace_gap(args: &Args, pos: usize) -> Result<(GapKernel, StreamingWorkloadReport), i32> {
    let kernel = match args.positional.get(pos).map(String::as_str) {
        Some("pr") => GapKernel::Pr,
        Some("pr-spmv") => GapKernel::PrSpmv,
        Some("cc") => GapKernel::Cc,
        Some("cc-sv") => GapKernel::CcSv,
        _ => usage(),
    };
    let gap_cfg = GapConfig {
        scale: args.num("scale", 10u32),
        degree: args.num("degree", 8usize),
        kernel,
        max_iters: args.num("iters", 9usize),
        seed: args.num("seed", 9u64),
    };
    let name = format!("GAP-{}", kernel.label());
    let sampler = SamplerConfig::application(args.num("period", 20_000u64));
    let sizes = [16u64, 64, 256];
    let shard = args.num("shard", 8usize);
    let analysis = AnalysisConfig::default();
    match trace_workload_streaming(&name, &sampler, shard, analysis, &sizes, |s| {
        gap::run(s, &gap_cfg);
    }) {
        Ok((streamed, ())) => Ok((kernel, streamed)),
        Err(e) => {
            eprintln!("streaming pipeline failed: {e}");
            Err(1)
        }
    }
}

/// Open the trace store named by `--dir`.
fn open_store(args: &Args) -> Result<TraceStore, i32> {
    let Some(dir) = args.get("dir") else {
        eprintln!("missing --dir DIR (the store root)");
        return Err(2);
    };
    TraceStore::open(StoreConfig::new(dir)).map_err(|e| {
        eprintln!("cannot open store {dir}: {e}");
        1
    })
}

/// Parse `lo:hi` with optional `0x` prefixes.
fn parse_span(s: &str) -> Option<(u64, u64)> {
    let (lo, hi) = s.split_once(':')?;
    let num = |t: &str| -> Option<u64> {
        match t.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => t.parse().ok(),
        }
    };
    Some((num(lo)?, num(hi)?))
}

/// `memgaze store <put|get|ls|gc|analyze>`: manage the content-addressed
/// trace store. `put` traces a GAP kernel and stores the sharded
/// container; `get` reassembles the byte-identical container; `analyze`
/// re-analyzes a stored trace through the per-trace result cache.
fn run_store_cmd(args: &Args) -> i32 {
    match args.positional.get(1).map(String::as_str) {
        Some("put") => {
            let (kernel, streamed) = match trace_gap(args, 2) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let store = match open_store(args) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let id = args
                .get("id")
                .map(str::to_string)
                .unwrap_or_else(|| format!("gap-{}", kernel.label()));
            match streamed.put_into(&store, &id) {
                Ok(r) => {
                    println!(
                        "put {id}: {} frames ({} new blobs, {} deduplicated), \
                         {} raw bytes -> {} stored ({:.2}x compression)",
                        r.frames,
                        r.new_blobs,
                        r.dedup_blobs,
                        r.raw_bytes,
                        r.stored_bytes,
                        r.compression_ratio()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("store put failed: {e}");
                    1
                }
            }
        }
        Some("get") => {
            let Some(id) = args.positional.get(2) else {
                usage()
            };
            let store = match open_store(args) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let container = match store.get_container(id) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("store get failed: {e}");
                    return 1;
                }
            };
            match args.get("out") {
                Some(out) => match std::fs::write(out, &container) {
                    Ok(()) => {
                        println!("wrote {} container bytes to {out}", container.len());
                        0
                    }
                    Err(e) => {
                        eprintln!("cannot write {out}: {e}");
                        1
                    }
                },
                None => {
                    println!(
                        "{id}: {} container bytes reassembled and verified",
                        container.len()
                    );
                    0
                }
            }
        }
        Some("ls") => {
            let store = match open_store(args) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let entries = match store.ls() {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("store ls failed: {e}");
                    return 1;
                }
            };
            let mut table = Table::new(
                "Stored traces",
                &["Id", "Workload", "frames", "samples", "payload bytes"],
            );
            for e in &entries {
                table.push_row(vec![
                    e.id.clone(),
                    e.workload.clone(),
                    e.frames.to_string(),
                    e.samples.to_string(),
                    e.payload_bytes.to_string(),
                ]);
            }
            print!("{}", table.render());
            println!("\n{} traces", entries.len());
            0
        }
        Some("gc") => {
            let store = match open_store(args) {
                Ok(s) => s,
                Err(code) => return code,
            };
            match store.gc() {
                Ok(r) => {
                    println!(
                        "gc: removed {} unreferenced blobs ({} bytes) and {} cached results",
                        r.blobs_removed, r.blob_bytes_reclaimed, r.results_removed
                    );
                    0
                }
                Err(e) => {
                    eprintln!("store gc failed: {e}");
                    1
                }
            }
        }
        Some("analyze") => {
            let Some(id) = args.positional.get(2) else {
                usage()
            };
            let store = match open_store(args) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let analysis = AnalysisConfig::default();
            // Trace-level re-analysis: annotations and symbols are not
            // persisted in the store, so function attribution is empty;
            // reuse/locality/decompression statistics are exact.
            let annots = memgaze::model::AuxAnnotations::new();
            let symbols = memgaze::model::SymbolTable::new();
            let sizes = [16u64, 64, 256];
            match store.analyze(id, &annots, &symbols, analysis, &sizes) {
                Ok(a) => {
                    let info = &a.report.decompression;
                    println!(
                        "{id}: {} samples over {} loads, A(σ) = {}, κ = {:.2}, ρ = {:.1}",
                        a.report.ingest.samples,
                        fmt_si(info.loads as f64),
                        fmt_si(info.observed as f64),
                        info.kappa(),
                        info.rho()
                    );
                    println!(
                        "result cache: {} hits, {} misses",
                        a.result_hits, a.result_misses
                    );
                    0
                }
                Err(e) => {
                    eprintln!("store analyze failed: {e}");
                    1
                }
            }
        }
        _ => usage(),
    }
}

/// `memgaze query <id>`: answer region / time-range / per-function
/// questions about a stored trace from its catalog summaries alone —
/// no shard is fetched or decoded.
fn run_query_cmd(args: &Args) -> i32 {
    let Some(id) = args.positional.get(1) else {
        usage()
    };
    let store = match open_store(args) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let catalog = match store.catalog(id) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("query: {e}");
            return 1;
        }
    };
    let engine = match QueryEngine::new(&catalog) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("query: {e}");
            return 1;
        }
    };
    let mut answered = false;
    if let Some(spec) = args.get("region") {
        let Some((lo, hi)) = parse_span(spec) else {
            eprintln!("query: bad --region {spec}, expected lo:hi");
            return 2;
        };
        let r = engine.region(lo, hi);
        println!(
            "region {lo:#x}..{hi:#x}: {} accesses over {} blocks in {} frames, \
             D = {:.3}, MaxD = {}",
            r.accesses, r.blocks, r.frames, r.mean_distance, r.max_distance
        );
        answered = true;
    }
    if let Some(spec) = args.get("time") {
        let Some((lo, hi)) = parse_span(spec) else {
            eprintln!("query: bad --time {spec}, expected lo:hi");
            return 2;
        };
        let t = engine.time_range(lo, hi);
        println!(
            "time {lo}..{hi}: {} frames, {} samples, {} loads, D = {:.3}",
            t.frames, t.samples, t.loads, t.mean_distance
        );
        answered = true;
    }
    if let Some(name) = args.get("function") {
        match engine.function(name) {
            Some(f) => println!(
                "function {}: {} loads across {} frames",
                f.name, f.loads, f.frames
            ),
            None => println!("function {name}: not attributed in this trace"),
        }
        answered = true;
    }
    if !answered {
        println!(
            "{id}: {} frames, {} samples, {} payload bytes",
            catalog.frames.len(),
            catalog.total_samples(),
            catalog.payload_bytes()
        );
        let mut table = Table::new("Hot functions (catalog)", &["Function", "loads", "frames"]);
        for f in engine.functions().into_iter().take(10) {
            table.push_row(vec![f.name, f.loads.to_string(), f.frames.to_string()]);
        }
        print!("{}", table.render());
    }
    println!("(answered from catalog summaries; no shard decoded)");
    0
}

/// SIGTERM/SIGINT latch for `memgaze serve`: the handler only stores a
/// flag; the serve loop polls it and runs the graceful drain itself.
#[cfg(unix)]
mod serve_signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// `memgaze serve`: run the streaming-analysis daemon until SIGTERM or
/// SIGINT, then drain gracefully. `--smoke` instead runs the scripted
/// in-process session matrix and exits.
fn run_serve_cmd(args: &Args) -> i32 {
    let threads = args.num("threads", 8usize);
    if args.get("smoke").is_some() {
        return match memgaze::serve::harness::smoke(threads) {
            Ok(summary) => {
                println!("{summary}");
                0
            }
            Err(e) => {
                eprintln!("serve smoke failed: {e}");
                1
            }
        };
    }

    let cfg = memgaze::serve::ServeConfig {
        max_sessions: args.num("max-sessions", 64usize),
        queue_depth: args.num("queue", 8usize),
        session_bytes: args.num("session-mb", 256u64) << 20,
        idle_timeout: std::time::Duration::from_secs(args.num("idle-secs", 300u64)),
        ..memgaze::serve::ServeConfig::default()
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:8077");
    let server = match memgaze::serve::Server::bind(addr, cfg, threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            return 1;
        }
    };
    println!(
        "memgaze serve listening on {} ({threads} workers); SIGTERM drains",
        server.addr()
    );

    #[cfg(unix)]
    {
        serve_signals::install();
        while !serve_signals::stopped() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }
    #[cfg(not(unix))]
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }

    #[cfg(unix)]
    {
        eprintln!("serve: draining...");
        let report = server.drain();
        println!(
            "serve: drained; {} sessions sealed, {} seal failures",
            report.sessions_sealed, report.seal_failures
        );
        if report.seal_failures > 0 {
            return 1;
        }
        0
    }
}

/// `memgaze watch`: run the phase-shift workload under the live
/// rolling-window monitor and print the drift table, anomaly marks,
/// and the controller's retune trace. `--smoke` runs the scripted
/// undersized-buffer run and asserts it raises anomalies and
/// converges.
fn run_watch_cmd(args: &Args) -> i32 {
    use memgaze::core::{watch_workload, ControllerMode, WatchConfig};

    if args.get("smoke").is_some() {
        return match memgaze::core::watch_smoke() {
            Ok(summary) => {
                println!("{summary}");
                0
            }
            Err(e) => {
                eprintln!("watch smoke failed: {e}");
                1
            }
        };
    }

    let mode: ControllerMode = match args.get("controller").unwrap_or("adaptive").parse() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("watch: {e}");
            usage();
        }
    };
    let mut sampler = memgaze::ptsim::SamplerConfig::application(args.num("period", 2_000u64));
    sampler.buffer_bytes = args.num("buffer-kb", 1u64).max(1) << 10;
    let watch = WatchConfig {
        window_samples: args.num("window", 8usize).max(1),
        anomaly_threshold: args.num("anomaly-threshold", memgaze::analysis::ANOMALY_THRESHOLD),
        mode,
        ..WatchConfig::default()
    };
    let steps = args.num("steps", 64usize).max(2);

    let report = match watch_workload(
        "watch",
        &sampler,
        &watch,
        AnalysisConfig::default(),
        &[16, 64, 256],
        |space, step| memgaze::core::phase_shift_steps(space, step, steps, 4_000),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("watch: {e}");
            return 1;
        }
    };

    let mut table = Table::new(
        "Rolling windows",
        &[
            "window",
            "samples",
            "loads",
            "observed",
            "F\u{302} bytes",
            "\u{394}F",
            "\u{394}F_irr%",
            "A_const%",
            "mean d",
            "\u{3ba}",
        ],
    );
    for w in &report.windows {
        table.push_row(vec![
            w.window.to_string(),
            w.samples.to_string(),
            fmt_si(w.loads as f64),
            fmt_si(w.observed as f64),
            fmt_si(w.f_hat_bytes),
            fmt_f3(w.delta_f),
            fmt_pct(w.delta_f_irr_pct),
            fmt_pct(w.a_const_pct),
            fmt_f3(w.mean_d),
            fmt_f3(w.kappa),
        ]);
    }
    println!("{}", table.render());

    if report.anomalies.is_empty() {
        println!("no anomaly marks");
    } else {
        println!("anomaly marks:");
        for mark in &report.anomalies {
            println!("  {}", mark.detail());
        }
    }

    match report.retunes.len() {
        0 => println!("\ncontroller ({mode:?}): no retunes"),
        n => {
            println!("\ncontroller ({mode:?}): {n} retunes");
            for r in &report.retunes {
                println!(
                    "  window {:>3}: drop {:.2} pressure {:.2} -> period {} buffer {} ({:?})",
                    r.window, r.drop_rate, r.pressure, r.period, r.buffer_bytes, r.guard
                );
            }
        }
    }
    match report.converged_at {
        Some(w) => println!(
            "converged at window {w}; final drop rate {:.2}",
            report.final_drop_rate
        ),
        None => println!(
            "controller did not converge; final drop rate {:.2}",
            report.final_drop_rate
        ),
    }
    0
}

/// `memgaze profile <subcommand...>`: run any other subcommand with
/// observability forced on (in-memory capture + a JSONL file), then
/// render the span tree with inclusive/exclusive times and the top
/// counters. `--obs-out FILE` chooses where the JSONL events land
/// (default: a file under the temp dir, reported on completion). Exits
/// nonzero if the run recorded no spans or the event file fails to
/// parse.
fn run_profile(args: &Args) -> i32 {
    if args.positional.len() < 2 {
        usage();
    }
    let obs_out: std::path::PathBuf = args.get("obs-out").map(Into::into).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("memgaze-profile-{}.jsonl", std::process::id()))
    });
    memgaze::obs::configure(memgaze::obs::ObsConfig {
        jsonl_path: Some(obs_out.clone()),
        capture: true,
        summary: false,
    });
    let inner = Args {
        positional: args.positional[1..].to_vec(),
        flags: args.flags.clone(),
    };
    let code = dispatch(&inner);
    memgaze::obs::flush();
    let events = memgaze::obs::take_capture();

    // The file sink must replay exactly: every line parses back into an
    // event (this is what downstream tooling consumes).
    match std::fs::read_to_string(&obs_out) {
        Ok(text) => match memgaze::obs::validate_jsonl(&text) {
            Ok(n) => println!("\n{n} events written to {}", obs_out.display()),
            Err(e) => {
                eprintln!(
                    "profile: event file {} is malformed: {e}",
                    obs_out.display()
                );
                return 1;
            }
        },
        Err(e) => {
            eprintln!("profile: cannot read event file {}: {e}", obs_out.display());
            return 1;
        }
    }

    let stats = memgaze::obs::profile_stats(&events);
    print!("\n{}", memgaze::obs::render_profile(&events));
    if stats.spans == 0 {
        eprintln!("profile: the run recorded no spans");
        return 1;
    }
    code
}

fn main() {
    let args = Args::parse();
    let code = dispatch(&args);
    // Flush observability sinks on every path that returns here, so a
    // `jsonl:` file is complete and `MEMGAZE_OBS=summary` prints now.
    memgaze::obs::flush();
    std::process::exit(code);
}

fn dispatch(args: &Args) -> i32 {
    let cmd = args.positional.first().map(String::as_str).unwrap_or("");
    match cmd {
        "ubench" => {
            let pattern = args
                .positional
                .get(1)
                .map(String::as_str)
                .unwrap_or_else(|| usage());
            let opt = match args.get("opt") {
                Some("O0") => OptLevel::O0,
                _ => OptLevel::O3,
            };
            let elems = args.num("elems", 4096u32);
            let reps = args.num("reps", 50u32);
            let bench = MicroBench::parse(pattern, elems, reps, opt).unwrap_or_else(|| usage());
            let mut cfg = PipelineConfig::microbench();
            cfg.sampler.period = args.num("period", 10_000u64);
            let report = match MemGaze::new(cfg.clone()).run_microbench(&bench) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("pipeline failed: {e}");
                    return 1;
                }
            };
            let analyzer = report.analyzer(cfg.analysis);
            print_analysis(&analyzer, &bench.name());
            let info = DecompressionInfo::from_trace(&report.trace, &report.instrumented.annots);
            println!(
                "\nCollected {} of {} loads ({}%)",
                fmt_si(info.observed as f64),
                fmt_si(report.run.exec.loads as f64),
                fmt_pct(100.0 / info.rho().max(1.0))
            );
            0
        }
        "minivite" => {
            let variant = match args.positional.get(1).map(String::as_str) {
                Some("v2") => MapVariant::V2,
                Some("v3") => MapVariant::V3,
                _ => MapVariant::V1,
            };
            let cfg = MiniViteConfig {
                scale: args.num("scale", 10u32),
                degree: args.num("degree", 8usize),
                iterations: args.num("iters", 2usize),
                variant,
                seed: args.num("seed", 42u64),
                v2_default_capacity: 64,
            };
            run_workload(
                &format!("miniVite-{}", variant.label()),
                args.num("period", 50_000u64),
                move |s| {
                    minivite::run(s, &cfg);
                },
            );
            0
        }
        "gap" => {
            let kernel = match args.positional.get(1).map(String::as_str) {
                Some("pr") => GapKernel::Pr,
                Some("pr-spmv") => GapKernel::PrSpmv,
                Some("cc") => GapKernel::Cc,
                Some("cc-sv") => GapKernel::CcSv,
                _ => usage(),
            };
            let cfg = GapConfig {
                scale: args.num("scale", 10u32),
                degree: args.num("degree", 8usize),
                kernel,
                max_iters: args.num("iters", 9usize),
                seed: args.num("seed", 9u64),
            };
            run_workload(
                &format!("GAP-{}", kernel.label()),
                args.num("period", 20_000u64),
                move |s| {
                    gap::run(s, &cfg);
                },
            );
            0
        }
        "darknet" => {
            let net = match args.positional.get(1).map(String::as_str) {
                Some("resnet152") => Network::ResNet152,
                Some("alexnet") => Network::AlexNet,
                _ => usage(),
            };
            run_workload(
                &format!("Darknet-{}", net.label()),
                args.num("period", 20_000u64),
                move |s| {
                    darknet::run(s, net);
                },
            );
            0
        }
        "store" => run_store_cmd(args),
        "query" => run_query_cmd(args),
        "serve" => run_serve_cmd(args),
        "watch" => run_watch_cmd(args),
        "lint" => run_lint(args),
        "profile" => run_profile(args),
        "list" => {
            println!("workloads:");
            println!("  ubench    — microbenchmarks (str<k>, irr, a|b, a/b) on the IR path");
            println!("  minivite  — Louvain community detection, map variants v1/v2/v3");
            println!("  gap       — PageRank (pr, pr-spmv) and Connected Components (cc, cc-sv)");
            println!("  darknet   — gemm/im2col inference (alexnet, resnet152)");
            println!("  store     — content-addressed trace store (put/get/ls/gc/analyze)");
            println!("  query     — catalog-only region/time/function queries over a stored trace");
            println!("  serve     — streaming-analysis daemon (HTTP sessions, SSE deltas)");
            println!("  watch     — live rolling-window monitoring with an adaptive controller");
            println!("  lint      — static verification of generated modules (no execution)");
            println!("  profile   — run any subcommand with span tracing on and render the trace");
            0
        }
        _ => usage(),
    }
}
