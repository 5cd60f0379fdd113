//! The repository's benchmark: six workloads that each drive one path
//! through the MemGaze pipeline from outside, an untraced pass that
//! gives the end-to-end metrics and a traced pass that attributes the
//! time to layers. See `README.md` for the map from layer to metric to
//! end-to-end metric, and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! memgaze-benchmark --workload W --seed N --seconds S --trace 0|1
//! memgaze-benchmark [--seed N] [--seconds S]      all workloads, both passes
//! memgaze-benchmark --check [--seed N]            the oracles alone, small sizes
//! memgaze-benchmark --aa [--workload W] ...       the untraced pass twice, compared
//! memgaze-benchmark --manifest                    print BENCHMARK.json
//! ```

mod alloc;
mod inputs;
mod metrics;
mod render;
mod span;
mod timing;
mod workloads;

use inputs::Scale;
use metrics::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS};
use span::{Layer, Recorder};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use timing::{describe, median, norm_factors, quantile, spread, Calibrator};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed rounds of a run, however short `--seconds` is.
const MIN_ROUNDS: usize = 15;
/// Traced rounds that also run the workload's layer probe, and rounds
/// of the check-size workloads a traced run fills the other layers with.
const PROBE_ROUNDS: usize = 2;
const FILLER_ROUNDS: u32 = 2;

/// Where traces, the A/A record and the store's scratch directories go:
/// `benchmark/results` of the checkout the benchmark runs in.
pub fn results_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("results")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    aa: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        check: false,
        aa: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--check" => args.check = true,
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// `MEMGAZE_THREADS` pinned to `min(nproc, 4)`, so the analysis runs at
/// the same width whatever the environment says. Returns (cpus, threads).
fn pin_threads() -> (usize, usize) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cpus.min(4);
    // Called first thing in `main`, before any other thread exists.
    std::env::set_var("MEMGAZE_THREADS", threads.to_string());
    (cpus, threads)
}

fn obs_capture(on: bool) {
    memgaze_obs::configure(memgaze_obs::ObsConfig {
        capture: on,
        ..memgaze_obs::ObsConfig::disabled()
    });
}

/// What one run of one workload measured.
struct RunResult {
    workload: String,
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Oracle failures outside rounds (set-up never gets this far).
    errors: Vec<String>,
    digest: u64,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The contract's result line.
    fn json(&self, table: &[metrics::Def]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json(table)
        )
    }
}

/// The run's calibration record, and whether it was a noisy one.
fn print_calibration(calib: &Calibrator) {
    let spread = spread(&calib.samples);
    println!(
        "  calibration {} spread {spread:.4} noisy: {}",
        describe(&calib.samples),
        spread > timing::CALIB_SPREAD_LIMIT
    );
}

/// The untraced pass: the end-to-end metrics of one workload.
fn run_timed(
    name: &str,
    seed: u64,
    seconds: f64,
    host: (usize, usize),
) -> Result<RunResult, String> {
    obs_capture(false);
    let mut calib = Calibrator::new();
    let mut rec = Recorder::new(false);
    let mut scratch = Metrics::default();

    // Set-up, several times over: input generation, reference
    // computation, store or server start, and one warm-up round.
    let mut raw_setups = Vec::new();
    let mut state: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = state.take() {
            old.teardown(&mut rec, &mut scratch);
        }
        calib.run();
        let start = Instant::now();
        let mut fresh = workloads::setup(name, seed, Scale::Full)?;
        let warm = fresh.round(&mut rec);
        raw_setups.push(start.elapsed().as_secs_f64());
        if warm.failed > 0 {
            return Err(format!("{name}: warm-up round failed its oracle"));
        }
        state = Some(fresh);
    }
    let mut state = state.expect("SETUP_REPS is at least 1");
    calib.run();
    let setup_factor = timing::CALIB_REF_S / median(&calib.samples);
    let setups: Vec<f64> = raw_setups.iter().map(|t| t * setup_factor).collect();

    let mut outcomes = Vec::new();
    calib.samples.clear();
    calib.run();
    alloc::reset_peak();
    let heap_before = alloc::snapshot();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || outcomes.len() < MIN_ROUNDS {
        outcomes.push(state.round(&mut rec));
        calib.run();
    }
    let heap = alloc::snapshot();
    let factors = norm_factors(&calib.samples);
    let raw_rounds: Vec<f64> = outcomes.iter().map(|o| o.timed_s).collect();
    let rounds: Vec<f64> = raw_rounds
        .iter()
        .zip(&factors)
        .map(|(t, f)| t * f)
        .collect();
    // Per round, then the median over rounds: a quantile taken over
    // all rounds' operations at once sits on the boundary between two
    // kinds of operation and jumps with either's extremes.
    let op_ms = |q: f64| -> Vec<f64> {
        outcomes
            .iter()
            .zip(&factors)
            .map(|(o, f)| quantile(&o.op_s, q) * f * 1e3)
            .collect()
    };
    let (op_p50, op_p95) = (op_ms(0.5), op_ms(0.95));
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();

    let loads = state.loads_per_round() as f64;
    let kloads_timed = loads * rounds.len() as f64 / 1e3;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("round_s", median(&rounds));
    m.set("loads_per_s", loads / median(&rounds));
    m.set("op_ms_p50", median(&op_p50));
    m.set("op_ms_p95", median(&op_p95));
    m.set("peak_heap_bytes", heap.peak as f64);
    m.set(
        "allocs_per_kload",
        (heap.count - heap_before.count) as f64 / kloads_timed,
    );
    m.set(
        "trace_bytes_per_kload",
        state.trace_bytes_per_round() as f64 / (loads / 1e3),
    );

    let digest = state.digest();
    println!(
        "== {name}: untraced pass, seed {seed}, {} cpus, MEMGAZE_THREADS={}",
        host.0, host.1
    );
    println!("  round_s    {} (reference-host s)", describe(&rounds));
    println!("  round wall {} (raw s)", describe(&raw_rounds));
    println!("  setup_s    {}", describe(&setups));
    println!("  op_ms_p50  {}", describe(&op_p50));
    println!("  op_ms_p95  {}", describe(&op_p95));
    print_calibration(&calib);
    println!("  fail_share {failed}/{attempted}  report digest {digest:016x}");
    m.print(END_TO_END);
    state.teardown(&mut rec, &mut scratch);
    Ok(RunResult {
        workload: name.to_string(),
        metrics: m,
        attempted,
        failed,
        errors: Vec::new(),
        digest,
    })
}

/// The traced pass: the per-layer metrics. The run's own workload goes
/// at full size, alternating traced and untraced rounds; the other five
/// go at check size so every layer's metrics are measured in every run.
fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    host: (usize, usize),
) -> Result<RunResult, String> {
    let mut calib = Calibrator::new();
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    let mut jsonl = String::new();

    for (other, _) in WORKLOADS.iter().filter(|(w, _)| *w != name) {
        obs_capture(false);
        let mut rec = Recorder::new(true);
        let mut state = workloads::setup(other, seed, Scale::Small)?;
        for round in 0..FILLER_ROUNDS {
            rec.set_round(round);
            let outcome = state.round(&mut rec);
            attempted += outcome.attempted;
            failed += outcome.failed;
            if let Err(e) = rec.span(Layer::Core, "probe", |rec| state.probe(rec)) {
                errors.push(format!("{other}: {e}"));
            }
        }
        state.layer_metrics(&rec, &mut m);
        state.teardown(&mut rec, &mut m);
    }

    let mut rec = Recorder::new(true);
    let mut state = workloads::setup(name, seed, Scale::Full)?;
    rec.set_enabled(false);
    state.round(&mut rec);
    // Round `r` is traced when `r` is even; its raw time is `raw[r]`.
    let mut raw = Vec::new();
    let (mut events, mut spans_captured, mut probes) = (0usize, 0usize, 0usize);
    calib.run();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || raw.len() < 6 {
        let tracing = raw.len() % 2 == 0;
        rec.set_round(raw.len() as u32);
        rec.set_enabled(tracing);
        obs_capture(tracing);
        let outcome = state.round(&mut rec);
        calib.run();
        attempted += outcome.attempted;
        failed += outcome.failed;
        raw.push(outcome.timed_s);
        if tracing {
            let captured = memgaze_obs::take_capture();
            events += captured.len();
            spans_captured += captured
                .iter()
                .filter(|e| matches!(e, memgaze_obs::Event::Span { .. }))
                .count();
            if raw.len() == 1 {
                // The program's own spans, as supplementary rows.
                for e in &captured {
                    let _ = writeln!(jsonl, "{{\"obs\":{}}}", e.to_json_line().trim_end());
                }
            }
            if probes < PROBE_ROUNDS {
                probes += 1;
                if let Err(e) = rec.span(Layer::Core, "probe", |rec| state.probe(rec)) {
                    errors.push(format!("{name}: {e}"));
                }
                let _ = memgaze_obs::take_capture();
                // The probe sat between this round's kernel run and the
                // next round; replace the stale sample.
                calib.samples.pop();
                calib.run();
            }
        }
    }
    obs_capture(false);
    rec.set_enabled(true);
    let factors = norm_factors(&calib.samples);
    let normed = |parity: usize| -> Vec<f64> {
        (parity..raw.len())
            .step_by(2)
            .map(|r| raw[r] * factors[r])
            .collect()
    };
    let (traced, untraced) = (normed(0), normed(1));
    let raw_untraced: Vec<f64> = raw.iter().skip(1).step_by(2).copied().collect();
    let digest = state.digest();

    state.layer_metrics(&rec, &mut m);
    let by_layer = state.attribute(&rec);
    let total: f64 = by_layer.values().sum();
    for layer in Layer::ALL {
        let share = by_layer.get(&layer).copied().unwrap_or(0.0) / total;
        m.set(layer.share_metric(), share);
    }
    m.set(
        "obs.overhead_share",
        (median(&traced) - median(&untraced)) / median(&untraced),
    );
    m.set("obs.spans_captured", spans_captured as f64);
    m.set("obs.events_per_round", events as f64 / traced.len() as f64);
    m.set("host.cpus", host.0 as f64);
    m.set("host.threads", host.1 as f64);
    m.set("host.calib_s", median(&calib.samples));
    m.set("host.calib_spread", spread(&calib.samples));
    m.set("host.round_wall_s", median(&raw_untraced));
    state.teardown(&mut rec, &mut m);

    let path = results_dir().join(format!("trace-{name}.jsonl"));
    std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, rec.to_jsonl(name) + &jsonl).map_err(|e| e.to_string())?;

    println!(
        "== {name}: traced pass, seed {seed}, {} cpus, MEMGAZE_THREADS={}",
        host.0, host.1
    );
    println!("  traced round_s   {}", describe(&traced));
    println!("  untraced round_s {}", describe(&untraced));
    print_calibration(&calib);
    println!("  {} spans written to {}", rec.spans.len(), path.display());
    for e in &errors {
        println!("  ORACLE FAILED {e}");
    }
    m.print(PER_LAYER);
    Ok(RunResult {
        workload: name.to_string(),
        metrics: m,
        attempted,
        failed,
        errors,
        digest,
    })
}

/// A run that does not report exactly its table's metrics breaks the
/// contract; say which and fail.
fn checked(result: RunResult, table: &[metrics::Def]) -> Result<RunResult, String> {
    let wrong = result.metrics.mismatch(table);
    if wrong.is_empty() {
        Ok(result)
    } else {
        Err(format!("{}: {}", result.workload, wrong.join("; ")))
    }
}

/// `--check`: every workload's oracle at check size, one round and one
/// probe each, no timing.
fn run_check(seed: u64) -> Result<bool, String> {
    let mut all_ok = true;
    let mut scratch = Metrics::default();
    for (name, _) in WORKLOADS {
        let start = Instant::now();
        let mut rec = Recorder::new(true);
        let mut state = workloads::setup(name, seed, Scale::Small)?;
        let outcome = state.round(&mut rec);
        let probe = state.probe(&mut rec);
        let ok = outcome.failed == 0 && outcome.attempted > 0 && probe.is_ok();
        println!(
            "check {name:<15} {} ({}/{} operations right, digest {:016x}, {:.2}s){}",
            if ok { "ok" } else { "FAILED" },
            outcome.attempted - outcome.failed,
            outcome.attempted,
            state.digest(),
            start.elapsed().as_secs_f64(),
            probe.err().map_or(String::new(), |e| format!(" {e}"))
        );
        state.teardown(&mut rec, &mut scratch);
        all_ok &= ok;
    }
    Ok(all_ok)
}

/// `--aa`: the untraced pass twice back to back on the same code. Prints
/// both sets and the relative difference of every end-to-end metric,
/// records them in `results/aa.json`, and fails if one is beyond its
/// bound — the noise check the bounds in the metric table come from.
fn run_aa(names: &[&str], seed: u64, seconds: f64, host: (usize, usize)) -> Result<bool, String> {
    let mut within = true;
    let mut json = String::from("{\n");
    for (i, name) in names.iter().enumerate() {
        let a = checked(run_timed(name, seed, seconds, host)?, END_TO_END)?;
        let b = checked(run_timed(name, seed, seconds, host)?, END_TO_END)?;
        println!("== {name}: A/A");
        let _ = writeln!(json, "  \"{name}\": {{");
        for (j, d) in END_TO_END.iter().enumerate() {
            let (x, y) = (
                a.metrics.get(d.name).unwrap_or(f64::NAN),
                b.metrics.get(d.name).unwrap_or(f64::NAN),
            );
            let diff = (y - x) / x;
            let bound = d.bound.unwrap_or(f64::INFINITY);
            let ok = diff.abs() <= bound;
            within &= ok;
            println!(
                "  {:<24} {:>16} {:>16} {:>+8.2}% (bound {:.0}%) {}",
                d.name,
                metrics::fmt_value(x),
                metrics::fmt_value(y),
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "BEYOND BOUND" }
            );
            let _ = writeln!(
                json,
                "    \"{}\": {{\"a\": {}, \"b\": {}, \"rel_diff\": {}, \"bound\": {bound}}}{}",
                d.name,
                metrics::fmt_value(x),
                metrics::fmt_value(y),
                metrics::fmt_value(diff),
                if j + 1 == END_TO_END.len() { "" } else { "," }
            );
        }
        within &= a.correct() && b.correct() && a.digest == b.digest;
        let _ = writeln!(json, "  }}{}", if i + 1 == names.len() { "" } else { "," });
    }
    json.push_str("}\n");
    std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
    std::fs::write(results_dir().join("aa.json"), json).map_err(|e| e.to_string())?;
    Ok(within)
}

/// No `--workload`: all six, untraced then traced, every metric by name
/// with its unit, and a summary that claims nothing.
fn run_all(seed: u64, seconds: f64, host: (usize, usize)) -> Result<bool, String> {
    let mut summary = String::from("{\"workloads\": {");
    let mut all_correct = true;
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        let timed = checked(run_timed(name, seed, seconds, host)?, END_TO_END)?;
        let traced = checked(run_traced(name, seed, seconds / 2.0, host)?, PER_LAYER)?;
        all_correct &= timed.correct() && traced.correct();
        let _ = write!(
            summary,
            "{}\"{name}\": {{\"correct\": {}, \"fail_share\": {}, \"digest\": \"{:016x}\", \
             \"end_to_end\": {}, \"per_layer\": {}}}",
            if i == 0 { "" } else { ", " },
            timed.correct() && traced.correct(),
            metrics::fmt_value(timed.failed as f64 / timed.attempted.max(1) as f64),
            timed.digest,
            timed.metrics.to_json(END_TO_END),
            traced.metrics.to_json(PER_LAYER)
        );
    }
    let _ = write!(summary, "}}, \"seed\": {seed}, \"claim\": null}}");
    println!("{summary}");
    Ok(all_correct)
}

fn run(args: &Args) -> Result<bool, String> {
    let host = pin_threads();
    if args.manifest {
        print!("{}", metrics::manifest());
        return Ok(true);
    }
    if args.check {
        return run_check(args.seed);
    }
    let one = args.workload.as_deref();
    if args.aa {
        let all: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        let names = one.map_or(all, |w| vec![w]);
        return run_aa(&names, args.seed, args.seconds, host);
    }
    let Some(name) = one else {
        return run_all(args.seed, args.seconds, host);
    };
    // The driver's contract: one workload, one pass, the result object
    // as the last line. A wrong output is reported there, with exit 0.
    let (result, table) = if args.trace {
        (run_traced(name, args.seed, args.seconds, host)?, PER_LAYER)
    } else {
        (run_timed(name, args.seed, args.seconds, host)?, END_TO_END)
    };
    let result = checked(result, table)?;
    println!("{}", result.json(table));
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("memgaze-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
