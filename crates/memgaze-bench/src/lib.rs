//! Shared machinery for the paper-experiment binaries.
//!
//! Every table and figure of the paper's evaluation (§VI–§VII) has a
//! binary under `src/bin/` that regenerates it on the simulated
//! substrate; this library holds the common workload scales and the
//! experiment output format (rendered table + machine-readable JSON under
//! `experiments/`). Performance is measured by `benchmark/`, not here.

use memgaze_analysis::Table;
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

pub mod scales {
    //! Workload scales for the experiment binaries.
    //!
    //! `MEMGAZE_SCALE=small` shrinks everything for smoke runs; the
    //! default is sized so each binary completes in well under a minute.

    /// Experiment scale knobs.
    #[derive(Debug, Clone, Copy)]
    pub struct Scales {
        /// Microbenchmark array elements.
        pub micro_elems: u32,
        /// Microbenchmark repetitions.
        pub micro_reps: u32,
        /// Graph scale (2^scale vertices) for miniVite/GAP.
        pub graph_scale: u32,
        /// Graph average degree.
        pub degree: usize,
        /// miniVite Louvain iterations.
        pub louvain_iters: usize,
        /// PageRank iteration budget.
        pub pr_iters: usize,
        /// Application sampling period (loads).
        pub app_period: u64,
        /// Microbenchmark sampling period (loads).
        pub micro_period: u64,
    }

    /// Resolve from the `MEMGAZE_SCALE` environment variable.
    pub fn from_env() -> Scales {
        match std::env::var("MEMGAZE_SCALE").as_deref() {
            Ok("small") => Scales {
                micro_elems: 1024,
                micro_reps: 10,
                graph_scale: 8,
                degree: 6,
                louvain_iters: 1,
                pr_iters: 6,
                app_period: 10_000,
                micro_period: 5_000,
            },
            Ok("large") => Scales {
                micro_elems: 8192,
                micro_reps: 100,
                graph_scale: 13,
                degree: 12,
                louvain_iters: 3,
                pr_iters: 12,
                app_period: 200_000,
                micro_period: 10_000,
            },
            _ => Scales {
                micro_elems: 4096,
                micro_reps: 50,
                graph_scale: 10,
                degree: 8,
                louvain_iters: 2,
                pr_iters: 9,
                app_period: 50_000,
                micro_period: 10_000,
            },
        }
    }
}

/// Where experiment JSON lands.
pub fn experiments_dir() -> PathBuf {
    let dir = std::env::var("MEMGAZE_EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("experiments"));
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Print a rendered table and persist the machine-readable payload as
/// `experiments/<id>.json`.
pub fn emit<T: Serialize>(id: &str, table: &Table, payload: &T) {
    println!("{}", table.render());
    let path = experiments_dir().join(format!("{id}.json"));
    let json =
        with_host_fields(serde_json::to_string_pretty(payload).expect("serialize experiment"));
    let mut f = std::fs::File::create(&path).expect("create experiment file");
    f.write_all(json.as_bytes()).expect("write experiment file");
    println!("[experiment data → {}]\n", path.display());
}

/// Prepend the host facts every bench JSON must carry — core count and
/// the effective `MEMGAZE_THREADS` resolution — to a serialized
/// top-level JSON object. Timings are only comparable between two runs
/// when these match, so [`emit`] injects them unconditionally.
fn with_host_fields(body: String) -> String {
    let Some(rest) = body.strip_prefix('{') else {
        return body; // non-object payload: nothing to annotate
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = memgaze_analysis::par::default_threads();
    let sep = if rest.trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    format!("{{\n  \"host_cpus\": {cpus},\n  \"memgaze_threads\": {threads}{sep}{rest}")
}

/// Milliseconds elapsed running `f`, plus its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_instrument::Instrumenter;
    use memgaze_workloads::modules::{
        call_graph_module, masked_index_module, nested_loop_module, spilled_iv_module,
        synthetic_module,
    };

    #[test]
    fn host_fields_are_injected_into_object_payloads() {
        let annotated = with_host_fields("{\n  \"a\": 1\n}".to_string());
        assert!(annotated.starts_with("{\n  \"host_cpus\": "), "{annotated}");
        assert!(annotated.contains("\"memgaze_threads\": "), "{annotated}");
        assert!(annotated.ends_with("\"a\": 1\n}"), "{annotated}");
        // An empty object gains the fields without a dangling comma.
        let empty = with_host_fields("{}".to_string());
        assert!(empty.contains("\"memgaze_threads\""), "{empty}");
        assert!(!empty.contains(",}"), "{empty}");
        // Non-object payloads pass through untouched.
        assert_eq!(with_host_fields("[1,2]".to_string()), "[1,2]");
    }

    #[test]
    fn synthetic_module_scales_with_inputs() {
        let small = synthetic_module(4, 9);
        let big = synthetic_module(40, 9);
        assert!(big.num_instrs() > 5 * small.num_instrs());
        assert!(big.binary_size_bytes() > small.binary_size_bytes());
        small.validate().unwrap();
        // The instrumentor accepts it and finds all three classes.
        let out = Instrumenter::default().instrument(&small);
        assert!(out.stats.constant_loads > 0);
        assert!(out.stats.strided_loads > 0);
        assert!(out.stats.irregular_loads > 0);
    }

    #[test]
    fn showcase_workloads_validate_and_run() {
        for m in [
            spilled_iv_module(32),
            nested_loop_module(4, 8),
            call_graph_module(32),
            masked_index_module(32),
        ] {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
            // Each showcase module must actually execute and touch memory.
            let out = Instrumenter::default().instrument(&m);
            assert!(
                out.stats.constant_loads + out.stats.strided_loads + out.stats.irregular_loads > 0,
                "{}: no classified loads",
                m.name
            );
        }
    }

    #[test]
    fn timed_returns_result() {
        let (ms, v) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn scales_resolve() {
        let s = scales::from_env();
        assert!(s.micro_elems > 0 && s.graph_scale > 0);
    }
}
