//! The paper's evaluation (§VI–§VII) on the simulated substrate.
//!
//! Every table and figure has a module here that regenerates it, and
//! [`TABLES`] names them for the `tables` binary: `tables` regenerates
//! all of them, `tables fig6 table9` the named ones. Each writes one
//! byte-deterministic `experiments/<file>.json`; a table that measures
//! wall-clock time writes those fields to a second, host-stamped
//! `experiments/<file>.timing.json`. Performance is measured by
//! `benchmark/`, not here.

mod ablations;
mod fig6;
mod fig7;
mod lint;
pub mod scales;
mod table2;
mod table3;
mod table4_5;
mod table6_7_8;
mod table9;

use scales::Scales;
use serde::Serialize;

/// Where experiment JSON lands, relative to the working directory.
const EXPERIMENTS_DIR: &str = "experiments";

/// One regenerable output: its name on the `tables` command line, the
/// `experiments/` file it writes, and the function that computes it.
pub struct Entry {
    pub name: &'static str,
    file: &'static str,
    run: fn(&Scales) -> Output,
}

/// Every table and figure, in the order `tables` regenerates them.
pub const TABLES: &[Entry] = &[
    Entry::new("fig6", "fig6_validation", fig6::run),
    Entry::new("fig7", "fig7_overhead", fig7::run),
    Entry::new("table2", "table2_toolchain", table2::run),
    Entry::new("table3", "table3_space", table3::run),
    Entry::new("table4_5", "table4_5_minivite", table4_5::run),
    Entry::new("table6_7_8", "table6_7_8_darknet", table6_7_8::run),
    Entry::new("table9", "table9_fig8_9_gap", table9::run),
    Entry::new("ablations", "ablations", ablations::run),
    Entry::new("lint", "BENCH_lint", lint::run),
];

/// The entries `names` pick, in their order; every entry for no names.
pub fn select(names: &[String]) -> Result<Vec<&'static Entry>, String> {
    if names.is_empty() {
        return Ok(TABLES.iter().collect());
    }
    let known = || TABLES.iter().map(|e| e.name).collect::<Vec<_>>().join(", ");
    names
        .iter()
        .map(|n| {
            TABLES
                .iter()
                .find(|e| e.name == n)
                .ok_or_else(|| format!("unknown table {n:?} (tables: {})", known()))
        })
        .collect()
}

impl Entry {
    const fn new(name: &'static str, file: &'static str, run: fn(&Scales) -> Output) -> Entry {
        Entry { name, file, run }
    }

    /// Compute this table at `sc`, print it and write its files.
    pub fn regenerate(&self, sc: &Scales) -> std::io::Result<()> {
        let out = (self.run)(sc);
        std::fs::create_dir_all(EXPERIMENTS_DIR)?;
        for (path, body) in out.files(self.file) {
            std::fs::write(&path, body)?;
            println!("[experiment data → {path}]");
        }
        println!();
        Ok(())
    }
}

/// What one table writes: its deterministic payload and, for a table
/// that measures wall-clock time, the timings apart.
pub(crate) struct Output {
    data: String,
    timing: Option<String>,
}

impl Output {
    fn new(data: &impl Serialize) -> Output {
        Output {
            data: json(data),
            timing: None,
        }
    }

    fn with_timing(self, timing: &impl Serialize) -> Output {
        Output {
            timing: Some(with_host_fields(json(timing))),
            ..self
        }
    }

    /// `(path, contents)` of each file this output writes as `file`.
    fn files(&self, file: &str) -> Vec<(String, &str)> {
        let mut files = vec![(format!("{EXPERIMENTS_DIR}/{file}.json"), self.data.as_str())];
        if let Some(timing) = &self.timing {
            files.push((format!("{EXPERIMENTS_DIR}/{file}.timing.json"), timing));
        }
        files
    }
}

fn json(payload: &impl Serialize) -> String {
    serde_json::to_string_pretty(payload).expect("serialize experiment")
}

/// Wrap serialized timings, whatever their root, in an object that
/// leads with the host fact they depend on — the core count. Timings
/// are only comparable between two runs when it matches.
fn with_host_fields(timings: String) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timings = timings.replace('\n', "\n  ");
    format!("{{\n  \"host_cpus\": {cpus},\n  \"timings\": {timings}\n}}")
}

/// Milliseconds elapsed running `f`, plus its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
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
    fn deterministic_payloads_are_written_without_host_fields() {
        let out = Output::new(&vec![1u64, 2]);
        let files = out.files("t");
        assert_eq!(
            files,
            vec![("experiments/t.json".to_string(), "[\n  1,\n  2\n]")]
        );
    }

    #[test]
    fn timing_payloads_are_written_with_host_fields() {
        #[derive(Serialize)]
        struct Row {
            ms: f64,
        }
        let array = Output::new(&0u64).with_timing(&vec![Row { ms: 1.5 }]);
        let object = Output::new(&0u64).with_timing(&Row { ms: 2.5 });
        for (out, body) in [
            (array, "[\n    {\n      \"ms\": 1.5\n    }\n  ]"),
            (object, "{\n    \"ms\": 2.5\n  }"),
        ] {
            let files = out.files("t");
            assert_eq!(files[0], ("experiments/t.json".to_string(), "0"));
            let (path, timing) = &files[1];
            assert_eq!(path, "experiments/t.timing.json");
            assert!(timing.starts_with("{\n  \"host_cpus\": "), "{timing}");
            assert!(
                timing.ends_with(&format!(",\n  \"timings\": {body}\n}}")),
                "{timing}"
            );
        }
    }

    #[test]
    fn every_table_has_its_own_name_and_deterministic_file() {
        let mut names: Vec<&str> = TABLES.iter().map(|e| e.name).collect();
        let mut files: Vec<String> = TABLES.iter().map(|e| format!("{}.json", e.file)).collect();
        names.sort_unstable();
        names.dedup();
        files.sort_unstable();
        files.dedup();
        assert_eq!((names.len(), files.len()), (TABLES.len(), TABLES.len()));
        // The checked-in deterministic files are exactly the ones the
        // tables write: no orphan, and none written twice.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
        let mut checked_in: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .filter(|f| !f.ends_with(".timing.json"))
            .collect();
        checked_in.sort_unstable();
        assert_eq!(checked_in, files);
    }

    #[test]
    fn select_picks_named_tables_and_rejects_unknown_ones() {
        let pick = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            select(&names).map(|es| es.iter().map(|e| e.name).collect::<Vec<_>>())
        };
        assert_eq!(pick(&[]).unwrap().len(), TABLES.len());
        assert_eq!(pick(&["table9", "fig6"]).unwrap(), vec!["table9", "fig6"]);
        let err = pick(&["fig6", "fig99"]).unwrap_err();
        assert!(err.contains("fig99") && err.contains("table9"), "{err}");
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
}
