//! Regenerate the paper's tables and figures under `experiments/`.
//!
//! ```text
//! tables                 every table
//! tables fig6 table9 …   the named ones (names in `memgaze_bench::TABLES`)
//! ```
//!
//! `MEMGAZE_SCALE=small|default|large` sets the workload sizes.

use memgaze_bench::{scales, select};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let (sc, entries) = match scales::from_env().and_then(|sc| Ok((sc, select(&names)?))) {
        Ok(picked) => picked,
        Err(e) => {
            eprintln!("tables: {e}");
            return ExitCode::from(2);
        }
    };
    for entry in entries {
        if let Err(e) = entry.regenerate(&sc) {
            eprintln!("tables: {}: {e}", entry.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
