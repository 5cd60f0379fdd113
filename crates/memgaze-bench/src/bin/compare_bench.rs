//! Diff two result JSONs (a `benchmark/` result line saved to a file,
//! or `experiments/BENCH_lint.json`) as ratio deltas, or gate one file
//! against a threshold for CI.
//!
//! ```text
//! compare_bench OLD.json NEW.json
//! compare_bench --check 'metrics.store.result_hit_share.value>=1' FILE.json
//! compare_bench --check 'metrics.core.fanout_s.value/metrics.model.encode_s.value<=7' FILE.json
//! ```
//!
//! Diff mode flattens every numeric field into a dotted path
//! (`metrics.round_s.value`) and prints old, new, and new/old for the
//! paths present in both files — the quickest way to see which stage a
//! perf change actually moved. Check mode evaluates `path<=bound` /
//! `path>=bound` expressions (a `*` segment matches any array index or
//! key; `lhs/rhs` is the quotient of two fields, each matching exactly
//! one) and exits nonzero when a matched value violates the bound, so a
//! CI gate fails loudly instead of archiving a regression.
//!
//! Files are read with the workspace's one JSON reader
//! (`memgaze_obs::json`), so paths come out in key order. The
//! host-identity field (`host_cpus`) is compared too: a ratio between
//! runs on different hosts is flagged rather than silently reported.

use memgaze_obs::json::{self, Value};
use std::process::ExitCode;

/// One numeric leaf of a bench JSON: dotted path and value.
#[derive(Debug, Clone)]
struct Leaf {
    path: String,
    value: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, expr, file] if flag == "--check" => run_check(expr, file),
        [old, new] => run_diff(old, new),
        _ => {
            eprintln!(
                "usage: compare_bench OLD.json NEW.json\n       \
                 compare_bench --check 'PATH[/PATH]<=BOUND' FILE.json"
            );
            ExitCode::from(2)
        }
    }
}

fn load_leaves(path: &str) -> Result<Vec<Leaf>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&body).map_err(|e| format!("parse {path}: {e}"))?;
    let mut leaves = Vec::new();
    flatten(&doc, String::new(), &mut leaves);
    Ok(leaves)
}

/// Collect every numeric leaf under `v` with its dotted path.
fn flatten(v: &Value, path: String, out: &mut Vec<Leaf>) {
    let child = |key: &dyn std::fmt::Display| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match v {
        Value::Int(n) => out.push(Leaf {
            path,
            value: *n as f64,
        }),
        Value::Float(f) => out.push(Leaf { path, value: *f }),
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(item, child(&i), out);
            }
        }
        Value::Obj(fields) => {
            for (key, item) in fields {
                flatten(item, child(key), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

fn run_diff(old_path: &str, new_path: &str) -> ExitCode {
    let (old, new) = match (load_leaves(old_path), load_leaves(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_cpus = |leaves: &[Leaf]| {
        leaves
            .iter()
            .find(|l| l.path == "host_cpus")
            .map(|l| l.value)
    };
    let (a, b) = (host_cpus(&old), host_cpus(&new));
    if a != b {
        println!(
            "warning: host_cpus differs ({} vs {}) — ratios below compare different hosts",
            a.map_or("absent".into(), |v| v.to_string()),
            b.map_or("absent".into(), |v| v.to_string()),
        );
    }
    let width = old
        .iter()
        .map(|l| l.path.len())
        .chain(["path".len()])
        .max()
        .unwrap_or(4);
    println!(
        "{:width$}  {:>12}  {:>12}  {:>8}",
        "path", "old", "new", "new/old"
    );
    let mut missing = 0usize;
    for l in &old {
        let Some(n) = new.iter().find(|m| m.path == l.path) else {
            missing += 1;
            continue;
        };
        let ratio = if l.value == 0.0 {
            if n.value == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            n.value / l.value
        };
        let marker = if !(0.99..=1.01).contains(&ratio) {
            " *"
        } else {
            ""
        };
        println!(
            "{:width$}  {:>12.4}  {:>12.4}  {:>7.3}x{marker}",
            l.path, l.value, n.value, ratio
        );
    }
    let added = new
        .iter()
        .filter(|m| old.iter().all(|l| l.path != m.path))
        .count();
    if missing + added > 0 {
        println!("({missing} paths only in old, {added} only in new)");
    }
    ExitCode::SUCCESS
}

fn run_check(expr: &str, file: &str) -> ExitCode {
    let (path_pat, op, bound) = match parse_check(expr) {
        Some(t) => t,
        None => {
            eprintln!(
                "compare_bench: bad check expression {expr:?} (want PATH<=BOUND or PATH>=BOUND)"
            );
            return ExitCode::from(2);
        }
    };
    let leaves = match load_leaves(file) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("compare_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The values under test: every leaf the pattern matches, or for
    // `lhs/rhs` the one quotient of two leaves.
    let checked: Vec<Leaf> = match path_pat.split_once('/') {
        Some((lhs, rhs)) => quotient(lhs.trim(), rhs.trim(), &leaves)
            .into_iter()
            .collect(),
        None => leaves
            .into_iter()
            .filter(|l| path_matches(path_pat, &l.path))
            .collect(),
    };
    if checked.is_empty() {
        eprintln!("compare_bench: no numeric field matches {path_pat:?} in {file}");
        return ExitCode::FAILURE;
    }
    let mut violations = 0usize;
    for l in &checked {
        let ok = match op {
            "<=" => l.value <= bound,
            _ => l.value >= bound,
        };
        if ok {
            println!("ok   {} = {} ({op} {bound})", l.path, l.value);
        } else {
            println!("FAIL {} = {} (violates {op} {bound})", l.path, l.value);
            violations += 1;
        }
    }
    if violations > 0 {
        eprintln!(
            "compare_bench: {violations}/{} checked values out of bounds",
            checked.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `lhs/rhs` as one leaf, when each side matches exactly one field.
fn quotient(lhs: &str, rhs: &str, leaves: &[Leaf]) -> Option<Leaf> {
    let only = |pat: &str| {
        let mut hits = leaves.iter().filter(|l| path_matches(pat, &l.path));
        hits.next().filter(|_| hits.next().is_none())
    };
    let (a, b) = (only(lhs)?, only(rhs)?);
    Some(Leaf {
        path: format!("{}/{}", a.path, b.path),
        value: a.value / b.value,
    })
}

fn parse_check(expr: &str) -> Option<(&str, &'static str, f64)> {
    for op in ["<=", ">="] {
        if let Some((p, b)) = expr.split_once(op) {
            return Some((
                p.trim(),
                if op == "<=" { "<=" } else { ">=" },
                b.trim().parse().ok()?,
            ));
        }
    }
    None
}

/// Match a dotted path against a pattern where `*` matches one segment.
fn path_matches(pattern: &str, path: &str) -> bool {
    let ps: Vec<&str> = pattern.split('.').collect();
    let ls: Vec<&str> = path.split('.').collect();
    ps.len() == ls.len() && ps.iter().zip(&ls).all(|(p, l)| *p == "*" || p == l)
}
