//! Trace rendering: the span tree with inclusive/exclusive times, and
//! the counter / histogram / gauge tables, built from a flat event
//! stream (in-memory capture or a JSONL file read back).
//!
//! Spans are keyed `(pid, id)`, since ids are only unique per process.
//! Sibling spans with the same name are aggregated into one line
//! (`×count`), since a streaming run repeats the same per-shard span
//! many times.

use crate::event::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary statistics for a rendered trace, used by callers (the
/// `memgaze profile` verb, CI smoke checks) to assert non-emptiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStats {
    /// Total span events.
    pub spans: usize,
    /// Spans with no resolvable parent (trace roots and orphans).
    pub roots: usize,
    /// Distinct emitting processes.
    pub processes: usize,
    /// Total events of any kind.
    pub events: usize,
}

type Key = (u32, u64);

/// One span with its children, each level in start order.
struct Node {
    key: Key,
    name: String,
    start_us: u64,
    dur_us: u64,
    label: Option<String>,
    children: Vec<Node>,
}

struct Tree {
    roots: Vec<Node>,
    spans: usize,
}

fn by_start(nodes: &mut [impl std::borrow::Borrow<Node>]) {
    nodes.sort_by_key(|n| (n.borrow().start_us, n.borrow().key));
}

fn build_tree(events: &[Event]) -> Tree {
    let mut nodes: BTreeMap<Key, Node> = BTreeMap::new();
    let mut parent_of: BTreeMap<Key, Key> = BTreeMap::new();
    for e in events {
        if let Event::Span {
            pid,
            id,
            parent,
            name,
            start_us,
            dur_us,
            label,
        } = e
        {
            let key = (*pid, *id);
            nodes.insert(
                key,
                Node {
                    key,
                    name: name.clone(),
                    start_us: *start_us,
                    dur_us: *dur_us,
                    label: label.clone(),
                    children: Vec::new(),
                },
            );
            if *parent != 0 {
                parent_of.insert(key, (*pid, *parent));
            }
        }
    }
    let spans = nodes.len();
    let mut children: BTreeMap<Key, Vec<Key>> = BTreeMap::new();
    let mut roots: Vec<Key> = Vec::new();
    for &key in nodes.keys() {
        match parent_of.get(&key) {
            // A parent key that names no recorded span (e.g. the
            // enclosing span had not closed when the events were taken,
            // or obs was enabled mid-run) makes this span a root rather
            // than dropping it.
            Some(p) if nodes.contains_key(p) => children.entry(*p).or_default().push(key),
            _ => roots.push(key),
        }
    }
    fn take(
        key: Key,
        nodes: &mut BTreeMap<Key, Node>,
        children: &BTreeMap<Key, Vec<Key>>,
    ) -> Option<Node> {
        let mut node = nodes.remove(&key)?;
        node.children = children
            .get(&key)
            .into_iter()
            .flatten()
            .filter_map(|&c| take(c, nodes, children))
            .collect();
        by_start(&mut node.children);
        Some(node)
    }
    let mut roots: Vec<Node> = roots
        .into_iter()
        .filter_map(|k| take(k, &mut nodes, &children))
        .collect();
    by_start(&mut roots);
    Tree { roots, spans }
}

/// Trace statistics without rendering.
pub fn stats(events: &[Event]) -> ProfileStats {
    let tree = build_tree(events);
    let mut pids: Vec<u32> = events.iter().map(Event::pid).collect();
    pids.sort_unstable();
    pids.dedup();
    ProfileStats {
        spans: tree.spans,
        roots: tree.roots.len(),
        processes: pids.len(),
        events: events.len(),
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn render_group(out: &mut String, nodes: &[&Node], depth: usize) {
    // Aggregate same-named siblings into one line, preserving the
    // first-seen (earliest-start) order.
    let mut groups: Vec<(&str, Vec<&Node>)> = Vec::new();
    for &n in nodes {
        match groups.iter_mut().find(|(name, _)| *name == n.name) {
            Some((_, members)) => members.push(n),
            None => groups.push((&n.name, vec![n])),
        }
    }
    for (name, members) in groups {
        let incl: u64 = members.iter().map(|n| n.dur_us).sum();
        let mut children: Vec<&Node> = members.iter().flat_map(|n| &n.children).collect();
        let child_incl: u64 = children.iter().map(|n| n.dur_us).sum();
        let excl = incl.saturating_sub(child_incl);
        let indent = "  ".repeat(depth);
        let count = if members.len() > 1 {
            format!(" \u{00d7}{}", members.len())
        } else {
            String::new()
        };
        let label = match members.as_slice() {
            [only] => only
                .label
                .as_deref()
                .map(|l| format!("  [{l}]"))
                .unwrap_or_default(),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{indent}{name}{count}  incl {}  excl {}{label}",
            fmt_us(incl),
            fmt_us(excl)
        );
        if !children.is_empty() {
            by_start(&mut children);
            render_group(out, &children, depth + 1);
        }
    }
}

/// Merge metric snapshots: snapshots are cumulative and a process may
/// flush more than once, so per `(pid, name)` the largest snapshot
/// wins; values are then summed (counters) or maxed (gauges) across
/// processes.
struct Metrics {
    counters: Vec<(String, u64)>,
    hists: Vec<HistRow>,
    gauges: Vec<(String, u64)>,
}

/// One histogram merged across processes. The quantiles are the
/// exclusive upper edge of the power-of-2 bin they fall in.
struct HistRow {
    name: String,
    count: u64,
    mean: f64,
    p50_below: u64,
    p99_below: u64,
}

impl HistRow {
    fn render(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "  {:<36} n={:<10} mean={:<10.1} p50<{:<8} p99<{}",
            self.name, self.count, self.mean, self.p50_below, self.p99_below
        );
    }
}

/// Upper edge of the bin holding the `q` quantile of `count` values
/// (bin 0 holds zeros, bin `k` holds `[2^(k-1), 2^k)`).
fn quantile_below(bins: &[u64], count: u64, q: f64) -> u64 {
    let rank = ((count as f64 * q).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (k, &n) in bins.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return 1u64.checked_shl(k as u32).unwrap_or(u64::MAX);
        }
    }
    0
}

fn merge_metrics(events: &[Event]) -> Metrics {
    let mut counts: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    let mut gauges: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    let mut hists: BTreeMap<(u32, &str), (u64, u64, &[u64])> = BTreeMap::new();
    for e in events {
        match e {
            Event::Count { pid, name, value } => {
                let slot = counts.entry((*pid, name)).or_default();
                *slot = (*slot).max(*value);
            }
            Event::Gauge { pid, name, max } => {
                let slot = gauges.entry((*pid, name)).or_default();
                *slot = (*slot).max(*max);
            }
            Event::Hist {
                pid,
                name,
                count,
                sum,
                bins,
            } => {
                let slot = hists.entry((*pid, name)).or_default();
                if *count > slot.0 {
                    *slot = (*count, *sum, bins);
                }
            }
            _ => {}
        }
    }
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for ((_, name), v) in &counts {
        *by_name.entry(name).or_default() += v;
    }
    let mut counters: Vec<(String, u64)> = by_name
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut gauge_by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for ((_, name), v) in &gauges {
        let slot = gauge_by_name.entry(name).or_default();
        *slot = (*slot).max(*v);
    }
    let gauges_out = gauge_by_name
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();

    let mut hist_by_name: BTreeMap<&str, (u64, u64, Vec<u64>)> = BTreeMap::new();
    for ((_, name), (c, s, bins)) in &hists {
        let slot = hist_by_name.entry(name).or_default();
        slot.0 += c;
        slot.1 += s;
        if slot.2.len() < bins.len() {
            slot.2.resize(bins.len(), 0);
        }
        for (total, n) in slot.2.iter_mut().zip(bins.iter()) {
            *total += n;
        }
    }
    let hists_out = hist_by_name
        .into_iter()
        .map(|(n, (c, s, bins))| HistRow {
            name: n.to_string(),
            count: c,
            mean: if c == 0 { 0.0 } else { s as f64 / c as f64 },
            p50_below: quantile_below(&bins, c, 0.5),
            p99_below: quantile_below(&bins, c, 0.99),
        })
        .collect();
    Metrics {
        counters,
        hists: hists_out,
        gauges: gauges_out,
    }
}

/// Render the full profile: span tree, then metric tables.
pub fn render_profile(events: &[Event]) -> String {
    let tree = build_tree(events);
    let st = stats(events);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace: {} spans, {} roots, {} process(es) ==",
        st.spans, st.roots, st.processes
    );
    if tree.roots.is_empty() {
        out.push_str("(no spans recorded)\n");
    } else {
        let roots: Vec<&Node> = tree.roots.iter().collect();
        render_group(&mut out, &roots, 0);
    }

    let metrics = merge_metrics(events);
    if !metrics.counters.is_empty() {
        out.push_str("\n== top counters ==\n");
        for (name, v) in metrics.counters.iter().take(20) {
            let _ = writeln!(out, "  {name:<36} {v:>14}");
        }
    }
    if !metrics.hists.is_empty() {
        out.push_str("\n== histograms ==\n");
        for h in &metrics.hists {
            h.render(&mut out);
        }
    }
    if !metrics.gauges.is_empty() {
        out.push_str("\n== gauges (max) ==\n");
        for (name, v) in &metrics.gauges {
            let _ = writeln!(out, "  {name:<36} {v:>14}");
        }
    }
    out
}

/// Render the live metric registries (the stderr summary sink). Spans
/// are not included — summaries are for processes that only want the
/// counter rollup without an event file.
pub fn render_summary() -> String {
    let mut events: Vec<Event> = Vec::new();
    let pid = crate::own_pid();
    let st = crate::registry_snapshot();
    for (name, value) in st.0 {
        events.push(Event::Count { pid, name, value });
    }
    for (name, count, sum, bins) in st.1 {
        events.push(Event::Hist {
            pid,
            name,
            count,
            sum,
            bins,
        });
    }
    for (name, max) in st.2 {
        events.push(Event::Gauge { pid, name, max });
    }
    if events.is_empty() {
        return String::from("== memgaze-obs: no metrics recorded ==\n");
    }
    let metrics = merge_metrics(&events);
    let mut out = String::from("== memgaze-obs summary ==\n");
    for (name, v) in &metrics.counters {
        let _ = writeln!(out, "  {name:<36} {v:>14}");
    }
    for h in &metrics.hists {
        h.render(&mut out);
    }
    for (name, v) in &metrics.gauges {
        let _ = writeln!(out, "  {name:<36} max {v:>10}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: u32, id: u64, parent: u64, name: &str, start: u64, dur: u64) -> Event {
        Event::Span {
            pid,
            id,
            parent,
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            label: None,
        }
    }

    #[test]
    fn histogram_quantiles_are_bin_upper_edges_merged_across_processes() {
        let hist = |pid, count, sum, bins: &[u64]| Event::Hist {
            pid,
            name: "serve.request_us".to_string(),
            count,
            sum,
            bins: bins.to_vec(),
        };
        // 90 values in [128, 256) from one process, 10 in [4096, 8192)
        // from another; a stale snapshot of the first is superseded.
        let events = vec![
            hist(1, 40, 40 * 200, &[0, 0, 0, 0, 0, 0, 0, 0, 40]),
            hist(1, 90, 90 * 200, &[0, 0, 0, 0, 0, 0, 0, 0, 90]),
            hist(
                2,
                10,
                10 * 5000,
                &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10],
            ),
        ];
        let m = merge_metrics(&events);
        let h = &m.hists[0];
        assert_eq!((h.count, h.p50_below, h.p99_below), (100, 256, 8192));
        assert_eq!(quantile_below(&[5], 5, 0.5), 1);
        assert_eq!(quantile_below(&[], 0, 0.5), 0);
    }

    #[test]
    fn tree_nests_and_aggregates_siblings() {
        let events = vec![
            span(1, 1, 0, "pipeline.analyze", 0, 100),
            span(1, 2, 1, "streaming.ingest_shard", 5, 40),
            span(1, 3, 1, "streaming.ingest_shard", 50, 40),
            span(1, 4, 2, "streaming.fold_block_reuse", 10, 30),
            Event::Count {
                pid: 2,
                name: "model.frames_decoded".into(),
                value: 64,
            },
            Event::Count {
                pid: 2,
                name: "model.frames_decoded".into(),
                value: 80,
            },
            Event::Count {
                pid: 1,
                name: "model.frames_decoded".into(),
                value: 10,
            },
        ];
        let st = stats(&events);
        assert_eq!(st.spans, 4);
        assert_eq!(st.roots, 1);
        assert_eq!(st.processes, 2);
        let rendered = render_profile(&events);
        assert!(rendered.contains("pipeline.analyze"), "{rendered}");
        assert!(
            rendered.contains("streaming.ingest_shard \u{00d7}2"),
            "{rendered}"
        );
        assert!(
            rendered.contains("streaming.fold_block_reuse"),
            "{rendered}"
        );
        // Cumulative snapshots: max per pid (80), summed across pids (+10).
        assert!(rendered.contains("90"), "{rendered}");
        // Exclusive time of pipeline.analyze = 100 - (40 + 40).
        assert!(rendered.contains("incl 100us  excl 20us"), "{rendered}");
    }

    #[test]
    fn orphan_parents_become_roots() {
        let events = vec![span(1, 7, 99, "lonely", 0, 5)];
        let st = stats(&events);
        assert_eq!(st.spans, 1);
        assert_eq!(st.roots, 1);
        assert!(render_profile(&events).contains("lonely"));
    }

    #[test]
    fn empty_trace_renders() {
        let rendered = render_profile(&[]);
        assert!(rendered.contains("no spans"));
    }
}
