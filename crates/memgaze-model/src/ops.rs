//! Trace transformations: filtering and merging.
//!
//! Downstream analyses often want a *view* of a trace — one function, one
//! address region, one time span — without re-collecting. These
//! operations preserve sample structure (a filtered sample keeps its
//! trigger time, so ρ-based estimators still apply to the surviving
//! accesses) and keep metadata consistent.

use crate::access::Access;
use crate::sample::{Sample, SampledTrace};
use crate::symbols::SymbolTable;

/// Keep only accesses satisfying `pred`, preserving sample boundaries.
/// Samples left empty are retained (they still witness their period for
/// ρ purposes).
pub fn filter_accesses(
    trace: &SampledTrace,
    mut pred: impl FnMut(&Access) -> bool,
) -> SampledTrace {
    let samples = trace
        .samples
        .iter()
        .map(|s| {
            let kept = s.accesses.iter().filter(|a| pred(a)).copied().collect();
            Sample::new(kept, s.trigger_time)
        })
        .collect();
    SampledTrace {
        meta: trace.meta.clone(),
        samples,
    }
}

/// Keep only accesses into the address region `[lo, hi)`.
pub fn filter_region(trace: &SampledTrace, lo: u64, hi: u64) -> SampledTrace {
    filter_accesses(trace, |a| a.addr.raw() >= lo && a.addr.raw() < hi)
}

/// Keep only accesses whose logical time lies in `[start, end)`.
pub fn filter_time(trace: &SampledTrace, start: u64, end: u64) -> SampledTrace {
    filter_accesses(trace, |a| a.time >= start && a.time < end)
}

/// Keep only accesses attributed to the named function.
pub fn filter_function(trace: &SampledTrace, symbols: &SymbolTable, name: &str) -> SampledTrace {
    let range = symbols
        .find_by_name(name)
        .and_then(|id| symbols.function(id))
        .map(|f| (f.lo, f.hi));
    match range {
        Some((lo, hi)) => filter_accesses(trace, |a| a.ip >= lo && a.ip < hi),
        None => filter_accesses(trace, |_| false),
    }
}

/// Merge two traces of the *same run* (e.g. two guarded collections with
/// disjoint regions of interest): samples are matched by trigger time;
/// accesses interleave by logical time; duplicates (same time + ip) are
/// kept once.
pub fn merge(a: &SampledTrace, b: &SampledTrace) -> SampledTrace {
    let mut meta = a.meta.clone();
    meta.total_loads = a.meta.total_loads.max(b.meta.total_loads);
    let mut samples = Vec::with_capacity(a.samples.len() + b.samples.len());
    let mut ia = a.samples.iter().peekable();
    let mut ib = b.samples.iter().peekable();
    loop {
        let next = match (ia.peek().copied(), ib.peek().copied()) {
            (Some(x), Some(y)) if x.trigger_time == y.trigger_time => {
                ia.next();
                ib.next();
                merge_sample(x, y)
            }
            (Some(x), Some(y)) if x.trigger_time < y.trigger_time => {
                ia.next();
                x.clone()
            }
            (Some(x), None) => {
                ia.next();
                x.clone()
            }
            (_, Some(y)) => {
                ib.next();
                y.clone()
            }
            (None, None) => break,
        };
        samples.push(next);
    }
    SampledTrace { meta, samples }
}

/// The accesses of two samples with one trigger, interleaved by time
/// with `x`'s first on a tie (the sort is stable), and an access equal
/// in time and ip to the one kept before it dropped.
fn merge_sample(x: &Sample, y: &Sample) -> Sample {
    let mut acc = [x.accesses.as_slice(), y.accesses.as_slice()].concat();
    acc.sort_by_key(|a| a.time);
    acc.dedup_by(|a, kept| a.time == kept.time && a.ip == kept.ip);
    Sample::new(acc, x.trigger_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::TraceMeta;
    use crate::Ip;

    #[allow(clippy::type_complexity)]
    fn mk(samples: &[(u64, &[(u64, u64, u64)])]) -> SampledTrace {
        // (trigger, [(ip, addr, time)])
        let mut t = SampledTrace::new(TraceMeta::new("t", 100, 1024));
        for (trigger, accs) in samples {
            let v: Vec<Access> = accs
                .iter()
                .map(|(ip, addr, time)| Access::new(*ip, *addr, *time))
                .collect();
            t.push_sample(Sample::new(v, *trigger)).unwrap();
        }
        t
    }

    #[test]
    fn region_and_time_filters() {
        let t = mk(&[
            (10, &[(0x400, 0x1000, 1), (0x404, 0x2000, 2)]),
            (20, &[(0x400, 0x1100, 12), (0x404, 0x3000, 13)]),
        ]);
        let r = filter_region(&t, 0x1000, 0x2000);
        assert_eq!(r.observed_accesses(), 2);
        assert_eq!(r.num_samples(), 2, "empty samples retained");
        assert!(r.accesses().all(|a| a.addr.raw() < 0x2000));

        let w = filter_time(&t, 0, 10);
        assert_eq!(w.observed_accesses(), 2);
        assert!(w.accesses().all(|a| a.time < 10));
    }

    #[test]
    fn function_filter_uses_symbols() {
        let mut sym = SymbolTable::new();
        sym.add_function("f", Ip(0x400), Ip(0x404), "x.c");
        sym.add_function("g", Ip(0x404), Ip(0x408), "x.c");
        let t = mk(&[(10, &[(0x400, 0x1000, 1), (0x404, 0x2000, 2)])]);
        let f = filter_function(&t, &sym, "f");
        assert_eq!(f.observed_accesses(), 1);
        assert_eq!(f.accesses().next().unwrap().ip, Ip(0x400));
        let none = filter_function(&t, &sym, "missing");
        assert_eq!(none.observed_accesses(), 0);
        assert_eq!(none.num_samples(), 1);
    }

    #[test]
    fn merge_interleaves_and_dedups() {
        let a = mk(&[(10, &[(0x400, 0x1000, 1), (0x400, 0x1008, 3)])]);
        let b = mk(&[(10, &[(0x404, 0x2000, 2), (0x400, 0x1008, 3)])]);
        let m = merge(&a, &b);
        assert_eq!(m.num_samples(), 1);
        let times: Vec<u64> = m.accesses().map(|x| x.time).collect();
        assert_eq!(
            times,
            vec![1, 2, 3],
            "interleaved by time, duplicate dropped"
        );
    }

    #[test]
    fn merge_disjoint_samples() {
        let a = mk(&[(10, &[(0x400, 0x1000, 1)])]);
        let b = mk(&[(20, &[(0x404, 0x2000, 12)])]);
        let m = merge(&a, &b);
        assert_eq!(m.num_samples(), 2);
        assert_eq!(m.observed_accesses(), 2);
    }

    #[test]
    fn filters_compose_with_decompression() {
        // Filtering keeps sample counts, so ρ (which depends on |σ| and
        // the period) is unchanged.
        let t = mk(&[
            (10, &[(0x400, 0x1000, 1), (0x404, 0x2000, 2)]),
            (20, &[(0x400, 0x1100, 12)]),
        ]);
        let f = filter_region(&t, 0x1000, 0x2000);
        assert_eq!(f.num_samples(), t.num_samples());
        assert_eq!(f.meta.period, t.meta.period);
    }
}
