//! Random traces and their side tables for the engine == spec suites.
//!
//! Small on purpose — the spec is quadratic — and shaped to reach the
//! branches a uniform draw misses: ips inside a function with and
//! without an annotation, ips in no function, a narrow arena where
//! loads of different classes share blocks at every block size, and
//! samples with no access at all.
//!
//! Included by `#[path]` from the suites that use it.
#![allow(dead_code)]

use memgaze_model::{
    Access, AuxAnnotations, BlockSize, FunctionId, Ip, IpAnnot, LoadClass, Sample, SampledTrace,
    SymbolTable, TraceMeta,
};
use proptest::prelude::*;

/// `(footprint_block, reuse_block)` the spec is held at: the default,
/// both at one size, and words against pages.
pub const BLOCK_SIZES: [(BlockSize, BlockSize); 3] = [
    (BlockSize::WORD, BlockSize::CACHE_LINE),
    (BlockSize::CACHE_LINE, BlockSize::CACHE_LINE),
    (BlockSize::WORD, BlockSize::OS_PAGE),
];

/// Ips `0x400 + 4k`: `k < 64` is inside a function of [`fixtures`],
/// `k ≥ 64` in none. Half the addresses fall in a 64-word arena.
pub fn arb_access() -> impl Strategy<Value = Access> {
    access_at(0..80)
}

/// An access whose ip is `0x400 + 4k` for a `k` in `ips`, as in
/// [`arb_access`].
fn access_at(ips: std::ops::Range<u64>) -> impl Strategy<Value = Access> {
    (ips, prop_oneof![0u64..64, 0u64..(1 << 16)], 0u64..(1 << 20))
        .prop_map(|(ip, word, t)| Access::new(0x400 + ip * 4, 0x10_0000 + word * 8, t))
}

/// A time-ordered window of fewer than `max` accesses whose ips all
/// come from one function of [`fixtures`] — alpha, beta or none — so a
/// sample drawn from it is that function's whole window.
pub fn arb_one_function_window(max: usize) -> impl Strategy<Value = Vec<Access>> {
    prop_oneof![
        prop::collection::vec(access_at(0..32), 0..max),
        prop::collection::vec(access_at(32..64), 0..max),
        prop::collection::vec(access_at(64..80), 0..max),
    ]
    .prop_map(|mut v| {
        v.sort_by_key(|a| a.time);
        v
    })
}

/// A time-ordered window of fewer than `max` accesses; one in four is
/// empty.
pub fn arb_window(max: usize) -> impl Strategy<Value = Vec<Access>> {
    prop_oneof![
        prop::collection::vec(arb_access(), 0..1),
        prop::collection::vec(arb_access(), 0..max),
        prop::collection::vec(arb_access(), 0..max),
        prop::collection::vec(arb_access(), 0..max),
    ]
    .prop_map(|mut v| {
        v.sort_by_key(|a| a.time);
        v
    })
}

/// Up to nine samples of up to 119 accesses, a period apart.
pub fn arb_trace() -> impl Strategy<Value = SampledTrace> {
    traces_of(arb_window(120))
}

/// Up to nine samples drawn from `window`, a period apart.
pub fn traces_of(
    window: impl Strategy<Value = Vec<Access>>,
) -> impl Strategy<Value = SampledTrace> {
    prop::collection::vec(window, 0..10).prop_map(|windows| {
        let mut t = SampledTrace::new(TraceMeta::new("prop", 10_000, 8192));
        let mut offset = 0u64;
        for w in windows {
            let shifted: Vec<Access> = w
                .iter()
                .map(|a| Access::new(a.ip, a.addr, a.time + offset))
                .collect();
            let trigger = shifted.last().map_or(offset, |a| a.time + 1);
            t.push_sample(Sample::new(shifted, trigger)).unwrap();
            offset = trigger + 10_000;
        }
        t.meta.total_loads = offset;
        t
    })
}

/// Annotations and symbols over the ips `arb_access` draws: Strided,
/// Irregular and Constant loads mixed across two functions and four
/// source lines, every seventh ip of a function left without an
/// annotation.
pub fn fixtures() -> (AuxAnnotations, SymbolTable) {
    let mut annots = AuxAnnotations::new();
    for k in (0..64u64).filter(|k| k % 7 != 6) {
        let (class, func) = match k % 3 {
            0 => (LoadClass::Strided, FunctionId(0)),
            1 => (LoadClass::Irregular, FunctionId(if k < 32 { 0 } else { 1 })),
            _ => (LoadClass::Constant, FunctionId(1)),
        };
        let mut an = IpAnnot::of_class(class, func);
        an.implied_const = (k % 5) as u32;
        an.src_line = 10 + (k % 4) as u32;
        annots.insert(Ip(0x400 + k * 4), an);
    }
    let mut symbols = SymbolTable::new();
    symbols.add_function("alpha", Ip(0x400), Ip(0x480), "p.c");
    symbols.add_function("beta", Ip(0x480), Ip(0x500), "p.c");
    (annots, symbols)
}
