//! Property tests of the instrumentation path: for random microbenchmark
//! specs, instrumentation must preserve program semantics, decoding must
//! reconstruct exactly the instrumented loads, and the κ accounting must
//! balance.

use memgaze::instrument::{InstrumentConfig, Instrumenter};
use memgaze::isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
use memgaze::isa::interp::{Machine, VecSink};
use memgaze::model::{Ip, LoadClass, TraceMeta};
use memgaze::ptsim::collect_full;
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (1u32..=8).prop_map(Pattern::strided),
        Just(Pattern::Irregular),
    ]
}

fn arb_compose() -> impl Strategy<Value = Compose> {
    prop_oneof![
        arb_pattern().prop_map(Compose::Single),
        prop::collection::vec(arb_pattern(), 1..3).prop_map(Compose::Serial),
        (arb_pattern(), arb_pattern(), 0u8..=100).prop_map(|(first, second, likelihood)| {
            Compose::Conditional {
                first,
                second,
                likelihood,
            }
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = UKernelSpec> {
    (
        arb_compose(),
        16u32..256,
        1u32..4,
        prop_oneof![Just(OptLevel::O0), Just(OptLevel::O3)],
    )
        .prop_map(|(compose, elems, reps, opt)| UKernelSpec {
            compose,
            elems,
            reps,
            opt,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Instrumentation never changes the executed load stream (ptwrite
    /// has no architectural side effects).
    #[test]
    fn instrumentation_preserves_semantics(spec in arb_spec()) {
        let module = codegen::generate(&spec);
        let inst = Instrumenter::default().instrument(&module);
        let main = module.find_proc("main").unwrap();

        let mut orig = Machine::new(&module, VecSink::default());
        orig.run(main, 200_000_000).unwrap();
        let mut new = Machine::new(&inst.module, VecSink::default());
        new.run(main, 200_000_000).unwrap();

        let a: Vec<(u64, u64)> = orig
            .into_sink()
            .loads
            .iter()
            .map(|l| (l.1, l.2))
            .collect();
        let b: Vec<(u64, u64)> = new
            .into_sink()
            .loads
            .iter()
            .map(|l| (l.1, l.2))
            .collect();
        prop_assert_eq!(a, b);
    }

    /// Decoding an unlimited full collection reconstructs exactly the
    /// addresses of the instrumented (non-Constant) loads, in order.
    #[test]
    fn decode_reconstructs_instrumented_loads(spec in arb_spec()) {
        let module = codegen::generate(&spec);
        let inst = Instrumenter::default().instrument(&module);
        let main = module.find_proc("main").unwrap();

        // Reference: original-module loads, filtered to instrumented ips.
        let mut instrumented: Vec<Ip> = inst.ptw_map.values().map(|i| i.load_ip).collect();
        instrumented.sort_unstable();
        instrumented.dedup();
        let mut orig = Machine::new(&module, VecSink::default());
        orig.run(main, 200_000_000).unwrap();
        let reference: Vec<(u64, u64)> = orig
            .into_sink()
            .loads
            .iter()
            .filter(|(ip, _, _)| {
                inst.annots
                    .get(*ip)
                    .map(|a| a.class != LoadClass::Constant)
                    .unwrap_or(false)
                    && instrumented.binary_search(ip).is_ok()
            })
            .map(|(_, addr, t)| (*addr, *t))
            .collect();

        let (full, _) = collect_full(&inst, main, None, "prop").unwrap();
        let decoded: Vec<(u64, u64)> = full
            .accesses
            .iter()
            .map(|a| (a.addr.raw(), a.time))
            .collect();
        prop_assert_eq!(decoded, reference);
    }

    /// κ accounting balances: for compressed instrumentation, the implied
    /// Constant loads recovered from annotations equal the actual
    /// Constant-load executions of the original program.
    #[test]
    fn kappa_accounting_balances(spec in arb_spec()) {
        let module = codegen::generate(&spec);
        let inst = Instrumenter::default().instrument(&module);
        let main = module.find_proc("main").unwrap();

        // Actual Constant-load executions.
        let mut orig = Machine::new(&module, VecSink::default());
        orig.run(main, 200_000_000).unwrap();
        let const_execs = orig
            .into_sink()
            .loads
            .iter()
            .filter(|(ip, _, _)| {
                inst.annots.get(*ip).map(|a| a.class == LoadClass::Constant).unwrap_or(false)
            })
            .count() as u64;

        // Implied constants recovered from the full collection.
        let (full, _) = collect_full(&inst, main, None, "prop").unwrap();
        let trace = full.as_single_sample_trace();
        let implied = inst.annots.implied_const_accesses(&trace);
        prop_assert_eq!(implied, const_execs);
        let _ = TraceMeta::new("unused", 0, 0);
    }

    /// Uncompressed instrumentation observes at least as many loads as
    /// compressed, and exactly the program's instrumentable total.
    #[test]
    fn uncompressed_superset(spec in arb_spec()) {
        let module = codegen::generate(&spec);
        let main = module.find_proc("main").unwrap();
        let comp = Instrumenter::default().instrument(&module);
        let unc = Instrumenter::new(InstrumentConfig::uncompressed()).instrument(&module);
        let (fc, _) = collect_full(&comp, main, None, "c").unwrap();
        let (fu, _) = collect_full(&unc, main, None, "u").unwrap();
        prop_assert!(fu.accesses.len() >= fc.accesses.len());
        // Uncompressed accesses = compressed + implied constants.
        let implied = comp.annots.implied_const_accesses(&fc.as_single_sample_trace());
        prop_assert_eq!(fu.accesses.len() as u64, fc.accesses.len() as u64 + implied);
    }
}
