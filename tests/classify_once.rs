//! Classification is the expensive static step and depends on nothing
//! but the module, so every verb runs it once: the linter hands its own
//! classification to the planner, the rewriter and the checker, and the
//! `MEMGAZE_VERIFY` gate runs on with the rewrite the linter checked.
//! Counted as `pipeline.classify` spans, which
//! `ModuleClassification::analyze` opens whoever calls it.
//!
//! One test, in a binary of its own: the capture sink and the
//! environment variable are process-wide.

use memgaze::core::{MemGaze, PipelineConfig};
use memgaze::instrument::{
    lint_and_instrument, lint_module, InstrumentConfig, Instrumenter, ModuleClassification,
};
use memgaze::isa::codegen::OptLevel;
use memgaze::obs::{self, Event, ObsConfig};
use memgaze::workloads::ubench::MicroBench;

fn classify_spans(run: impl FnOnce()) -> usize {
    obs::take_capture();
    run();
    obs::take_capture()
        .iter()
        .filter(|e| matches!(e, Event::Span { name, .. } if name == "pipeline.classify"))
        .count()
}

#[test]
fn every_verb_classifies_once() {
    obs::configure(ObsConfig {
        capture: true,
        ..ObsConfig::disabled()
    });
    let bench = MicroBench::parse("str2|irr", 256, 2, OptLevel::O0).expect("a pattern");
    let module = bench.module();
    let config = InstrumentConfig::eliding();

    assert_eq!(classify_spans(|| drop(lint_module(&module, &config))), 1);
    assert_eq!(
        classify_spans(|| drop(lint_and_instrument(&module, &config))),
        1
    );
    let instrumenter = Instrumenter::new(config);
    assert_eq!(classify_spans(|| drop(instrumenter.instrument(&module))), 1);
    // A classification the caller holds serves any number of rewrites.
    let classification = ModuleClassification::analyze(&module);
    assert_eq!(
        classify_spans(|| {
            instrumenter.instrument_classified(&module, &classification);
            Instrumenter::default().instrument_classified(&module, &classification);
        }),
        0
    );

    let pipeline = MemGaze::new(PipelineConfig::microbench());
    let run = || drop(pipeline.run_microbench(&bench).expect("a clean run"));
    assert_eq!(classify_spans(run), 1);
    std::env::set_var("MEMGAZE_VERIFY", "1");
    let gated = classify_spans(run);
    std::env::remove_var("MEMGAZE_VERIFY");
    assert_eq!(
        gated, 1,
        "the gate lints and instruments on one classification"
    );
    obs::configure(ObsConfig::disabled());
}
