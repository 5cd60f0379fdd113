//! Microbenchmarks (paper §VI): thin layer over the IR code generator.
//!
//! The microbenchmarks run as generated IR modules through the
//! interpreter (the full binary-instrumentation path); this module names
//! them, builds the standard suite, and offers a parsing helper for the
//! paper's composed names (`str2|irr`, `str1/irr`, …).

pub use memgaze_isa::codegen::{Compose, OptLevel, Pattern, UKernelSpec};

/// A named microbenchmark: the spec plus defaults matching the paper
/// ("repeated 100 times", small arrays that become hotspots).
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBench {
    /// The kernel specification.
    pub spec: UKernelSpec,
}

impl MicroBench {
    /// Default element count (array length) for the suite.
    const DEFAULT_ELEMS: u32 = 4096;
    /// Default repetition count (the paper repeats hotspots 100×).
    const DEFAULT_REPS: u32 = 100;

    /// Build from a spec.
    pub fn new(spec: UKernelSpec) -> MicroBench {
        MicroBench { spec }
    }

    /// Parse a paper-style name: `str<k>`, `irr`, `a|b`, or `a/b`
    /// (conditional with 50% likelihood).
    pub fn parse(name: &str, elems: u32, reps: u32, opt: OptLevel) -> Option<MicroBench> {
        fn prim(s: &str) -> Option<Pattern> {
            if s == "irr" {
                Some(Pattern::Irregular)
            } else if let Some(step) = s.strip_prefix("str") {
                step.parse::<u32>()
                    .ok()
                    .filter(|&k| k > 0)
                    .map(Pattern::strided)
            } else {
                None
            }
        }
        let compose = if let Some((a, b)) = name.split_once('/') {
            Compose::Conditional {
                first: prim(a)?,
                second: prim(b)?,
                likelihood: 50,
            }
        } else if name.contains('|') {
            let ps: Option<Vec<Pattern>> = name.split('|').map(prim).collect();
            Compose::Serial(ps?)
        } else {
            Compose::Single(prim(name)?)
        };
        Some(MicroBench {
            spec: UKernelSpec {
                compose,
                elems,
                reps,
                opt,
            },
        })
    }

    /// Benchmark name ("str2|irr-O3").
    pub fn name(&self) -> String {
        self.spec.name()
    }

    /// Generate the IR module.
    pub fn module(&self) -> memgaze_isa::LoadModule {
        memgaze_isa::codegen::generate(&self.spec)
    }
}

/// The standard evaluation suite at the given optimization level.
pub fn suite(opt: OptLevel) -> Vec<MicroBench> {
    memgaze_isa::codegen::standard_suite(opt, MicroBench::DEFAULT_ELEMS, MicroBench::DEFAULT_REPS)
        .into_iter()
        .map(MicroBench::new)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for name in ["str1", "str8", "irr", "str2|irr", "str1/irr", "str4|str1"] {
            let mb = MicroBench::parse(name, 128, 2, OptLevel::O3).expect(name);
            assert_eq!(mb.name(), format!("{name}-O3"));
        }
        assert!(MicroBench::parse("bogus", 128, 2, OptLevel::O0).is_none());
        assert!(MicroBench::parse("str0", 128, 2, OptLevel::O0).is_none());
        assert!(MicroBench::parse("strX|irr", 128, 2, OptLevel::O0).is_none());
    }

    #[test]
    fn suite_is_nonempty_and_generates() {
        let s = suite(OptLevel::O3);
        assert!(s.len() >= 6);
        for mb in &s {
            let m = mb.module();
            assert!(m.find_proc("kernel").is_some());
            assert!(m.find_proc("main").is_some());
        }
    }
}
