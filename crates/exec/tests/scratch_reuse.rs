//! Differential property suite for [`ExecScratch`] reuse: running through
//! one long-lived scratch is *bit-identical* to running each execution on
//! fresh allocations — same `comp` bits, the full `ExecStats`, the race
//! reports, and the same errors on the same runs.
//!
//! The sequences deliberately interleave different programs, inputs, both
//! engines and race detection through one scratch, so stale state of any
//! previous run (slot files, array buffers, block counters, the
//! region-analyzed marks, privatization buffers) would surface as a
//! divergence.

use ompfuzz_exec::{
    lower, CompiledKernel, ExecEngine, ExecError, ExecLimits, ExecOptions, ExecOutcome, ExecScratch,
};
use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
use ompfuzz_inputs::{InputGenerator, TestInput};
use proptest::prelude::*;

/// Generate the `seed`-th random program and an input for it.
fn generate(seed: u64, input_seed: u64) -> (ompfuzz_ast::Program, TestInput) {
    // Alternate configs so both size envelopes are exercised.
    let cfg = if seed.is_multiple_of(2) {
        GeneratorConfig::small()
    } else {
        GeneratorConfig::paper()
    };
    let mut pg = ProgramGenerator::new(cfg, seed);
    let program = pg.generate("scratch");
    let input = InputGenerator::new(input_seed).generate_for(&program);
    (program, input)
}

fn assert_identical(
    fresh: &Result<ExecOutcome, ExecError>,
    reused: &Result<ExecOutcome, ExecError>,
) -> Result<(), String> {
    match (fresh, reused) {
        (Ok(f), Ok(r)) => {
            if f.comp.to_bits() != r.comp.to_bits() {
                return Err(format!(
                    "comp diverged: fresh {} vs reused {}",
                    f.comp, r.comp
                ));
            }
            if f.stats != r.stats {
                return Err(format!(
                    "stats diverged:\n fresh:  {:?}\n reused: {:?}",
                    f.stats, r.stats
                ));
            }
            if f.races != r.races {
                return Err(format!(
                    "races diverged:\n fresh:  {:?}\n reused: {:?}",
                    f.races, r.races
                ));
            }
            Ok(())
        }
        (Err(fe), Err(re)) if fe == re => Ok(()),
        (f, r) => Err(format!("outcomes diverged: fresh {f:?} vs reused {r:?}")),
    }
}

proptest! {
    /// One scratch carried across a random sequence of (program, input,
    /// options) runs is indistinguishable from fresh per-run state, on
    /// both engines, with race detection on and off, and across budget
    /// exhaustion (which leaves the scratch mid-run dirty).
    #[test]
    fn reused_scratch_is_bit_identical_across_sequences(
        base in 0u64..100_000,
        input_base in 0u64..100_000,
        budget_shift in 0u32..12,
    ) {
        let mut scratch = ExecScratch::new();
        for step in 0..3u64 {
            let (program, input) = generate(base + step, input_base + step);
            let compiled = CompiledKernel::compile(lower(&program).expect("generated programs lower"));
            // A tightened budget on some steps exercises mid-run abort —
            // the next iteration then starts from a dirty scratch.
            let max_ops = if step == 1 { 1u64 << (4 + budget_shift) } else { 1_000_000 };
            for detect_races in [false, true] {
                for engine in [ExecEngine::Bytecode, ExecEngine::Tree] {
                    let opts = ExecOptions {
                        detect_races,
                        limits: ExecLimits { max_ops },
                        engine,
                        ..ExecOptions::default()
                    };
                    let fresh = compiled.run(&input, &opts, &mut ExecScratch::new());
                    let reused = compiled.run(&input, &opts, &mut scratch);
                    assert_identical(&fresh, &reused)?;
                }
            }
        }
    }
}
