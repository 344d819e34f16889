//! Differential property suite: the flat bytecode VM and the tree-walk
//! interpreter are *bit-identical* on random generated programs.
//!
//! Every campaign verdict rests on interpreted runs, so swapping the
//! engine is only sound if nothing observable changes. These properties
//! pin, over random `(program, input, options)` triples:
//!
//! * identical `ExecOutcome`s — `comp` compared by `to_bits` (NaN-aware),
//!   the full `ExecStats` (batched block charges vs. per-node counts), and
//!   the race reports;
//! * identical failure behaviour — budget exhaustion (including mid-loop)
//!   and input mismatches hit both engines on exactly the same runs;
//! * identity under both branch semantics (IEEE and the modelled GCC
//!   NaN-absorbing folding) and for the constant-folded `-O1`+ form.

use ompfuzz_exec::{
    lower, BoolSemantics, CompiledKernel, ExecEngine, ExecError, ExecLimits, ExecOptions,
    ExecOutcome, ExecScratch,
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
    let program = pg.generate("equiv");
    let input = InputGenerator::new(input_seed).generate_for(&program);
    (program, input)
}

fn assert_outcomes_identical(
    tree: &Result<ExecOutcome, ExecError>,
    byte: &Result<ExecOutcome, ExecError>,
) -> Result<(), String> {
    match (tree, byte) {
        (Ok(t), Ok(b)) => {
            if t.comp.to_bits() != b.comp.to_bits() {
                return Err(format!(
                    "comp diverged: tree {} vs bytecode {}",
                    t.comp, b.comp
                ));
            }
            if t.stats != b.stats {
                return Err(format!(
                    "stats diverged:\n tree: {:?}\n byte: {:?}",
                    t.stats, b.stats
                ));
            }
            if t.races != b.races {
                return Err(format!(
                    "races diverged:\n tree: {:?}\n byte: {:?}",
                    t.races, b.races
                ));
            }
            Ok(())
        }
        (Err(te), Err(be)) => {
            if te != be {
                return Err(format!("errors diverged: tree {te:?} vs bytecode {be:?}"));
            }
            Ok(())
        }
        (t, b) => Err(format!(
            "status diverged: tree {:?} vs bytecode {:?}",
            t.as_ref().map(|o| o.comp),
            b.as_ref().map(|o| o.comp)
        )),
    }
}

fn check_both(
    program: &ompfuzz_ast::Program,
    input: &TestInput,
    opts: &ExecOptions,
    folded: bool,
) -> Result<(), String> {
    let kernel = lower(program).map_err(|e| e.to_string())?;
    let ck = if folded {
        CompiledKernel::compile_folded(kernel)
    } else {
        CompiledKernel::compile(kernel)
    };
    // The tree reference interprets the same (possibly folded) kernel the
    // bytecode was flattened from.
    let tree = run_on(ExecEngine::Tree, &ck, input, opts);
    let byte = run_on(ExecEngine::Bytecode, &ck, input, opts);
    assert_outcomes_identical(&tree, &byte)
}

/// `ck` on `input` on one engine, through a fresh scratch.
fn run_on(
    engine: ExecEngine,
    ck: &CompiledKernel,
    input: &TestInput,
    opts: &ExecOptions,
) -> Result<ExecOutcome, ExecError> {
    ck.run(
        input,
        &ExecOptions { engine, ..*opts },
        &mut ExecScratch::new(),
    )
}

proptest! {
    /// Random programs and inputs produce bit-identical outcomes — status,
    /// result bits, statistics, and race reports — with race detection on,
    /// for both the plain and the constant-folded compilation.
    #[test]
    fn random_programs_are_bit_identical(seed in 0u64..1_000_000, input_seed in 0u64..1_000_000) {
        let (program, input) = generate(seed, input_seed);
        let opts = ExecOptions {
            detect_races: true,
            limits: ExecLimits { max_ops: 4_000_000 },
            ..ExecOptions::default()
        };
        if let Err(msg) = check_both(&program, &input, &opts, false) {
            prop_assert!(false, "{} (plain, seed {seed}/{input_seed})", msg);
        }
        if let Err(msg) = check_both(&program, &input, &opts, true) {
            prop_assert!(false, "{} (folded, seed {seed}/{input_seed})", msg);
        }
    }

    /// Tiny op budgets exhaust mid-run — mid-loop, mid-region, mid-thread —
    /// on exactly the same runs for both engines, and runs that fit the
    /// budget still match bit-for-bit.
    #[test]
    fn budget_exhaustion_is_engine_independent(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        budget in 1u64..20_000,
    ) {
        let (program, input) = generate(seed, input_seed);
        let opts = ExecOptions {
            limits: ExecLimits { max_ops: budget },
            ..ExecOptions::default()
        };
        if let Err(msg) = check_both(&program, &input, &opts, false) {
            prop_assert!(false, "{} (budget {budget}, seed {seed}/{input_seed})", msg);
        }
    }

    /// The modelled GCC NaN-absorbing branch semantics — the behaviour the
    /// paper's fast outliers hinge on — diverge from IEEE identically on
    /// both engines.
    #[test]
    fn nan_semantics_match_across_engines(seed in 0u64..1_000_000, input_seed in 0u64..1_000_000) {
        let (program, input) = generate(seed, input_seed);
        let opts = ExecOptions {
            bool_semantics: BoolSemantics::NanAbsorbing,
            limits: ExecLimits { max_ops: 4_000_000 },
            ..ExecOptions::default()
        };
        if let Err(msg) = check_both(&program, &input, &opts, true) {
            prop_assert!(false, "{} (nan-absorbing, seed {seed}/{input_seed})", msg);
        }
    }
}

/// Non-random pin: the crafted case-study programs (the shapes behind
/// every paper anomaly) are engine-equivalent at exactly the boundary
/// budget — the total the run needs — and one below it.
#[test]
fn case_shapes_match_at_budget_boundaries() {
    for (seed, input_seed) in [(2u64, 3u64), (5, 7), (10, 1)] {
        let (program, input) = generate(seed, input_seed);
        let ck = CompiledKernel::compile(lower(&program).unwrap());
        let generous = ExecOptions {
            limits: ExecLimits {
                max_ops: 50_000_000,
            },
            ..ExecOptions::default()
        };
        if run_on(ExecEngine::Tree, &ck, &input, &generous).is_err() {
            continue; // exceeds even the generous budget; covered above
        }
        // Probe the exact budget boundary by bisecting on the tree engine,
        // then require the VM to agree at the boundary and one below it.
        let (mut lo, mut hi) = (1u64, 50_000_000u64);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let opts = ExecOptions {
                limits: ExecLimits { max_ops: mid },
                ..ExecOptions::default()
            };
            if run_on(ExecEngine::Tree, &ck, &input, &opts).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        for (budget, ok) in [(lo, true), (lo - 1, false)] {
            if budget == 0 {
                continue;
            }
            let opts = ExecOptions {
                limits: ExecLimits { max_ops: budget },
                ..ExecOptions::default()
            };
            let tree = run_on(ExecEngine::Tree, &ck, &input, &opts);
            let byte = run_on(ExecEngine::Bytecode, &ck, &input, &opts);
            assert_eq!(tree.is_ok(), ok, "tree at {budget} (seed {seed})");
            assert_eq!(byte.is_ok(), ok, "bytecode at {budget} (seed {seed})");
            assert_outcomes_identical(&tree, &byte).unwrap();
        }
    }
}
