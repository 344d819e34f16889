//! Property suite for the stand-in rule of the differential oracle: a run
//! that made no `!=` test on a NaN is also the other branch semantics'
//! run.
//!
//! `ompfuzz_backends::oracle` interprets each input once and hands that
//! outcome to the binaries of the other [`BoolSemantics`] whenever the run
//! reports `nan_ne_tests == 0` (in `ExecStats`, or on a budget abort).
//! These properties pin the engine-level fact the rule rests on, over
//! random `(program, input, budget)` triples whose inputs force some
//! parameters to NaN, on both engines, for the plain and the
//! constant-folded kernel:
//!
//! * whenever one semantics' run reports a count of 0, the other
//!   semantics' run is bitwise identical: `comp` bits, the full
//!   `ExecStats`, race reports, or an equal error (budget aborts
//!   midway included);
//! * the engines agree on every run, the count included, even at an
//!   abort;
//! * the premise: the forced NaNs do reach `!=` tests, and some of those
//!   runs really diverge between the semantics.

use ompfuzz_exec::{
    lower, BoolSemantics, CompiledKernel, ExecEngine, ExecError, ExecLimits, ExecOptions,
    ExecOutcome, ExecScratch,
};
use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
use ompfuzz_inputs::{InputGenerator, InputValue, TestInput};
use proptest::prelude::*;

type Run = Result<ExecOutcome, ExecError>;

/// Generate the `seed`-th random program (small and paper configs
/// alternate) and an input for it whose floating-point parameters and
/// array fills at the set bits of `nan_mask` are NaN.
fn generate(seed: u64, input_seed: u64, nan_mask: u64) -> (ompfuzz_ast::Program, TestInput) {
    let cfg = if seed.is_multiple_of(2) {
        GeneratorConfig::small()
    } else {
        GeneratorConfig::paper()
    };
    let program = ProgramGenerator::new(cfg, seed).generate("share");
    let mut input = InputGenerator::new(input_seed).generate_for(&program);
    for (i, value) in input.values.iter_mut().enumerate() {
        if nan_mask >> (i % 64) & 1 == 1 {
            if let InputValue::Fp(v) | InputValue::ArrayFill(v) = value {
                *v = f64::NAN;
            }
        }
    }
    (program, input)
}

/// The `!=`-on-NaN count a run reports, complete or aborted.
fn nan_ne_tests(run: &Run) -> u64 {
    match run {
        Ok(outcome) => outcome.stats.nan_ne_tests,
        Err(ExecError::BudgetExceeded { nan_ne_tests, .. }) => *nan_ne_tests,
        Err(ExecError::InputMismatch(_)) => 0,
    }
}

/// Bitwise equality of two runs: `comp` by bits (NaN-aware), statistics,
/// races, or equal errors.
fn identical(a: &Run, b: &Run) -> Result<(), String> {
    match (a, b) {
        (Ok(a), Ok(b)) if a.comp.to_bits() != b.comp.to_bits() => {
            Err(format!("comp {} vs {}", a.comp, b.comp))
        }
        (Ok(a), Ok(b)) if a.stats != b.stats => {
            Err(format!("stats\n {:?}\n {:?}", a.stats, b.stats))
        }
        (Ok(a), Ok(b)) if a.races != b.races => {
            Err(format!("races\n {:?}\n {:?}", a.races, b.races))
        }
        (Ok(_), Ok(_)) => Ok(()),
        (Err(a), Err(b)) if a == b => Ok(()),
        (a, b) => Err(format!(
            "status {:?} vs {:?}",
            a.as_ref().map(|o| o.comp),
            b.as_ref().map(|o| o.comp)
        )),
    }
}

/// Run `ck` on `input` under one engine and one semantics.
fn run(
    ck: &CompiledKernel,
    input: &TestInput,
    engine: ExecEngine,
    bool_semantics: BoolSemantics,
    max_ops: u64,
    detect_races: bool,
) -> Run {
    let opts = ExecOptions {
        bool_semantics,
        limits: ExecLimits { max_ops },
        detect_races,
        engine,
    };
    ck.run(input, &opts, &mut ExecScratch::new())
}

/// The IEEE and NaN-absorbing runs of every engine and kernel form, each
/// pair checked against the stand-in rule and the engines checked against
/// each other. Returns the bytecode engine's plain-kernel pair.
fn check_rule(
    program: &ompfuzz_ast::Program,
    input: &TestInput,
    max_ops: u64,
    detect_races: bool,
) -> Result<(Run, Run), String> {
    let kernel = lower(program).map_err(|e| e.to_string())?;
    let forms = [
        ("plain", CompiledKernel::compile(kernel.clone())),
        ("folded", CompiledKernel::compile_folded(kernel)),
    ];
    let mut bytecode_plain = None;
    for (form, ck) in &forms {
        let mut per_engine = Vec::new();
        for engine in [ExecEngine::Tree, ExecEngine::Bytecode] {
            let ieee = run(
                ck,
                input,
                engine,
                BoolSemantics::Ieee,
                max_ops,
                detect_races,
            );
            let absorbing = run(
                ck,
                input,
                engine,
                BoolSemantics::NanAbsorbing,
                max_ops,
                detect_races,
            );
            for (name, stand_in) in [("IEEE", &ieee), ("NaN-absorbing", &absorbing)] {
                if nan_ne_tests(stand_in) == 0 {
                    identical(&ieee, &absorbing).map_err(|e| {
                        format!("{form} {engine}: the {name} run tested no NaN with != yet the semantics differ: {e}")
                    })?;
                }
            }
            per_engine.push((ieee, absorbing));
        }
        let (tree, byte) = (&per_engine[0], &per_engine[1]);
        identical(&tree.0, &byte.0).map_err(|e| format!("{form} IEEE: engines differ: {e}"))?;
        identical(&tree.1, &byte.1)
            .map_err(|e| format!("{form} NaN-absorbing: engines differ: {e}"))?;
        if bytecode_plain.is_none() {
            bytecode_plain = per_engine.pop();
        }
    }
    Ok(bytecode_plain.expect("the plain form ran"))
}

proptest! {
    /// Runs that complete: with race detection on or off, a count of 0
    /// under either semantics makes the two runs bitwise identical.
    #[test]
    fn a_run_without_a_nan_ne_test_stands_in_for_both(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        nan_mask in 0u64..u64::MAX,
        races in 0u8..2,
    ) {
        let (program, input) = generate(seed, input_seed, nan_mask);
        if let Err(msg) = check_rule(&program, &input, 2_000_000, races == 1) {
            prop_assert!(false, "{} (seed {seed}/{input_seed})", msg);
        }
    }

    /// Small random budgets abort runs midway: a count of 0 at the abort
    /// means the other semantics aborts at the same op with the same
    /// error, and the engines agree on the count there too.
    #[test]
    fn an_abort_without_a_nan_ne_test_stands_in_for_both(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        nan_mask in 0u64..u64::MAX,
        budget in 1u64..40_000,
    ) {
        let (program, input) = generate(seed, input_seed, nan_mask);
        if let Err(msg) = check_rule(&program, &input, budget, false) {
            prop_assert!(false, "{} (budget {budget}, seed {seed}/{input_seed})", msg);
        }
    }
}

/// The premise of the properties above: NaN-forced inputs reach `!=`
/// tests (nonzero counts, also at aborts), and such runs really diverge
/// between the semantics, so the rule is not vacuous.
#[test]
fn forced_nans_reach_ne_tests_and_diverge() {
    let (mut counted, mut counted_at_abort, mut diverged) = (0, 0, 0);
    for seed in 0..120u64 {
        let (program, input) = generate(seed, seed + 1, u64::MAX);
        let budget = if seed % 3 == 0 { 20_000 } else { 2_000_000 };
        let (ieee, absorbing) = check_rule(&program, &input, budget, false)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if nan_ne_tests(&ieee) > 0 {
            counted += 1;
            counted_at_abort += usize::from(ieee.is_err());
            diverged += usize::from(identical(&ieee, &absorbing).is_err());
        }
    }
    assert!(counted >= 10, "only {counted} runs tested a NaN with !=");
    assert!(
        counted_at_abort >= 2,
        "no aborted run carried a nonzero count"
    );
    assert!(diverged >= 10, "only {diverged} runs diverged");
}
