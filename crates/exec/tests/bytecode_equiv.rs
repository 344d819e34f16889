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
//!
//! The campaign's race verdict is read off the run the binaries make (the
//! constant-folded kernel at `-O1`+), so two more properties pin, on both
//! engines, over safe and legacy-sharing programs and random budgets:
//!
//! * race recording changes no run: `comp` bits, statistics and an abort
//!   error are the same with it on or off;
//! * the plain and the folded kernel report equal races whenever both
//!   runs complete, and the folded run never aborts where the plain one
//!   completes.
//!
//! The VM aborts a loop nest at its entry when the nest's floor exceeds
//! the ops left, or, when the nest tests `!=` and the run has tested no
//! NaN with it yet, right after the run's first such test. So one more
//! property pins, on paper-config programs (safe and legacy-sharing) and
//! both kernel forms, that both engines complete at exactly the total a
//! run charges and abort one op short of it with the same error; a fixed
//! sweep, over generated and all-NaN inputs, shows that the VM's aborts
//! there include priced and doomed ones.

use ompfuzz_exec::{
    lower, BoolSemantics, CompiledKernel, ExecEngine, ExecError, ExecLimits, ExecOptions,
    ExecOutcome, ExecScratch,
};
use ompfuzz_gen::{GeneratorConfig, ProgramGenerator, SharingMode};
use ompfuzz_inputs::{InputGenerator, InputValue, TestInput};
use proptest::prelude::*;

/// Generate the `seed`-th random program and an input for it.
fn generate(seed: u64, input_seed: u64) -> (ompfuzz_ast::Program, TestInput) {
    generate_sharing(seed, input_seed, SharingMode::Safe)
}

/// [`generate`] under a sharing mode: legacy sharing emits unprotected
/// `comp` updates, as the paper's Varity did, so many of its programs race.
fn generate_sharing(
    seed: u64,
    input_seed: u64,
    sharing: SharingMode,
) -> (ompfuzz_ast::Program, TestInput) {
    // Alternate configs so both size envelopes are exercised.
    let mut cfg = if seed.is_multiple_of(2) {
        GeneratorConfig::small()
    } else {
        GeneratorConfig::paper()
    };
    cfg.sharing_mode = sharing;
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

/// The sharing mode a sampled `0..2` selector picks.
fn sharing(selector: u8) -> SharingMode {
    if selector == 0 {
        SharingMode::Safe
    } else {
        SharingMode::Legacy
    }
}

/// A budget drawn log-uniformly from `2^exp` up to `2^(exp+1)`, so tiny,
/// boundary and generous budgets all occur.
fn budget(exp: u32, fraction: u64) -> u64 {
    (1u64 << exp) + (fraction % (1u64 << exp))
}

proptest! {
    /// Recording races changes no run: with it on, every run has the
    /// `comp` bits and statistics it has with it off, or aborts with the
    /// same error — on both engines, both kernel forms and both branch
    /// semantics. So reading the verdict off the oracle's own
    /// interpretation cannot change what the binaries observe.
    #[test]
    fn race_recording_changes_no_run(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        selector in 0u8..2,
        nan_absorbing in 0u8..2,
        exp in 6u32..21,
        fraction in 0u64..1_000_000,
    ) {
        let (program, input) = generate_sharing(seed, input_seed, sharing(selector));
        let kernel = lower(&program).map_err(|e| e.to_string())?;
        let quiet = ExecOptions {
            bool_semantics: if nan_absorbing == 1 {
                BoolSemantics::NanAbsorbing
            } else {
                BoolSemantics::Ieee
            },
            limits: ExecLimits { max_ops: budget(exp, fraction) },
            ..ExecOptions::default()
        };
        let recording = ExecOptions { detect_races: true, ..quiet };
        let forms = [
            CompiledKernel::compile(kernel.clone()),
            CompiledKernel::compile_folded(kernel),
        ];
        for (ck, engine) in forms.iter().flat_map(|ck| {
            [ExecEngine::Tree, ExecEngine::Bytecode].map(|engine| (ck, engine))
        }) {
            let off = run_on(engine, ck, &input, &quiet);
            let on = run_on(engine, ck, &input, &recording);
            let case = format!("{engine}, {} folds, seed {seed}/{input_seed}", ck.folds);
            match (&off, &on) {
                (Ok(off), Ok(on)) => {
                    prop_assert_eq!(off.comp.to_bits(), on.comp.to_bits());
                    prop_assert!(off.stats == on.stats, "stats changed ({case})");
                    prop_assert!(off.races.is_empty(), "races without recording ({case})");
                }
                (Err(off), Err(on)) => prop_assert!(off == on, "{off:?} vs {on:?} ({case})"),
                _ => prop_assert!(false, "recording changed the status ({case})"),
            }
        }
    }

    /// The plain and the constant-folded kernel report equal races
    /// whenever both runs complete, and the folded run (which charges no
    /// more ops) never aborts where the plain one completes — on both
    /// engines, over safe and legacy-sharing programs. Folding rewrites
    /// only `Const op Const`, so both forms make the same accesses in the
    /// same order.
    #[test]
    fn plain_and_folded_kernels_report_equal_races(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        selector in 0u8..2,
        exp in 6u32..21,
        fraction in 0u64..1_000_000,
    ) {
        let (program, input) = generate_sharing(seed, input_seed, sharing(selector));
        let kernel = lower(&program).map_err(|e| e.to_string())?;
        let plain = CompiledKernel::compile(kernel.clone());
        let folded = CompiledKernel::compile_folded(kernel);
        let opts = ExecOptions {
            detect_races: true,
            limits: ExecLimits { max_ops: budget(exp, fraction) },
            ..ExecOptions::default()
        };
        for engine in [ExecEngine::Tree, ExecEngine::Bytecode] {
            let case = format!("{engine}, seed {seed}/{input_seed}");
            match (
                run_on(engine, &plain, &input, &opts),
                run_on(engine, &folded, &input, &opts),
            ) {
                (Ok(p), Ok(f)) => prop_assert!(p.races == f.races, "races differ ({case})"),
                (Ok(_), Err(e)) => {
                    prop_assert!(false, "folded aborted ({e}) where plain completed ({case})")
                }
                (Err(_), _) => {}
            }
        }
    }
}

/// Premise of the two race properties: legacy-sharing programs do race,
/// and the verdicts agree across kernel forms, on a fixed sweep.
#[test]
fn legacy_programs_race_on_both_kernel_forms() {
    let opts = ExecOptions {
        detect_races: true,
        limits: ExecLimits { max_ops: 4_000_000 },
        ..ExecOptions::default()
    };
    let mut racy = 0;
    for seed in 0..40 {
        let (program, input) = generate_sharing(seed, seed + 1, SharingMode::Legacy);
        let kernel = lower(&program).unwrap();
        let forms = [
            CompiledKernel::compile(kernel.clone()),
            CompiledKernel::compile_folded(kernel),
        ];
        let [plain, folded] = forms.map(|ck| run_on(ExecEngine::Bytecode, &ck, &input, &opts));
        if let (Ok(plain), Ok(folded)) = (plain, folded) {
            assert_eq!(plain.races, folded.races, "seed {seed}");
            racy += usize::from(!folded.races.is_empty());
        }
    }
    assert!(racy > 0, "no legacy-sharing program raced");
}

/// Budget ceiling of the boundary checks: runs needing more are covered by
/// the random-budget properties above.
const BOUNDARY_CAP: u64 = 1_000_000;

fn limited(max_ops: u64) -> ExecOptions {
    ExecOptions {
        limits: ExecLimits { max_ops },
        ..ExecOptions::default()
    }
}

/// A compiled run that completes within [`BOUNDARY_CAP`], measured off
/// its VM profile: `total` is the ops it charges (every block's charged
/// ops plus one fork charge per thread of each region entry), `widest`
/// the most ops any one block charged.
struct Boundary {
    ck: CompiledKernel,
    total: u64,
    widest: u64,
}

impl Boundary {
    /// `None` when the run does not complete within the cap.
    fn measure(
        program: &ompfuzz_ast::Program,
        input: &TestInput,
        folded: bool,
    ) -> Result<Option<Boundary>, String> {
        let kernel = lower(program).map_err(|e| e.to_string())?;
        let ck = if folded {
            CompiledKernel::compile_folded(kernel)
        } else {
            CompiledKernel::compile(kernel)
        };
        let mut scratch = ExecScratch::new();
        scratch.profile = Some(Box::default());
        let Ok(complete) = ck.run(input, &limited(BOUNDARY_CAP), &mut scratch) else {
            return Ok(None);
        };
        let profile = scratch.profile.expect("installed");
        let forks: u64 = complete
            .stats
            .regions
            .iter()
            .map(|r| r.entries * u64::from(r.num_threads))
            .sum();
        let blocks = profile.blocks().iter().map(|b| b.ops);
        Ok(Some(Boundary {
            total: blocks.clone().sum::<u64>() + forks,
            widest: blocks.max().unwrap_or(0).max(1),
            ck,
        }))
    }

    /// Both engines at `budget`: they complete iff it covers `total`, with
    /// identical outcomes or the identical error.
    fn check(&self, input: &TestInput, budget: u64) -> Result<(), String> {
        let opts = limited(budget);
        let tree = run_on(ExecEngine::Tree, &self.ck, input, &opts);
        let byte = run_on(ExecEngine::Bytecode, &self.ck, input, &opts);
        let ok = budget >= self.total;
        if tree.is_ok() != ok || byte.is_ok() != ok {
            return Err(format!(
                "at budget {budget} of total {}: tree completes {}, bytecode {}",
                self.total,
                tree.is_ok(),
                byte.is_ok()
            ));
        }
        assert_outcomes_identical(&tree, &byte).map_err(|e| format!("{e} (budget {budget})"))
    }

    /// The VM's run at `budget` under `bool_semantics`, and how often it
    /// dispatched each opcode, read off a fresh profile.
    fn profiled(
        &self,
        input: &TestInput,
        budget: u64,
        bool_semantics: BoolSemantics,
    ) -> (Result<ExecOutcome, ExecError>, Vec<u64>) {
        let mut scratch = ExecScratch::new();
        scratch.profile = Some(Box::default());
        let opts = ExecOptions {
            bool_semantics,
            ..limited(budget)
        };
        let run = self.ck.run(input, &opts, &mut scratch);
        let profile = scratch.profile.expect("installed");
        (run, profile.opcode_counts().map(|(_, n)| n).collect())
    }

    /// Instructions the VM dispatches at `budget`.
    fn dispatches(&self, input: &TestInput, budget: u64) -> u64 {
        let (_, opcodes) = self.profiled(input, budget, BoolSemantics::Ieee);
        opcodes.iter().sum()
    }

    /// Whether the VM's abort at `budget < total` was priced at a loop's
    /// entry. No single charge exceeds `widest`, so a run that fails at a
    /// charge site dispatches strictly less with `widest` fewer ops; an
    /// abort that dispatches exactly as much stopped where a floor, not a
    /// charge, ran out.
    fn priced_abort(&self, input: &TestInput, budget: u64) -> bool {
        budget > self.widest
            && self.dispatches(input, budget) == self.dispatches(input, budget - self.widest)
    }

    /// Whether the VM's abort at `budget < total` stopped a doomed run
    /// right after its first `!=` test on a NaN. Such an abort is not at a
    /// charge ([`Boundary::priced_abort`]) and reports `tested_nan_ne:
    /// true`; and that test is where the two branch semantics part, so the
    /// run dispatches the same opcodes under both. An abort at a nest's
    /// entry that reports a NaN `!=` test comes after such a test, where
    /// the semantics took different paths, so it dispatches the same
    /// opcodes under both only when those paths happen to.
    fn doomed_abort(&self, input: &TestInput, budget: u64) -> bool {
        let (ieee, opcodes) = self.profiled(input, budget, BoolSemantics::Ieee);
        matches!(
            ieee,
            Err(ExecError::BudgetExceeded {
                tested_nan_ne: true,
                ..
            })
        ) && self.priced_abort(input, budget)
            && self.profiled(input, budget, BoolSemantics::NanAbsorbing).1 == opcodes
    }
}

/// `input` with every floating-point parameter and array fill forced to
/// NaN (the all-set mask of the stand-in suite, `semantics_share.rs`).
fn all_nan(mut input: TestInput) -> TestInput {
    for value in &mut input.values {
        if let InputValue::Fp(v) | InputValue::ArrayFill(v) = value {
            *v = f64::NAN;
        }
    }
    input
}

/// A paper-config program under a sharing mode, and an input for it.
fn generate_paper(
    seed: u64,
    input_seed: u64,
    sharing: SharingMode,
) -> (ompfuzz_ast::Program, TestInput) {
    let cfg = GeneratorConfig {
        sharing_mode: sharing,
        ..GeneratorConfig::paper()
    };
    let program = ProgramGenerator::new(cfg, seed).generate("equiv");
    let input = InputGenerator::new(input_seed).generate_for(&program);
    (program, input)
}

proptest! {
    /// Paper-config programs, safe and legacy-sharing, on the plain and
    /// the folded kernel: the VM completes at exactly the budget the run
    /// needs and aborts one op short of it with the tree's exact error. A
    /// nest floor that overcounts by a single op aborts the VM at `total`.
    #[test]
    fn generated_programs_match_at_budget_boundaries(
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        selector in 0u8..2,
    ) {
        let (program, input) = generate_paper(seed, input_seed, sharing(selector));
        for folded in [false, true] {
            let Some(b) = Boundary::measure(&program, &input, folded)? else {
                continue;
            };
            for budget in [b.total, b.total - 1] {
                if let Err(msg) = b.check(&input, budget) {
                    prop_assert!(false, "{} (folded {folded}, seed {seed}/{input_seed})", msg);
                }
            }
        }
    }
}

/// Premise of the boundary property: the VM prices aborts on generated
/// programs. On a fixed sweep of generated inputs and the same inputs with
/// every floating-point value NaN, both engines agree one op short of the
/// total and at budgets between it and the widest block (where a priced
/// abort is told from a charge's by [`Boundary::priced_abort`]) or half
/// of it. Some of the VM's aborts there stop at a loop's entry, and some
/// on the NaN inputs stop a doomed run at its first NaN `!=` test
/// ([`Boundary::doomed_abort`]).
#[test]
fn boundary_sweep_reaches_priced_aborts() {
    let (mut priced, mut doomed) = (0, 0);
    for seed in 0..48 {
        let (program, input) = generate_paper(seed, seed + 1, sharing((seed % 2) as u8));
        let masked = all_nan(input.clone());
        for (input, folded) in [input, masked]
            .iter()
            .flat_map(|input| [false, true].map(|folded| (input, folded)))
        {
            let Some(b) = Boundary::measure(&program, input, folded).unwrap() else {
                continue;
            };
            for budget in [
                b.total - 1,
                (b.total + b.widest) / 2,
                b.widest + 1,
                b.total / 2,
            ] {
                if budget == 0 {
                    continue;
                }
                b.check(input, budget).unwrap();
                priced += usize::from(b.priced_abort(input, budget));
                doomed += usize::from(b.doomed_abort(input, budget));
            }
        }
    }
    assert!(priced > 0, "no boundary abort was priced");
    assert!(doomed > 0, "no boundary abort stopped a doomed run");
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
