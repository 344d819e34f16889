//! The differential oracle: compile one program with every backend, run
//! every binary on one input, and hand the outlier detector one
//! observation per backend.
//!
//! The campaign's per-program unit and the test-case reducer's candidate
//! checks both run through here, so the policy for sharing work between
//! vendor binaries lives in one place. The binaries of one program share
//! their compiled kernel and interpret it differently only in their branch
//! semantics ([`BoolSemantics`]): the Intel- and Clang-like binaries always
//! compare under IEEE rules, and the GCC-like one absorbs NaN comparisons
//! at `-O2` and above.
//!
//! The two semantics decide only one kind of test differently: `!=` with
//! a NaN operand. Both engines count those tests
//! ([`ompfuzz_exec::ExecStats::nan_ne_tests`], also carried by a budget
//! abort). So one [`CompiledSet::step`] interprets the input once, under
//! the semantics of the first binary that asks, and every binary
//! post-processes that outcome, unless the run made such a test. Only then
//! does the other semantics interpret on its own. A run with no such test
//! took the same path, to the same result, as the other semantics would
//! have; an input mismatch is raised before any test. Debug builds re-run
//! the other semantics on every handover and assert that the outcomes are
//! bitwise equal. The shared outcome lives only for that step, so it needs
//! no cache key, nothing invalidates it, and it does not depend on the
//! order of the caller's loops.
//!
//! The step is also the only place a race verdict is made (the §IV-E
//! filter of the campaign and the reducer's race gate): with
//! [`RunOptions::detect_races`] on, its interpretations record races, and
//! it returns the reports of its IEEE interpretation. A step with no
//! simulated IEEE binary, e.g. one of only process-based binaries, makes no
//! interpretation and gives no verdict, the same as a run that aborts.

use crate::backend::{CompiledTest, OmpBackend};
use crate::model::{CompileError, CompileOptions, RunOptions, RunResult, RunStatus};
use ompfuzz_ast::Program;
use ompfuzz_exec::{
    BoolSemantics, ExecError, ExecOutcome, ExecScratch, PreparedKernel, RaceReport,
};
use ompfuzz_inputs::TestInput;
use ompfuzz_obs::{Counter, Obs};
use ompfuzz_outlier::{ExecStatus, RunObservation};

/// Run metrics of a differential loop, tallied into plain integers and
/// flushed to the registry once per program (campaign) or per candidate
/// check (reducer): one set of counter updates instead of one per
/// `(input × backend)` run, with the same totals.
#[derive(Debug, Default)]
pub struct RunMetricsBatch {
    runs: u64,
    interpretations: u64,
    vm_ops: u64,
    budget_aborts: u64,
}

impl RunMetricsBatch {
    /// An empty batch.
    pub fn new() -> RunMetricsBatch {
        RunMetricsBatch::default()
    }

    /// Tally one run into the batch (no atomics touched).
    #[inline]
    pub fn observe(&mut self, result: &RunResult) {
        self.runs += 1;
        self.vm_ops += result.vm_ops;
        self.budget_aborts += u64::from(result.is_budget_abort());
    }

    /// Push the batch into the registry: differential runs, the
    /// interpretations the steps made, VM ops and budget aborts. A no-op
    /// on an [`Obs::off`] handle.
    pub fn flush(&self, obs: &Obs) {
        if self.runs == 0 || !obs.enabled() {
            return;
        }
        obs.count(Counter::DifferentialRuns, self.runs);
        obs.count(Counter::Interpretations, self.interpretations);
        obs.count(Counter::VmOps, self.vm_ops);
        if self.budget_aborts > 0 {
            obs.count(Counter::BudgetAborts, self.budget_aborts);
        }
    }
}

/// Convert a backend run into the outlier detector's observation record.
pub fn to_observation(result: &RunResult) -> RunObservation {
    match result.status {
        RunStatus::Ok => RunObservation {
            status: ExecStatus::Ok,
            time_us: result.time_us.map(|t| t as f64),
            result: result.comp,
        },
        RunStatus::Crash { .. } => RunObservation::crash(),
        RunStatus::Hang { .. } => RunObservation::hang(),
    }
}

/// Every binary of one program, compiled by [`compile`] with one
/// [`CompileOptions`], in backend order. Only [`compile`] builds one, so
/// the binaries a [`CompiledSet::step`] groups always share their program
/// and optimization level.
pub struct CompiledSet {
    binaries: Vec<Box<dyn CompiledTest>>,
}

/// Compile `program` with every backend, in backend order.
///
/// `prepared` optionally carries the program's pre-lowered, pre-compiled
/// form so simulated backends skip redundant lowering *and* share one
/// bytecode compilation (see [`OmpBackend::compile_lowered`]). Counts one
/// compile per backend and one failure per backend that fails. A program
/// that does not compile everywhere cannot be compared differentially, so
/// any failure returns the first backend's error.
pub fn compile(
    program: &Program,
    backends: &[&dyn OmpBackend],
    prepared: Option<&PreparedKernel>,
    opts: &CompileOptions,
    obs: &Obs,
) -> Result<CompiledSet, CompileError> {
    obs.count(Counter::Compiles, backends.len() as u64);
    let compiled: Vec<_> = backends
        .iter()
        .map(|backend| backend.compile_lowered(program, prepared, opts))
        .collect();
    let failures = compiled.iter().filter(|c| c.is_err()).count();
    obs.count(Counter::CompileFailures, failures as u64);
    let binaries = compiled.into_iter().collect::<Result<_, _>>()?;
    Ok(CompiledSet { binaries })
}

impl CompiledSet {
    /// Run every binary on `input` under `run_opts`, in backend order,
    /// through the caller's scratch, and tally each run and the step's
    /// interpretations into `metrics`. Returns the binaries' results and
    /// the race reports of the step's IEEE interpretation (see
    /// [`Interpretations::into_ieee_races`]).
    ///
    /// The step interprets the input once, under the branch semantics of
    /// the first binary that asks, and hands that outcome to every binary,
    /// whatever its semantics, when the run made no `!=` test on a NaN
    /// (see the module doc). Only a run that made one leaves the other
    /// semantics to interpret on its own, so the standard backends cost
    /// two interpretations on such inputs at `-O2` and above, and one
    /// everywhere else. A binary whose modelled crash triggers interprets
    /// nothing, and an op-budget abort is shared like a completed run.
    /// Every result equals the binary's standalone [`CompiledTest::run`],
    /// which is this step with one binary on a fresh scratch.
    ///
    /// With `run_opts.detect_races` on, every interpretation of the step
    /// records races on the kernel the binaries run (the constant-folded
    /// one at `-O1` and above), so the race verdict costs no run of its
    /// own. That is exact: folding rewrites only `Const op Const`, so both
    /// kernel forms make the same memory accesses in the same order.
    pub fn step(
        &self,
        input: &TestInput,
        run_opts: &RunOptions,
        scratch: &mut ExecScratch,
        metrics: &mut RunMetricsBatch,
    ) -> (Vec<RunResult>, Option<Vec<RaceReport>>) {
        let mut shared = Interpretations::new(scratch);
        let results = self
            .binaries
            .iter()
            .map(|binary| {
                let result = binary.run_in_step(input, run_opts, &mut shared);
                metrics.observe(&result);
                result
            })
            .collect();
        metrics.interpretations += shared.made();
        (results, shared.into_ieee_races())
    }
}

/// The interpretations one [`CompiledSet::step`] has made, and the
/// caller's scratch they run through: the first, under the semantics of
/// the first binary that asked, and the other semantics' own, made only
/// when the first cannot stand in for it. The step creates it and drops it
/// when it returns, so an outcome is only ever shared between binaries of
/// one program running one input under one [`RunOptions`].
pub struct Interpretations<'s> {
    scratch: &'s mut ExecScratch,
    first: Option<(BoolSemantics, Result<ExecOutcome, ExecError>)>,
    other: Option<Result<ExecOutcome, ExecError>>,
}

impl<'s> Interpretations<'s> {
    /// No interpretations yet; runs go through `scratch`.
    pub(crate) fn new(scratch: &'s mut ExecScratch) -> Interpretations<'s> {
        Interpretations {
            scratch,
            first: None,
            other: None,
        }
    }

    /// The step's interpretation under `semantics`: the first binary that
    /// asks runs `interpret` on the step's scratch. A later binary reads
    /// that outcome if it has the same semantics or if the outcome stands
    /// in for both ([`stands_in_for_both`]); otherwise the first binary of
    /// the other semantics runs `interpret`, and the binaries after it read
    /// that.
    pub(crate) fn get_or_run(
        &mut self,
        semantics: BoolSemantics,
        interpret: impl FnOnce(&mut ExecScratch) -> Result<ExecOutcome, ExecError>,
    ) -> &Result<ExecOutcome, ExecError> {
        let Interpretations {
            scratch,
            first,
            other,
        } = self;
        let Some((ran, run)) = first else {
            return &first.insert((semantics, interpret(scratch))).1;
        };
        if *ran == semantics {
            run
        } else if stands_in_for_both(run) {
            #[cfg(debug_assertions)]
            assert_stands_in(run, &interpret(&mut ExecScratch::new()));
            run
        } else {
            other.get_or_insert_with(|| interpret(scratch))
        }
    }

    /// How many interpretations the step has made (0, 1 or 2).
    fn made(&self) -> u64 {
        u64::from(self.first.is_some()) + u64::from(self.other.is_some())
    }

    /// The race reports of the step's IEEE interpretation: the IEEE run,
    /// or the first run when it stands in for both semantics (empty unless
    /// the run options asked for race detection). `None`, no verdict, when
    /// that run aborted or the step made no IEEE interpretation: no binary
    /// interpreted, or only the NaN-absorbing semantics did and its run
    /// tested a NaN with `!=`.
    fn into_ieee_races(self) -> Option<Vec<RaceReport>> {
        let (semantics, first) = self.first?;
        let ieee = if semantics == BoolSemantics::Ieee || stands_in_for_both(&first) {
            first
        } else {
            self.other?
        };
        ieee.ok().map(|outcome| outcome.races)
    }
}

/// Whether `run` is also the other branch semantics' run: it made no `!=`
/// test on a NaN, the only test the semantics decide differently, so the
/// other semantics would have taken the same path to the same result,
/// including a budget abort at the same op. An input mismatch is raised
/// before any test.
fn stands_in_for_both(run: &Result<ExecOutcome, ExecError>) -> bool {
    match run {
        Ok(outcome) => outcome.stats.nan_ne_tests == 0,
        Err(ExecError::BudgetExceeded { nan_ne_tests, .. }) => *nan_ne_tests == 0,
        Err(ExecError::InputMismatch(_)) => true,
    }
}

/// Debug-build tripwire for the stand-in rule: the outcome handed over
/// must equal the other semantics' own run bit for bit.
#[cfg(debug_assertions)]
fn assert_stands_in(shared: &Result<ExecOutcome, ExecError>, own: &Result<ExecOutcome, ExecError>) {
    match (shared, own) {
        (Ok(shared), Ok(own)) => {
            assert_eq!(
                shared.comp.to_bits(),
                own.comp.to_bits(),
                "a handed-over interpretation's result differs from the other semantics' run"
            );
            assert_eq!(shared.stats, own.stats, "handed-over statistics differ");
            assert_eq!(shared.races, own.races, "handed-over race reports differ");
        }
        (shared, own) => assert_eq!(shared, own, "handed-over run differs"),
    }
}

/// Compile `program` with every backend and run it once on `input`,
/// returning one observation per backend (in backend order) and the step's
/// race reports: [`compile`] followed by one [`CompiledSet::step`] through
/// `scratch`. Compiles, compile failures, differential runs, VM ops and
/// budget aborts are counted through `obs` (nothing on an [`Obs::off`]
/// handle), so the reducer's candidate checks appear in the same counters
/// as campaign runs.
#[allow(clippy::too_many_arguments)]
pub fn observe(
    program: &Program,
    input: &TestInput,
    backends: &[&dyn OmpBackend],
    prepared: Option<&PreparedKernel>,
    compile_opts: &CompileOptions,
    run_opts: &RunOptions,
    scratch: &mut ExecScratch,
    obs: &Obs,
) -> Result<(Vec<RunObservation>, Option<Vec<RaceReport>>), CompileError> {
    let set = compile(program, backends, prepared, compile_opts, obs)?;
    let mut metrics = RunMetricsBatch::new();
    let (results, races) = set.step(input, run_opts, scratch, &mut metrics);
    metrics.flush(obs);
    Ok((results.iter().map(to_observation).collect(), races))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{standard_backends, SimBackend};
    use ompfuzz_ast::{
        AssignOp, Assignment, Block, Expr, ForLoop, FpType, LValue, LoopBound, OmpClauses,
        OmpParallel, Param, Stmt,
    };
    use ompfuzz_inputs::InputValue;

    fn tiny_program() -> Program {
        Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    reduction: Some(ompfuzz_ast::ReductionOp::Add),
                    num_threads: Some(4),
                    ..OmpClauses::default()
                },
                prelude: vec![Stmt::DeclAssign {
                    ty: FpType::F64,
                    name: "t".into(),
                    value: Expr::fp_const(0.0),
                }],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(64),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Comp,
                        op: AssignOp::AddAssign,
                        value: Expr::var("var_1"),
                    })]),
                },
            })]),
        )
    }

    fn dyns(backends: &[SimBackend]) -> Vec<&dyn OmpBackend> {
        backends.iter().map(|b| b as &dyn OmpBackend).collect()
    }

    #[test]
    fn observe_matches_per_backend_runs() {
        let program = tiny_program();
        let input = TestInput {
            comp_init: 0.0,
            values: vec![InputValue::Fp(1.0)],
        };
        let backends = standard_backends();
        let (obs, _) = observe(
            &program,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
            &mut ExecScratch::new(),
            &Obs::off(),
        )
        .unwrap();
        assert_eq!(obs.len(), 3);
        assert!(obs.iter().all(|o| o.status == ExecStatus::Ok));
        assert!(obs.iter().all(|o| o.result == Some(64.0)));
    }

    #[test]
    fn observe_with_prepared_kernel_is_identical() {
        let program = tiny_program();
        let input = TestInput {
            comp_init: 0.25,
            values: vec![InputValue::Fp(0.5)],
        };
        let backends = standard_backends();
        let prepared = PreparedKernel::new(ompfuzz_exec::lower(&program).unwrap());
        let fresh = observe(
            &program,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
            &mut ExecScratch::new(),
            &Obs::off(),
        )
        .unwrap();
        let cached = observe(
            &program,
            &input,
            &dyns(&backends),
            Some(&prepared),
            &CompileOptions::default(),
            &RunOptions::default(),
            &mut ExecScratch::new(),
            &Obs::off(),
        )
        .unwrap();
        assert_eq!(fresh, cached);
    }

    #[test]
    fn obs_aware_observe_counts_compiles_and_runs() {
        let program = tiny_program();
        let input = TestInput {
            comp_init: 0.0,
            values: vec![InputValue::Fp(1.0)],
        };
        let backends = standard_backends();
        let obs = Obs::metrics_only();
        let (out, _) = observe(
            &program,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
            &mut ExecScratch::new(),
            &obs,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        let snap = obs.counters();
        assert_eq!(snap.get(Counter::Compiles), 3);
        assert_eq!(snap.get(Counter::DifferentialRuns), 3);
        assert_eq!(snap.get(Counter::BudgetAborts), 0);
        assert!(snap.get(Counter::VmOps) > 0, "runs execute ops");
        // Telemetry is out of band: an off handle observes the same.
        let (plain, _) = observe(
            &program,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
            &mut ExecScratch::new(),
            &Obs::off(),
        )
        .unwrap();
        assert_eq!(out, plain);
    }

    /// `if (var_1 != var_1) { two threads add to the shared comp }`: with
    /// a NaN input the IEEE run enters the region and races, and the
    /// NaN-absorbing run skips it.
    fn racy_under_ieee_only() -> Program {
        use ompfuzz_ast::{BoolExpr, BoolOp, IfBlock, VarRef};
        Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::If(IfBlock {
                cond: BoolExpr {
                    lhs: VarRef::Scalar("var_1".into()),
                    op: BoolOp::Ne,
                    rhs: Expr::var("var_1"),
                },
                body: Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                    clauses: OmpClauses {
                        num_threads: Some(2),
                        ..OmpClauses::default()
                    },
                    prelude: vec![],
                    body_loop: ForLoop {
                        omp_for: true,
                        var: "i".into(),
                        bound: LoopBound::Const(8),
                        body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                            target: LValue::Comp,
                            op: AssignOp::AddAssign,
                            value: Expr::fp_const(1.0),
                        })]),
                    },
                })]),
            })]),
        )
    }

    /// A step's race reports are its IEEE interpretation's, whichever
    /// binary made it: the first run when it stands in for both branch
    /// semantics, or the IEEE binaries' own run when the NaN-absorbing
    /// GCC-like binary ran first and tested a NaN with `!=`. A step that
    /// makes no IEEE interpretation gives no verdict, and a step that
    /// records nothing reports no race.
    #[test]
    fn step_reports_the_ieee_interpretations_races() {
        let program = racy_under_ieee_only();
        let input = |v: f64| TestInput {
            comp_init: 0.0,
            values: vec![InputValue::Fp(v)],
        };
        let (nan, one) = (input(f64::NAN), input(1.0));
        let prepared = PreparedKernel::new(ompfuzz_exec::lower(&program).unwrap());
        let ieee_races = |input: &TestInput| {
            let opts = ompfuzz_exec::ExecOptions::with_race_detection();
            let run = prepared
                .for_opt(true)
                .run(input, &opts, &mut ExecScratch::new());
            run.unwrap().races
        };
        // Premise: only the NaN input races under IEEE.
        assert!(!ieee_races(&nan).is_empty());
        assert!(ieee_races(&one).is_empty());

        let backends = standard_backends();
        let recording = RunOptions {
            detect_races: true,
            ..RunOptions::default()
        };
        let step = |order: &[usize], input: &TestInput, opts: &RunOptions| {
            let dyns: Vec<&dyn OmpBackend> = order
                .iter()
                .map(|&i| &backends[i] as &dyn OmpBackend)
                .collect();
            let set = compile(
                &program,
                &dyns,
                Some(&prepared),
                &CompileOptions::default(),
                &Obs::off(),
            )
            .unwrap();
            let mut metrics = RunMetricsBatch::new();
            let (_, races) = set.step(input, opts, &mut ExecScratch::new(), &mut metrics);
            races
        };
        for order in [&[0, 1, 2][..], &[2, 0, 1], &[2, 1]] {
            assert_eq!(step(order, &nan, &recording), Some(ieee_races(&nan)));
            assert_eq!(step(order, &one, &recording), Some(Vec::new()));
            assert_eq!(step(order, &nan, &RunOptions::default()), Some(Vec::new()));
        }
        // GCC alone absorbs the NaN test, so no run stands in for IEEE; on
        // the plain input its run does.
        assert_eq!(step(&[2], &nan, &recording), None);
        assert_eq!(step(&[2], &one, &recording), Some(Vec::new()));
    }

    #[test]
    fn unlowerable_program_is_a_compile_error() {
        let broken = Program::new(
            vec![],
            Block::of_stmts(vec![Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::Assign,
                value: Expr::var("ghost"),
            })]),
        );
        let input = TestInput {
            comp_init: 0.0,
            values: vec![],
        };
        let backends = standard_backends();
        let err = observe(
            &broken,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
            &mut ExecScratch::new(),
            &Obs::off(),
        )
        .unwrap_err();
        assert!(err.0.contains("ghost"), "{err}");
    }
}
