//! Cheap single-case oracle: run one `(program, input)` pair across a set
//! of implementations and return the per-implementation observations that
//! `ompfuzz_outlier::analyze` consumes.
//!
//! The campaign driver runs the same steps over whole corpora; the
//! test-case reducer calls it hundreds of times on *one* program's
//! candidates, so it is deliberately free of corpus bookkeeping: compile
//! each backend, run once, observe. A pre-lowered kernel can be supplied
//! to skip re-lowering per backend (the reducer lowers each candidate
//! exactly once).

use crate::backend::{CompiledTest, OmpBackend};
use crate::model::{CompileError, CompileOptions, RunOptions, RunResult, RunStatus};
use ompfuzz_ast::Program;
use ompfuzz_exec::{ExecScratch, PreparedKernel};
use ompfuzz_inputs::TestInput;
use ompfuzz_obs::{Counter, Obs};
use ompfuzz_outlier::{ExecStatus, RunObservation};

/// Telemetry hook shared by every differential execution site (the
/// campaign's fused per-program unit and the reducer's candidate checks):
/// count the run, its VM ops, and whether the op budget stopped it. A
/// no-op on an [`Obs::off`] handle.
pub fn record_run_metrics(obs: &Obs, result: &RunResult) {
    if !obs.enabled() {
        return;
    }
    obs.count(Counter::DifferentialRuns, 1);
    obs.count(Counter::VmOps, result.vm_ops());
    if result.is_budget_abort() {
        obs.count(Counter::BudgetAborts, 1);
    }
}

/// Locally accumulated run metrics for hot differential loops: observe
/// each run into plain integers, flush to the registry once per program —
/// one set of counter updates instead of one per `(input × backend)` run.
/// Flushing produces exactly the totals the per-run hook would have.
#[derive(Debug, Default)]
pub struct RunMetricsBatch {
    runs: u64,
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
        self.vm_ops += result.vm_ops();
        self.budget_aborts += u64::from(result.is_budget_abort());
    }

    /// Push the batch into the registry.
    pub fn flush(&self, obs: &Obs) {
        if self.runs == 0 || !obs.enabled() {
            return;
        }
        obs.count(Counter::DifferentialRuns, self.runs);
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

/// Compile `program` with every backend and run it once on `input`,
/// returning one observation per backend (in backend order).
///
/// `prepared` optionally carries the program's pre-lowered, pre-compiled
/// form so simulated backends skip redundant lowering *and* share one
/// bytecode compilation (see [`OmpBackend::compile_lowered`]). Any compile
/// failure aborts the whole observation — a program that does not compile
/// everywhere cannot be compared differentially.
pub fn observe(
    program: &Program,
    input: &TestInput,
    backends: &[&dyn OmpBackend],
    prepared: Option<&PreparedKernel>,
    compile_opts: &CompileOptions,
    run_opts: &RunOptions,
) -> Result<Vec<RunObservation>, CompileError> {
    observe_with_obs(
        program,
        input,
        backends,
        prepared,
        compile_opts,
        run_opts,
        &mut ExecScratch::new(),
        &Obs::off(),
    )
}

/// [`observe`] reusing a caller-held [`ExecScratch`] across the
/// per-backend runs (the reducer shares one per candidate between the race
/// gate and all three backend runs) and reporting per-run telemetry
/// (compiles, differential runs, VM ops, budget aborts) through `obs` — the
/// reducer threads its campaign handle down here so candidate checks
/// appear in the same counters as campaign runs.
#[allow(clippy::too_many_arguments)]
pub fn observe_with_obs(
    program: &Program,
    input: &TestInput,
    backends: &[&dyn OmpBackend],
    prepared: Option<&PreparedKernel>,
    compile_opts: &CompileOptions,
    run_opts: &RunOptions,
    scratch: &mut ExecScratch,
    obs: &Obs,
) -> Result<Vec<RunObservation>, CompileError> {
    obs.count(Counter::Compiles, backends.len() as u64);
    let binaries: Result<Vec<Box<dyn CompiledTest>>, CompileError> = backends
        .iter()
        .map(|b| b.compile_lowered(program, prepared, compile_opts))
        .collect();
    let binaries = match binaries {
        Ok(binaries) => binaries,
        Err(e) => {
            obs.count(Counter::CompileFailures, 1);
            return Err(e);
        }
    };
    Ok(binaries
        .iter()
        .map(|bin| {
            let result = bin.run_with(input, run_opts, scratch);
            record_run_metrics(obs, &result);
            to_observation(&result)
        })
        .collect())
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
        let obs = observe(
            &program,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
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
        )
        .unwrap();
        let cached = observe(
            &program,
            &input,
            &dyns(&backends),
            Some(&prepared),
            &CompileOptions::default(),
            &RunOptions::default(),
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
        let out = observe_with_obs(
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
        // The plain entry point is the obs-off special case: identical
        // observations, no counters.
        let plain = observe(
            &program,
            &input,
            &dyns(&backends),
            None,
            &CompileOptions::default(),
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out, plain);
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
        )
        .unwrap_err();
        assert!(err.0.contains("ghost"), "{err}");
    }
}
