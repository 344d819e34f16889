//! The simulated backends: compile a generated program against one of the
//! three modelled OpenMP implementations and run the resulting "binary".

use crate::counters::{self, PerfCounters};
use crate::hang::ThreadSnapshot;
use crate::model::{
    BackendInfo, CompileError, CompileOptions, OptLevel, RunOptions, RunResult, RunStatus, Vendor,
};
use crate::oracle::Interpretations;
use crate::profile::{self, ProfileMode, StackProfile};
use crate::rtmodel::{runtime_model, BugModels};
use crate::sched::{fnv1a, jitter, time_breakdown, TimeBreakdown};
use ompfuzz_ast::{Program, ProgramFeatures};
use ompfuzz_exec::{
    lower, BoolSemantics, CompiledKernel, ExecError, ExecLimits, ExecOptions, ExecOutcome,
    ExecScratch, ExecStats, PreparedKernel,
};
use ompfuzz_inputs::TestInput;
use std::sync::Arc;

/// An OpenMP implementation the campaign can compile against. Object-safe
/// so simulated and process-based (real compiler) backends interchange.
pub trait OmpBackend: Send + Sync {
    /// Identity (vendor, versions, runtime library).
    fn info(&self) -> &BackendInfo;
    /// Compile a program to a runnable binary.
    fn compile(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<Box<dyn CompiledTest>, CompileError>;

    /// Compile with an optionally pre-compiled kernel for `program`.
    ///
    /// Simulated backends lower through `ompfuzz_exec::lower` and flatten
    /// through `ompfuzz_exec::bytecode` as their front-end; when the caller
    /// already holds the [`PreparedKernel`] (the campaign unit and the
    /// reducer prepare each program they check exactly once), passing it
    /// here makes all vendors share one compilation — the
    /// constant-folded `-O1`+ bytecode is vendor-independent, so three
    /// simulated compiles collapse into one `Arc` clone each. The default
    /// ignores it — process-based backends compile real source.
    ///
    /// The prepared kernel must come from `lower(program)` for this exact
    /// program; callers guarantee the pairing.
    fn compile_lowered(
        &self,
        program: &Program,
        prepared: Option<&PreparedKernel>,
        opts: &CompileOptions,
    ) -> Result<Box<dyn CompiledTest>, CompileError> {
        let _ = prepared;
        self.compile(program, opts)
    }
}

/// A compiled test, ready to run on inputs. Every call runs one input.
///
/// An implementation defines one run method, [`CompiledTest::run_in_step`];
/// [`CompiledTest::run`] is that method on a one-binary step, so a
/// standalone run and a run inside an oracle step cannot drift apart.
pub trait CompiledTest: Send + Sync {
    /// Execute as one binary of an oracle step
    /// ([`crate::oracle::CompiledSet::step`]): interpret through the
    /// step's scratch, or reuse an interpretation an earlier binary of the
    /// step made (see [`crate::oracle`] for when one stands in for the
    /// other branch semantics). Process-based backends execute real
    /// binaries and ignore the step.
    fn run_in_step(
        &self,
        input: &TestInput,
        opts: &RunOptions,
        step: &mut Interpretations<'_>,
    ) -> RunResult;
    /// Execute with one input under the run options: a step of this one
    /// binary, on a fresh scratch.
    fn run(&self, input: &TestInput, opts: &RunOptions) -> RunResult {
        self.run_in_step(
            input,
            opts,
            &mut Interpretations::new(&mut ExecScratch::new()),
        )
    }
    /// Label of the producing implementation (for reports).
    fn backend_label(&self) -> String;
}

/// A simulated implementation (Intel-, GCC- or Clang-like).
#[derive(Debug, Clone)]
pub struct SimBackend {
    info: BackendInfo,
    bugs: BugModels,
}

impl SimBackend {
    /// Backend for `vendor` with all modelled behaviours enabled.
    pub fn new(vendor: Vendor) -> SimBackend {
        SimBackend::with_bugs(vendor, BugModels::default())
    }

    /// Backend with an explicit bug-model configuration.
    pub fn with_bugs(vendor: Vendor, bugs: BugModels) -> SimBackend {
        SimBackend {
            info: backend_info(vendor),
            bugs,
        }
    }

    /// The Intel-oneAPI-like implementation.
    pub fn intel() -> SimBackend {
        SimBackend::new(Vendor::IntelLike)
    }

    /// The GNU-GCC-like implementation.
    pub fn gcc() -> SimBackend {
        SimBackend::new(Vendor::GccLike)
    }

    /// The LLVM/Clang-like implementation.
    pub fn clang() -> SimBackend {
        SimBackend::new(Vendor::ClangLike)
    }

    /// Vendor shortcut.
    pub fn vendor(&self) -> Vendor {
        self.info.vendor
    }

    /// The active bug models.
    pub fn bugs(&self) -> &BugModels {
        &self.bugs
    }
}

/// The version table of §V-A, tagged as simulated.
pub fn backend_info(vendor: Vendor) -> BackendInfo {
    match vendor {
        Vendor::IntelLike => BackendInfo {
            vendor,
            implementation: "Intel oneAPI Compiler (simulated)",
            compiler: "icpx",
            version: "2023.2.0",
            release: "02/2023",
            runtime_lib: "libiomp5.so",
        },
        Vendor::ClangLike => BackendInfo {
            vendor,
            implementation: "LLVM/clang (simulated)",
            compiler: "clang++",
            version: "16.0.0",
            release: "03/2023",
            runtime_lib: "libomp.so",
        },
        Vendor::GccLike => BackendInfo {
            vendor,
            implementation: "GNU GCC (simulated)",
            compiler: "g++",
            version: "13.1",
            release: "04/2023",
            runtime_lib: "libgomp.so.1.0.0",
        },
    }
}

/// The paper's three implementations, in its table order
/// (Intel, Clang, GCC).
pub fn standard_backends() -> Vec<SimBackend> {
    vec![SimBackend::intel(), SimBackend::clang(), SimBackend::gcc()]
}

impl SimBackend {
    /// Compile, returning the concrete binary type (the trait's `compile`
    /// wraps this; reports use the concrete type for
    /// [`SimBinary::perf_report`]).
    pub fn compile_sim(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<SimBinary, CompileError> {
        let kernel = lower(program).map_err(|e| CompileError(e.to_string()))?;
        Ok(self.assemble(program, &PreparedKernel::new(kernel), opts))
    }

    /// Compile reusing an already-prepared kernel, skipping the front-end
    /// and the bytecode stage. `prepared` must come from `lower(program)`
    /// for this exact program.
    pub fn compile_sim_lowered(
        &self,
        program: &Program,
        prepared: &PreparedKernel,
        opts: &CompileOptions,
    ) -> SimBinary {
        self.assemble(program, prepared, opts)
    }

    /// Back-end half of compilation: pick the optimization-matching flat
    /// compilation (constant-folded at `-O1`+ — identical for every
    /// vendor, so this is an `Arc` clone, not a re-compile) plus metadata
    /// capture.
    fn assemble(
        &self,
        program: &Program,
        prepared: &PreparedKernel,
        opts: &CompileOptions,
    ) -> SimBinary {
        let code = prepared.for_opt(opts.opt_level >= OptLevel::O1).clone();
        SimBinary {
            vendor: self.info.vendor,
            info: self.info.clone(),
            bugs: self.bugs,
            opt_level: opts.opt_level,
            code,
            features: ProgramFeatures::of(program),
            program_name: program.name.clone(),
            seed: program.seed,
        }
    }
}

impl OmpBackend for SimBackend {
    fn info(&self) -> &BackendInfo {
        &self.info
    }

    fn compile(
        &self,
        program: &Program,
        opts: &CompileOptions,
    ) -> Result<Box<dyn CompiledTest>, CompileError> {
        Ok(Box::new(self.compile_sim(program, opts)?))
    }

    fn compile_lowered(
        &self,
        program: &Program,
        prepared: Option<&PreparedKernel>,
        opts: &CompileOptions,
    ) -> Result<Box<dyn CompiledTest>, CompileError> {
        match prepared {
            Some(p) => Ok(Box::new(self.compile_sim_lowered(program, p, opts))),
            None => self.compile(program, opts),
        }
    }
}

/// A program compiled by a [`SimBackend`].
///
/// Holds the flat compilation behind an `Arc`: the three vendor binaries
/// of one program share the same bytecode (their semantic differences —
/// `BoolSemantics`, bug models, cost models — are run options and
/// post-processing, not code). A run applies the time model and the bug
/// models only; the `perf` counter and profile models are computed on
/// demand, by the reports ([`SimBinary::perf_report`]).
#[derive(Debug, Clone)]
pub struct SimBinary {
    vendor: Vendor,
    info: BackendInfo,
    bugs: BugModels,
    opt_level: OptLevel,
    code: Arc<CompiledKernel>,
    features: ProgramFeatures,
    program_name: String,
    seed: u64,
}

impl SimBinary {
    /// The semantics this binary's branches evaluate under.
    pub fn bool_semantics(&self) -> BoolSemantics {
        if self.vendor == Vendor::GccLike
            && self.bugs.gcc_nan_branch_folding
            && self.opt_level >= OptLevel::O2
        {
            BoolSemantics::NanAbsorbing
        } else {
            BoolSemantics::Ieee
        }
    }

    /// Throughput multiplier of the optimization level (runtime overheads
    /// are `-O`-independent).
    fn opt_factor(&self) -> f64 {
        match self.opt_level {
            OptLevel::O0 => 0.3,
            OptLevel::O1 => 0.75,
            OptLevel::O2 => 0.95,
            OptLevel::O3 => 1.0,
        }
    }

    fn salt(&self, input: &TestInput) -> String {
        format!(
            "{}:{}:{}:{}",
            self.program_name,
            self.seed,
            self.vendor.label(),
            input.to_line()
        )
    }

    /// The modelled GCC crash (Table I's three CRASH outliers): a rare
    /// miscompile of reduction-carrying parallel code with dense division,
    /// triggered deterministically by (program, input).
    fn crash_triggered(&self, input: &TestInput) -> bool {
        if self.vendor != Vendor::GccLike || !self.bugs.gcc_crash {
            return false;
        }
        let susceptible = self.features.parallel_regions >= 1
            && self.features.reductions >= 1
            && self.features.div_ops >= 3;
        if !susceptible {
            return false;
        }
        let h = fnv1a(format!("crash:{}", self.salt(input)).as_bytes());
        h % 1000 < 5
    }

    /// The modelled Intel queuing-lock livelock (Case study 3). Returns the
    /// snapshot when the lock stops making progress.
    ///
    /// The trigger is *instantaneous* queue pressure — acquisitions racing
    /// through one region entry times the team size — not pressure
    /// accumulated over many entries (each entry re-initializes the lock's
    /// queue, so a thousand mild entries never livelock).
    fn hang_triggered(
        &self,
        stats: &ExecStats,
        breakdown: &TimeBreakdown,
        input: &TestInput,
    ) -> Option<ThreadSnapshot> {
        if self.vendor != Vendor::IntelLike || !self.bugs.intel_queuing_lock {
            return None;
        }
        if self.features.critical_in_omp_for == 0 && self.features.critical_sections == 0 {
            return None;
        }
        let per_entry_pressure = stats
            .regions
            .iter()
            .filter(|r| r.entries > 0)
            .map(|r| (r.total_critical_acquisitions() / r.entries) * r.num_threads as u64)
            .max()
            .unwrap_or(0);
        // Extreme instantaneous pressure always livelocks; moderate
        // pressure livelocks for rare (program, input) combinations.
        let certain = per_entry_pressure >= 5_000_000;
        let rare = per_entry_pressure >= 30_000 && {
            let h = fnv1a(format!("hang:{}", self.salt(input)).as_bytes());
            h.is_multiple_of(199)
        };
        (certain || rare).then(|| ThreadSnapshot::queuing_lock_livelock(breakdown.max_team))
    }
}

impl SimBinary {
    /// Interpreter options this binary runs under.
    fn exec_options(&self, opts: &RunOptions) -> ExecOptions {
        ExecOptions {
            bool_semantics: self.bool_semantics(),
            limits: ExecLimits {
                max_ops: opts.max_ops,
            },
            detect_races: opts.detect_races,
            engine: opts.engine,
        }
    }

    /// The time model of a completed interpretation.
    fn breakdown(&self, stats: &ExecStats) -> TimeBreakdown {
        time_breakdown(
            stats,
            &runtime_model(self.vendor, &self.bugs),
            self.opt_factor(),
        )
    }

    /// Everything downstream of a completed interpretation: time model,
    /// modelled livelock, jitter. The outcome fully determines the result,
    /// so binaries that share an interpretation observe exactly what their
    /// own would have produced.
    fn post_process(
        &self,
        outcome: &ExecOutcome,
        input: &TestInput,
        opts: &RunOptions,
    ) -> RunResult {
        // 3. Time model.
        let breakdown = self.breakdown(&outcome.stats);
        let vm_ops = outcome.stats.ops.total();

        // 4. Modelled livelock.
        if let Some(snapshot) = self.hang_triggered(&outcome.stats, &breakdown, input) {
            return RunResult {
                threads: Some(snapshot),
                vm_ops,
                ..RunResult::no_output(RunStatus::Hang {
                    timeout_us: opts.hang_timeout_us,
                })
            };
        }

        // 5. Normal completion: apply measurement jitter.
        let time_us = (breakdown.total_us * jitter(self.salt(input).as_bytes(), 0.03))
            .max(1.0)
            .round() as u64;
        RunResult {
            status: RunStatus::Ok,
            comp: Some(outcome.comp),
            time_us: Some(time_us),
            threads: None,
            vm_ops,
        }
    }
}

impl CompiledTest for SimBinary {
    /// Crash check, this binary's interpretation (its own, or one the step
    /// already made that stands in for its branch semantics), then the
    /// time model.
    fn run_in_step(
        &self,
        input: &TestInput,
        opts: &RunOptions,
        step: &mut Interpretations<'_>,
    ) -> RunResult {
        // 1. Modelled compile-bug crash (before any output).
        if self.crash_triggered(input) {
            return RunResult::no_output(RunStatus::Crash {
                signal: "SIGSEGV",
                reason: "modelled GCC miscompile of reduction + division nest".to_string(),
            });
        }
        // 2. Interpret under this backend's semantics, on the engine the
        //    run options select (flat bytecode by default).
        let exec_opts = self.exec_options(opts);
        let outcome = step.get_or_run(exec_opts.bool_semantics, |scratch| {
            self.code.run(input, &exec_opts, scratch)
        });
        // 3.–5. Everything downstream of the interpretation.
        match outcome {
            Ok(o) => self.post_process(o, input, opts),
            // The binary genuinely runs far beyond the timeout: a hang
            // as the campaign observes it (all backends will agree, so
            // this never becomes an outlier by itself).
            Err(ExecError::BudgetExceeded { .. }) => RunResult::no_output(RunStatus::Hang {
                timeout_us: opts.hang_timeout_us,
            }),
            Err(e) => RunResult::no_output(RunStatus::Crash {
                signal: "SIGABRT",
                reason: e.to_string(),
            }),
        }
    }

    fn backend_label(&self) -> String {
        self.info.vendor.label().to_string()
    }
}

impl SimBinary {
    /// The paper's `perf` view of this binary's run on `input`, for the
    /// §V case-study reports: the `perf stat` counters (Tables II/III) and
    /// a `perf report` profile in `mode` (Fig. 6 flat, Fig. 7
    /// `--children`). Interprets the input itself, since a differential
    /// run keeps no statistics. `None` unless the run completes with
    /// [`RunStatus::Ok`]: a modelled crash or livelock, a budget abort and
    /// an interpreter error print no report.
    pub fn perf_report(
        &self,
        input: &TestInput,
        opts: &RunOptions,
        mode: ProfileMode,
    ) -> Option<(PerfCounters, StackProfile)> {
        if self.crash_triggered(input) {
            return None;
        }
        let outcome = self
            .code
            .run(input, &self.exec_options(opts), &mut ExecScratch::new())
            .ok()?;
        let breakdown = self.breakdown(&outcome.stats);
        if self
            .hang_triggered(&outcome.stats, &breakdown, input)
            .is_some()
        {
            return None;
        }
        let counters =
            counters::compute(self.vendor, &outcome.stats, &breakdown, &self.salt(input));
        let command = format!("_{}", self.program_name);
        Some((
            counters,
            profile::build(self.vendor, &breakdown, &command, mode),
        ))
    }

    /// Static features of the compiled program (used by reports).
    pub fn features(&self) -> &ProgramFeatures {
        &self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_ast::{
        AssignOp, Assignment, Block, BlockItem, Expr, ForLoop, FpType, LValue, LoopBound,
        OmpClauses, OmpCritical, OmpParallel, Param, ReductionOp, Stmt, VarRef,
    };
    use ompfuzz_inputs::InputValue;

    fn comp_add(e: Expr) -> Stmt {
        Stmt::Assign(Assignment {
            target: LValue::Comp,
            op: AssignOp::AddAssign,
            value: e,
        })
    }

    /// Case-study-2 shape: parallel region inside a serial loop.
    fn cs2_program(outer_trip: u32, inner_trip: u32, threads: u32) -> Program {
        let region = Stmt::OmpParallel(OmpParallel {
            clauses: OmpClauses {
                reduction: Some(ReductionOp::Add),
                num_threads: Some(threads),
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
                bound: LoopBound::Const(inner_trip),
                body: Block::of_stmts(vec![comp_add(Expr::var("var_1"))]),
            },
        });
        let mut p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::For(ForLoop {
                omp_for: false,
                var: "k".into(),
                bound: LoopBound::Const(outer_trip),
                body: Block::of_stmts(vec![region]),
            })]),
        );
        p.name = "cs2".into();
        p
    }

    /// Case-study-1/3 shape: critical section inside a worksharing loop.
    fn cs1_program(trip: u32, threads: u32) -> Program {
        let mut p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    num_threads: Some(threads),
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
                    bound: LoopBound::Const(trip),
                    body: Block(vec![BlockItem::Critical(OmpCritical {
                        body: Block::of_stmts(vec![comp_add(Expr::var("var_1"))]),
                    })]),
                },
            })]),
        );
        p.name = "cs1".into();
        p
    }

    /// Case-study-3 shape: case study 1's critical loop made serial, so
    /// every thread runs all iterations: acquisitions per entry = trip ×
    /// team = 192k, pressure 6.1M, enough to livelock the Intel-like lock.
    fn cs3_program() -> Program {
        let mut p = cs1_program(6000, 32);
        if let BlockItem::Stmt(Stmt::OmpParallel(par)) = &mut p.body.0[0] {
            par.body_loop.omp_for = false;
        }
        p
    }

    fn one_input() -> TestInput {
        TestInput {
            comp_init: 0.0,
            values: vec![InputValue::Fp(1.0)],
        }
    }

    fn run_on(backend: &SimBackend, p: &Program, input: &TestInput) -> RunResult {
        let bin = backend.compile(p, &CompileOptions::default()).unwrap();
        bin.run(input, &RunOptions::default())
    }

    #[test]
    fn all_backends_agree_on_result_for_plain_programs() {
        let p = cs2_program(3, 50, 8);
        let input = one_input();
        let results: Vec<RunResult> = standard_backends()
            .iter()
            .map(|b| run_on(b, &p, &input))
            .collect();
        let comps: Vec<f64> = results.iter().map(|r| r.comp.unwrap()).collect();
        assert!(comps.windows(2).all(|w| w[0] == w[1]), "{comps:?}");
        assert!(results.iter().all(|r| r.status.is_ok()));
    }

    #[test]
    fn case_study_2_clang_is_the_slow_outlier() {
        // Region re-entered 150 times: libomp's team re-creation dominates.
        let p = cs2_program(150, 64, 32);
        let input = one_input();
        let times: Vec<(Vendor, u64)> = standard_backends()
            .iter()
            .map(|b| (b.vendor(), run_on(b, &p, &input).time_us.unwrap()))
            .collect();
        let t = |v: Vendor| times.iter().find(|(x, _)| *x == v).unwrap().1 as f64;
        let clang = t(Vendor::ClangLike);
        let intel = t(Vendor::IntelLike);
        let gcc = t(Vendor::GccLike);
        // Intel and GCC comparable (α = 0.2 in spirit), Clang ≥ 1.5× both.
        assert!(clang > 1.5 * intel, "clang {clang} intel {intel}");
        assert!(clang > 1.5 * gcc, "clang {clang} gcc {gcc}");
    }

    #[test]
    fn case_study_2_disappears_with_healthy_clang() {
        let p = cs2_program(150, 64, 32);
        let input = one_input();
        let healthy = SimBackend::with_bugs(Vendor::ClangLike, BugModels::none());
        let buggy = SimBackend::clang();
        let t_healthy = run_on(&healthy, &p, &input).time_us.unwrap();
        let t_buggy = run_on(&buggy, &p, &input).time_us.unwrap();
        assert!(
            t_buggy > 3 * t_healthy,
            "buggy {t_buggy} healthy {t_healthy}"
        );
    }

    #[test]
    fn case_study_1_gcc_is_the_fast_outlier() {
        let p = cs1_program(3000, 32);
        let input = one_input();
        let times: Vec<(Vendor, u64)> = standard_backends()
            .iter()
            .map(|b| (b.vendor(), run_on(b, &p, &input).time_us.unwrap()))
            .collect();
        let t = |v: Vendor| times.iter().find(|(x, _)| *x == v).unwrap().1 as f64;
        let gcc = t(Vendor::GccLike);
        let intel = t(Vendor::IntelLike);
        let clang = t(Vendor::ClangLike);
        // Intel and Clang comparable, GCC much faster.
        let rel = (intel - clang).abs() / intel.min(clang);
        assert!(rel < 0.35, "intel {intel} clang {clang} rel {rel}");
        assert!(intel > 1.5 * gcc, "intel {intel} gcc {gcc}");
        assert!(clang > 1.5 * gcc, "clang {clang} gcc {gcc}");
    }

    #[test]
    fn extreme_contention_hangs_intel() {
        let p = cs3_program();
        let input = one_input();
        let result = run_on(&SimBackend::intel(), &p, &input);
        match &result.status {
            RunStatus::Hang { timeout_us } => assert_eq!(*timeout_us, 180_000_000),
            other => panic!("expected hang, got {other:?}"),
        }
        let snap = result.threads.expect("thread snapshot");
        assert_eq!(snap.total_threads, 32);
        assert_eq!(snap.groups.len(), 3);
        // GCC and Clang terminate the same program.
        assert!(run_on(&SimBackend::gcc(), &p, &input).status.is_ok());
        assert!(run_on(&SimBackend::clang(), &p, &input).status.is_ok());
    }

    #[test]
    fn hang_disappears_with_healthy_intel() {
        let p = cs3_program();
        let healthy = SimBackend::with_bugs(Vendor::IntelLike, BugModels::none());
        assert!(run_on(&healthy, &p, &one_input()).status.is_ok());
    }

    /// `if (var_1 != var_1) { comp += heavy loop }`: with a NaN input, the
    /// NaN-absorbing GCC binary skips the loop the IEEE binaries run.
    fn nanfold_program() -> Program {
        use ompfuzz_ast::{BoolExpr, BoolOp, IfBlock};
        let mut p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![
                Stmt::If(IfBlock {
                    cond: BoolExpr {
                        lhs: VarRef::Scalar("var_1".into()),
                        op: BoolOp::Ne,
                        rhs: Expr::var("var_1"),
                    },
                    body: Block::of_stmts(vec![Stmt::For(ForLoop {
                        omp_for: false,
                        var: "i".into(),
                        bound: LoopBound::Const(20_000),
                        body: Block::of_stmts(vec![comp_add(Expr::fp_const(1.0))]),
                    })]),
                }),
                comp_add(Expr::fp_const(0.5)),
            ]),
        );
        p.name = "nanfold".into();
        p
    }

    fn nan_input() -> TestInput {
        TestInput {
            comp_init: 0.0,
            values: vec![InputValue::Fp(f64::NAN)],
        }
    }

    /// A reduction region over a division-dense body: the static features
    /// the modelled GCC crash needs (region, reduction, three divisions).
    fn crash_prone_program() -> Program {
        use ompfuzz_ast::BinOp;
        let quotient = [2.0, 3.0, 5.0]
            .into_iter()
            .fold(Expr::var("var_1"), |e, d| {
                Expr::binary(e, BinOp::Div, Expr::fp_const(d))
            });
        let mut p = Program::new(
            vec![Param::fp(FpType::F64, "var_1")],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    reduction: Some(ReductionOp::Add),
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
                    bound: LoopBound::Const(16),
                    body: Block::of_stmts(vec![comp_add(quotient)]),
                },
            })]),
        );
        p.name = "crashy".into();
        p
    }

    /// An input that triggers the modelled GCC crash on `program`.
    fn gcc_crash_input(program: &Program) -> TestInput {
        let gcc = SimBackend::gcc()
            .compile_sim(program, &CompileOptions::default())
            .unwrap();
        (0..10_000)
            .map(|k| TestInput {
                comp_init: f64::from(k),
                values: vec![InputValue::Fp(1.5)],
            })
            .find(|input| gcc.crash_triggered(input))
            .expect("some input triggers the modelled GCC crash")
    }

    /// Field-for-field equality (`RunResult` has no `PartialEq`; `comp`
    /// compares by bits so NaN results match).
    fn assert_same_run(a: &RunResult, b: &RunResult) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.comp.map(f64::to_bits), b.comp.map(f64::to_bits));
        assert_eq!(a.time_us, b.time_us);
        assert_eq!(a.threads, b.threads);
        assert_eq!(a.vm_ops, b.vm_ops);
    }

    #[test]
    fn gcc_nan_folding_changes_result_and_work() {
        let p = nanfold_program();
        let input = nan_input();
        let gcc = run_on(&SimBackend::gcc(), &p, &input);
        let intel = run_on(&SimBackend::intel(), &p, &input);
        // Different numerical results…
        assert_eq!(gcc.comp.unwrap(), 0.5);
        assert_eq!(intel.comp.unwrap(), 20_000.5);
        // …and GCC did far less work (a fast outlier in the making).
        assert!(gcc.time_us.unwrap() * 3 < intel.time_us.unwrap());
        // With the bug model off, GCC behaves IEEE again.
        let healthy = SimBackend::with_bugs(Vendor::GccLike, BugModels::none());
        assert_eq!(run_on(&healthy, &p, &input).comp.unwrap(), 20_000.5);
    }

    #[test]
    fn gcc_crash_is_rare_and_deterministic() {
        use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
        use ompfuzz_inputs::InputGenerator;
        let mut g = ProgramGenerator::new(GeneratorConfig::paper(), 2024);
        let mut ig = InputGenerator::new(7);
        let gcc = SimBackend::gcc();
        let mut crashes = 0;
        let mut runs = 0;
        for p in g.generate_batch(60) {
            let bin = gcc.compile(&p, &CompileOptions::default()).unwrap();
            for _ in 0..3 {
                let input = ig.generate_for(&p);
                let r = bin.run(
                    &input,
                    &RunOptions {
                        max_ops: 20_000_000,
                        ..RunOptions::default()
                    },
                );
                runs += 1;
                if matches!(r.status, RunStatus::Crash { .. }) {
                    crashes += 1;
                    // Determinism: same run crashes again.
                    let again = bin.run(&input, &RunOptions::default());
                    assert!(matches!(again.status, RunStatus::Crash { .. }));
                }
            }
        }
        assert!(runs >= 180);
        assert!(crashes <= 6, "too many crashes: {crashes}/{runs}");
    }

    #[test]
    fn shared_scratch_runs_match_fresh_scratch_runs() {
        // The vendor binaries of a program share one compiled kernel. An
        // oracle step runs them through one scratch and interprets the
        // input once, handing that outcome to every binary unless the run
        // tested a NaN with `!=`. Whichever binaries share, every result
        // must equal a standalone run's on fresh state.
        use crate::oracle::{self, RunMetricsBatch};
        use ompfuzz_obs::{Counter, Obs};
        let crashy = crash_prone_program();
        let crash_input = gcc_crash_input(&crashy);
        let tiny_budget = RunOptions {
            max_ops: 10,
            ..RunOptions::default()
        };
        // Enough for the NaN-absorbing path, not for the IEEE loop.
        let loop_budget = RunOptions {
            max_ops: 1_000,
            ..RunOptions::default()
        };
        // (program, input, run options, VM runs per step that complete,
        // interpretations per step).
        let cases = [
            // The IEEE run tests a NaN with `!=`, so the NaN-absorbing
            // GCC binary interprets on its own: two runs.
            (nanfold_program(), nan_input(), RunOptions::default(), 2, 2),
            // GCC crashes before interpreting: the IEEE pair's one run.
            (crashy, crash_input, RunOptions::default(), 1, 1),
            // No NaN reaches a `!=`: one run stands in for all three.
            (
                cs2_program(3, 50, 8),
                one_input(),
                RunOptions::default(),
                1,
                1,
            ),
            // A budget abort is shared like a completed run (and completes
            // no run).
            (cs2_program(3, 50, 8), one_input(), tiny_budget, 0, 1),
            // An abort after a divergent test is not shared: the IEEE
            // loop exhausts the budget, GCC skips it and completes.
            (nanfold_program(), nan_input(), loop_budget, 1, 2),
        ];
        let backends = standard_backends();
        for (program, input, opts, runs_per_step, interpretations_per_step) in &cases {
            let prepared = PreparedKernel::new(lower(program).unwrap());
            let fresh: Vec<RunResult> = backends
                .iter()
                .map(|b| {
                    b.compile_sim_lowered(program, &prepared, &CompileOptions::default())
                        .run(input, opts)
                })
                .collect();
            // Every order: whichever binary runs first, its interpretation
            // serves the binaries after it unless it tested a NaN with
            // `!=`. One scratch serves every step.
            let mut scratch = ExecScratch::new();
            scratch.profile = Some(Box::default());
            for order in [[0, 1, 2], [2, 0, 1], [0, 2, 1], [1, 2, 0]] {
                let dyns: Vec<&dyn OmpBackend> = order
                    .iter()
                    .map(|&i| &backends[i] as &dyn OmpBackend)
                    .collect();
                let set = oracle::compile(
                    program,
                    &dyns,
                    Some(&prepared),
                    &CompileOptions::default(),
                    &Obs::off(),
                )
                .unwrap();
                let before = scratch.profile.as_ref().unwrap().runs();
                let mut metrics = RunMetricsBatch::new();
                let (shared, _) = set.step(input, opts, &mut scratch, &mut metrics);
                for (&i, result) in order.iter().zip(&shared) {
                    assert_same_run(result, &fresh[i]);
                }
                let runs = scratch.profile.as_ref().unwrap().runs() - before;
                assert_eq!(runs, *runs_per_step, "{} in order {order:?}", program.name);
                let obs = Obs::metrics_only();
                metrics.flush(&obs);
                assert_eq!(
                    obs.counters().get(Counter::Interpretations),
                    *interpretations_per_step,
                    "{} under {} ops in order {order:?}",
                    program.name,
                    opts.max_ops
                );
            }
            match program.name.as_str() {
                // Premise: the IEEE loop exhausts the budget GCC fits in.
                "nanfold" if opts.max_ops == 1_000 => {
                    assert!(fresh[0].is_budget_abort() && fresh[1].is_budget_abort());
                    assert_eq!(fresh[2].comp, Some(0.5));
                }
                // Premise: GCC diverges from the IEEE binaries it follows.
                "nanfold" => {
                    assert_eq!(fresh[1].comp, Some(20_000.5));
                    assert_eq!(fresh[2].comp, Some(0.5));
                }
                // Premise: the input crashes GCC only.
                "crashy" => {
                    assert!(matches!(fresh[2].status, RunStatus::Crash { .. }));
                    assert!(fresh[0].status.is_ok() && fresh[1].status.is_ok());
                }
                // Premise: the tiny budget aborts every binary.
                _ if opts.max_ops == 10 => {
                    assert!(fresh.iter().all(RunResult::is_budget_abort));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn o0_binaries_are_slower_than_o3() {
        let p = cs2_program(2, 200_000, 8);
        let input = one_input();
        let backend = SimBackend::intel();
        let o3 = backend
            .compile(
                &p,
                &CompileOptions {
                    opt_level: OptLevel::O3,
                },
            )
            .unwrap()
            .run(&input, &RunOptions::default());
        let o0 = backend
            .compile(
                &p,
                &CompileOptions {
                    opt_level: OptLevel::O0,
                },
            )
            .unwrap()
            .run(&input, &RunOptions::default());
        assert!(o0.time_us.unwrap() > 2 * o3.time_us.unwrap());
    }

    #[test]
    fn results_are_fully_deterministic() {
        let p = cs1_program(500, 16);
        let input = one_input();
        let backend = SimBackend::clang();
        let bin = backend.compile_sim(&p, &CompileOptions::default()).unwrap();
        let a = bin.run(&input, &RunOptions::default());
        let b = bin.run(&input, &RunOptions::default());
        assert_eq!(a.time_us, b.time_us);
        assert_eq!(a.comp, b.comp);
        let counters = || {
            bin.perf_report(&input, &RunOptions::default(), ProfileMode::Flat)
                .unwrap()
                .0
        };
        assert_eq!(counters(), counters());
    }

    #[test]
    fn profiles_attribute_to_vendor_runtime() {
        let p = cs1_program(2000, 32);
        let input = one_input();
        for backend in standard_backends() {
            let bin = backend.compile_sim(&p, &CompileOptions::default()).unwrap();
            let lib = backend.info().runtime_lib;
            let Some((_, profile)) =
                bin.perf_report(&input, &RunOptions::default(), ProfileMode::Flat)
            else {
                continue; // intel may hang at this pressure — fine
            };
            assert!(
                profile.entries.iter().any(|e| e.shared_object == lib),
                "{lib} missing from profile"
            );
        }
    }

    #[test]
    fn children_profile_heads_with_clone() {
        let p = cs2_program(100, 64, 32);
        let bin = SimBackend::clang()
            .compile_sim(&p, &CompileOptions::default())
            .unwrap();
        let (_, prof) = bin
            .perf_report(&one_input(), &RunOptions::default(), ProfileMode::Children)
            .unwrap();
        assert_eq!(prof.mode, ProfileMode::Children);
        assert!(prof.entries[0].symbol.contains("clone"));
    }

    /// The report exists only for a run that completes: a modelled GCC
    /// crash, the modelled Intel livelock and a budget abort print none.
    #[test]
    fn perf_report_is_none_unless_the_run_completes() {
        let report = |backend: SimBackend, p: &Program, input: &TestInput, opts: &RunOptions| {
            let bin = backend.compile_sim(p, &CompileOptions::default()).unwrap();
            (
                bin.run(input, opts),
                bin.perf_report(input, opts, ProfileMode::Flat),
            )
        };
        let crashy = crash_prone_program();
        let crash_input = gcc_crash_input(&crashy);
        let (run, crash) = report(
            SimBackend::gcc(),
            &crashy,
            &crash_input,
            &RunOptions::default(),
        );
        assert!(matches!(run.status, RunStatus::Crash { .. }));
        assert_eq!(crash, None);

        let (run, hung) = report(
            SimBackend::intel(),
            &cs3_program(),
            &one_input(),
            &RunOptions::default(),
        );
        assert!(
            run.threads.is_some(),
            "the modelled livelock: {:?}",
            run.status
        );
        assert_eq!(hung, None);

        let tiny_budget = RunOptions {
            max_ops: 10,
            ..RunOptions::default()
        };
        let (run, aborted) = report(
            SimBackend::clang(),
            &cs2_program(3, 50, 8),
            &one_input(),
            &tiny_budget,
        );
        assert!(run.is_budget_abort());
        assert_eq!(aborted, None);
    }

    /// A completed run has a report in both modes, and asking twice gives
    /// equal values: the counters do not depend on the mode, and each
    /// mode's profile is its own.
    #[test]
    fn perf_report_of_a_completed_run_is_deterministic() {
        let p = cs2_program(20, 64, 16);
        let input = one_input();
        for backend in standard_backends() {
            let bin = backend.compile_sim(&p, &CompileOptions::default()).unwrap();
            assert!(bin.run(&input, &RunOptions::default()).status.is_ok());
            let report = |mode| bin.perf_report(&input, &RunOptions::default(), mode);
            let flat = report(ProfileMode::Flat).expect("a completed run has a flat report");
            let children = report(ProfileMode::Children).expect("and a children report");
            assert_eq!(report(ProfileMode::Flat), Some(flat.clone()));
            assert_eq!(report(ProfileMode::Children), Some(children.clone()));
            assert_eq!(flat.0, children.0);
            assert_eq!(flat.1.mode, ProfileMode::Flat);
            assert_eq!(children.1.mode, ProfileMode::Children);
            assert!(flat.0.instructions > 0, "{}", backend.vendor());
        }
    }
}
