//! Reducer behaviour on the crafted case-study kernels: oracle
//! preservation, worker-count determinism (of the result and of the
//! logical check count), idempotence, and the ddmin non-empty guarantee.

use ompfuzz_ast::rewrite;
use ompfuzz_backends::{oracle, standard_backends, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_exec::ExecScratch;
use ompfuzz_harness::caselib;
use ompfuzz_obs::{Counter, Obs};
use ompfuzz_outlier::{analyze, OutlierConfig, OutlierKind};
use ompfuzz_reduce::{ReduceConfig, Reducer, ReductionOutcome, ReductionTarget, Verdict};

fn dyns(backends: &[ompfuzz_backends::SimBackend]) -> Vec<&dyn OmpBackend> {
    backends.iter().map(|b| b as &dyn OmpBackend).collect()
}

/// Case study 3 hangs the Intel-like implementation (backend index 0 in
/// `standard_backends` order).
fn hang_target() -> ReductionTarget {
    let program = caselib::case_study_3(6000, 32);
    let input = caselib::case_study_input(&program);
    ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0))
}

fn reduce_with_workers(target: &ReductionTarget, workers: usize) -> ReductionOutcome {
    reduce_counted(target, workers).0
}

/// Reduce with telemetry on; also returns the `reducer_candidate_checks`
/// counter.
fn reduce_counted(target: &ReductionTarget, workers: usize) -> (ReductionOutcome, u64) {
    let backends = standard_backends();
    let dyns = dyns(&backends);
    let config = ReduceConfig {
        workers,
        ..ReduceConfig::default()
    };
    let obs = Obs::metrics_only();
    let out = Reducer::new(&dyns, config)
        .observed(obs.clone())
        .reduce(target);
    (out, obs.counters().get(Counter::ReducerCandidateChecks))
}

#[test]
fn oracle_is_preserved_by_reduction() {
    let target = hang_target();
    let out = reduce_with_workers(&target, 4);
    assert!(out.reduced_stmts < out.original_stmts, "{out:?}");

    // Independent re-check: run the reduced program through the
    // differential pipeline from scratch and re-derive the verdict.
    let backends = standard_backends();
    let (observations, _) = oracle::observe(
        &out.reduced,
        &out.input,
        &dyns(&backends),
        None,
        &CompileOptions::default(),
        &RunOptions {
            max_ops: 40_000_000,
            ..RunOptions::default()
        },
        &mut ExecScratch::new(),
        &Obs::off(),
    )
    .expect("reduced program compiles everywhere");
    let verdict = analyze(&observations, &OutlierConfig::default()).primary_outlier();
    assert_eq!(verdict, Some((OutlierKind::Hang, 0)));
}

#[test]
fn reduction_is_deterministic_across_worker_counts() {
    // Waves of one candidate per worker stop at the first wave with a
    // success, so wider waves evaluate candidates past the winner. Neither
    // the accepted edits nor the logical check count may notice — with
    // wave sizes that divide the batches differently (2, 3) or not at all
    // (8 covers whole passes).
    let target = hang_target();
    let (seq, seq_counted) = reduce_counted(&target, 1);
    assert_eq!(seq_counted, seq.oracle_checks as u64);
    for workers in [2, 3, 8] {
        let (par, counted) = reduce_counted(&target, workers);
        assert_eq!(seq.reduced, par.reduced, "{workers} workers");
        assert_eq!(seq.input, par.input, "{workers} workers");
        assert_eq!(seq.oracle_checks, par.oracle_checks, "{workers} workers");
        assert_eq!(seq.rounds, par.rounds, "{workers} workers");
        assert_eq!(seq.passes, par.passes, "{workers} workers");
        // The counter is the logical count too, not the physical one.
        assert_eq!(counted, par.oracle_checks as u64, "{workers} workers");
    }
}

#[test]
fn reduction_is_idempotent() {
    let target = hang_target();
    let once = reduce_with_workers(&target, 4);
    let again = reduce_with_workers(
        &ReductionTarget::new(once.reduced.clone(), once.input.clone(), once.verdict),
        4,
    );
    assert_eq!(again.reduced, once.reduced);
    assert_eq!(again.input, once.input);
    assert_eq!(again.reduced_stmts, once.reduced_stmts);
    assert_eq!(
        again.passes.iter().map(|p| p.accepted).sum::<usize>(),
        0,
        "re-reducing a fixpoint accepted edits: {:?}",
        again.passes
    );
    // A fixpoint is recognized in a single round.
    assert_eq!(again.rounds, 1);
}

#[test]
fn ddmin_never_returns_an_empty_program_body() {
    // The hang verdict survives deleting *everything except* the
    // region/loop/critical spine, so ddmin is pushed as far as it can go —
    // the body must still never become empty.
    let out = reduce_with_workers(&hang_target(), 4);
    assert!(!out.reduced.body.is_empty());
    assert!(out.reduced_stmts >= 1);

    // And an already-minimal kernel passes through unchanged.
    let minimal = reduce_with_workers(
        &ReductionTarget::new(out.reduced.clone(), out.input.clone(), out.verdict),
        4,
    );
    assert_eq!(minimal.reduced, out.reduced);
    assert!(!minimal.reduced.body.is_empty());
}

#[test]
fn reduced_kernel_is_the_contention_trigger() {
    let out = reduce_with_workers(&hang_target(), 4);
    // The minimal hang kernel is case study 3's spine: a parallel region
    // whose (serial) loop hammers a critical section. The comp update and
    // the prelude are not needed for the queuing-lock pressure, so the
    // reducer strips them too.
    let mut expected = caselib::case_study_3(6000, 32);
    // Delete the prelude declaration (site 1), the array-accumulate
    // statement (site 2) and the comp update inside the critical (site 4).
    expected = rewrite::delete_stmts(&expected, &[1, 2, 4].into_iter().collect());
    assert_eq!(
        rewrite::skeleton(&out.reduced),
        rewrite::skeleton(&expected)
    );
    assert_eq!(rewrite::skeleton(&out.reduced), "par{for{crit{}}}");
}

#[test]
fn witness_that_already_races_still_reduces() {
    use ompfuzz_ast::{AssignOp, Assignment, BlockItem, Expr, FpType, LValue, Param, Stmt, VarRef};
    // The campaign's race filter only samples each program's *first* input,
    // so an outlier can reach the reducer while racing on its pinned input.
    // The race gate must not reject the unmodified witness (silent no-op);
    // it only guards against *introducing* races.
    let mut program = caselib::case_study_3(6000, 32);
    program.params.push(Param::fp(FpType::F64, "var_9"));
    if let BlockItem::Stmt(Stmt::OmpParallel(par)) = &mut program.body.0[0] {
        // Unprotected shared-scalar write: every thread races on var_9.
        par.body_loop.body.0.insert(
            0,
            BlockItem::Stmt(Stmt::Assign(Assignment {
                target: LValue::Var(VarRef::Scalar("var_9".into())),
                op: AssignOp::AddAssign,
                value: Expr::fp_const(1.0),
            })),
        );
    }
    let input = caselib::case_study_input(&program);

    // Confirm the premise: the witness itself races on this input.
    let ck = ompfuzz_exec::CompiledKernel::compile(ompfuzz_exec::lower(&program).unwrap());
    let outcome = ck
        .run(
            &input,
            &ompfuzz_exec::ExecOptions::with_race_detection(),
            &mut ompfuzz_exec::ExecScratch::new(),
        )
        .unwrap();
    assert!(!outcome.races.is_empty(), "premise: witness must race");

    let target = ReductionTarget::new(program, input, Verdict::new(OutlierKind::Hang, 0));
    let out = reduce_with_workers(&target, 4);
    assert!(
        out.reduced_stmts < out.original_stmts,
        "racy witness must still reduce, got {} -> {} stmts",
        out.original_stmts,
        out.reduced_stmts
    );
}

#[test]
fn stale_verdict_returns_the_program_unmodified() {
    let program = caselib::case_study_3(6000, 32);
    let input = caselib::case_study_input(&program);
    // Claim a GCC crash that this program does not exhibit.
    let target = ReductionTarget::new(program.clone(), input, Verdict::new(OutlierKind::Crash, 2));
    let out = reduce_with_workers(&target, 4);
    assert_eq!(out.reduced, program);
    assert_eq!(out.oracle_checks, 1);
    assert_eq!(out.rounds, 0);
}

#[test]
fn clause_stripping_respects_the_trigger() {
    let out = reduce_with_workers(&hang_target(), 4);
    let region_clauses = {
        let mut found = None;
        for item in out.reduced.body.iter() {
            if let ompfuzz_ast::BlockItem::Stmt(ompfuzz_ast::Stmt::OmpParallel(par)) = item {
                found = Some(par.clauses.clone());
            }
        }
        found.expect("reduced kernel keeps its parallel region")
    };
    // num_threads(32) is load-bearing — one thread cannot generate the
    // queuing-lock pressure — while the firstprivate clause is not.
    assert_eq!(region_clauses.num_threads, Some(32));
    assert!(region_clauses.firstprivate.is_empty());
    assert!(region_clauses.private.is_empty());
}
