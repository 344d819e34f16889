//! The fixpoint reduction loop and its parallel oracle.
//!
//! Every pass enumerates candidate edits against the *current* program and
//! accepts the lowest-index candidate whose oracle check still reproduces
//! the target verdict. Candidates are evaluated in waves of one per worker,
//! in index order, and a pass stops at the first wave with a success: the
//! lowest reproducing index of that wave is the lowest of the whole batch,
//! so the accepted edit does not depend on the worker count. Neither does
//! the reported check count, which is *logical* — the accepted index + 1,
//! or the batch length when nothing reproduces — whatever a wave evaluated
//! past the winner.

use crate::target::{ReductionTarget, Verdict};
use ompfuzz_ast::rewrite::{self, ClauseEdit, ExprSide};
use ompfuzz_ast::Program;
use ompfuzz_backends::{oracle, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_exec::{ExecScratch, PreparedKernel};
use ompfuzz_harness::{pool, CampaignConfig};
use ompfuzz_inputs::TestInput;
use ompfuzz_obs::{Counter, Obs};
use ompfuzz_outlier::{analyze, OutlierConfig};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Reduction tuning. The oracle options must match the campaign that
/// produced the target verdict, otherwise the verdict may not reproduce on
/// the *unmodified* program ([`ReduceConfig::for_campaign`] copies them).
#[derive(Debug, Clone)]
pub struct ReduceConfig {
    /// Worker threads for candidate checks (0 = available parallelism).
    pub workers: usize,
    /// Cap on full fixpoint rounds (each round runs every pass once).
    pub max_rounds: usize,
    /// Compile options for oracle checks.
    pub compile: CompileOptions,
    /// Run options for oracle checks.
    pub run: RunOptions,
    /// Outlier thresholds for oracle checks.
    pub outlier: OutlierConfig,
    /// Reject candidates that introduce data races (the campaign's §IV-E
    /// filter): each check's oracle step then records races. Without this,
    /// an edit such as dropping a `private` clause could keep the verdict
    /// while turning the "minimal" kernel into a racy program the campaign
    /// itself would have excluded.
    pub filter_races: bool,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig {
            workers: 0,
            max_rounds: 8,
            compile: CompileOptions::default(),
            run: RunOptions {
                max_ops: 40_000_000,
                ..RunOptions::default()
            },
            outlier: OutlierConfig::default(),
            filter_races: true,
        }
    }
}

impl ReduceConfig {
    /// Oracle settings copied from the campaign whose outlier is being
    /// reduced, so "still reproduces" means exactly what the campaign's
    /// analysis meant.
    pub fn for_campaign(cfg: &CampaignConfig) -> ReduceConfig {
        ReduceConfig {
            workers: cfg.workers,
            compile: CompileOptions {
                opt_level: cfg.opt_level,
            },
            run: cfg.run,
            outlier: cfg.outlier,
            filter_races: cfg.filter_races,
            ..ReduceConfig::default()
        }
    }
}

/// Per-pass accounting, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (`ddmin`, `loop-trips`, `clauses`, `exprs`, `params`).
    pub pass: &'static str,
    /// Accepted edits across all rounds.
    pub accepted: usize,
    /// Oracle checks spent across all rounds.
    pub checks: usize,
}

/// What a reduction produced.
#[derive(Debug, Clone)]
pub struct ReductionOutcome {
    /// The minimized program (same name/seed as the original, so modelled
    /// `(program, input)`-keyed triggers stay live).
    pub reduced: Program,
    /// The input, with values of pruned parameters removed.
    pub input: TestInput,
    /// The preserved verdict.
    pub verdict: Verdict,
    /// Statement count before reduction.
    pub original_stmts: usize,
    /// Statement count after reduction.
    pub reduced_stmts: usize,
    /// Total oracle checks performed.
    pub oracle_checks: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Per-pass accounting.
    pub passes: Vec<PassStat>,
}

impl ReductionOutcome {
    /// Statements eliminated, as a percentage of the original.
    pub fn shrink_percent(&self) -> f64 {
        if self.original_stmts == 0 {
            return 0.0;
        }
        100.0 * (self.original_stmts - self.reduced_stmts) as f64 / self.original_stmts as f64
    }
}

/// A candidate edit: the rebuilt program plus (for parameter pruning) the
/// synchronized input.
type Candidate = (Program, TestInput);

/// The oracle-driven delta debugger.
pub struct Reducer<'b> {
    backends: &'b [&'b dyn OmpBackend],
    config: ReduceConfig,
    obs: Obs,
}

impl<'b> Reducer<'b> {
    /// Reducer over the same backends (same order!) as the campaign that
    /// observed the target verdict.
    pub fn new(backends: &'b [&'b dyn OmpBackend], config: ReduceConfig) -> Reducer<'b> {
        Reducer {
            backends,
            config,
            obs: Obs::off(),
        }
    }

    /// Attach a telemetry handle: the oracle's work is counted as the
    /// reduction progresses — compiles, differential runs, VM ops and
    /// budget aborts as they run, logical candidate checks as each pass
    /// settles. Telemetry never influences which candidates are accepted.
    pub fn observed(mut self, obs: Obs) -> Reducer<'b> {
        self.obs = obs;
        self
    }

    /// Run the fixpoint reduction loop on one target.
    ///
    /// If the target does not reproduce as-is (stale verdict, mismatched
    /// oracle settings), the outcome is the unmodified program with one
    /// oracle check spent.
    pub fn reduce(&self, target: &ReductionTarget) -> ReductionOutcome {
        let mut passes = vec![
            PassStat {
                pass: "ddmin",
                accepted: 0,
                checks: 0,
            },
            PassStat {
                pass: "loop-trips",
                accepted: 0,
                checks: 0,
            },
            PassStat {
                pass: "clauses",
                accepted: 0,
                checks: 0,
            },
            PassStat {
                pass: "exprs",
                accepted: 0,
                checks: 0,
            },
            PassStat {
                pass: "params",
                accepted: 0,
                checks: 0,
            },
        ];
        let original_stmts = target.program.body.stmt_count();
        let mut current = target.program.clone();
        let mut input = target.input.clone();
        let mut rounds = 0;
        let mut sanity_checks = 1;

        // The race gate rejects candidates that *introduce* races. If the
        // original witness itself races on the pinned input (the campaign's
        // filter only samples each program's first input, so such outliers
        // exist), gating would reject the unmodified program and silently
        // no-op. So the entry check records races whenever the gate is on,
        // and its reports waive the gate for the whole reduction.
        let (reproduces, races) =
            self.check(&current, &input, target.verdict, self.config.filter_races);
        let ctx = OracleCtx {
            verdict: target.verdict,
            allow_races: races,
        };

        if reproduces {
            for _ in 0..self.config.max_rounds {
                rounds += 1;
                let before = (current.clone(), input.clone());
                self.ddmin_pass(&mut current, &input, &ctx, &mut passes[0]);
                self.loop_trip_pass(&mut current, &input, &ctx, &mut passes[1]);
                self.clause_pass(&mut current, &input, &ctx, &mut passes[2]);
                self.expr_pass(&mut current, &input, &ctx, &mut passes[3]);
                self.param_pass(&mut current, &mut input, &ctx, &mut passes[4]);
                if before.0 == current && before.1 == input {
                    break;
                }
            }
            // Safety net: the accepted program always reproduces (every
            // acceptance was oracle-gated), but re-check the final state so
            // a reducer bug can never ship a non-reproducing "minimal"
            // case — fall back to the untouched original instead.
            sanity_checks += 1;
            if !self.reproduces(&current, &input, &ctx) {
                debug_assert!(false, "reduction fixpoint no longer reproduces its verdict");
                current = target.program.clone();
                input = target.input.clone();
            }
        }

        // Pass checks were counted as each pass settled; the entry and exit
        // checks complete the tally, so the counter equals `oracle_checks`.
        self.obs
            .count(Counter::ReducerCandidateChecks, sanity_checks as u64);
        let oracle_checks = sanity_checks + passes.iter().map(|p| p.checks).sum::<usize>();
        ReductionOutcome {
            reduced_stmts: current.body.stmt_count(),
            reduced: current,
            input,
            verdict: target.verdict,
            original_stmts,
            oracle_checks,
            rounds,
            passes,
        }
    }

    // -- oracle ------------------------------------------------------------

    /// Does `program` on `input` still produce the target verdict? When
    /// `filter_races` is on and the original witness was race-free, a
    /// candidate whose check reports a race does not: the campaign's §IV-E
    /// filter would have excluded it from analysis.
    fn reproduces(&self, program: &Program, input: &TestInput, ctx: &OracleCtx) -> bool {
        let gated = self.config.filter_races && !ctx.allow_races;
        let (holds, races) = self.check(program, input, ctx.verdict, gated);
        holds && !races
    }

    /// One oracle check: lower and compile `program` once (every backend
    /// shares the compilation) and run one oracle step on `input` through
    /// the thread's check scratch. Returns whether the step reproduces
    /// `verdict`, and whether its IEEE run reported a race. Races are
    /// recorded only when `record_races`, and a run that aborts reports
    /// none, as in the campaign. A candidate that fails to lower or
    /// compile reproduces nothing.
    fn check(
        &self,
        program: &Program,
        input: &TestInput,
        verdict: Verdict,
        record_races: bool,
    ) -> (bool, bool) {
        let Ok(kernel) = ompfuzz_exec::lower(program) else {
            return (false, false);
        };
        let run = RunOptions {
            detect_races: record_races,
            ..self.config.run
        };
        with_check_scratch(|scratch| {
            let Ok((observations, races)) = oracle::observe(
                program,
                input,
                self.backends,
                Some(&PreparedKernel::new(kernel)),
                &self.config.compile,
                &run,
                scratch,
                &self.obs,
            ) else {
                return (false, false);
            };
            let holds = analyze(&observations, &self.config.outlier).primary_outlier()
                == Some((verdict.kind, verdict.backend));
            (holds, races.is_some_and(|races| !races.is_empty()))
        })
    }

    /// Return the index of the *first* (lowest-index) reproducing
    /// candidate. Candidates run on the worker pool in index-order waves
    /// of one per worker, stopping after the first wave with a success —
    /// so the winner is the batch's lowest reproducing index for every
    /// worker count. The check count is the logical one (winner + 1, or
    /// the batch length), equally worker-count independent.
    fn first_reproducing(
        &self,
        candidates: &[Candidate],
        ctx: &OracleCtx,
        stat: &mut PassStat,
    ) -> Option<usize> {
        let workers = pool::resolve_workers(self.config.workers);
        let first = candidates
            .chunks(workers)
            .enumerate()
            .find_map(|(wave, chunk)| {
                pool::map_parallel(workers, chunk, |(program, input)| {
                    self.reproduces(program, input, ctx)
                })
                .into_iter()
                .position(|reproduced| reproduced)
                .map(|i| wave * workers + i)
            });
        let checks = first.map_or(candidates.len(), |i| i + 1);
        stat.checks += checks;
        self.obs
            .count(Counter::ReducerCandidateChecks, checks as u64);
        first
    }

    // -- passes ------------------------------------------------------------

    /// Statement-block ddmin: delete contiguous windows of statement sites,
    /// halving the window when no deletion reproduces. The kernel body is
    /// never allowed to become empty.
    fn ddmin_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &OracleCtx,
        stat: &mut PassStat,
    ) {
        let mut chunk = rewrite::stmt_sites(current).div_ceil(2).max(1);
        loop {
            let sites = rewrite::stmt_sites(current);
            if sites == 0 {
                break;
            }
            let chunk_now = chunk.min(sites);
            let mut candidates = Vec::new();
            let mut start = 0;
            while start < sites {
                let end = (start + chunk_now).min(sites);
                let remove: BTreeSet<usize> = (start..end).collect();
                let cand = rewrite::delete_stmts(current, &remove);
                // ddmin invariant: never offer an empty kernel body.
                if !cand.body.is_empty() {
                    candidates.push((cand, input.clone()));
                }
                start = end;
            }
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    *current = candidates.swap_remove(i).0;
                    stat.accepted += 1;
                    // Keep the window size: more same-granularity deletions
                    // often follow a success.
                }
                None => {
                    if chunk <= 1 {
                        break;
                    }
                    chunk /= 2;
                }
            }
        }
    }

    /// Shrink constant trip counts toward 1, smallest trial first.
    fn loop_trip_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &OracleCtx,
        stat: &mut PassStat,
    ) {
        loop {
            let trips = rewrite::loop_sites(current);
            let mut candidates = Vec::new();
            for (site, &trip) in trips.iter().enumerate() {
                for trial in shrink_ladder(trip) {
                    if let Some(cand) = rewrite::with_loop_trip(current, site, trial) {
                        candidates.push((cand, input.clone()));
                    }
                }
            }
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    *current = candidates.swap_remove(i).0;
                    stat.accepted += 1;
                }
                None => break,
            }
        }
    }

    /// Strip OpenMP clauses one at a time.
    fn clause_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &OracleCtx,
        stat: &mut PassStat,
    ) {
        loop {
            let edits: Vec<ClauseEdit> = rewrite::clause_edits(current);
            let mut candidates: Vec<Candidate> = edits
                .iter()
                .filter_map(|e| rewrite::apply_clause_edit(current, e))
                .map(|p| (p, input.clone()))
                .collect();
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    *current = candidates.swap_remove(i).0;
                    stat.accepted += 1;
                }
                None => break,
            }
        }
    }

    /// Expression hoisting/simplification: replace operator nodes by one of
    /// their operands. Sites are visited from the highest index down — a
    /// splice at site `k` leaves sites `< k` addressed identically, so one
    /// descending sweep needs only O(sites + accepted) oracle checks
    /// instead of re-enumerating after every acceptance.
    fn expr_pass(
        &self,
        current: &mut Program,
        input: &TestInput,
        ctx: &OracleCtx,
        stat: &mut PassStat,
    ) {
        let mut site = rewrite::expr_sites(current);
        while site > 0 {
            site -= 1;
            // Retry the same site while simplifications land: the spliced-in
            // operand is itself reducible.
            loop {
                let mut candidates: Vec<Candidate> = [ExprSide::Lhs, ExprSide::Rhs]
                    .iter()
                    .filter_map(|&side| rewrite::simplify_expr(current, site, side))
                    .map(|p| (p, input.clone()))
                    .collect();
                match self.first_reproducing(&candidates, ctx, stat) {
                    Some(i) => {
                        *current = candidates.swap_remove(i).0;
                        stat.accepted += 1;
                        if rewrite::expr_sites(current) <= site {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
    }

    /// Remove parameters no longer referenced, dropping the matching input
    /// values. Still oracle-checked: pruning changes the input line, which
    /// `(program, input)`-keyed bug models are salted with.
    fn param_pass(
        &self,
        current: &mut Program,
        input: &mut TestInput,
        ctx: &OracleCtx,
        stat: &mut PassStat,
    ) {
        loop {
            let mut candidates = Vec::new();
            for index in rewrite::unused_params(current) {
                let Some(program) = rewrite::remove_param(current, index) else {
                    continue;
                };
                if index >= input.values.len() {
                    continue; // input out of sync with params; don't guess
                }
                let mut pruned = input.clone();
                pruned.values.remove(index);
                candidates.push((program, pruned));
            }
            match self.first_reproducing(&candidates, ctx, stat) {
                Some(i) => {
                    let (program, pruned) = candidates.swap_remove(i);
                    *current = program;
                    *input = pruned;
                    stat.accepted += 1;
                }
                None => break,
            }
        }
    }
}

/// Per-reduction oracle parameters, fixed when `reduce` starts.
struct OracleCtx {
    /// The verdict every accepted candidate must preserve.
    verdict: Verdict,
    /// The original witness already races on the pinned input, so the race
    /// gate is waived (reduction can't *introduce* what's already there).
    allow_races: bool,
}

std::thread_local! {
    /// One [`ExecScratch`] per thread that runs reducer checks, reused
    /// across every candidate it checks: for one `map_parallel` call on a
    /// helper thread, for the thread's life on the calling thread (scratch
    /// contents never affect
    /// outcomes, as the `scratch_reuse` suite pins, so which thread
    /// checks a candidate cannot change any result). Kept apart from the
    /// campaign's worker scratch, which may carry an installed VM profile.
    static CHECK_SCRATCH: RefCell<ExecScratch> = RefCell::new(ExecScratch::new());
}

/// Run `f` on this thread's reducer scratch. The borrow lasts one check,
/// and a check never calls back into the worker pool, so the thread that
/// calls `pool::map_parallel` (which also checks candidates) never borrows
/// the scratch twice.
fn with_check_scratch<R>(f: impl FnOnce(&mut ExecScratch) -> R) -> R {
    CHECK_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Trial trip counts for a loop currently at `trip`, ascending and strictly
/// smaller: the most aggressive shrink is offered first.
fn shrink_ladder(trip: u32) -> Vec<u32> {
    let mut trials: Vec<u32> = [1, 2, trip / 16, trip / 4, trip / 2]
        .into_iter()
        .filter(|&t| t >= 1 && t < trip)
        .collect();
    trials.sort_unstable();
    trials.dedup();
    trials
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_ast::{AssignOp, Assignment, BlockItem, Expr, FpType, LValue, Param, Stmt, VarRef};
    use ompfuzz_backends::standard_backends;
    use ompfuzz_harness::caselib;
    use ompfuzz_outlier::OutlierKind;

    #[test]
    fn racy_edit_that_keeps_the_verdict_is_rejected() {
        // Case study 3 plus a private scalar every thread writes outside
        // the critical section. Dropping `private(var_9)` leaves the hang
        // (the lock pressure is unchanged) but turns the write into a
        // shared-scalar race: the verdict reproduces, so only the race gate
        // that runs after it can reject the edit.
        let mut program = caselib::case_study_3(6000, 32);
        program.params.push(Param::fp(FpType::F64, "var_9"));
        let BlockItem::Stmt(Stmt::OmpParallel(par)) = &mut program.body.0[0] else {
            panic!("case study 3 opens with its parallel region");
        };
        par.clauses.private.push("var_9".into());
        par.body_loop.body.0.insert(
            0,
            BlockItem::Stmt(Stmt::Assign(Assignment {
                target: LValue::Var(VarRef::Scalar("var_9".into())),
                op: AssignOp::Assign,
                value: Expr::fp_const(1.0),
            })),
        );
        let input = caselib::case_study_input(&program);
        let racy = rewrite::apply_clause_edit(
            &program,
            &ClauseEdit::DropPrivate {
                region: 0,
                index: 0,
            },
        )
        .unwrap();

        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let reducer = Reducer::new(&dyns, ReduceConfig::default());
        let gated = OracleCtx {
            verdict: Verdict::new(OutlierKind::Hang, 0),
            allow_races: false,
        };
        let waived = OracleCtx {
            allow_races: true,
            ..gated
        };
        // Premises: the witness is race-free and hangs Intel; the edit
        // races on the pinned input and still hangs Intel.
        let verdict = gated.verdict;
        assert_eq!(
            reducer.check(&program, &input, verdict, true),
            (true, false)
        );
        assert_eq!(reducer.check(&racy, &input, verdict, true), (true, true));
        assert!(reducer.reproduces(&program, &input, &gated));
        assert!(reducer.reproduces(&racy, &input, &waived));
        assert!(
            !reducer.reproduces(&racy, &input, &gated),
            "a race-free witness must not accept a racy edit"
        );
    }

    #[test]
    fn shrink_ladder_is_ascending_and_strict() {
        assert!(shrink_ladder(1).is_empty());
        assert_eq!(shrink_ladder(2), vec![1]);
        assert_eq!(shrink_ladder(3), vec![1, 2]);
        let l = shrink_ladder(6000);
        assert_eq!(l, vec![1, 2, 375, 1500, 3000]);
        for t in [4u32, 17, 100, 801, 1_000_000] {
            let l = shrink_ladder(t);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert!(l.iter().all(|&x| x < t && x >= 1));
        }
    }
}
