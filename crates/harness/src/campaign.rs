//! The campaign driver: Fig. 1's workflow end to end.
//!
//! (a) generate programs + inputs → (b) compile with every implementation →
//! (c) run everything → (d) differential analysis and outlier tallying.
//!
//! The driver parallelizes across *programs* with crossbeam scoped threads,
//! and the whole per-program unit is **pipelined**: one worker closure
//! generates the test (when the corpus is not pre-built), lowers and
//! compiles it once, and performs every differential run — there is no
//! serial phase between generation and the fan-out. The §IV-E race filter
//! costs no run of its own: input 0's oracle step records races in the run
//! the binaries make, and a racy program is dropped before its other
//! inputs run. Each program's work is independent and a pure function of
//! `(config, seed, index)`, so worker count never changes any result —
//! outcomes are collected in corpus order.

use crate::config::CampaignConfig;
use crate::pool;
use crate::testcase::{generate_case, TestCase};
use ompfuzz_backends::{oracle, CompileOptions, OmpBackend, RunOptions};
use ompfuzz_exec::{ExecScratch, PreparedKernel, ProfileCollector, RaceReport};
use ompfuzz_obs::{Counter, Obs, Phase, Stopwatch};
use ompfuzz_outlier::{analyze, Analysis, OutlierKind, RunObservation, Tally};
use std::sync::Arc;
use std::time::Instant;

/// Per-(program, input) record of every implementation's behaviour.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub program_index: usize,
    /// Shared name of the source program: one `Arc<str>` per program,
    /// cloned by refcount into each of its (program, input) records instead
    /// of re-allocating the string in the campaign hot loop.
    pub program_name: Arc<str>,
    pub input_index: usize,
    /// One observation per implementation, aligned with
    /// [`CampaignResult::labels`].
    pub observations: Vec<RunObservation>,
    pub analysis: Analysis,
}

impl RunRecord {
    /// The record's headline outlier as `(kind, implementation index)`,
    /// if any — what a reduction of this record must preserve.
    pub fn outlier(&self) -> Option<(OutlierKind, usize)> {
        self.analysis.primary_outlier()
    }

    /// Severity ordering used to pick reduction targets: correctness
    /// outliers dominate (hang over crash), then
    /// performance outliers by their ratio. Non-outliers rank lowest.
    fn severity(&self) -> (u8, f64) {
        match self.analysis.primary_outlier() {
            Some((OutlierKind::Hang, _)) => (3, 0.0),
            Some((OutlierKind::Crash, _)) => (2, 0.0),
            Some((OutlierKind::Slow | OutlierKind::Fast, _)) => {
                (1, self.analysis.performance.map_or(0.0, |p| p.ratio()))
            }
            None => (0, 0.0),
        }
    }
}

/// Pick the worst record: highest severity class, then highest performance
/// ratio, with ties resolved to the *lowest* `(program_index, input_index)`
/// record identity. The order is total over distinct record identities and
/// never consults a record's position in the slice, so the pick is
/// identical for every worker count and whatever order records were
/// discovered or stored in. Shared by the kind-filtered variant — within
/// one kind the class component is constant, so the comparison degenerates
/// to ratio + identity there.
fn pick_worst<'a>(records: impl Iterator<Item = &'a RunRecord>) -> Option<&'a RunRecord> {
    records.min_by(|a, b| {
        let (sa, ra) = a.severity();
        let (sb, rb) = b.severity();
        sb.cmp(&sa)
            .then(rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal))
            .then((a.program_index, a.input_index).cmp(&(b.program_index, b.input_index)))
    })
}

/// Everything a campaign produces.
#[derive(Debug)]
pub struct CampaignResult {
    /// Implementation labels in run order.
    pub labels: Vec<String>,
    /// One record per (program, input), sorted by (program, input).
    pub records: Vec<RunRecord>,
    /// Aggregated Table-I tally.
    pub tally: Tally,
    /// Programs excluded by the race filter, with their reports.
    pub racy_programs: Vec<(Arc<str>, Vec<RaceReport>)>,
    /// Programs that failed to compile on some implementation (counted,
    /// not analyzed further).
    pub compile_failures: usize,
    /// Host wall-clock spent driving the campaign.
    pub wall_time: std::time::Duration,
    /// Total executions performed (the paper's 1,800 for the full config).
    pub total_runs: usize,
}

impl CampaignResult {
    /// Records whose analysis carries any outlier.
    pub fn outlier_records(&self) -> impl Iterator<Item = &RunRecord> {
        self.records
            .iter()
            .filter(|r| r.analysis.correctness.is_some() || r.analysis.performance.is_some())
    }

    /// Number of records that survived the `min_time_us` filter.
    pub fn analyzed_records(&self) -> usize {
        self.records.iter().filter(|r| !r.analysis.filtered).count()
    }

    /// The most severe outlier record — the default reduction target.
    ///
    /// Severity: hang > crash > performance (by ratio); ties resolve to the
    /// lowest `(program_index, input_index)` — the record's identity, not
    /// its position — so the choice is deterministic for a given campaign
    /// whatever the worker count.
    pub fn worst_outlier(&self) -> Option<&RunRecord> {
        pick_worst(self.records.iter().filter(|r| r.outlier().is_some()))
    }

    /// The most severe outlier record of a given kind.
    pub fn worst_outlier_of_kind(&self, kind: OutlierKind) -> Option<&RunRecord> {
        pick_worst(
            self.records
                .iter()
                .filter(|r| r.outlier().is_some_and(|(k, _)| k == kind)),
        )
    }
}

/// Run a campaign of `config` against `backends`, counting and timing it
/// through `obs` ([`Obs::off`] for no telemetry).
///
/// The corpus is never materialized: each worker generates its program
/// from `(config, seed, index)` inside the per-program closure and drops
/// it when the unit finishes, so peak memory is one test case per worker.
/// Byte-identical to [`run_campaign_generated_with`] over
/// [`generate_case`], whose tests equal [`crate::generate_corpus`]'s, and
/// identical whatever `obs` is.
pub fn run_campaign(
    config: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    obs: &Obs,
) -> CampaignResult {
    let (result, _) = campaign_loop(
        config,
        backends,
        0..config.programs,
        &|index| generate_case(config, index),
        Instant::now(),
        obs,
        &ProfileCollector::off(),
        drop,
    );
    result
}

/// Run a campaign over the global index range `range`, generating test
/// `i` via `gen(i)` *inside* the per-program worker closure — the fully
/// pipelined front half: generation, the shared compilation and every
/// differential run (input 0's carrying the §IV-E race filter) execute as
/// one per-program unit on the pool, with no serial phase and no
/// pre-materialized corpus.
///
/// `gen` must be a pure function of its index (the index-addressed corpus
/// definition), which is what keeps the result identical for every worker
/// count. Records carry their *global* index, so a run over a slice
/// produces exactly the whole run's records for that range. Returns the
/// generated tests alongside the result, in range order, so callers
/// (shard workers, reducers) can resolve outlier records against exactly
/// the tests they ran — O(slice) memory. (Callers that don't need the
/// tests back use [`run_campaign`], which drops each test as its worker
/// finishes.)
///
/// Each worker closure times its generate section, counts the generated
/// program, and ticks the periodic progress stream through `obs`; the
/// per-program unit records its compile and differential counters and
/// timings through the same handle, and — when `profile` is on —
/// harvests the VM hot-path profile of every program it runs into the
/// shared collector. Telemetry and profiling are strictly out of band:
/// active handles return exactly what [`Obs::off`] and
/// [`ProfileCollector::off`] return (pinned by the corpus telemetry and
/// introspection property suites).
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_generated_with(
    config: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    range: std::ops::Range<usize>,
    gen: &(dyn Fn(usize) -> TestCase + Sync),
    start: Instant,
    obs: &Obs,
    profile: &ProfileCollector,
) -> (CampaignResult, Vec<TestCase>) {
    campaign_loop(config, backends, range, gen, start, obs, profile, |tc| tc)
}

/// The campaign's pool loop, shared by both entry points: one pipelined
/// per-program unit per index of `range`, then the ordered assembly.
/// `keep` decides what each worker keeps of its test once the unit is
/// done — all of it, or nothing, so that a whole-corpus run holds one test
/// per worker rather than the corpus.
#[allow(clippy::too_many_arguments)]
fn campaign_loop<K: Send>(
    config: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    range: std::ops::Range<usize>,
    gen: &(dyn Fn(usize) -> TestCase + Sync),
    start: Instant,
    obs: &Obs,
    profile: &ProfileCollector,
    keep: impl Fn(TestCase) -> K + Sync,
) -> (CampaignResult, Vec<K>) {
    let indices: Vec<usize> = range.collect();
    let total = indices.len() as u64;
    let workers = pool::resolve_workers(config.workers);
    let paired = pool::map_parallel(workers, &indices, |&index| {
        // One chained stopwatch across the whole per-program unit:
        // generate / compile / differential share boundary clock readings
        // (4 reads per program instead of 6).
        let mut sw = obs.stopwatch();
        let tc = gen(index);
        sw.lap(Phase::Generate);
        obs.count(Counter::ProgramsGenerated, 1);
        let outcome = run_one_case(index, &tc, config, backends, obs, profile, &mut sw);
        obs.tick_progress(total);
        (outcome, keep(tc))
    });
    let (outcomes, kept): (Vec<CaseOutcome>, Vec<K>) = paired.into_iter().unzip();
    (assemble_result(config, backends, outcomes, start), kept)
}

/// Per-program outcome; [`pool::map_parallel`] keeps these in corpus order.
enum CaseOutcome {
    /// Excluded by the §IV-E race filter: input 0's oracle step reported
    /// these races, so no record is kept and the other inputs never ran.
    Racy(Arc<str>, Vec<RaceReport>),
    /// Failed to compile on some implementation, so not compared.
    CompileFailed,
    /// Compiled and ran differentially: one record per input.
    Ran(Vec<RunRecord>),
}

/// Fold per-program outcomes (in corpus order) into the campaign result:
/// racy exclusions keep corpus order, records keep `(program, input)`
/// order, so the result is identical for every worker count.
fn assemble_result(
    config: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    outcomes: Vec<CaseOutcome>,
    start: Instant,
) -> CampaignResult {
    let labels: Vec<String> = backends
        .iter()
        .map(|b| b.info().vendor.label().to_string())
        .collect();
    let mut racy_programs = Vec::new();
    let mut records = Vec::with_capacity(outcomes.len() * config.inputs_per_program);
    let mut compile_failures = 0;
    for o in outcomes {
        match o {
            CaseOutcome::Racy(name, reports) => racy_programs.push((name, reports)),
            CaseOutcome::CompileFailed => compile_failures += 1,
            CaseOutcome::Ran(r) => records.extend(r),
        }
    }

    let mut tally = Tally::new(labels.clone());
    for r in &records {
        tally.add(&r.analysis);
    }

    let total_runs = records.len() * backends.len();
    CampaignResult {
        labels,
        records,
        tally,
        racy_programs,
        compile_failures,
        wall_time: start.elapsed(),
        total_runs,
    }
}

std::thread_local! {
    /// One [`ExecScratch`] per worker thread, reused across every program
    /// the worker processes (scratch contents never affect outcomes —
    /// pinned by the `scratch_reuse` differential suite — so thread
    /// affinity cannot change any result).
    static WORKER_SCRATCH: std::cell::RefCell<ExecScratch> =
        std::cell::RefCell::new(ExecScratch::new());
}

/// The fused per-program unit: one shared compilation, then one oracle
/// step per input ([`oracle::CompiledSet::step`]), input 0's carrying the
/// §IV-E race filter — all inside one worker closure, through the worker's
/// reused [`ExecScratch`]. When `profile` is on, the program's VM hot-path
/// profile is harvested into the shared collector as the unit finishes
/// (install also strips stale profiles left in the thread-local scratch by
/// a previous profiled campaign).
fn run_one_case(
    index: usize,
    tc: &TestCase,
    config: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    obs: &Obs,
    profile: &ProfileCollector,
    sw: &mut Stopwatch<'_>,
) -> CaseOutcome {
    WORKER_SCRATCH.with(|s| {
        let scratch = &mut s.borrow_mut();
        profile.install(scratch);
        let outcome = run_one_case_with(index, tc, config, backends, scratch, obs, sw);
        profile.harvest(scratch);
        outcome
    })
}

fn run_one_case_with(
    index: usize,
    tc: &TestCase,
    config: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    scratch: &mut ExecScratch,
    obs: &Obs,
    sw: &mut Stopwatch<'_>,
) -> CaseOutcome {
    // One compilation per program: the program is lowered once, and the
    // bytecode form its optimization level runs is compiled once and fed
    // to every simulated backend — the three vendor binaries share it.
    let prepared = ompfuzz_exec::lower(&tc.program)
        .ok()
        .map(PreparedKernel::new);
    let compile_opts = CompileOptions {
        opt_level: config.opt_level,
    };
    let set = oracle::compile(&tc.program, backends, prepared.as_ref(), &compile_opts, obs);
    sw.lap(Phase::Compile);
    let Ok(set) = set else {
        // A program that does not compile everywhere cannot be compared.
        return CaseOutcome::CompileFailed;
    };

    // One allocation per program, refcounted into each record.
    let program_name: Arc<str> = Arc::from(tc.program.name.as_str());
    let mut records = Vec::with_capacity(tc.inputs.len());
    let mut run_metrics = oracle::RunMetricsBatch::new();
    // One oracle step per input, through the worker's one scratch: the
    // step interprets the input once, and a second time only for the
    // other branch semantics when that run tests a NaN with `!=`.
    for (input_index, input) in tc.inputs.iter().enumerate() {
        // §IV-E mitigation: drop data-racing programs before differential
        // analysis (the paper filtered them manually). Input 0's step
        // records races in the run the binaries make, and a program whose
        // IEEE run reports one is excluded; an aborted run gives no
        // verdict and the program stays.
        let run_opts = RunOptions {
            detect_races: config.filter_races && input_index == 0,
            ..config.run
        };
        let (results, races) = set.step(input, &run_opts, scratch, &mut run_metrics);
        if let Some(races) = races.filter(|races| !races.is_empty()) {
            sw.lap(Phase::Differential);
            run_metrics.flush(obs);
            obs.count(Counter::RaceFilterHits, 1);
            return CaseOutcome::Racy(program_name, races);
        }
        let observations: Vec<RunObservation> =
            results.iter().map(oracle::to_observation).collect();
        let analysis = analyze(&observations, &config.outlier);
        if analysis.correctness.is_some() || analysis.performance.is_some() {
            obs.count(Counter::OutlierRecords, 1);
        }
        records.push(RunRecord {
            program_index: index,
            program_name: Arc::clone(&program_name),
            input_index,
            observations,
            analysis,
        });
    }
    sw.lap(Phase::Differential);
    run_metrics.flush(obs);
    CaseOutcome::Ran(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::generate_corpus;
    use ompfuzz_backends::{standard_backends, SimBackend};
    use ompfuzz_gen::SharingMode;

    fn as_dyn(backends: &[SimBackend]) -> Vec<&dyn OmpBackend> {
        backends.iter().map(|b| b as &dyn OmpBackend).collect()
    }

    #[test]
    fn small_campaign_runs_and_is_deterministic() {
        let cfg = CampaignConfig::small();
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        let a = run_campaign(&cfg, &dyns, &Obs::off());
        let b = run_campaign(&cfg, &dyns, &Obs::off());
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.total_runs, b.total_runs);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.program_name, rb.program_name);
            assert_eq!(ra.analysis, rb.analysis);
            for (oa, ob) in ra.observations.iter().zip(&rb.observations) {
                assert_eq!(oa.status, ob.status);
                assert_eq!(oa.time_us, ob.time_us);
                // NaN-aware result equality (NaN == NaN here).
                assert_eq!(oa.result.map(f64::to_bits), ob.result.map(f64::to_bits));
            }
        }
        assert_eq!(a.labels, vec!["Intel", "Clang", "GCC"]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut cfg1 = CampaignConfig::small();
        cfg1.workers = 1;
        let mut cfg8 = CampaignConfig::small();
        cfg8.workers = 8;
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        let a = run_campaign(&cfg1, &dyns, &Obs::off());
        let b = run_campaign(&cfg8, &dyns, &Obs::off());
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.analysis, rb.analysis);
        }
    }

    #[test]
    fn legacy_mode_campaign_filters_racy_programs() {
        let mut cfg = CampaignConfig::small();
        cfg.generator.sharing_mode = SharingMode::Legacy;
        cfg.generator.legacy_race_probability = 0.9;
        cfg.generator.omp.parallel_block = 0.9;
        cfg.generator.omp.reduction = 0.0;
        cfg.programs = 30;
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        let result = run_campaign(&cfg, &dyns, &Obs::off());
        assert!(
            !result.racy_programs.is_empty(),
            "legacy campaign should catch races"
        );
        // Racy programs are excluded from the differential records.
        let racy: Vec<&str> = result.racy_programs.iter().map(|(n, _)| &**n).collect();
        assert!(result
            .records
            .iter()
            .all(|r| !racy.contains(&&*r.program_name)));
    }

    #[test]
    fn healthy_backends_produce_no_correctness_outliers() {
        use ompfuzz_backends::{BugModels, Vendor};
        let cfg = CampaignConfig::small();
        let backends = vec![
            SimBackend::with_bugs(Vendor::IntelLike, BugModels::none()),
            SimBackend::with_bugs(Vendor::ClangLike, BugModels::none()),
            SimBackend::with_bugs(Vendor::GccLike, BugModels::none()),
        ];
        let dyns = as_dyn(&backends);
        let result = run_campaign(&cfg, &dyns, &Obs::off());
        let correctness: u64 = (0..3)
            .map(|i| {
                result.tally.count(i, ompfuzz_outlier::OutlierKind::Crash)
                    + result.tally.count(i, ompfuzz_outlier::OutlierKind::Hang)
            })
            .sum();
        assert_eq!(correctness, 0);
    }

    /// Regression: `worst_outlier` ties must resolve by record identity
    /// (`(program_index, input_index)`), not by whatever order the records
    /// happen to occupy in the vector — the order a parallel driver
    /// discovers outliers in is scheduling-dependent.
    #[test]
    fn worst_outlier_tie_break_ignores_record_order() {
        use ompfuzz_outlier::{Analysis, CorrectnessOutlier, PerfOutlier};

        fn record(program_index: usize, input_index: usize, analysis: Analysis) -> RunRecord {
            RunRecord {
                program_index,
                program_name: format!("test_{program_index}").into(),
                input_index,
                observations: Vec::new(),
                analysis,
            }
        }
        let hang = Analysis {
            correctness: Some(CorrectnessOutlier::Hang { index: 0 }),
            ..Analysis::default()
        };
        let slow = |ratio| Analysis {
            performance: Some(PerfOutlier::Slow { index: 1, ratio }),
            ..Analysis::default()
        };
        // Two hangs tie on severity; the slow record never wins over them
        // regardless of its ratio.
        let records = vec![
            record(7, 1, hang),
            record(2, 0, slow(80.0)),
            record(3, 1, hang),
            record(3, 0, hang),
        ];
        let base = CampaignResult {
            labels: vec!["Intel".into(), "Clang".into(), "GCC".into()],
            records,
            tally: Tally::new(vec!["Intel".into(), "Clang".into(), "GCC".into()]),
            racy_programs: Vec::new(),
            compile_failures: 0,
            wall_time: std::time::Duration::ZERO,
            total_runs: 0,
        };
        let pick = |r: &CampaignResult| {
            let w = r.worst_outlier().expect("has outliers");
            (w.program_index, w.input_index)
        };
        assert_eq!(pick(&base), (3, 0));
        // Any permutation of the same records picks the same identity.
        let mut permuted = base;
        permuted.records.reverse();
        assert_eq!(pick(&permuted), (3, 0));
        permuted.records.swap(0, 2);
        assert_eq!(pick(&permuted), (3, 0));
        // Kind filtering keeps the same identity-based tie-break.
        let w = permuted
            .worst_outlier_of_kind(OutlierKind::Hang)
            .expect("hangs present");
        assert_eq!((w.program_index, w.input_index), (3, 0));
        // Among performance outliers the larger ratio wins before identity.
        let mut perf = permuted;
        perf.records = vec![record(5, 0, slow(2.0)), record(9, 1, slow(4.0))];
        assert_eq!(pick(&perf), (9, 1));
    }

    /// Both entry points run the one campaign loop: `run_campaign` equals
    /// `run_campaign_generated_with` over `0..mid` and over `mid..n` —
    /// records (global indices, names, analyses) and racy exclusions, in
    /// order — and the tests the latter returns are `generate_corpus`'s.
    /// The legacy config makes the racy exclusions non-empty.
    #[test]
    fn slice_records_match_the_full_run() {
        let mut legacy = CampaignConfig::small();
        legacy.generator.sharing_mode = SharingMode::Legacy;
        legacy.generator.legacy_race_probability = 0.9;
        legacy.generator.omp.parallel_block = 0.9;
        legacy.generator.omp.reduction = 0.0;
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        for (cfg, racy) in [(CampaignConfig::small(), false), (legacy, true)] {
            let full = run_campaign(&cfg, &dyns, &Obs::off());
            assert_eq!(!full.racy_programs.is_empty(), racy);
            let slice = |range| {
                run_campaign_generated_with(
                    &cfg,
                    &dyns,
                    range,
                    &|i| generate_case(&cfg, i),
                    Instant::now(),
                    &Obs::off(),
                    &ProfileCollector::off(),
                )
            };
            let mid = cfg.programs / 2;
            let (lo, lo_tests) = slice(0..mid);
            let (hi, hi_tests) = slice(mid..cfg.programs);
            assert_eq!(lo.records.len() + hi.records.len(), full.records.len());
            for (sliced, whole) in lo.records.iter().chain(&hi.records).zip(&full.records) {
                assert_eq!(sliced.program_index, whole.program_index);
                assert_eq!(sliced.program_name, whole.program_name);
                assert_eq!(sliced.input_index, whole.input_index);
                assert_eq!(sliced.analysis, whole.analysis);
            }
            let racy: Vec<_> = lo.racy_programs.iter().chain(&hi.racy_programs).collect();
            assert_eq!(racy.len(), full.racy_programs.len());
            for ((sliced_name, sliced), (whole_name, whole)) in
                racy.into_iter().zip(&full.racy_programs)
            {
                assert_eq!(sliced_name, whole_name);
                assert_eq!(sliced, whole);
            }
            let tests: Vec<TestCase> = lo_tests.into_iter().chain(hi_tests).collect();
            assert_eq!(tests, generate_corpus(&cfg));
        }
    }

    /// The acceptance invariant of the bytecode engine: campaign results
    /// are engine-independent — every record (status, time, result bits,
    /// analysis), the tally, and the race filter's exclusions are identical
    /// whether kernels run on the tree interpreter or the flat bytecode VM.
    #[test]
    fn campaign_results_are_engine_independent() {
        use ompfuzz_exec::ExecEngine;
        let mut tree_cfg = CampaignConfig::small();
        tree_cfg.run.engine = ExecEngine::Tree;
        let mut byte_cfg = CampaignConfig::small();
        byte_cfg.run.engine = ExecEngine::Bytecode;
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        let tree = run_campaign(&tree_cfg, &dyns, &Obs::off());
        let byte = run_campaign(&byte_cfg, &dyns, &Obs::off());
        assert_eq!(tree.records.len(), byte.records.len());
        assert_eq!(tree.total_runs, byte.total_runs);
        assert_eq!(tree.tally, byte.tally);
        assert_eq!(tree.racy_programs.len(), byte.racy_programs.len());
        for ((tn, tr), (bn, br)) in tree.racy_programs.iter().zip(&byte.racy_programs) {
            assert_eq!(tn, bn);
            assert_eq!(tr, br);
        }
        for (rt, rb) in tree.records.iter().zip(&byte.records) {
            assert_eq!(rt.program_name, rb.program_name);
            assert_eq!(rt.input_index, rb.input_index);
            assert_eq!(rt.analysis, rb.analysis);
            for (ot, ob) in rt.observations.iter().zip(&rb.observations) {
                assert_eq!(ot.status, ob.status);
                assert_eq!(ot.time_us, ob.time_us);
                assert_eq!(ot.result.map(f64::to_bits), ob.result.map(f64::to_bits));
            }
        }
    }

    /// `if (var_1 != var_1) { 20,000 × comp += 1 }; comp += 0.5`, with a
    /// NaN input, whose IEEE run tests a NaN with `!=`, and a plain one.
    fn nanfold_case() -> TestCase {
        use ompfuzz_ast::{
            AssignOp, Assignment, Block, BoolExpr, BoolOp, Expr, ForLoop, FpType, IfBlock, LValue,
            LoopBound, Param, Program, Stmt, VarRef,
        };
        use ompfuzz_inputs::{InputValue, TestInput};
        let comp_add = |value: f64| {
            Stmt::Assign(Assignment {
                target: LValue::Comp,
                op: AssignOp::AddAssign,
                value: Expr::fp_const(value),
            })
        };
        let mut program = Program::new(
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
                        body: Block::of_stmts(vec![comp_add(1.0)]),
                    })]),
                }),
                comp_add(0.5),
            ]),
        );
        program.name = "nanfold".into();
        let input = |v: f64| TestInput {
            comp_init: 0.0,
            values: vec![InputValue::Fp(v)],
        };
        TestCase::new(program, vec![input(f64::NAN), input(1.0)])
    }

    /// Each input is one oracle step, and a step interprets the input
    /// once: the Intel-like binary's IEEE run serves the Clang-like binary
    /// and, unless that run tested a NaN with `!=`, the GCC-like one too.
    /// At the paper config (`-O3`) the GCC-like binary absorbs NaN
    /// branches, so an input whose IEEE run made such a test costs a
    /// second interpretation (none if GCC's modelled crash fires first).
    /// At `-O0` every binary is IEEE: one interpretation per input.
    /// `nanfold`'s NaN input keeps the two-interpretation path pinned.
    /// Interpreting per binary would make it three.
    #[test]
    fn differential_unit_interprets_once_unless_a_nan_meets_ne() {
        use ompfuzz_backends::OptLevel;
        use ompfuzz_exec::{lower, ExecError, ExecLimits, ExecOptions};
        use ompfuzz_outlier::ExecStatus;
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        for opt_level in [OptLevel::O3, OptLevel::O0] {
            // The race filter is on: it rides input 0's step and adds no
            // interpretation.
            let mut cfg = CampaignConfig::paper();
            cfg.opt_level = opt_level;
            assert!(cfg.filter_races);
            let ieee = ExecOptions {
                limits: ExecLimits {
                    max_ops: cfg.run.max_ops,
                },
                ..ExecOptions::default()
            };
            let mut second_interpretations = 0;
            let cases = (0..8)
                .map(|i| generate_case(&cfg, i))
                .chain([nanfold_case()]);
            for (index, tc) in cases.enumerate() {
                let obs = Obs::metrics_only();
                let outcome = run_one_case_with(
                    index,
                    &tc,
                    &cfg,
                    &dyns,
                    &mut ExecScratch::new(),
                    &obs,
                    &mut obs.stopwatch(),
                );
                let CaseOutcome::Ran(records) = outcome else {
                    panic!("program {index} skipped the differential loop");
                };
                let prepared = PreparedKernel::new(lower(&tc.program).unwrap());
                let code = prepared.for_opt(opt_level >= OptLevel::O1);
                let expected: u64 = records
                    .iter()
                    .zip(&tc.inputs)
                    .map(|(record, input)| {
                        let tested_nan_ne = match code.run(input, &ieee, &mut ExecScratch::new()) {
                            Ok(outcome) => outcome.stats.nan_ne_tests > 0,
                            Err(ExecError::BudgetExceeded { tested_nan_ne, .. }) => tested_nan_ne,
                            Err(ExecError::InputMismatch(_)) => false,
                        };
                        let gcc_interprets = opt_level >= OptLevel::O2
                            && record.observations[2].status != ExecStatus::Crash;
                        1 + u64::from(tested_nan_ne && gcc_interprets)
                    })
                    .sum();
                let counters = obs.counters();
                assert_eq!(
                    counters.get(Counter::Interpretations),
                    expected,
                    "{} at {opt_level:?}",
                    tc.program.name
                );
                assert_eq!(
                    counters.get(Counter::DifferentialRuns),
                    3 * tc.inputs.len() as u64
                );
                second_interpretations += expected - tc.inputs.len() as u64;
            }
            // Premise: the two-interpretation path ran at -O3 only.
            assert_eq!(
                second_interpretations > 0,
                opt_level == OptLevel::O3,
                "{second_interpretations} second interpretations at {opt_level:?}"
            );
        }
    }

    /// Two threads add a 40-term constant sum to the shared `comp`, 500
    /// times each, with no reduction: a race whose plain kernel costs far
    /// more ops than the constant-folded one.
    fn racy_folding_case() -> TestCase {
        use ompfuzz_ast::{
            AssignOp, Assignment, BinOp, Block, Expr, ForLoop, LValue, LoopBound, OmpClauses,
            OmpParallel, Program, Stmt,
        };
        use ompfuzz_inputs::TestInput;
        let sum = (1..40).fold(Expr::fp_const(1.0), |sum, _| {
            Expr::binary(sum, BinOp::Add, Expr::fp_const(1.0))
        });
        let mut program = Program::new(
            vec![],
            Block::of_stmts(vec![Stmt::OmpParallel(OmpParallel {
                clauses: OmpClauses {
                    num_threads: Some(2),
                    ..OmpClauses::default()
                },
                prelude: vec![],
                body_loop: ForLoop {
                    omp_for: true,
                    var: "i".into(),
                    bound: LoopBound::Const(1000),
                    body: Block::of_stmts(vec![Stmt::Assign(Assignment {
                        target: LValue::Comp,
                        op: AssignOp::AddAssign,
                        value: sum,
                    })]),
                },
            })]),
        );
        program.name = "racy_folding".into();
        let input = TestInput {
            comp_init: 0.0,
            values: vec![],
        };
        TestCase::new(program, vec![input.clone(), input])
    }

    /// The race verdict is read off the run the binaries make. At `-O3`
    /// they run the constant-folded kernel, which fits the op budget and
    /// races, so the program is excluded; a separate check on the plain
    /// kernel ran out of budget and kept it. At `-O0` the binaries run the
    /// plain kernel: it aborts, which gives no verdict, and the program
    /// stays, every binary hanging on the budget alike.
    #[test]
    fn racy_program_is_judged_on_the_kernel_its_binaries_run() {
        use ompfuzz_backends::OptLevel;
        use ompfuzz_exec::{lower, ExecError, ExecLimits, ExecOptions};
        use ompfuzz_outlier::ExecStatus;
        let tc = racy_folding_case();
        let mut cfg = CampaignConfig::small();
        cfg.programs = 1;
        cfg.run.max_ops = 20_000;
        // Premise: under this budget the plain kernel aborts and the
        // folded one completes with a race.
        let prepared = PreparedKernel::new(lower(&tc.program).unwrap());
        let recording = ExecOptions {
            detect_races: true,
            limits: ExecLimits {
                max_ops: cfg.run.max_ops,
            },
            ..ExecOptions::default()
        };
        let run = |fold| {
            prepared
                .for_opt(fold)
                .run(&tc.inputs[0], &recording, &mut ExecScratch::new())
        };
        assert!(matches!(run(false), Err(ExecError::BudgetExceeded { .. })));
        let races = run(true).unwrap().races;
        assert!(!races.is_empty());

        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        for opt_level in [OptLevel::O3, OptLevel::O0] {
            cfg.opt_level = opt_level;
            let (result, _) = run_campaign_generated_with(
                &cfg,
                &dyns,
                0..1,
                &|_| tc.clone(),
                Instant::now(),
                &Obs::off(),
                &ProfileCollector::off(),
            );
            if opt_level == OptLevel::O3 {
                assert_eq!(
                    result.racy_programs,
                    vec![(Arc::from("racy_folding"), races.clone())]
                );
                assert!(result.records.is_empty());
            } else {
                assert!(result.racy_programs.is_empty());
                assert_eq!(result.records.len(), 2);
                assert!(result
                    .records
                    .iter()
                    .flat_map(|r| &r.observations)
                    .all(|o| o.status == ExecStatus::Hang));
            }
        }
    }

    #[test]
    fn record_grid_shape() {
        let cfg = CampaignConfig::small();
        let backends = standard_backends();
        let dyns = as_dyn(&backends);
        let result = run_campaign(&cfg, &dyns, &Obs::off());
        // Every surviving program contributes inputs_per_program records.
        let expected = (cfg.programs - result.racy_programs.len()) * cfg.inputs_per_program;
        assert_eq!(result.records.len(), expected);
        assert_eq!(result.total_runs, expected * 3);
        assert!(result.records.iter().all(|r| r.observations.len() == 3));
    }
}
