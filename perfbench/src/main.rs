//! `perfbench-replay`: the traced half of the benchmark driven by
//! `perfbench/run.py`.
//!
//! It reruns one workload's work through the program's own public entry
//! points with telemetry on: `run_campaign_generated_with` (per program:
//! generate, race filter, compile, differential runs, outlier analysis)
//! and `reduce_all_slice` (one timed `Reducer::reduce` per outlier). Each
//! gets its own `Obs` handle, so campaign and reducer counters stay apart,
//! and both record their phase spans into one `TraceBuffer`. The phase
//! times, counters and span durations are the program's own.
//!
//! Only the coordinator's round loop is rebuilt here, from the public
//! pieces it uses (`round_seed`, `GeneratorBias`, the `gen::validate`
//! eligibility filter, `mutate_kernel`/`mutant_seed`, `plan_shards`,
//! `fold_into_catalog`, `TriggerCatalog::merge`). That copy can drift from
//! `run_sharded_evolution_with`; `run.py` therefore compares the replay's
//! outputs (Table I plus the record CSV, or the catalog bytes) with the
//! untraced run's before it reports any per-layer number.
//!
//! ```text
//! perfbench-replay campaign --seed S --programs N --out DIR
//! perfbench-replay evolve [--quick] --seeds S1,S2,... --programs N --rounds R
//!                         --shards K --in-flight J --out DIR
//! ```
//!
//! Prints one JSON line: the replay's wall time and the per-layer metrics.
//! The program's spans go to `DIR/trace.json` (Chrome trace-event format).

use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::{
    fold_into_catalog, mutant_seed, mutate_kernel, plan_shards, reduce_all_slice, round_seed,
    BatchConfig, EvolveConfig, GeneratorBias, TriggerCatalog,
};
use ompfuzz_exec::ProfileCollector;
use ompfuzz_harness::{
    generate_case, run_campaign_generated_with, CampaignConfig, CampaignResult, TestCase,
};
use ompfuzz_inputs::InputGenerator;
use ompfuzz_obs::{Counter, Obs, Phase, TraceBuffer, Value};
use ompfuzz_outlier::analyze;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The reducer's passes, in the order `Reducer::reduce` runs them.
const PASSES: [&str; 5] = ["ddmin", "loop-trips", "clauses", "exprs", "params"];

/// What the program's `Obs` does not split out, summed by the replay.
#[derive(Default)]
struct Totals {
    /// Reducer (checks, accepted) per pass, over every reduction.
    passes: BTreeMap<&'static str, (u64, u64)>,
    /// `analyze` calls of the campaigns (one per record) and their time,
    /// re-timed on the records' observations: the program times them
    /// inside the differential phase.
    analyze_calls: u64,
    analyze_s: f64,
    /// Round preparation (bias steer, eligible kernels), which the
    /// program does not time.
    prep_s: f64,
    kernels: u64,
    new_skeletons: u64,
}

/// Shared state of one replay.
struct Replay<'a> {
    backends: &'a [&'a dyn OmpBackend],
    trace: Arc<TraceBuffer>,
    /// Handed to `run_campaign_generated_with`.
    campaign_obs: Obs,
    /// Handed to `reduce_all_slice`; also times catalog folds and merges.
    reduce_obs: Obs,
    totals: Mutex<Totals>,
}

impl Replay<'_> {
    fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals
            .lock()
            .expect("totals poisoned by a panicking job")
    }

    /// One campaign over `range`, exactly as the program runs it.
    fn campaign(
        &self,
        cfg: &CampaignConfig,
        range: Range<usize>,
        gen: &(dyn Fn(usize) -> TestCase + Sync),
    ) -> (CampaignResult, Vec<TestCase>) {
        let out = run_campaign_generated_with(
            cfg,
            self.backends,
            range,
            gen,
            Instant::now(),
            &self.campaign_obs,
            &ProfileCollector::off(),
        );
        let started = Instant::now();
        for r in &out.0.records {
            std::hint::black_box(analyze(&r.observations, &cfg.outlier));
        }
        let mut totals = self.totals();
        totals.analyze_s += started.elapsed().as_secs_f64();
        totals.analyze_calls += out.0.records.len() as u64;
        out
    }

    /// One evolution the way `run_sharded_evolution_with` runs it without
    /// a checkpoint directory: per round, the steered campaign and its
    /// fresh and mutant slots; per shard, the slice campaign, its batch
    /// reduction and the fold into a shard catalog; then the merge in
    /// shard order.
    fn evolve(&self, config: &EvolveConfig, shards: usize) -> TriggerCatalog {
        let mut catalog = TriggerCatalog::new();
        for round in 0..config.rounds {
            let prep = Instant::now();
            let mut campaign = config.base.clone();
            campaign.seed = round_seed(config.base.seed, round);
            if config.bias_strength > 0.0 {
                if let Some(bias) = GeneratorBias::from_catalog(&catalog, config.bias_strength) {
                    campaign.generator = bias.steer(&config.base.generator);
                }
            }
            // Only kernels inside the round's generator envelope seed
            // mutants.
            let kernels: Vec<&ompfuzz_ast::Program> = catalog
                .kernels()
                .filter(|k| {
                    ompfuzz_gen::validate::grammar_errors(&k.program).is_empty()
                        && ompfuzz_gen::validate::limit_errors(&k.program, &campaign.generator)
                            .is_empty()
                })
                .map(|k| &k.program)
                .collect();
            let mutants = if kernels.is_empty() {
                0
            } else {
                ((campaign.programs as f64 * config.mutation_fraction.clamp(0.0, 1.0)).floor()
                    as usize)
                    .min(campaign.programs)
            };
            let fresh = campaign.programs - mutants;
            self.totals().prep_s += prep.elapsed().as_secs_f64();
            let gen = |i: usize| -> TestCase {
                if i < fresh {
                    return generate_case(&campaign, i);
                }
                let mut program = mutate_kernel(
                    kernels[(i - fresh) % kernels.len()],
                    &campaign.generator,
                    mutant_seed(campaign.seed, i),
                    config.edits_per_mutant,
                );
                program.name = format!("test_{i}");
                program.seed = campaign.seed;
                let mut ig =
                    InputGenerator::with_mix(campaign.seed + 1, campaign.generator.input_mix);
                ig.reseed_indexed(campaign.seed + 1, i);
                let inputs = ig.generate_samples(&program, campaign.inputs_per_program);
                TestCase::new(program, inputs)
            };
            let shard_catalogs: Vec<TriggerCatalog> = plan_shards(campaign.programs, shards)
                .into_iter()
                .map(|range| {
                    let (result, slice) = self.campaign(&campaign, range.clone(), &gen);
                    let batch = reduce_all_slice(
                        &slice,
                        range.start,
                        &result,
                        self.backends,
                        &BatchConfig::for_campaign(&campaign),
                        &self.reduce_obs,
                    );
                    let mut totals = self.totals();
                    for p in batch.reduced.iter().flat_map(|r| &r.outcome.passes) {
                        let entry = totals.passes.entry(p.pass).or_default();
                        entry.0 += p.checks as u64;
                        entry.1 += p.accepted as u64;
                    }
                    drop(totals);
                    let mut shard_catalog = TriggerCatalog::new();
                    self.reduce_obs.time(Phase::CatalogMerge, || {
                        fold_into_catalog(&mut shard_catalog, &batch, campaign.seed, round)
                    });
                    shard_catalog
                })
                .collect();
            let new_skeletons: usize = self.reduce_obs.time(Phase::CatalogMerge, || {
                shard_catalogs.into_iter().map(|c| catalog.merge(c)).sum()
            });
            self.totals().new_skeletons += new_skeletons as u64;
        }
        self.totals().kernels += catalog.len() as u64;
        catalog
    }
}

/// Median of an ascending slice (mean of the middle pair for even n).
fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of an ascending slice with at least ten samples
/// beyond it, as `(value, percentile)`; `(0, 0)` when that percentile would
/// not reach the median (fewer than 20 samples), where it is no tail.
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 20 {
        return (0.0, 0.0);
    }
    let rank = n - 10;
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Durations in seconds of the program's spans of `phase`, read from the
/// trace document (`TraceBuffer` exposes its spans only as JSON).
fn span_durations(json: &str, phase: Phase) -> Result<Vec<f64>, String> {
    let events = json
        .trim()
        .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .ok_or("unexpected trace document layout")?;
    let events = events
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or("");
    let mut out = Vec::new();
    // Every event is a flat object, so `},{` only ever separates two of
    // them; parsing them one by one keeps a large trace cheap.
    for event in events.split("},{").filter(|e| !e.is_empty()) {
        let e = Value::parse(&format!("{{{event}}}"))?;
        if e.get("name").and_then(Value::as_str) == Some(phase.key()) {
            let us = e
                .get("dur")
                .and_then(Value::as_u64)
                .ok_or("span without dur")?;
            out.push(us as f64 / 1e6);
        }
    }
    out.sort_by(f64::total_cmp);
    Ok(out)
}

/// Metric rows: (name, value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

fn layer_metrics(replay: &Replay, trace_json: &str) -> Result<Metrics, String> {
    let cp = replay.campaign_obs.phases();
    let rp = replay.reduce_obs.phases();
    let cc = replay.campaign_obs.counters();
    let rc = replay.reduce_obs.counters();
    let calls = |phase| cp.calls(phase) as f64;
    let busy = |phase| cp.nanos(phase) as f64 * 1e-9;
    let t = replay.totals();
    let durations = span_durations(trace_json, Phase::Reduce)?;
    let (tail_s, tail_pct) = tail(&durations);
    let vm_ops = cc.get(Counter::VmOps) as f64;
    let diff_busy = busy(Phase::Differential);
    let (pass_checks, pass_accepted) = t
        .passes
        .values()
        .fold((0, 0), |(c, a), (pc, pa)| (c + pc, a + pa));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m: Metrics = vec![
        ("gen.calls".into(), calls(Phase::Generate), "count"),
        ("gen.busy_s".into(), busy(Phase::Generate), "s"),
        ("exec.compile_calls".into(), calls(Phase::Compile), "count"),
        ("exec.compile_busy_s".into(), busy(Phase::Compile), "s"),
        (
            "harness.race_calls".into(),
            calls(Phase::RaceFilter),
            "count",
        ),
        ("harness.race_busy_s".into(), busy(Phase::RaceFilter), "s"),
        (
            "harness.racy".into(),
            cc.get(Counter::RaceFilterHits) as f64,
            "count",
        ),
        (
            "backends.diff_calls".into(),
            calls(Phase::Differential),
            "count",
        ),
        (
            "backends.diff_runs".into(),
            cc.get(Counter::DifferentialRuns) as f64,
            "count",
        ),
        ("backends.diff_busy_s".into(), diff_busy, "s"),
        ("backends.vm_ops".into(), vm_ops, "count"),
        (
            "backends.vm_ops_per_s".into(),
            ratio(vm_ops, diff_busy),
            "1/s",
        ),
        (
            "backends.budget_aborts".into(),
            cc.get(Counter::BudgetAborts) as f64,
            "count",
        ),
        ("outlier.calls".into(), t.analyze_calls as f64, "count"),
        ("outlier.busy_s".into(), t.analyze_s, "s"),
        (
            "outlier.records".into(),
            cc.get(Counter::OutlierRecords) as f64,
            "count",
        ),
        (
            "reduce.calls".into(),
            rp.calls(Phase::Reduce) as f64,
            "count",
        ),
        (
            "reduce.busy_s".into(),
            rp.nanos(Phase::Reduce) as f64 * 1e-9,
            "s",
        ),
        ("reduce.p50_s".into(), median(&durations), "s"),
        ("reduce.tail_s".into(), tail_s, "s"),
        ("reduce.tail_pct".into(), tail_pct, "%"),
        (
            "reduce.max_s".into(),
            durations.last().copied().unwrap_or(0.0),
            "s",
        ),
        (
            "reduce.checks".into(),
            rc.get(Counter::ReducerCandidateChecks) as f64,
            "count",
        ),
        (
            "reduce.accept_ratio".into(),
            ratio(pass_accepted as f64, pass_checks as f64),
            "ratio",
        ),
        (
            "reduce.vm_ops".into(),
            rc.get(Counter::VmOps) as f64,
            "count",
        ),
        (
            "reduce.compiles".into(),
            rc.get(Counter::Compiles) as f64,
            "count",
        ),
        (
            "reduce.budget_aborts".into(),
            rc.get(Counter::BudgetAborts) as f64,
            "count",
        ),
    ];
    for pass in PASSES {
        let (checks, accepted) = t.passes.get(pass).copied().unwrap_or((0, 0));
        m.push((format!("reduce.{pass}.checks"), checks as f64, "count"));
        m.push((format!("reduce.{pass}.accepted"), accepted as f64, "count"));
    }
    m.push((
        "corpus.busy_s".into(),
        rp.nanos(Phase::CatalogMerge) as f64 * 1e-9 + t.prep_s,
        "s",
    ));
    m.push(("corpus.kernels".into(), t.kernels as f64, "count"));
    m.push((
        "corpus.new_skeletons".into(),
        t.new_skeletons as f64,
        "count",
    ));
    Ok(m)
}

/// `--flag value` lookup.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let v = opt(args, flag).ok_or_else(|| format!("missing {flag}"))?;
    v.parse()
        .map_err(|_| format!("invalid value for {flag}: {v}"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args
        .split_first()
        .ok_or("usage: perfbench-replay campaign|evolve ...")?;
    let out = PathBuf::from(opt(rest, "--out").ok_or("missing --out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let programs: usize = parsed(rest, "--programs")?;
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let trace = Arc::new(TraceBuffer::new());
    let replay = Replay {
        backends: &dyns,
        campaign_obs: Obs::with_sink_and_trace(None, Some(trace.clone())),
        reduce_obs: Obs::with_sink_and_trace(None, Some(trace.clone())),
        trace,
        totals: Mutex::new(Totals::default()),
    };
    let started = Instant::now();
    match mode.as_str() {
        "campaign" => {
            // `ompfuzz campaign --seed S --programs N`: the paper config.
            let mut cfg = CampaignConfig::paper();
            cfg.programs = programs;
            cfg.seed = parsed(rest, "--seed")?;
            let (result, _) = replay.campaign(&cfg, 0..programs, &|i| generate_case(&cfg, i));
            // `ompfuzz campaign` prints Table I with `println!`.
            write(
                &out.join("table1.txt"),
                &format!("{}\n", ompfuzz_report::render_table1(&result)),
            )?;
            write(
                &out.join("records.csv"),
                &ompfuzz_report::campaign_to_csv(&result),
            )?;
        }
        "evolve" => {
            let quick = rest.iter().any(|a| a == "--quick");
            let rounds: usize = parsed(rest, "--rounds")?;
            let shards: usize = parsed(rest, "--shards")?;
            let in_flight: usize = parsed(rest, "--in-flight")?;
            let seeds: Vec<u64> = opt(rest, "--seeds")
                .ok_or("missing --seeds")?
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("invalid seed {s:?}")))
                .collect::<Result<_, String>>()?;
            // `in_flight` jobs at a time, the next one starting when one
            // ends, as the closed-loop serve client submits them.
            let next = AtomicUsize::new(0);
            let job = || -> Result<(), String> {
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&seed) = seeds.get(j) else {
                        return Ok(());
                    };
                    // Mirrors `ompfuzz evolve [--quick] --seed S --programs
                    // N --rounds R --shards K` (and a served job of the
                    // same spec).
                    let mut base = if quick {
                        EvolveConfig::quick().base
                    } else {
                        CampaignConfig::paper()
                    };
                    base.seed = seed;
                    base.programs = programs;
                    let mut config = EvolveConfig::new(base);
                    config.rounds = rounds;
                    let catalog = replay.evolve(&config, shards);
                    write(
                        &out.join(format!("catalog-{j}.txt")),
                        &catalog.save_to_string(),
                    )?;
                }
            };
            std::thread::scope(|s| {
                let lanes: Vec<_> = (0..in_flight.max(1)).map(|_| s.spawn(job)).collect();
                lanes.into_iter().try_for_each(|lane| {
                    lane.join()
                        .map_err(|_| "a replay job panicked".to_string())?
                })
            })?;
        }
        other => return Err(format!("unknown mode {other:?} (campaign|evolve)")),
    }
    let wall_s = started.elapsed().as_secs_f64();
    let trace_json = replay.trace.to_json();
    write(&out.join("trace.json"), &trace_json)?;
    let metrics = layer_metrics(&replay, &trace_json)?;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"wall_s\":{wall_s},\"spans\":{},\"metrics\":{{{}}}}}",
        replay.trace.len(),
        body.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_and_stays_above_the_median() {
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let (value, pct) = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 200.0 / 3.0).abs() < 1e-9);
        assert!(value >= median(&xs));
        // 13 samples would put the "tail" at p23, below the median.
        assert_eq!(tail(&xs[..13]), (0.0, 0.0));
        assert_eq!(tail(&xs[..20]).1, 50.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn span_durations_reads_the_program_trace() {
        let trace = TraceBuffer::new();
        trace.record(0, Phase::Reduce, std::time::Duration::from_micros(300));
        trace.record(0, Phase::Generate, std::time::Duration::from_micros(7));
        trace.record(1, Phase::Reduce, std::time::Duration::from_micros(100));
        assert_eq!(
            span_durations(&trace.to_json(), Phase::Reduce).unwrap(),
            vec![100e-6, 300e-6]
        );
    }
}
