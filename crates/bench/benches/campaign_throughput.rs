//! End-to-end campaign throughput: programs/second through the full
//! front half (generate → lower/compile → differential runs, input 0's
//! step recording races for the §IV-E filter) of a sharded round, as the
//! pipelined driver runs it: each shard generates only its O(slice) of the
//! index-addressed corpus on the pool, and generation and every
//! differential run execute as one fused per-program worker closure
//! through a reused `ExecScratch`.
//!
//! The same fused campaign is then measured with **full telemetry**
//! installed (counters + phase timers + latency histograms + a JSONL sink
//! over a null writer) — the observability guard: the run fails if
//! telemetry costs more than [`MAX_TELEMETRY_OVERHEAD_PCT`] of throughput.
//! A third configuration stacks the **VM hot-path profiler** on top of full
//! telemetry (the everything-on introspection mode behind
//! `--profile-out`); its guard is [`MAX_INTROSPECTION_OVERHEAD_PCT`]. Both
//! instrumented runs must produce the records/racy/outlier counts of the
//! uninstrumented one (asserted). Results are written to
//! `BENCH_campaign.json` at the repository root. `OMPFUZZ_BENCH_QUICK=1`
//! shortens the measurement for the CI smoke step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::plan_shards;
use ompfuzz_exec::ProfileCollector;
use ompfuzz_harness::{generate_case, run_campaign_generated_with, CampaignConfig};
use ompfuzz_obs::{JsonlSink, Obs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shards per measured round — the paper's cluster-scale knob; 16 shards
/// over 8 workers models two rounds of oversubscribed cluster workers.
const SHARDS: usize = 16;
/// Worker threads of the sharded measurement.
const WORKERS: usize = 8;
/// Largest tolerated throughput cost of full telemetry (counters, phase
/// timers, latency histograms, JSONL sink), in percent of the
/// telemetry-off rate.
const MAX_TELEMETRY_OVERHEAD_PCT: f64 = 3.0;
/// Largest tolerated throughput cost of everything-on introspection (full
/// telemetry PLUS the per-opcode/per-block VM profiler), in percent of the
/// introspection-off rate.
const MAX_INTROSPECTION_OVERHEAD_PCT: f64 = 5.0;

/// The measured campaign: small-envelope programs (cheap runs, so the
/// front half matters — the generator-throughput-bound regime of large
/// sharded campaigns) at one input per program.
fn campaign_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.programs = 192;
    cfg.inputs_per_program = 1;
    cfg.seed = 20240;
    cfg.workers = WORKERS;
    cfg
}

/// `(records, racy, outliers)` of a campaign — the work signature that
/// instrumentation must leave unchanged.
type Signature = (usize, usize, usize);

fn signature(result: &ompfuzz_harness::CampaignResult) -> Signature {
    let outliers = result
        .records
        .iter()
        .filter(|r| r.outlier().is_some())
        .count();
    (result.records.len(), result.racy_programs.len(), outliers)
}

/// The pipelined driver through the public API: each shard runs a fused
/// campaign whose worker closures generate their own O(slice)
/// index-addressed tests and run them through one reused scratch — no
/// pre-materialized corpus anywhere.
fn run_pipelined(cfg: &CampaignConfig, backends: &[&dyn OmpBackend]) -> usize {
    plan_shards(cfg.programs, SHARDS)
        .into_iter()
        .map(|range| run_fused(cfg, backends, range, &Obs::off(), &ProfileCollector::off()).0)
        .sum()
}

/// The telemetry-overhead workload: the same campaign shape but 10x the
/// programs in ONE fused campaign (no shard loop) on ONE worker.
/// Telemetry's cost is *per program* (counter adds, phase clock reads,
/// progress ticks), so the guard isolates exactly that: a sharded
/// 192-program run spawns 16 worker pools in ~8ms and its pool-spawn
/// jitter drowns the signal, and oversubscribed workers on a small CI
/// host add scheduler churn that per-thread-striped counters cannot
/// influence either way.
fn overhead_config() -> CampaignConfig {
    let mut cfg = campaign_config();
    cfg.programs = 1920;
    cfg.workers = 1;
    cfg
}

/// One fused campaign over `range` with the given telemetry and profiler
/// handles. Passing an enabled `obs` installs full telemetry: counters,
/// phase timers, latency histograms and progress events through a JSONL
/// sink over a null writer (serialization cost included, terminal I/O
/// excluded — the part the pipeline is accountable for). Passing an
/// enabled `profile` stacks the VM hot-path profiler on top (the
/// everything-on introspection configuration).
fn run_fused(
    cfg: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    range: std::ops::Range<usize>,
    obs: &Obs,
    profile: &ProfileCollector,
) -> Signature {
    let (result, _slice) = run_campaign_generated_with(
        cfg,
        backends,
        range,
        &|i| generate_case(cfg, i),
        Instant::now(),
        obs,
        profile,
    );
    signature(&result)
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &std::path::Path,
    mode: &str,
    pipelined_pps: f64,
    telemetry_off_pps: f64,
    telemetry_on_pps: f64,
    overhead_pct: f64,
    introspection_pps: f64,
    introspection_pct: f64,
) {
    let json = format!(
        "{{\n  \"bench\": \"campaign_throughput\",\n  \
         \"workload\": \"sharded_campaign_front_half\",\n  \
         \"mode\": \"{mode}\",\n  \"shards\": {SHARDS},\n  \"workers\": {WORKERS},\n  \
         \"programs_per_round\": {},\n  \
         \"pipelined\": {{ \"programs_per_sec\": {:.1} }},\n  \
         \"telemetry_guard\": {{\n    \
         \"workload_programs\": {},\n    \
         \"telemetry_off\": {{ \"programs_per_sec\": {:.1} }},\n    \
         \"telemetry_on\": {{ \"programs_per_sec\": {:.1} }},\n    \
         \"overhead_pct\": {:.2},\n    \
         \"budget_pct\": {MAX_TELEMETRY_OVERHEAD_PCT:.1}\n  }},\n  \
         \"introspection_guard\": {{\n    \
         \"configuration\": \"telemetry + histograms + vm_profiler\",\n    \
         \"introspection_on\": {{ \"programs_per_sec\": {:.1} }},\n    \
         \"overhead_pct\": {:.2},\n    \
         \"budget_pct\": {MAX_INTROSPECTION_OVERHEAD_PCT:.1}\n  }}\n}}\n",
        campaign_config().programs,
        pipelined_pps,
        overhead_config().programs,
        telemetry_off_pps,
        telemetry_on_pps,
        overhead_pct,
        introspection_pps,
        introspection_pct,
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn bench_campaign(c: &mut Criterion) {
    let cfg = campaign_config();
    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let quick = std::env::var_os("OMPFUZZ_BENCH_QUICK").is_some();
    // The sharded rate is reported, not gated — a few samples settle it.
    // The telemetry guard needs many interleaved rounds (see the noise
    // discussion at its measurement loop below).
    let (mode, pipe_rounds, ov_rounds) = if quick {
        ("quick", 3, 96)
    } else {
        ("full", 6, 128)
    };

    // Full telemetry for the overhead guard: counters + timers + latency
    // histograms + a JSONL sink into the void. The introspection guard
    // stacks the VM profiler on top of the same Obs handle.
    let obs = Obs::with_sink(Arc::new(JsonlSink::new(std::io::sink())));
    let off = Obs::off();
    let no_profile = ProfileCollector::off();
    let vm_profile = ProfileCollector::enabled();
    let ov_cfg = overhead_config();
    let ov_range = || 0..ov_cfg.programs;

    // Identical work first (also warms all paths) — telemetry must be
    // strictly out-of-band.
    black_box(run_pipelined(&cfg, &dyns));
    let off_sig = run_fused(&ov_cfg, &dyns, ov_range(), &off, &no_profile);
    let on_sig = run_fused(&ov_cfg, &dyns, ov_range(), &obs, &no_profile);
    assert_eq!(
        off_sig, on_sig,
        "telemetry changed the campaign's records/racy/outlier counts"
    );
    let prof_sig = run_fused(&ov_cfg, &dyns, ov_range(), &obs, &vm_profile);
    assert_eq!(
        off_sig, prof_sig,
        "the VM profiler changed the campaign's records/racy/outlier counts"
    );
    assert!(
        !vm_profile.snapshot().is_empty(),
        "the profiled warmup campaign left the VM profile empty"
    );

    let mut best_pipe = 0f64;
    for _ in 0..pipe_rounds {
        let t = Instant::now();
        black_box(run_pipelined(&cfg, &dyns));
        best_pipe = best_pipe.max(cfg.programs as f64 / t.elapsed().as_secs_f64());
    }

    // The telemetry guard asserts a 3% bound on a shared host where one
    // 1,920-program run (~50 ms) takes up to 30% longer than the fastest
    // run of the same work, so every layer of the measurement defends
    // against one noise source:
    //   - the workload is the long fused campaign above, where
    //     per-program work (the thing telemetry adds to) dominates pool
    //     spawn jitter;
    //   - each round runs every configuration twice, interleaved in a
    //     palindrome (off, on, profiled, profiled, on, off; odd rounds
    //     start from the profiled end), so the three configurations see
    //     the same stretch of host state and no configuration holds a
    //     better position on average;
    //   - each configuration's time in a round is the MIN of its two runs
    //     — timing noise is one-sided (a run can only be slower than the
    //     floor), so the min tracks the floor;
    //   - the asserted overhead is the MEDIAN over rounds of the on/off
    //     ratio, robust to any single bad round.
    // Over 400 rounds recorded on a shared 2-core host and cut into
    // windows, this estimate spread with a standard deviation of 0.35
    // points per 96 rounds (0.66 per 48): about half the spread of a
    // median over geometrically paired rounds that run each
    // configuration's runs back to back.
    let mut best_off = 0f64;
    let mut best_on = 0f64;
    let mut best_prof = 0f64;
    let mut ratios = Vec::with_capacity(ov_rounds);
    let mut prof_ratios = Vec::with_capacity(ov_rounds);
    for round in 0..ov_rounds {
        // Index 0 is telemetry off, 1 full telemetry, 2 the VM profiler
        // stacked on full telemetry.
        let order = if round % 2 == 0 {
            [0, 1, 2, 2, 1, 0]
        } else {
            [2, 1, 0, 0, 1, 2]
        };
        let mut secs = [f64::INFINITY; 3];
        for config in order {
            let (telemetry, profile) = match config {
                0 => (&off, &no_profile),
                1 => (&obs, &no_profile),
                _ => (&obs, &vm_profile),
            };
            let t = Instant::now();
            black_box(run_fused(&ov_cfg, &dyns, ov_range(), telemetry, profile));
            secs[config] = secs[config].min(t.elapsed().as_secs_f64());
        }
        let rate = |secs: f64| ov_cfg.programs as f64 / secs;
        best_off = best_off.max(rate(secs[0]));
        best_on = best_on.max(rate(secs[1]));
        best_prof = best_prof.max(rate(secs[2]));
        ratios.push(secs[1] / secs[0]);
        prof_ratios.push(secs[2] / secs[0]);
    }
    ratios.sort_by(f64::total_cmp);
    prof_ratios.sort_by(f64::total_cmp);
    let overhead_pct = 100.0 * (ratios[ratios.len() / 2] - 1.0);
    let introspection_pct = 100.0 * (prof_ratios[prof_ratios.len() / 2] - 1.0);
    let quartiles = |sorted: &[f64]| {
        [1, 2, 3].map(|q| (sorted[q * sorted.len() / 4] * 1000.0).round() / 1000.0)
    };
    eprintln!(
        "per-round on/off ratio quartiles over {ov_rounds} rounds: telemetry {:?}, introspection {:?}",
        quartiles(&ratios),
        quartiles(&prof_ratios)
    );
    println!(
        "campaign front half ({} programs, {SHARDS} shards, {WORKERS} workers): \
         pipelined {best_pipe:.1} programs/s; telemetry guard ({} programs fused): \
         off {best_off:.1} programs/s, on {best_on:.1} programs/s ({overhead_pct:.2}% overhead), \
         with VM profiler {best_prof:.1} programs/s ({introspection_pct:.2}% overhead)",
        cfg.programs, ov_cfg.programs,
    );
    let json_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    write_json(
        &json_path,
        mode,
        best_pipe,
        best_off,
        best_on,
        overhead_pct,
        best_prof,
        introspection_pct,
    );
    assert!(
        overhead_pct <= MAX_TELEMETRY_OVERHEAD_PCT,
        "telemetry overhead {overhead_pct:.2}% exceeds the \
         {MAX_TELEMETRY_OVERHEAD_PCT}% budget ({best_off:.1} -> {best_on:.1} programs/s)"
    );
    assert!(
        introspection_pct <= MAX_INTROSPECTION_OVERHEAD_PCT,
        "introspection overhead {introspection_pct:.2}% exceeds the \
         {MAX_INTROSPECTION_OVERHEAD_PCT}% budget ({best_off:.1} -> {best_prof:.1} programs/s)"
    );

    let mut group = c.benchmark_group("campaign_throughput");
    if quick {
        group.sample_size(10);
    }
    group.throughput(Throughput::Elements(cfg.programs as u64));
    group.bench_function("pipelined_front_half", |b| {
        b.iter(|| black_box(run_pipelined(&cfg, &dyns)))
    });
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
