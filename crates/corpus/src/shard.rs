//! Shard planning and execution: one evolution round split into contiguous
//! corpus slices that can run in separate processes (or hosts) and merge
//! back into the exact catalog the unsharded round would have produced.
//!
//! The invariant everything here defends: **the final catalog is a pure
//! function of `(config, seed)`, never of the shard count**. It holds
//! because
//!
//! * every test of the round corpus is index-addressed — a pure function
//!   of `(config, seed, index)` — so a shard generates **only its slice**
//!   (O(slice) work, not O(corpus) per shard) and still holds exactly the
//!   tests the whole-corpus build would put in its range;
//! * per-record analysis never looks across programs, so a slice campaign
//!   ([`run_campaign_generated_with`] over the shard's range) produces
//!   exactly the full run's records for its range, with global indices;
//! * [`TriggerCatalog::merge`] keeps the existing (earlier) witness, so
//!   merging shard catalogs **in shard order** reproduces the sequential
//!   first-witness-wins fold over the whole record stream.
//!
//! The [`coordinator`](crate::coordinator) module layers checkpointing and
//! resume on top of these pieces.

use crate::batch::{fold_into_catalog, reduce_all_slice, BatchConfig};
use crate::catalog::TriggerCatalog;
use crate::store::{self, Node, StoreError};
use ompfuzz_backends::OmpBackend;
use ompfuzz_exec::ProfileCollector;
use ompfuzz_harness::{run_campaign_generated_with, CampaignConfig, TestCase};
use ompfuzz_obs::{Counter, CounterSnapshot, Obs, Phase};
use std::ops::Range;
use std::time::Instant;

/// Split `len` items into `shards` contiguous, non-overlapping ranges that
/// cover `0..len` in order. The first `len % shards` shards carry one extra
/// item; with more shards than items the tail shards are empty (an empty
/// shard runs a zero-program campaign and contributes an empty catalog).
/// `shards == 0` is treated as 1.
pub fn plan_shards(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// What one shard of one round did (the per-shard slice of
/// [`RoundSummary`](crate::RoundSummary)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Evolution round the shard belongs to.
    pub round: usize,
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Total shards the round was planned for.
    pub shards: usize,
    /// Global corpus range `[start, end)` the shard covered.
    pub start: usize,
    /// End of the range (exclusive).
    pub end: usize,
    /// Mutated catalog kernels inside the range.
    pub mutants: usize,
    /// Programs the race filter excluded.
    pub racy: usize,
    /// Outlier records the slice campaign produced.
    pub outlier_records: usize,
    /// Outliers successfully reduced.
    pub reduced: usize,
}

impl ShardSummary {
    /// Programs in the shard's range.
    pub fn programs(&self) -> usize {
        self.end - self.start
    }
}

/// One executed shard: its accounting plus the catalog folded from its own
/// reduced outliers (deduplicated *within* the shard only — the coordinator
/// merges across shards and rounds).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    pub summary: ShardSummary,
    pub catalog: TriggerCatalog,
    /// The shard's deterministic telemetry counters. Embedded in the
    /// checkpoint file so a resumed campaign's merged totals match a fresh
    /// run's; shard snapshots merge by addition in any order.
    pub metrics: CounterSnapshot,
}

/// Position of one shard within a campaign: which round, which shard of
/// how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCoords {
    pub round: usize,
    pub shard: usize,
    pub shards: usize,
}

/// Run one planned shard of a round: fused campaign over `range` —
/// per-program generation through `gen`, race filter and differential runs
/// in one worker closure — then batch reduction of its outliers, folded
/// into a fresh per-shard catalog.
///
/// `campaign` must be the round's campaign (seed stepped, generator
/// steered) and `gen` the round's index-addressed slot generator
/// ([`round_case_fn`](crate::evolve)): the shard generates **only its
/// slice**, O(slice) work instead of the O(corpus) full-corpus rebuild
/// per shard the pre-pipelining driver paid. The slice campaign stamps
/// global indices and the reducer resolves them back through
/// `range.start`, so catalog provenance matches the unsharded run
/// exactly. `fresh` is the global index of the first mutant slot.
///
/// Telemetry: the shard runs on a [`fork_for_shard`](Obs::fork_for_shard)
/// of `obs` (trace spans carry the shard index as their `pid` lane), so
/// its counters snapshot independently into [`ShardOutcome::metrics`] (the
/// coordinator absorbs them — ran or cached — so totals are
/// resume-invariant); wall-clock phase timings and latency histograms are
/// absorbed back into `obs` directly, because they must never enter
/// checkpoint bytes. Likewise the VM profile flows through the in-process
/// `profile` collector only, never the checkpoint file.
#[allow(clippy::too_many_arguments)]
pub fn run_planned_shard(
    campaign: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    gen: &(dyn Fn(usize) -> TestCase + Sync),
    fresh: usize,
    range: Range<usize>,
    coords: ShardCoords,
    obs: &Obs,
    profile: &ProfileCollector,
) -> ShardOutcome {
    let shard_obs = obs.fork_for_shard(coords.shard as u64);
    let (result, slice) = run_campaign_generated_with(
        campaign,
        backends,
        range.clone(),
        gen,
        Instant::now(),
        &shard_obs,
        profile,
    );
    // Mutants occupy the corpus tail `[fresh, len)`; count the overlap
    // with this shard's range.
    let mutants = range.end - fresh.clamp(range.start, range.end);
    shard_obs.count(Counter::MutantsGenerated, mutants as u64);
    let batch = reduce_all_slice(
        &slice,
        range.start,
        &result,
        backends,
        &BatchConfig::for_campaign(campaign),
        &shard_obs,
    );
    let mut catalog = TriggerCatalog::new();
    shard_obs.time(Phase::CatalogMerge, || {
        fold_into_catalog(&mut catalog, &batch, campaign.seed, coords.round)
    });
    obs.absorb_phases(&shard_obs.phases());
    obs.absorb_hists(&shard_obs.hists());
    ShardOutcome {
        summary: ShardSummary {
            round: coords.round,
            shard: coords.shard,
            shards: coords.shards,
            start: range.start,
            end: range.end,
            mutants,
            racy: result.racy_programs.len(),
            outlier_records: result
                .records
                .iter()
                .filter(|r| r.outlier().is_some())
                .count(),
            reduced: batch.reduced.len(),
        },
        catalog,
        metrics: shard_obs.counters(),
    }
}

// ---------------------------------------------------------------------------
// Shard checkpoint files
// ---------------------------------------------------------------------------

/// Serialize a shard outcome as a checkpoint file: a `(shard ...)` header
/// (stamped with the campaign fingerprint so stale files are detected),
/// the shard's deterministic telemetry counters, then the shard's catalog.
/// Byte-deterministic, like the catalog itself — re-running a shard
/// rewrites the identical file. Only *deterministic* counters enter the
/// file; wall-clock phase timings never do.
pub fn write_shard_file(outcome: &ShardOutcome, fingerprint: u64) -> String {
    let s = &outcome.summary;
    format!(
        "; ompfuzz shard checkpoint v2\n\
         (shard v2 {fingerprint} {} {} {} {} {} {} {} {} {})\n{}\n{}",
        s.round,
        s.shard,
        s.shards,
        s.start,
        s.end,
        s.mutants,
        s.racy,
        s.outlier_records,
        s.reduced,
        metrics_line(&outcome.metrics),
        outcome.catalog.save_to_string()
    )
}

/// The checkpoint's counters: `(metrics (programs_generated 3) ...)`, one
/// keyed pair per counter in slot order, so the line is byte-stable under
/// write → read → write.
fn metrics_line(metrics: &CounterSnapshot) -> String {
    let mut line = String::from("(metrics");
    for (counter, value) in metrics.iter() {
        line.push_str(&format!(" ({} {value})", counter.key()));
    }
    line.push(')');
    line
}

/// Read a counter snapshot off its parsed `(metrics (key value) ...)`
/// node. Unknown keys are skipped (a checkpoint from a later build) and
/// missing keys read 0 (one from before the counter existed).
fn metrics_from_node(node: &Node) -> Result<CounterSnapshot, StoreError> {
    let mut metrics = CounterSnapshot::default();
    for pair in node.tagged("metrics")? {
        let [key, value] = pair.as_list()? else {
            return Err(StoreError("metrics entry needs (key value)".into()));
        };
        let key = key.as_atom()?;
        let value = value.parse_atom::<u64>("metric value")?;
        if let Some(counter) = Counter::from_key(key) {
            metrics.set(counter, value);
        }
    }
    Ok(metrics)
}

/// Parse a file written by [`write_shard_file`]; returns the recorded
/// fingerprint alongside the outcome so callers can reject stale
/// checkpoints.
pub fn read_shard_file(text: &str) -> Result<(u64, ShardOutcome), StoreError> {
    let nodes = store::parse_nodes(text)?;
    let [header, metrics, catalog] = nodes.as_slice() else {
        return Err(StoreError(format!(
            "shard file needs (shard ...), (metrics ...), then (catalog ...), \
             found {} forms",
            nodes.len()
        )));
    };
    let rest = header.tagged("shard")?;
    let [version, fingerprint, round, shard, shards, start, end, mutants, racy, outliers, reduced] =
        rest
    else {
        return Err(StoreError(
            "shard header needs (shard v2 fingerprint round shard shards \
             start end mutants racy outliers reduced)"
                .into(),
        ));
    };
    if version != &Node::Atom("v2".into()) {
        return Err(StoreError("unsupported shard file version".into()));
    }
    let summary = ShardSummary {
        round: round.parse_atom("round")?,
        shard: shard.parse_atom("shard index")?,
        shards: shards.parse_atom("shard count")?,
        start: start.parse_atom("range start")?,
        end: end.parse_atom("range end")?,
        mutants: mutants.parse_atom("mutant count")?,
        racy: racy.parse_atom("racy count")?,
        outlier_records: outliers.parse_atom("outlier count")?,
        reduced: reduced.parse_atom("reduced count")?,
    };
    Ok((
        fingerprint.parse_atom("fingerprint")?,
        ShardOutcome {
            summary,
            catalog: TriggerCatalog::from_node(catalog)?,
            metrics: metrics_from_node(metrics)?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_contiguous_and_cover_the_corpus() {
        for (len, shards) in [(40, 1), (40, 4), (41, 4), (7, 3), (100, 7)] {
            let plan = plan_shards(len, shards);
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, len);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{len}/{shards}: {plan:?}");
            }
            // Balanced: sizes differ by at most one, larger shards first.
            let sizes: Vec<usize> = plan.iter().map(|r| r.len()).collect();
            assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
            assert!(sizes[0] - sizes.last().unwrap() <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn empty_corpus_plans_empty_shards() {
        let plan = plan_shards(0, 3);
        assert_eq!(plan, vec![0..0, 0..0, 0..0]);
    }

    #[test]
    fn more_shards_than_programs_leaves_tail_shards_empty() {
        let plan = plan_shards(2, 5);
        assert_eq!(plan, vec![0..1, 1..2, 2..2, 2..2, 2..2]);
    }

    #[test]
    fn zero_shards_degrades_to_one() {
        assert_eq!(plan_shards(9, 0), vec![0..9]);
    }

    #[test]
    fn shard_files_round_trip() {
        use crate::catalog::{Provenance, TriggerKernel};
        use ompfuzz_ast::{Block, FpType, Param, Program};

        let mut catalog = TriggerCatalog::new();
        let mut program = Program::new(vec![Param::fp(FpType::F64, "var_1")], Block(Vec::new()));
        program.name = "test_3".into();
        catalog.insert(TriggerKernel {
            program,
            input: ompfuzz_inputs::TestInput {
                comp_init: 0.5,
                values: vec![ompfuzz_inputs::InputValue::Fp(2.0)],
            },
            kind: ompfuzz_outlier::OutlierKind::Slow,
            backend: 1,
            provenance: Provenance {
                seed: 9,
                round: 1,
                source_program: "test_3".into(),
                program_index: 3,
                input_index: 0,
            },
        });
        let reg = ompfuzz_obs::MetricsRegistry::new();
        reg.add(Counter::ProgramsGenerated, 10);
        reg.add(Counter::DifferentialRuns, 90);
        let outcome = ShardOutcome {
            summary: ShardSummary {
                round: 1,
                shard: 2,
                shards: 4,
                start: 20,
                end: 30,
                mutants: 3,
                racy: 1,
                outlier_records: 5,
                reduced: 4,
            },
            catalog,
            metrics: reg.snapshot(),
        };
        let text = write_shard_file(&outcome, 0xDEAD_BEEF);
        assert!(
            text.contains("\n(metrics (programs_generated 10) (mutants_generated 0)"),
            "{text}"
        );
        let (fingerprint, back) = read_shard_file(&text).expect("parses");
        assert_eq!(fingerprint, 0xDEAD_BEEF);
        assert_eq!(back.summary, outcome.summary);
        assert_eq!(back.catalog, outcome.catalog);
        assert_eq!(back.metrics, outcome.metrics);
        // Byte-stable: rewriting the reload reproduces the file.
        assert_eq!(write_shard_file(&back, fingerprint), text);
    }

    #[test]
    fn malformed_shard_files_are_rejected() {
        let metrics = "(metrics)";
        for bad in [
            String::new(),
            // Header without metrics/catalog.
            "(shard v2 1 0 0 1 0 10 0 0 0 0)".into(),
            // v1 (pre-metrics) files are a different format, not silently
            // zero-filled.
            format!("(shard v1 1 0 0 1 0 10 0 0 0 0)\n{metrics}\n(catalog v1 0)"),
            // Missing metrics form.
            "(shard v2 1 0 0 1 0 10 0 0 0 0)\n(catalog v1 0)".into(),
            format!("(shard v2 0 0 1)\n{metrics}\n(catalog v1 0)"),
            "(shard v2 1 0 0 1 0 10 0 0 0 0)\n(metrics (compiles x))\n(catalog v1 0)".into(),
            format!("(catalog v1 0)\n{metrics}\n(catalog v1 0)"),
        ] {
            assert!(read_shard_file(&bad).is_err(), "`{bad}` should fail");
        }
    }

    /// A checkpoint with an empty catalog and the given metrics form.
    fn shard_file_with_metrics(metrics: &str) -> Result<CounterSnapshot, StoreError> {
        let text = format!("(shard v2 1 0 0 1 0 10 0 0 0 0)\n{metrics}\n(catalog v1 0)");
        read_shard_file(&text).map(|(_, outcome)| outcome.metrics)
    }

    #[test]
    fn metrics_line_round_trips() {
        let reg = ompfuzz_obs::MetricsRegistry::new();
        reg.add(Counter::ProgramsGenerated, 40);
        reg.add(Counter::NewSkeletons, 3);
        let snap = reg.snapshot();
        let line = metrics_line(&snap);
        assert!(
            line.starts_with("(metrics (programs_generated 40)"),
            "{line}"
        );
        let back = shard_file_with_metrics(&line).expect("parses");
        assert_eq!(back, snap);
        // Byte stability: read → write reproduces the line.
        assert_eq!(metrics_line(&back), line);
    }

    #[test]
    fn lines_written_before_a_counter_existed_load_it_as_zero() {
        // A shard checkpoint's metrics line from before `interpretations`
        // was added: every other counter loads, the new one reads zero.
        let old = "(metrics (programs_generated 6) (mutants_generated 1) (compiles 21) \
                   (compile_failures 0) (race_filter_hits 0) (differential_runs 63) \
                   (vm_ops 9000) (budget_aborts 2) (outlier_records 3) \
                   (reducer_candidate_checks 0) (reduced_kernels 0) (new_skeletons 0))";
        let snap = shard_file_with_metrics(old).expect("older line parses");
        assert_eq!(snap.get(Counter::Interpretations), 0);
        assert_eq!(snap.get(Counter::DifferentialRuns), 63);
        assert_eq!(snap.get(Counter::VmOps), 9000);
        assert_eq!(snap.get(Counter::BudgetAborts), 2);
        assert_eq!(snap.get(Counter::MutantsGenerated), 1);
        // Written back, the line gains the new pair beside its neighbour.
        assert!(metrics_line(&snap)
            .contains("(differential_runs 63) (interpretations 0) (vm_ops 9000)"));
    }

    #[test]
    fn unknown_keys_are_skipped_and_damage_is_rejected() {
        let ok = shard_file_with_metrics("(metrics (compiles 4) (future_counter 9))");
        assert_eq!(ok.expect("unknown key skipped").get(Counter::Compiles), 4);
        for bad in [
            "(metrics (compiles x))",
            "(metrics (compiles))",
            "(metrics (compiles 4 5))",
            "(metrics compiles)",
            "(metrics (compiles 4)",
            "metrics",
        ] {
            assert!(shard_file_with_metrics(bad).is_err(), "`{bad}` should fail");
        }
        assert!(shard_file_with_metrics("(metrics)")
            .expect("empty")
            .is_zero());
    }
}
