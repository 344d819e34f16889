//! Batch reduction: shrink *every* outlier of a campaign on the worker
//! pool, then fold the reduced kernels into a [`TriggerCatalog`].
//!
//! `ompfuzz reduce` (PR 1) handled one outlier per run; campaigns produce
//! dozens. This module extracts every outlier record as a
//! [`ReductionTarget`], fans the independent reductions over
//! [`pool::map_parallel`] (each inner reduction runs single-worker — the
//! parallelism budget is spent across targets, not inside one), and
//! returns the outcomes in record order. Combined with the reducer's own
//! worker-count-independence, the batch result — and the catalog folded
//! from it — is identical for every worker count.

use crate::catalog::{Provenance, TriggerCatalog, TriggerKernel};
use ompfuzz_backends::OmpBackend;
use ompfuzz_harness::{pool, CampaignConfig, CampaignResult, TestCase};
use ompfuzz_obs::{Counter, Obs, Phase};
use ompfuzz_reduce::{ReduceConfig, Reducer, ReductionOutcome, ReductionTarget};

/// Batch-reduction tuning.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Oracle settings for every reduction (match the source campaign).
    pub reduce: ReduceConfig,
    /// Worker threads across targets (0 = available parallelism).
    pub workers: usize,
}

impl BatchConfig {
    /// Settings copied from the campaign whose outliers are being reduced.
    pub fn for_campaign(cfg: &CampaignConfig) -> BatchConfig {
        BatchConfig {
            // Inner reductions run single-worker; the pool fans out across
            // targets instead (same total parallelism, no nested pools).
            reduce: ReduceConfig {
                workers: 1,
                ..ReduceConfig::for_campaign(cfg)
            },
            workers: cfg.workers,
        }
    }
}

/// One reduced outlier, tied back to its campaign record.
#[derive(Debug, Clone)]
pub struct ReducedOutlier {
    /// Corpus index of the source program.
    pub program_index: usize,
    /// Input index the verdict was pinned on.
    pub input_index: usize,
    /// Name of the source program (shared with the campaign record).
    pub program_name: std::sync::Arc<str>,
    /// The reduction result (reduced program, synced input, stats).
    pub outcome: ReductionOutcome,
}

/// Everything a batch reduction produces, in campaign-record order.
#[derive(Debug, Clone)]
pub struct BatchReduction {
    /// One entry per outlier record that resolved to a target.
    pub reduced: Vec<ReducedOutlier>,
    /// Total oracle checks spent across all reductions.
    pub oracle_checks: usize,
}

impl BatchReduction {
    /// Distinct skeletons among the reduced kernels.
    pub fn distinct_skeletons(&self) -> usize {
        self.reduced
            .iter()
            .map(|r| ompfuzz_ast::rewrite::skeleton(&r.outcome.reduced))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }
}

/// Reduce every outlier record of `result` against its `corpus`.
///
/// Targets are taken in record order (records are sorted by
/// `(program, input)`), so the output order — and therefore the fold into
/// a catalog — is deterministic for every worker count.
pub fn reduce_all(
    corpus: &[TestCase],
    result: &CampaignResult,
    backends: &[&dyn OmpBackend],
    config: &BatchConfig,
) -> BatchReduction {
    reduce_all_slice(corpus, 0, result, backends, config, &Obs::off())
}

/// [`reduce_all`] against a contiguous corpus slice starting at global
/// index `index_offset` — shard workers materialize only their O(slice)
/// corpus, and their slice campaign's records carry global indices.
/// Reductions report through `obs` (candidate checks, oracle runs, reduce
/// phase time).
pub fn reduce_all_slice(
    corpus: &[TestCase],
    index_offset: usize,
    result: &CampaignResult,
    backends: &[&dyn OmpBackend],
    config: &BatchConfig,
    obs: &Obs,
) -> BatchReduction {
    let targets: Vec<(usize, usize, std::sync::Arc<str>, ReductionTarget)> = result
        .records
        .iter()
        .filter(|r| r.outlier().is_some())
        .filter_map(|r| {
            ReductionTarget::from_record_slice(corpus, index_offset, r)
                .map(|t| (r.program_index, r.input_index, r.program_name.clone(), t))
        })
        .collect();

    let workers = pool::resolve_workers(config.workers);
    let outcomes = pool::map_parallel(workers, &targets, |(_, _, _, target)| {
        obs.time(Phase::Reduce, || {
            Reducer::new(backends, config.reduce.clone())
                .observed(obs.clone())
                .reduce(target)
        })
    });
    obs.count(Counter::ReducedKernels, targets.len() as u64);

    let mut oracle_checks = 0;
    let reduced = targets
        .into_iter()
        .zip(outcomes)
        .map(|((program_index, input_index, program_name, _), outcome)| {
            oracle_checks += outcome.oracle_checks;
            ReducedOutlier {
                program_index,
                input_index,
                program_name,
                outcome,
            }
        })
        .collect();
    BatchReduction {
        reduced,
        oracle_checks,
    }
}

/// Fold a batch into `catalog` (skeleton-deduplicated; existing entries
/// win). `seed`/`round` stamp the provenance. Returns how many skeletons
/// were new.
pub fn fold_into_catalog(
    catalog: &mut TriggerCatalog,
    batch: &BatchReduction,
    seed: u64,
    round: usize,
) -> usize {
    batch
        .reduced
        .iter()
        .map(|r| {
            usize::from(catalog.insert(TriggerKernel {
                program: r.outcome.reduced.clone(),
                input: r.outcome.input.clone(),
                kind: r.outcome.verdict.kind,
                backend: r.outcome.verdict.backend,
                provenance: Provenance {
                    seed,
                    round,
                    source_program: r.program_name.to_string(),
                    program_index: r.program_index,
                    input_index: r.input_index,
                },
            }))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::standard_backends;
    use ompfuzz_exec::ProfileCollector;
    use ompfuzz_harness::{generate_case, run_campaign_generated_with};
    use ompfuzz_obs::Obs;
    use std::time::Instant;

    fn small_campaign() -> (CampaignConfig, Vec<TestCase>, CampaignResult) {
        let mut cfg = crate::EvolveConfig::quick().base;
        cfg.programs = 60;
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let (result, corpus) = run_campaign_generated_with(
            &cfg,
            &dyns,
            0..cfg.programs,
            &|i| generate_case(&cfg, i),
            Instant::now(),
            &Obs::off(),
            &ProfileCollector::off(),
        );
        (cfg, corpus, result)
    }

    #[test]
    fn batch_reduces_every_outlier_identically_for_any_worker_count() {
        let (cfg, corpus, result) = small_campaign();
        let outliers = result
            .records
            .iter()
            .filter(|r| r.outlier().is_some())
            .count();
        assert!(outliers > 0, "small campaign should produce outliers");
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();

        let mut cfg1 = BatchConfig::for_campaign(&cfg);
        cfg1.workers = 1;
        let mut cfg8 = BatchConfig::for_campaign(&cfg);
        cfg8.workers = 8;
        let a = reduce_all(&corpus, &result, &dyns, &cfg1);
        let b = reduce_all(&corpus, &result, &dyns, &cfg8);
        assert_eq!(a.reduced.len(), outliers);
        assert_eq!(a.oracle_checks, b.oracle_checks);
        for (ra, rb) in a.reduced.iter().zip(&b.reduced) {
            assert_eq!(ra.program_index, rb.program_index);
            assert_eq!(ra.outcome.reduced, rb.outcome.reduced);
            assert_eq!(ra.outcome.input, rb.outcome.input);
        }

        // Folding both into catalogs yields byte-identical files.
        let mut cat_a = TriggerCatalog::new();
        let mut cat_b = TriggerCatalog::new();
        let new_a = fold_into_catalog(&mut cat_a, &a, cfg.seed, 0);
        let new_b = fold_into_catalog(&mut cat_b, &b, cfg.seed, 0);
        assert_eq!(new_a, new_b);
        assert_eq!(cat_a.len(), a.distinct_skeletons());
        assert_eq!(cat_a.save_to_string(), cat_b.save_to_string());
    }

    #[test]
    fn reductions_shrink_and_keep_their_verdicts() {
        let (cfg, corpus, result) = small_campaign();
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let batch = reduce_all(&corpus, &result, &dyns, &BatchConfig::for_campaign(&cfg));
        for r in &batch.reduced {
            assert!(r.outcome.reduced_stmts <= r.outcome.original_stmts);
            let record = result
                .records
                .iter()
                .find(|rec| {
                    rec.program_index == r.program_index && rec.input_index == r.input_index
                })
                .unwrap();
            let (kind, backend) = record.outlier().unwrap();
            assert_eq!(r.outcome.verdict.kind, kind);
            assert_eq!(r.outcome.verdict.backend, backend);
        }
    }
}
