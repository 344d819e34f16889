//! The multi-round evolutionary loop: campaign → batch-reduce → catalog →
//! bias + mutate → next campaign.
//!
//! Each round runs a full differential campaign at a fixed program budget,
//! reduces every outlier into the shared [`TriggerCatalog`], then prepares
//! the next round: the generator is steered toward the catalog's aggregate
//! features ([`GeneratorBias`]), and a fraction of the next corpus is
//! grow-mutated catalog kernels instead of fresh samples
//! ([`mutate_kernel`]). Round seeds, mutant seeds and the catalog are all
//! pure functions of `(config, seed)`, so the whole evolution — including
//! the saved catalog bytes — is reproducible and worker-count-independent.
//!
//! This module defines what a round computes: its campaign, its corpus
//! slots and its summary. Running rounds — shard steps, the ordered merge,
//! checkpoints — is the [`coordinator`](crate::coordinator)'s job;
//! [`run_evolution`] is its in-memory shorthand.

use crate::bias::GeneratorBias;
use crate::catalog::TriggerCatalog;
use crate::coordinator::ShardedEvolveConfig;
use crate::mutate::{mutant_seed, mutate_kernel};
use ompfuzz_backends::OmpBackend;
use ompfuzz_harness::{CampaignConfig, TestCase};
use ompfuzz_inputs::InputGenerator;

/// Configuration of an evolutionary run.
#[derive(Debug, Clone)]
pub struct EvolveConfig {
    /// Per-round campaign configuration (budget, oracle, base generator).
    pub base: CampaignConfig,
    /// Number of rounds.
    pub rounds: usize,
    /// Fraction of each round's programs drawn as mutated catalog kernels
    /// (once the catalog is non-empty). `0.0` disables mutation seeding.
    pub mutation_fraction: f64,
    /// Strength of the feature-bias feedback in `[0, 1]`. `0.0` disables
    /// steering — every round then samples from the base generator.
    pub bias_strength: f64,
    /// Grow edits applied to each mutant.
    pub edits_per_mutant: usize,
}

impl EvolveConfig {
    /// Default evolution over a campaign config: 3 rounds, a quarter of
    /// each round mutated, half-strength bias.
    pub fn new(base: CampaignConfig) -> EvolveConfig {
        EvolveConfig {
            base,
            rounds: 3,
            mutation_fraction: 0.25,
            bias_strength: 0.5,
            edits_per_mutant: 3,
        }
    }

    /// Ablation baseline: same round structure and budget, but uniform
    /// sampling throughout (no bias, no mutants). The catalog still fills —
    /// it just never feeds back.
    pub fn uniform(base: CampaignConfig) -> EvolveConfig {
        EvolveConfig {
            mutation_fraction: 0.0,
            bias_strength: 0.0,
            ..EvolveConfig::new(base)
        }
    }

    /// The CI/test-scale smoke configuration (`ompfuzz evolve --quick` and
    /// the corpus/report tests and benches): 2 rounds over the small
    /// campaign config at 40 programs, with the §IV-C time-filter floor
    /// dropped — small-config programs finish in microseconds and would
    /// otherwise all be filtered before outlier analysis.
    pub fn quick() -> EvolveConfig {
        let mut base = CampaignConfig {
            programs: 40,
            // Picked by searching the index-addressed program stream for a
            // quick-scale campaign whose round 0 already catalogs triggers
            // (so mutant seeding, bias feedback and catalog resume are all
            // exercised at smoke scale); the tests re-verify every property
            // the seed was picked for.
            seed: 20,
            ..CampaignConfig::small()
        };
        base.outlier.min_time_us = 10.0;
        EvolveConfig {
            rounds: 2,
            ..EvolveConfig::new(base)
        }
    }
}

/// What one round did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSummary {
    /// Round number (0-based).
    pub round: usize,
    /// Campaign seed of the round.
    pub seed: u64,
    /// Programs in the round's corpus.
    pub programs: usize,
    /// How many of them were mutated catalog kernels.
    pub mutants: usize,
    /// Programs excluded by the race filter.
    pub racy: usize,
    /// Outlier records the campaign produced.
    pub outlier_records: usize,
    /// Outliers successfully reduced this round.
    pub reduced: usize,
    /// Skeletons that were new to the catalog.
    pub new_skeletons: usize,
    /// Catalog yield of the round: new skeletons per 1000 programs of
    /// budget (`new_skeletons * 1000 / programs`). Deterministic — a pure
    /// function of the round's outcome — so it rides in [`RoundSummary`]'s
    /// `Eq` and the determinism suites pin it like every other field.
    pub yield_per_1k: u64,
    /// Catalog size after the round.
    pub catalog_size: usize,
}

/// A finished evolution.
#[derive(Debug, Clone)]
pub struct Evolution {
    /// Per-round accounting, in round order.
    pub rounds: Vec<RoundSummary>,
    /// The accumulated trigger-kernel catalog.
    pub catalog: TriggerCatalog,
}

impl Evolution {
    /// Total outlier records across rounds.
    pub fn total_outliers(&self) -> usize {
        self.rounds.iter().map(|r| r.outlier_records).sum()
    }
}

/// The seed of round `round`: round 0 is the configured seed (so a
/// one-round evolution matches a plain campaign), later rounds step by a
/// golden-ratio increment.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run a full evolution in memory. Pass a pre-loaded `catalog` to resume
/// from an earlier run's kernels (they seed round 0's mutants); start from
/// [`TriggerCatalog::new`] otherwise.
///
/// This is shorthand for the campaign coordinator with one shard, no
/// checkpoint directory, and telemetry and profiling off: it delegates to
/// [`run_sharded_evolution`](crate::run_sharded_evolution), so sharded and
/// unsharded runs share one code path — and one set of bytes in the saved
/// catalog. Callers that want telemetry call the coordinator directly.
pub fn run_evolution(
    config: &EvolveConfig,
    backends: &[&dyn OmpBackend],
    catalog: TriggerCatalog,
) -> Evolution {
    crate::coordinator::run_sharded_evolution(
        &ShardedEvolveConfig {
            evolve: config.clone(),
            shards: 1,
        },
        backends,
        catalog,
        None,
        &ompfuzz_obs::Obs::off(),
        &ompfuzz_exec::ProfileCollector::off(),
    )
    .expect("in-memory evolution performs no checkpoint I/O")
    .evolution
}

/// The campaign of round `round`, given the catalog state *before* the
/// round: seed stepped by [`round_seed`], generator steered toward the
/// catalog's aggregate features. A pure function of `(config, catalog,
/// round)` — steering always starts from the base generator, never from the
/// previous round's steered one — which is what lets an out-of-process
/// shard reconstruct its round's campaign from the checkpointed catalog
/// alone.
pub(crate) fn round_campaign(
    config: &EvolveConfig,
    catalog: &TriggerCatalog,
    round: usize,
) -> CampaignConfig {
    let mut campaign = config.base.clone();
    campaign.seed = round_seed(config.base.seed, round);
    if config.bias_strength > 0.0 {
        if let Some(bias) = GeneratorBias::from_catalog(catalog, config.bias_strength) {
            campaign.generator = bias.steer(&config.base.generator);
        }
    }
    campaign
}

/// The catalog kernels eligible to seed mutants under this campaign's
/// generator envelope (the grammar and the configuration limits): a
/// catalog resumed from a run with larger limits must not inject programs
/// the current configuration could never generate — grow edits bound the
/// *edits*, not the kernel they start from.
fn eligible_kernels<'c>(
    campaign: &CampaignConfig,
    catalog: &'c TriggerCatalog,
) -> Vec<&'c ompfuzz_ast::Program> {
    catalog
        .kernels()
        .filter(|k| {
            ompfuzz_gen::validate::grammar_errors(&k.program).is_empty()
                && ompfuzz_gen::validate::limit_errors(&k.program, &campaign.generator).is_empty()
        })
        .map(|k| &k.program)
        .collect()
}

/// How many tail slots of the round's corpus are mutated catalog kernels,
/// given how many catalog kernels are eligible to seed them. A pure
/// function of the configuration, so shard workers agree on the
/// fresh/mutant boundary without building any corpus.
fn mutant_count(campaign: &CampaignConfig, config: &EvolveConfig, eligible: usize) -> usize {
    if eligible == 0 {
        0
    } else {
        (((campaign.programs as f64) * config.mutation_fraction.clamp(0.0, 1.0)).floor() as usize)
            .min(campaign.programs)
    }
}

/// [`mutant_count`] resolved against a catalog.
#[cfg(test)]
pub(crate) fn round_mutants(
    campaign: &CampaignConfig,
    catalog: &TriggerCatalog,
    config: &EvolveConfig,
) -> usize {
    mutant_count(campaign, config, eligible_kernels(campaign, catalog).len())
}

/// Build one round's full corpus: fresh generated programs up front,
/// mutated catalog kernels in the tail slots. Mutants cycle through the
/// catalog in skeleton order; every program is named `test_<index>` and
/// paired with inputs from the index's split input stream, exactly like
/// [`ompfuzz_harness::generate_corpus`]. Production paths build per-shard
/// slices instead ([`build_round_corpus_slice`]); this full build pins
/// their equivalence in tests.
#[cfg(test)]
pub(crate) fn build_round_corpus(
    campaign: &CampaignConfig,
    catalog: &TriggerCatalog,
    config: &EvolveConfig,
) -> (Vec<TestCase>, usize) {
    let mutants = round_mutants(campaign, catalog, config);
    let corpus = build_round_corpus_slice(campaign, catalog, config, 0..campaign.programs);
    (corpus, mutants)
}

/// The per-index generator of one round's corpus slots, plus the global
/// index of the first mutant slot. Every slot (fresh or mutant) is a pure
/// function of `(campaign, catalog, config, index)`: fresh programs come
/// from the index's split program stream, mutants from [`mutant_seed`],
/// inputs from the index's split input stream — so any worker (or any
/// shard) generates exactly the test a full front-to-back build would put
/// at that index. This closure is what the coordinator hands to
/// [`ompfuzz_harness::run_campaign_generated_with`], fusing round-corpus
/// generation into the per-program campaign pipeline.
pub(crate) fn round_case_fn<'a>(
    campaign: &'a CampaignConfig,
    catalog: &'a TriggerCatalog,
    config: &'a EvolveConfig,
) -> (impl Fn(usize) -> TestCase + Sync + 'a, usize) {
    let kernels = eligible_kernels(campaign, catalog);
    let fresh = campaign.programs - mutant_count(campaign, config, kernels.len());
    let gen = move |i: usize| {
        if i < fresh {
            // Fresh slots ARE the plain campaign's corpus definition — one
            // code path, so the conventions (seed stamping, the `seed + 1`
            // input stream) can never drift between harness and evolve.
            return ompfuzz_harness::generate_case(campaign, i);
        }
        let kernel = kernels[(i - fresh) % kernels.len()];
        let mut program = mutate_kernel(
            kernel,
            &campaign.generator,
            mutant_seed(campaign.seed, i),
            config.edits_per_mutant,
        );
        program.name = format!("test_{i}");
        program.seed = campaign.seed;
        let mut ig = InputGenerator::with_mix(campaign.seed + 1, campaign.generator.input_mix);
        ig.reseed_indexed(campaign.seed + 1, i);
        let inputs = ig.generate_samples(&program, campaign.inputs_per_program);
        TestCase::new(program, inputs)
    };
    (gen, fresh)
}

/// Build only the round-corpus tests in `range` — O(slice) work, fanned
/// over the campaign's worker pool. Byte-identical to the corresponding
/// slice of the full build (each slot is index-addressed). Production
/// paths never materialize corpora at all (the fused shard campaigns
/// generate per program through [`round_case_fn`]); this builder pins the
/// equivalence in tests.
#[cfg(test)]
pub(crate) fn build_round_corpus_slice(
    campaign: &CampaignConfig,
    catalog: &TriggerCatalog,
    config: &EvolveConfig,
    range: std::ops::Range<usize>,
) -> Vec<TestCase> {
    let (gen, _fresh) = round_case_fn(campaign, catalog, config);
    let indices: Vec<usize> = range.collect();
    let workers = ompfuzz_harness::pool::resolve_workers(campaign.workers);
    ompfuzz_harness::pool::map_parallel(workers, &indices, |&i| gen(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::standard_backends;

    fn dyns(backends: &[ompfuzz_backends::SimBackend]) -> Vec<&dyn OmpBackend> {
        backends.iter().map(|b| b as &dyn OmpBackend).collect()
    }

    fn quick_config() -> EvolveConfig {
        EvolveConfig::quick()
    }

    /// The subsystem's acceptance bar: a 3-round evolution at a fixed seed
    /// produces a byte-identical catalog for repeated runs and for 1 vs. 8
    /// workers.
    #[test]
    fn evolution_is_deterministic_across_worker_counts() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let mut cfg1 = quick_config();
        cfg1.rounds = 3;
        cfg1.base.workers = 1;
        let mut cfg8 = quick_config();
        cfg8.rounds = 3;
        cfg8.base.workers = 8;
        let a = run_evolution(&cfg1, &dyns, TriggerCatalog::new());
        let b = run_evolution(&cfg8, &dyns, TriggerCatalog::new());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.catalog.save_to_string(), b.catalog.save_to_string());
        // And repeated runs are byte-identical too.
        let c = run_evolution(&cfg1, &dyns, TriggerCatalog::new());
        assert_eq!(a.catalog.save_to_string(), c.catalog.save_to_string());
    }

    #[test]
    fn later_rounds_seed_mutants_once_the_catalog_fills() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let evo = run_evolution(&quick_config(), &dyns, TriggerCatalog::new());
        assert_eq!(evo.rounds.len(), 2);
        assert_eq!(evo.rounds[0].mutants, 0, "round 0 has no catalog yet");
        if evo.rounds[0].catalog_size > 0 {
            assert!(evo.rounds[1].mutants > 0, "{:?}", evo.rounds);
        }
        assert_eq!(evo.rounds.last().unwrap().catalog_size, evo.catalog.len());
        // Catalog round-trips through the store.
        let text = evo.catalog.save_to_string();
        let back = TriggerCatalog::load_from_string(&text).unwrap();
        assert_eq!(back.save_to_string(), text);
    }

    /// The acceptance bar for the feedback loop: at a fixed program budget
    /// on the stock seed, biased rounds catalog at least as many distinct
    /// trigger skeletons as uniform sampling (in practice strictly more —
    /// 5 vs 2 here — because bias + mutants concentrate the budget near
    /// the structures round 0 proved fertile).
    #[test]
    fn biased_rounds_beat_uniform_sampling_at_fixed_budget() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let cfg = quick_config(); // stock small config + default seed
        let mut biased_cfg = EvolveConfig::new(cfg.base.clone());
        biased_cfg.rounds = 3;
        let mut uniform_cfg = EvolveConfig::uniform(cfg.base);
        uniform_cfg.rounds = 3;
        let biased = run_evolution(&biased_cfg, &dyns, TriggerCatalog::new());
        let uniform = run_evolution(&uniform_cfg, &dyns, TriggerCatalog::new());
        assert!(
            !uniform.catalog.is_empty(),
            "uniform baseline found nothing; the comparison is vacuous"
        );
        assert!(
            biased.catalog.len() >= uniform.catalog.len(),
            "biased {} < uniform {}",
            biased.catalog.len(),
            uniform.catalog.len()
        );
    }

    /// A catalog resumed from a larger generator envelope must not seed
    /// mutants the current configuration could never generate.
    #[test]
    fn out_of_envelope_kernels_do_not_seed_mutants() {
        use crate::catalog::{Provenance, TriggerKernel};
        // Build a kernel under the paper envelope that violates the small
        // one (800-trip loop > small's max_loop_trip 32).
        let mut pg =
            ompfuzz_gen::ProgramGenerator::new(ompfuzz_gen::GeneratorConfig::paper(), 20241011);
        let wide = pg
            .generate_batch(50)
            .into_iter()
            .find(|p| {
                !ompfuzz_gen::validate::limit_errors(p, &CampaignConfig::small().generator)
                    .is_empty()
            })
            .expect("paper-envelope program exceeding small limits");
        let mut catalog = TriggerCatalog::new();
        catalog.insert(TriggerKernel {
            input: ompfuzz_inputs::InputGenerator::new(1).generate_for(&wide),
            program: wide,
            kind: ompfuzz_outlier::OutlierKind::Slow,
            backend: 0,
            provenance: Provenance {
                seed: 1,
                round: 0,
                source_program: "test_0".into(),
                program_index: 0,
                input_index: 0,
            },
        });
        let cfg = quick_config(); // small envelope
        let (corpus, mutants) = build_round_corpus(&cfg.base, &catalog, &cfg);
        assert_eq!(mutants, 0, "ineligible kernel seeded mutants");
        assert_eq!(corpus.len(), cfg.base.programs);
        // A kernel inside the envelope does seed.
        let mut small_pg = ompfuzz_gen::ProgramGenerator::new(cfg.base.generator.clone(), 3);
        let in_envelope = small_pg.generate("test_k");
        let mut ok_catalog = TriggerCatalog::new();
        ok_catalog.insert(TriggerKernel {
            input: ompfuzz_inputs::InputGenerator::new(2).generate_for(&in_envelope),
            program: in_envelope,
            kind: ompfuzz_outlier::OutlierKind::Slow,
            backend: 0,
            provenance: Provenance {
                seed: 1,
                round: 0,
                source_program: "test_k".into(),
                program_index: 0,
                input_index: 0,
            },
        });
        let (_, mutants) = build_round_corpus(&cfg.base, &ok_catalog, &cfg);
        assert!(mutants > 0);
    }

    /// Any slice of a round corpus — including slices straddling the
    /// fresh/mutant boundary — generated in isolation equals the
    /// corresponding range of the full build: the O(slice) shard-worker
    /// generation is exact.
    #[test]
    fn round_corpus_slices_match_the_full_build() {
        use crate::catalog::{Provenance, TriggerKernel};
        let cfg = quick_config();
        let mut pg = ompfuzz_gen::ProgramGenerator::new(cfg.base.generator.clone(), 3);
        let in_envelope = pg.generate("test_k");
        let mut catalog = TriggerCatalog::new();
        catalog.insert(TriggerKernel {
            input: ompfuzz_inputs::InputGenerator::new(2).generate_for(&in_envelope),
            program: in_envelope,
            kind: ompfuzz_outlier::OutlierKind::Slow,
            backend: 0,
            provenance: Provenance {
                seed: 1,
                round: 0,
                source_program: "test_k".into(),
                program_index: 0,
                input_index: 0,
            },
        });
        let (full, mutants) = build_round_corpus(&cfg.base, &catalog, &cfg);
        assert!(mutants > 0, "catalog kernel must seed mutants");
        let fresh = full.len() - mutants;
        for range in [0..full.len(), 3..17, fresh - 2..full.len(), 7..7] {
            assert_eq!(
                build_round_corpus_slice(&cfg.base, &catalog, &cfg, range.clone()),
                full[range]
            );
        }
    }

    #[test]
    fn round_zero_matches_a_plain_campaign() {
        // With an empty starting catalog, round 0's corpus is exactly
        // `generate_corpus` of the base config: the evolutionary machinery
        // only kicks in once there is evidence to feed back.
        let cfg = quick_config();
        let corpus = ompfuzz_harness::generate_corpus(&cfg.base);
        let (round0, mutants) = build_round_corpus(&cfg.base, &TriggerCatalog::new(), &cfg);
        assert_eq!(mutants, 0);
        assert_eq!(round0, corpus);
    }
}
