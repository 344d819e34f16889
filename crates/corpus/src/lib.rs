//! # ompfuzz-corpus
//!
//! Corpus-guided evolutionary fuzzing: the subsystem that turns the
//! one-shot campaign pipeline into a multi-round feedback loop.
//!
//! Four layers, bottom to top:
//!
//! 1. **Batch reduction + catalog** ([`batch`], [`catalog`], [`store`]):
//!    every outlier of a campaign is delta-debugged on the worker pool and
//!    the reduced kernels are deduplicated by structural skeleton into a
//!    persistent [`TriggerCatalog`] (exact AST round-trip — programs are
//!    saved as s-expressions with bit-exact floats, not as C++).
//! 2. **Feature-bias feedback** ([`bias`]): the catalog's aggregate
//!    [`ProgramFeatures`](ompfuzz_ast::ProgramFeatures) steer the next
//!    round's [`GeneratorConfig`](ompfuzz_gen::GeneratorConfig) toward the
//!    structural neighborhood of known triggers.
//! 3. **Kernel mutation seeding** ([`mutate`]) and the evolution
//!    ([`evolve`]): a fraction of each round's corpus is grow-mutated
//!    catalog kernels, and [`run_evolution`] chains campaigns, reductions
//!    and feedback into a deterministic, worker-count-independent loop
//!    (`ompfuzz evolve` on the command line).
//! 4. **Sharding + coordination** ([`shard`], [`coordinator`]): each
//!    round's corpus splits into contiguous shards that run independently
//!    (in-process or as separate `ompfuzz shard` processes) and merge back
//!    in shard order; the coordinator checkpoints shard results, a round
//!    manifest, and the merged catalog to a campaign directory, so
//!    `ompfuzz evolve --shards N --checkpoint-dir D` resumes mid-round
//!    after a kill — with catalog bytes identical to the unsharded run.
//!    The round has one implementation there — a shard step, a checked
//!    round reader and an ordered merge — and `ompfuzz evolve`, `ompfuzz
//!    shard` and the `ompfuzz serve` daemon all run rounds through it.
//!    The entry points are [`run_sharded_evolution`],
//!    [`run_standalone_shard`], and the in-memory [`run_evolution`].
//!
//! ```
//! use ompfuzz_corpus::{run_evolution, EvolveConfig, TriggerCatalog};
//! use ompfuzz_backends::{standard_backends, OmpBackend};
//! use ompfuzz_harness::CampaignConfig;
//!
//! let mut base = CampaignConfig::small();
//! base.programs = 10;
//! let mut config = EvolveConfig::new(base);
//! config.rounds = 2;
//! let backends = standard_backends();
//! let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
//! let evolution = run_evolution(&config, &dyns, TriggerCatalog::new());
//! assert_eq!(evolution.rounds.len(), 2);
//! ```

pub mod batch;
pub mod bias;
pub mod catalog;
pub mod coordinator;
pub mod evolve;
pub mod fault;
pub mod integrity;
pub mod mutate;
pub mod shard;
pub mod store;

pub use batch::{
    fold_into_catalog, reduce_all, reduce_all_slice, BatchConfig, BatchReduction, ReducedOutlier,
};
pub use bias::GeneratorBias;
pub use catalog::{Provenance, TriggerCatalog, TriggerKernel};
pub use coordinator::{
    campaign_fingerprint, merge_round, read_round_shards, run_sharded_evolution,
    run_standalone_shard, Checkpoint, CoordError, Loaded, RoundManifest, RoundProgress,
    ShardProgress, ShardStatus, ShardedEvolution, ShardedEvolveConfig,
};
pub use evolve::{round_seed, run_evolution, Evolution, EvolveConfig, RoundSummary};
pub use fault::{is_fault_abort, CheckpointFs, Fault, FaultPlan, FaultyFs, RealFs};
pub use integrity::{seal, unseal};
pub use mutate::{grow_limits, mutant_seed, mutate_kernel};
/// The hashes behind fingerprints, seals and fault plans, for the serve
/// scheduler's backoff jitter.
pub use ompfuzz_backends::sched::{fnv1a, splitmix64};
pub use shard::{
    plan_shards, read_shard_file, write_shard_file, ShardCoords, ShardOutcome, ShardSummary,
};
pub use store::StoreError;
