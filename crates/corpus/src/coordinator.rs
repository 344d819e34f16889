//! The campaign coordinator: shard-parallel, crash-resumable multi-round
//! evolution with on-disk checkpoints.
//!
//! A *campaign directory* records everything a killed run needs to pick up
//! where it stopped:
//!
//! ```text
//! <dir>/round-<r>/manifest.txt   round index, round seed, config
//!                                fingerprint, shard count, completed shards
//! <dir>/round-<r>/shard-<i>.txt  one shard's summary + per-shard catalog
//! <dir>/round-<r>/catalog.txt    merged catalog after round r (the
//!                                between-rounds checkpoint)
//! ```
//!
//! Every file is a deterministic function of `(config, seed)`, so re-running
//! a shard overwrites its checkpoint with identical bytes — which is what
//! makes resume safe even when a previous run died mid-write of the
//! *manifest*: the worst case is an already-finished shard running again.
//! The config fingerprint stamps every manifest and shard file; a
//! checkpoint directory produced under a different configuration (other
//! seed, budget, shard count, or starting catalog) is rejected instead of
//! silently merged.
//!
//! A round has one implementation, three plain functions that every
//! control plane calls: the **shard step** (run one shard, or load it
//! checked when the manifest marks it complete, then seal and record it),
//! taken by the coordinator loop [`run_sharded_evolution`] for each shard
//! and by the out-of-process worker [`run_standalone_shard`] (`ompfuzz
//! shard --round R --shard I/N`) for its one; the **checked round reader**
//! [`read_round_shards`], through which the `ompfuzz serve` daemon reads a
//! finished round without a campaign config; and the **ordered merge**
//! [`merge_round`], through which the coordinator and the daemon both fold
//! shard catalogs onto the previous round's catalog. With one shard and no
//! checkpoint directory the coordinator loop is exactly the in-memory
//! [`run_evolution`](crate::run_evolution), so every evolution — sharded,
//! served or not — writes the same catalog bytes by construction.

use crate::catalog::TriggerCatalog;
use crate::evolve::{round_campaign, round_case_fn, Evolution, EvolveConfig, RoundSummary};
use crate::fault::{CheckpointFs, RealFs};
use crate::integrity::{seal, unseal};
use crate::shard::{
    plan_shards, read_shard_file, run_planned_shard, write_shard_file, ShardCoords, ShardOutcome,
    ShardSummary,
};
use crate::store::{self, Node, StoreError};
use ompfuzz_backends::sched::fnv1a;
use ompfuzz_backends::OmpBackend;
use ompfuzz_exec::ProfileCollector;
use ompfuzz_harness::{CampaignConfig, TestCase};
use ompfuzz_obs::{Counter, CounterSnapshot, Event, Obs, Phase};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// An evolution split into shards (each round's corpus is divided into
/// `shards` contiguous slices, run independently, and merged in order).
#[derive(Debug, Clone)]
pub struct ShardedEvolveConfig {
    /// The underlying evolution (budget, rounds, feedback knobs).
    pub evolve: EvolveConfig,
    /// Shards per round; `0` and `1` both mean unsharded. The merged result
    /// never depends on this — it only controls how the work is split.
    pub shards: usize,
}

/// Coordinator failure: checkpoint I/O, a stale/foreign checkpoint
/// directory, or invalid shard coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordError(pub String);

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coordinator error: {}", self.0)
    }
}

impl std::error::Error for CoordError {}

impl From<StoreError> for CoordError {
    fn from(e: StoreError) -> CoordError {
        CoordError(e.to_string())
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CoordError> {
    Err(CoordError(msg.into()))
}

/// How a shard's result was obtained during a coordinated round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Computed in this run.
    Ran,
    /// Loaded from a checkpoint written by an earlier (possibly killed) run.
    Cached,
}

impl ShardStatus {
    /// Progress-table label (`ran` / `cached`).
    pub fn label(&self) -> &'static str {
        match self {
            ShardStatus::Ran => "ran",
            ShardStatus::Cached => "cached",
        }
    }
}

/// Verdict of loading a checksummed checkpoint artifact.
///
/// [`Corrupt`](Loaded::Corrupt) covers checksum mismatches and truncated
/// files: callers treat the artifact as absent (the shard re-runs and
/// rewrites identical bytes) and surface a `checkpoint_corrupt` telemetry
/// event, instead of degrading or wedging the campaign. A file whose
/// checksum verifies but whose *contents* fail to parse is a genuine error
/// (version drift or tampering), not a `Corrupt` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loaded<T> {
    /// The file exists and passed its integrity check.
    Present(T),
    /// The file exists but is truncated or bit-flipped; the reason string
    /// explains what the checksum verification saw.
    Corrupt(String),
    /// No file on disk.
    Absent,
}

/// One shard's accounting plus how it was obtained.
#[derive(Debug, Clone)]
pub struct ShardProgress {
    pub summary: ShardSummary,
    pub status: ShardStatus,
    /// Wall-clock microseconds spent obtaining the shard's result in
    /// *this* invocation (near zero for a cached shard). Real clock
    /// readings — surfaced in tables and JSONL, never checkpointed.
    pub wall_us: u64,
    /// The shard's deterministic telemetry counters (from the run, or from
    /// its checkpoint when cached).
    pub metrics: CounterSnapshot,
}

/// Per-round shard progress, in shard order.
#[derive(Debug, Clone)]
pub struct RoundProgress {
    pub round: usize,
    pub shards: Vec<ShardProgress>,
    /// The round's wall-clock microseconds in this invocation — carried
    /// here so `render_shard_summary`/`render_shard_progress` no longer
    /// lose per-round timing.
    pub wall_us: u64,
}

/// A finished coordinated evolution: the merged result plus the per-shard
/// progress (what ran, what resumed from checkpoint).
#[derive(Debug)]
pub struct ShardedEvolution {
    pub evolution: Evolution,
    pub progress: Vec<RoundProgress>,
}

// ---------------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------------

/// Identity of a sharded campaign: FNV-1a over the canonical config-file
/// rendering of the base campaign, the evolution knobs (bit-exact floats),
/// the shard count, and the starting catalog's bytes. Two runs with the
/// same fingerprint produce the same checkpoint files byte for byte.
///
/// The result-neutral knobs are excluded: results are worker-count- and
/// execution-engine-independent (both pinned by determinism/equivalence
/// tests and CI catalog comparisons), so a checkpoint written on one host
/// must resume on a host with different parallelism, and a campaign
/// started under `--engine tree` must resume under the default bytecode
/// engine (and vice versa) into byte-identical files.
pub fn campaign_fingerprint(config: &EvolveConfig, shards: usize, initial: &TriggerCatalog) -> u64 {
    let base: String = config
        .base
        .to_config_file()
        .lines()
        .filter(|line| !line.starts_with("workers") && !line.starts_with("engine"))
        .collect::<Vec<_>>()
        .join("\n");
    let canonical = format!(
        "{base}\nrounds = {}\nmutation_fraction = {:016x}\nbias_strength = {:016x}\n\
         edits_per_mutant = {}\nshards = {}\n{}",
        config.rounds,
        config.mutation_fraction.to_bits(),
        config.bias_strength.to_bits(),
        config.edits_per_mutant,
        shards.max(1),
        initial.save_to_string(),
    );
    fnv1a(canonical.as_bytes())
}

// ---------------------------------------------------------------------------
// Round manifest
// ---------------------------------------------------------------------------

/// The small per-round bookkeeping record the coordinator checkpoints
/// alongside shard results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundManifest {
    /// Evolution round the manifest describes.
    pub round: usize,
    /// The round's campaign seed ([`round_seed`](crate::round_seed)).
    pub seed: u64,
    /// [`campaign_fingerprint`] of the configuration that produced it.
    pub fingerprint: u64,
    /// Shard count the round was planned for.
    pub shards: usize,
    /// Shard indices whose checkpoint files are complete.
    pub completed: BTreeSet<usize>,
}

impl RoundManifest {
    fn new(round: usize, seed: u64, fingerprint: u64, shards: usize) -> RoundManifest {
        RoundManifest {
            round,
            seed,
            fingerprint,
            shards,
            completed: BTreeSet::new(),
        }
    }

    /// Serialize as one s-expression line (deterministic: the completed set
    /// renders in index order).
    pub fn to_text(&self) -> String {
        let mut done = String::new();
        for i in &self.completed {
            done.push(' ');
            done.push_str(&i.to_string());
        }
        format!(
            "; ompfuzz round manifest v1\n(manifest v1 {} {} {} {} (done{done}))\n",
            self.fingerprint, self.round, self.seed, self.shards
        )
    }

    /// Parse a manifest written by [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<RoundManifest, StoreError> {
        let nodes = store::parse_nodes(text)?;
        let [root] = nodes.as_slice() else {
            return Err(StoreError(format!(
                "expected one (manifest ...) form, found {}",
                nodes.len()
            )));
        };
        let rest = root.tagged("manifest")?;
        let [version, fingerprint, round, seed, shards, done] = rest else {
            return Err(StoreError(
                "manifest needs (manifest v1 fingerprint round seed shards (done ...))".into(),
            ));
        };
        if version != &Node::Atom("v1".into()) {
            return Err(StoreError("unsupported manifest version".into()));
        }
        let completed = done
            .tagged("done")?
            .iter()
            .map(|n| n.parse_atom::<usize>("shard index"))
            .collect::<Result<BTreeSet<usize>, _>>()?;
        Ok(RoundManifest {
            round: round.parse_atom("round")?,
            seed: seed.parse_atom("seed")?,
            fingerprint: fingerprint.parse_atom("fingerprint")?,
            shards: shards.parse_atom("shard count")?,
            completed,
        })
    }
}

// ---------------------------------------------------------------------------
// Campaign directory
// ---------------------------------------------------------------------------

/// Handle to a campaign (checkpoint) directory.
///
/// Every durable read and write goes through a [`CheckpointFs`] handle
/// ([`RealFs`] in production, a fault-injecting one in recovery tests),
/// and every artifact is sealed with an FNV-1a checksum trailer on write
/// and verified on load ([`Loaded`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    dir: PathBuf,
    fs: Arc<dyn CheckpointFs>,
}

impl Checkpoint {
    /// Open (creating if needed) a campaign directory on the real
    /// filesystem.
    pub fn open(dir: &Path) -> Result<Checkpoint, CoordError> {
        Checkpoint::open_with(dir, Arc::new(RealFs))
    }

    /// Open a campaign directory whose durable I/O goes through `fs` —
    /// the entry point for fault-injected recovery tests.
    pub fn open_with(dir: &Path, fs: Arc<dyn CheckpointFs>) -> Result<Checkpoint, CoordError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CoordError(format!("cannot create {}: {e}", dir.display())))?;
        Ok(Checkpoint {
            dir: dir.to_path_buf(),
            fs,
        })
    }

    fn round_dir(&self, round: usize) -> PathBuf {
        self.dir.join(format!("round-{round}"))
    }

    fn manifest_path(&self, round: usize) -> PathBuf {
        self.round_dir(round).join("manifest.txt")
    }

    fn shard_path(&self, round: usize, shard: usize) -> PathBuf {
        self.round_dir(round).join(format!("shard-{shard}.txt"))
    }

    fn catalog_path(&self, round: usize) -> PathBuf {
        self.round_dir(round).join("catalog.txt")
    }

    /// Read `path` and verify its checksum trailer. Truncated, bit-flipped
    /// or unsealed files come back [`Loaded::Corrupt`]; only a real I/O
    /// failure is an error.
    fn read_verified(&self, path: &Path) -> Result<Loaded<String>, CoordError> {
        match self.fs.read(path) {
            Ok(None) => Ok(Loaded::Absent),
            Ok(Some(text)) => match unseal(&text) {
                Ok(payload) => Ok(Loaded::Present(payload.to_string())),
                Err(reason) => Ok(Loaded::Corrupt(reason)),
            },
            Err(e) => err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Atomic checkpoint write: seal the text with its checksum trailer,
    /// then temp file + rename in the target directory (inside the fs
    /// handle). A kill mid-write must never leave a truncated manifest or
    /// catalog behind — and if the filesystem tears the write anyway, the
    /// checksum catches it on load and resume's worst case is re-running a
    /// finished shard, not a parse error on a half-written file.
    fn write(&self, path: &Path, text: &str) -> Result<(), CoordError> {
        self.fs
            .write_atomic(path, &seal(text))
            .map_err(|e| CoordError(format!("cannot write {}: {e}", path.display())))
    }

    /// Load a round's manifest with its integrity verdict.
    pub fn load_manifest(&self, round: usize) -> Result<Loaded<RoundManifest>, CoordError> {
        match self.read_verified(&self.manifest_path(round))? {
            Loaded::Present(text) => RoundManifest::from_text(&text)
                .map(Loaded::Present)
                .map_err(CoordError::from),
            Loaded::Corrupt(reason) => Ok(Loaded::Corrupt(reason)),
            Loaded::Absent => Ok(Loaded::Absent),
        }
    }

    /// Write a round's manifest.
    pub fn store_manifest(&self, manifest: &RoundManifest) -> Result<(), CoordError> {
        self.write(&self.manifest_path(manifest.round), &manifest.to_text())
    }

    /// Load one shard's checkpoint (recorded fingerprint + outcome) with
    /// its integrity verdict.
    pub fn load_shard(
        &self,
        round: usize,
        shard: usize,
    ) -> Result<Loaded<(u64, ShardOutcome)>, CoordError> {
        match self.read_verified(&self.shard_path(round, shard))? {
            Loaded::Present(text) => read_shard_file(&text)
                .map(Loaded::Present)
                .map_err(CoordError::from),
            Loaded::Corrupt(reason) => Ok(Loaded::Corrupt(reason)),
            Loaded::Absent => Ok(Loaded::Absent),
        }
    }

    /// Write one shard's checkpoint.
    pub fn store_shard(&self, outcome: &ShardOutcome, fingerprint: u64) -> Result<(), CoordError> {
        self.write(
            &self.shard_path(outcome.summary.round, outcome.summary.shard),
            &write_shard_file(outcome, fingerprint),
        )
    }

    /// Load the merged catalog checkpointed after `round` with its
    /// integrity verdict.
    pub fn load_round_catalog(&self, round: usize) -> Result<Loaded<TriggerCatalog>, CoordError> {
        match self.read_verified(&self.catalog_path(round))? {
            Loaded::Present(text) => TriggerCatalog::load_from_string(&text)
                .map(Loaded::Present)
                .map_err(CoordError::from),
            Loaded::Corrupt(reason) => Ok(Loaded::Corrupt(reason)),
            Loaded::Absent => Ok(Loaded::Absent),
        }
    }

    /// Checkpoint the merged catalog after `round`. The sealed round
    /// catalog is checkpoint-internal; final deliverables (`--catalog`
    /// output, the daemon's `job-N/catalog.txt`) are written unsealed by
    /// their own layers, so catalog bytes stay a pure function of
    /// `(config, seed)`.
    pub fn store_round_catalog(
        &self,
        round: usize,
        catalog: &TriggerCatalog,
    ) -> Result<(), CoordError> {
        self.write(&self.catalog_path(round), &catalog.save_to_string())
    }

    /// The catalog round `round` starts from: `initial` for round 0, the
    /// previous round's sealed merge after that. A later round cannot start
    /// without that checkpoint, because its corpus derives from the merge.
    pub fn round_start_catalog(
        &self,
        round: usize,
        initial: TriggerCatalog,
    ) -> Result<TriggerCatalog, CoordError> {
        let Some(previous) = round.checked_sub(1) else {
            return Ok(initial);
        };
        match self.load_round_catalog(previous)? {
            Loaded::Present(catalog) => Ok(catalog),
            Loaded::Corrupt(reason) => err(format!(
                "round {previous} catalog checkpoint in {} is corrupt ({reason}) — a \
                 standalone shard cannot recompute the previous round's merge; \
                 rerun the coordinator",
                self.dir.display()
            )),
            Loaded::Absent => err(format!(
                "round {previous} has no checkpointed catalog in {} — shards of round \
                 {round} derive their corpus from the previous round's merge",
                self.dir.display()
            )),
        }
    }

    /// Load-or-create the manifest of `fresh.round`, rejecting one
    /// written under a different configuration. A corrupt on-disk manifest
    /// is replaced by `fresh` (its shards re-run and rewrite identical
    /// bytes) and reported to `obs` as a `checkpoint_corrupt` event.
    fn round_manifest(&self, fresh: RoundManifest, obs: &Obs) -> Result<RoundManifest, CoordError> {
        let m = match self.load_manifest(fresh.round)? {
            Loaded::Present(m) => m,
            Loaded::Corrupt(reason) => {
                obs.emit(Event::CheckpointCorrupt {
                    round: fresh.round as u64,
                    shard: fresh.shards as u64,
                    file: format!("round-{}/manifest.txt", fresh.round),
                    reason,
                });
                return Ok(fresh);
            }
            Loaded::Absent => return Ok(fresh),
        };
        if (m.fingerprint, m.seed, m.shards, m.round)
            != (fresh.fingerprint, fresh.seed, fresh.shards, fresh.round)
        {
            return err(format!(
                "checkpoint {} was written by a different campaign \
                 (fingerprint {:016x}, seed {}, {} shards; this run: \
                 {:016x}, seed {}, {} shards) — \
                 remove the directory or rerun with the original configuration",
                self.manifest_path(fresh.round).display(),
                m.fingerprint,
                m.seed,
                m.shards,
                fresh.fingerprint,
                fresh.seed,
                fresh.shards,
            ));
        }
        Ok(m)
    }

    /// Mark `shard` complete. The manifest is re-read from disk and the
    /// completed sets are unioned before writing, so concurrent
    /// out-of-process workers recording *other* shards of the same round
    /// are not erased by a stale in-memory copy. Writes are atomic
    /// renames, and a completion lost to the remaining tiny race window is
    /// benign: the shard re-runs and rewrites identical bytes.
    fn record_completed(
        &self,
        current: &RoundManifest,
        shard: usize,
    ) -> Result<RoundManifest, CoordError> {
        let mut merged = self.round_manifest(current.clone(), &Obs::off())?;
        merged.completed.extend(current.completed.iter().copied());
        merged.completed.insert(shard);
        self.store_manifest(&merged)?;
        Ok(merged)
    }
}

// ---------------------------------------------------------------------------
// The round: one shard step, one checked reader, one ordered merge
// ---------------------------------------------------------------------------

/// Run a full sharded evolution, checkpointing to (and resuming from)
/// `checkpoint` when one is given. Per round: plan contiguous shards over
/// the round corpus, take each shard's [`shard_step`], [`merge_round`] the
/// shard catalogs in shard order, and derive the next round's bias from
/// the merge. The catalog is byte-identical for every shard count and any
/// kill/resume point: shard results are deterministic and merge order is
/// fixed.
///
/// Telemetry (lifecycle events, phase times, latency histograms, counter
/// totals) goes through `obs`; a cached shard's counters come from its
/// checkpoint, so totals do not depend on resumes. When `profile` is on,
/// the shards' VM hot-path profiles merge into it. Both are strictly out
/// of band — catalog bytes cannot depend on them.
pub fn run_sharded_evolution(
    config: &ShardedEvolveConfig,
    backends: &[&dyn OmpBackend],
    initial: TriggerCatalog,
    checkpoint: Option<&Checkpoint>,
    obs: &Obs,
    profile: &ProfileCollector,
) -> Result<ShardedEvolution, CoordError> {
    let shards = config.shards.max(1);
    let fingerprint = campaign_fingerprint(&config.evolve, shards, &initial);
    let campaign_started = Instant::now();
    obs.emit(Event::CampaignStart {
        rounds: config.evolve.rounds as u64,
        shards: shards as u64,
        programs: config.evolve.base.programs as u64,
        seed: config.evolve.base.seed,
    });

    let mut catalog = initial;
    let mut rounds = Vec::with_capacity(config.evolve.rounds);
    let mut progress = Vec::with_capacity(config.evolve.rounds);
    for round in 0..config.evolve.rounds {
        let round_started = Instant::now();
        let campaign = round_campaign(&config.evolve, &catalog, round);
        let fresh_manifest = RoundManifest::new(round, campaign.seed, fingerprint, shards);
        let mut manifest = match checkpoint {
            Some(ckpt) => ckpt.round_manifest(fresh_manifest, obs)?,
            None => fresh_manifest,
        };

        // Every shard generates only its own slice — O(slice) work per
        // shard, O(corpus) across the whole round, fused per-program into
        // the shard campaign's worker closures — and a checkpointed shard
        // skips generation entirely.
        let (gen, fresh) = round_case_fn(&campaign, &catalog, &config.evolve);
        obs.emit(Event::RoundStart {
            round: round as u64,
            seed: campaign.seed,
            programs: campaign.programs as u64,
            mutants: (campaign.programs - fresh) as u64,
        });
        let mut shard_rows: Vec<ShardProgress> = Vec::with_capacity(shards);
        let mut shard_catalogs = Vec::with_capacity(shards);
        for (shard, range) in plan_shards(campaign.programs, shards)
            .into_iter()
            .enumerate()
        {
            let (row, shard_catalog) = shard_step(
                checkpoint,
                &mut manifest,
                &campaign,
                backends,
                &gen,
                fresh,
                range,
                shard,
                obs,
                profile,
            )?;
            shard_rows.push(row);
            shard_catalogs.push(shard_catalog);
        }
        // The round generator borrows the catalog; release it before the
        // merge takes the catalog over.
        drop(gen);
        let (merged, new_skeletons) = merge_round(checkpoint, round, catalog, shard_catalogs, obs)?;
        catalog = merged;
        let round_wall_us = round_started.elapsed().as_micros() as u64;
        let programs: usize = shard_rows.iter().map(|s| s.summary.programs()).sum();
        // The round's catalog yield, normalized to a 1k-program budget —
        // deterministic (integer arithmetic over deterministic counts), so
        // it lives in the Eq-compared summary, not the wall-clock side.
        let yield_per_1k = (new_skeletons as u64).saturating_mul(1000) / (programs as u64).max(1);
        rounds.push(RoundSummary {
            round,
            seed: campaign.seed,
            programs,
            mutants: shard_rows.iter().map(|s| s.summary.mutants).sum(),
            racy: shard_rows.iter().map(|s| s.summary.racy).sum(),
            outlier_records: shard_rows.iter().map(|s| s.summary.outlier_records).sum(),
            reduced: shard_rows.iter().map(|s| s.summary.reduced).sum(),
            new_skeletons,
            yield_per_1k,
            catalog_size: catalog.len(),
        });
        let summary = rounds.last().expect("just pushed");
        obs.emit(Event::RoundEnd {
            round: round as u64,
            racy: summary.racy as u64,
            outliers: summary.outlier_records as u64,
            reduced: summary.reduced as u64,
            new_skeletons: new_skeletons as u64,
            yield_per_1k,
            catalog: catalog.len() as u64,
            wall_us: round_wall_us,
            hists: obs.hists(),
        });
        progress.push(RoundProgress {
            round,
            shards: shard_rows,
            wall_us: round_wall_us,
        });
    }
    obs.emit(Event::CampaignEnd {
        rounds: config.evolve.rounds as u64,
        catalog: catalog.len() as u64,
        wall_us: campaign_started.elapsed().as_micros() as u64,
        counters: obs.counters(),
        phases: obs.phases(),
        hists: obs.hists(),
    });
    obs.flush();
    Ok(ShardedEvolution {
        evolution: Evolution { rounds, catalog },
        progress,
    })
}

/// Run exactly one shard of one round against a campaign directory — the
/// out-of-process worker behind `ompfuzz shard --round R --shard I/N`.
/// Round 0 starts from `initial` (the `--resume` catalog, or empty); later
/// rounds start from the previous round's checkpointed merge. The shard
/// takes the same [`shard_step`] as in the coordinator loop, so a shard
/// already complete comes back [`ShardStatus::Cached`] without re-running.
#[allow(clippy::too_many_arguments)]
pub fn run_standalone_shard(
    config: &ShardedEvolveConfig,
    backends: &[&dyn OmpBackend],
    initial: TriggerCatalog,
    checkpoint: &Checkpoint,
    round: usize,
    shard: usize,
    obs: &Obs,
    profile: &ProfileCollector,
) -> Result<ShardProgress, CoordError> {
    let shards = config.shards.max(1);
    if round >= config.evolve.rounds {
        return err(format!(
            "round {round} out of range (campaign has {} rounds)",
            config.evolve.rounds
        ));
    }
    if shard >= shards {
        return err(format!("shard {shard} out of range (0..{shards})"));
    }
    let fingerprint = campaign_fingerprint(&config.evolve, shards, &initial);
    let catalog = checkpoint.round_start_catalog(round, initial)?;
    let campaign = round_campaign(&config.evolve, &catalog, round);
    let fresh_manifest = RoundManifest::new(round, campaign.seed, fingerprint, shards);
    let mut manifest = checkpoint.round_manifest(fresh_manifest, obs)?;
    let range = plan_shards(campaign.programs, shards).swap_remove(shard);
    let (gen, fresh) = round_case_fn(&campaign, &catalog, &config.evolve);
    let (progress, _) = shard_step(
        Some(checkpoint),
        &mut manifest,
        &campaign,
        backends,
        &gen,
        fresh,
        range,
        shard,
        obs,
        profile,
    )?;
    obs.flush();
    Ok(progress)
}

/// One shard of one round — the step the coordinator loop takes for each
/// shard and the standalone worker for its one. A shard the manifest marks
/// complete is loaded and checked ([`check_shard_checkpoint`]); a corrupt
/// checkpoint is reported and treated as missing, so the shard re-runs
/// into identical bytes. A run shard is sealed when there is a checkpoint
/// directory: shard file first, then the manifest, so a kill between the
/// two re-runs it on resume. Emits the shard's start and end events and
/// absorbs its counters, ran or cached.
#[allow(clippy::too_many_arguments)]
fn shard_step(
    checkpoint: Option<&Checkpoint>,
    manifest: &mut RoundManifest,
    campaign: &CampaignConfig,
    backends: &[&dyn OmpBackend],
    gen: &(dyn Fn(usize) -> TestCase + Sync),
    fresh: usize,
    range: Range<usize>,
    shard: usize,
    obs: &Obs,
    profile: &ProfileCollector,
) -> Result<(ShardProgress, TriggerCatalog), CoordError> {
    let (round, shards) = (manifest.round, manifest.shards);
    let started = Instant::now();
    obs.emit(Event::ShardStart {
        round: round as u64,
        shard: shard as u64,
        shards: shards as u64,
        start: range.start as u64,
        end: range.end as u64,
    });
    let coords = ShardCoords {
        round,
        shard,
        shards,
    };
    let cached = match checkpoint.filter(|_| manifest.completed.contains(&shard)) {
        Some(ckpt) => match ckpt.load_shard(round, shard)? {
            Loaded::Present(file) => Some(check_shard_checkpoint(
                file,
                manifest.fingerprint,
                coords,
                &range,
            )?),
            Loaded::Corrupt(reason) => {
                obs.emit(Event::CheckpointCorrupt {
                    round: round as u64,
                    shard: shard as u64,
                    file: format!("round-{round}/shard-{shard}.txt"),
                    reason,
                });
                None
            }
            Loaded::Absent => None,
        },
        None => None,
    };
    let (outcome, status) = match cached {
        Some(outcome) => (outcome, ShardStatus::Cached),
        None => {
            let outcome =
                run_planned_shard(campaign, backends, gen, fresh, range, coords, obs, profile);
            if let Some(ckpt) = checkpoint {
                ckpt.store_shard(&outcome, manifest.fingerprint)?;
                *manifest = ckpt.record_completed(manifest, shard)?;
            }
            (outcome, ShardStatus::Ran)
        }
    };
    obs.absorb(&outcome.metrics);
    let wall_us = started.elapsed().as_micros() as u64;
    let s = &outcome.summary;
    obs.emit(Event::ShardEnd {
        round: round as u64,
        shard: shard as u64,
        shards: shards as u64,
        programs: s.programs() as u64,
        mutants: s.mutants as u64,
        racy: s.racy as u64,
        outliers: s.outlier_records as u64,
        reduced: s.reduced as u64,
        cached: status == ShardStatus::Cached,
        wall_us,
    });
    let progress = ShardProgress {
        summary: outcome.summary,
        status,
        wall_us,
        metrics: outcome.metrics,
    };
    Ok((progress, outcome.catalog))
}

/// Accept a loaded shard checkpoint (recorded fingerprint + outcome) only
/// if this campaign wrote it for exactly this shard: fingerprint, round,
/// shard index, shard count and program range must all match. A valid
/// file of another shard or another campaign sealed under this shard's
/// name is an error, never a cached result. The shard step and the round
/// reader both check through here.
fn check_shard_checkpoint(
    (recorded, outcome): (u64, ShardOutcome),
    fingerprint: u64,
    coords: ShardCoords,
    range: &Range<usize>,
) -> Result<ShardOutcome, CoordError> {
    let s = &outcome.summary;
    if recorded != fingerprint
        || (s.round, s.shard, s.shards) != (coords.round, coords.shard, coords.shards)
        || (s.start, s.end) != (range.start, range.end)
    {
        return err(format!(
            "shard checkpoint round-{}/shard-{} does not match this campaign — remove \
             the checkpoint directory",
            coords.round, coords.shard
        ));
    }
    Ok(outcome)
}

/// Read a finished round's shard files, each checked against the round's
/// sealed manifest — for callers without the campaign config, such as the
/// `ompfuzz serve` daemon at merge time and on restart. The manifest gives
/// the fingerprint and shard count; the expected ranges are [`plan_shards`]
/// over the last shard's recorded end (unchecked while that file is
/// missing or corrupt). Without a readable manifest the outer verdict says
/// why; inside, a shard is [`Loaded::Present`] only if it passed
/// [`check_shard_checkpoint`], and missing or corrupt files come back as
/// such, for the caller to re-run. A valid file of another shard or
/// campaign is an error.
pub fn read_round_shards(
    checkpoint: &Checkpoint,
    round: usize,
) -> Result<Loaded<Vec<Loaded<ShardOutcome>>>, CoordError> {
    let manifest = match checkpoint.load_manifest(round)? {
        Loaded::Present(manifest) => manifest,
        Loaded::Corrupt(reason) => return Ok(Loaded::Corrupt(reason)),
        Loaded::Absent => return Ok(Loaded::Absent),
    };
    let files = (0..manifest.shards)
        .map(|shard| checkpoint.load_shard(round, shard))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = match files.last() {
        Some(Loaded::Present((_, last))) => Some(plan_shards(last.summary.end, manifest.shards)),
        _ => None,
    };
    // Last shard first: its file fixes the plan, so it must pass before
    // the plan judges the others.
    let mut checked = files
        .into_iter()
        .enumerate()
        .rev()
        .map(|(shard, file)| match file {
            Loaded::Present(file) => {
                let coords = ShardCoords {
                    round,
                    shard,
                    shards: manifest.shards,
                };
                let s = &file.1.summary;
                let range = plan
                    .as_ref()
                    .map_or(s.start..s.end, |plan| plan[shard].clone());
                check_shard_checkpoint(file, manifest.fingerprint, coords, &range)
                    .map(Loaded::Present)
            }
            Loaded::Corrupt(reason) => Ok(Loaded::Corrupt(reason)),
            Loaded::Absent => Ok(Loaded::Absent),
        })
        .collect::<Result<Vec<_>, _>>()?;
    checked.reverse();
    Ok(Loaded::Present(checked))
}

/// Fold a round's shard catalogs in shard order onto `catalog`, the
/// catalog the round started from — the unsharded run's first-witness-wins
/// fold — and seal the result as the round's catalog checkpoint when there
/// is a checkpoint directory. The coordinator and the daemon both merge
/// here. Returns the merged catalog and its count of new skeletons.
pub fn merge_round(
    checkpoint: Option<&Checkpoint>,
    round: usize,
    mut catalog: TriggerCatalog,
    shard_catalogs: Vec<TriggerCatalog>,
    obs: &Obs,
) -> Result<(TriggerCatalog, usize), CoordError> {
    let new_skeletons = obs.time(Phase::CatalogMerge, || {
        shard_catalogs
            .into_iter()
            .map(|shard| catalog.merge(shard))
            .sum::<usize>()
    });
    obs.count(Counter::NewSkeletons, new_skeletons as u64);
    if let Some(ckpt) = checkpoint {
        ckpt.store_round_catalog(round, &catalog)?;
    }
    Ok((catalog, new_skeletons))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::{standard_backends, SimBackend};
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dyns(backends: &[SimBackend]) -> Vec<&dyn OmpBackend> {
        backends.iter().map(|b| b as &dyn OmpBackend).collect()
    }

    /// A smaller-than-`quick` budget: the coordinator tests run several
    /// full evolutions each.
    fn test_config() -> EvolveConfig {
        let mut config = EvolveConfig::quick();
        config.base.programs = 24;
        config
    }

    fn sharded(shards: usize) -> ShardedEvolveConfig {
        ShardedEvolveConfig {
            evolve: test_config(),
            shards,
        }
    }

    /// The coordinator over `dir` (if any), from an empty catalog, with
    /// telemetry off.
    fn evolve(
        config: &ShardedEvolveConfig,
        dyns: &[&dyn OmpBackend],
        dir: Option<&Path>,
    ) -> Result<ShardedEvolution, CoordError> {
        let ckpt = dir.map(|d| Checkpoint::open(d).unwrap());
        run_sharded_evolution(
            config,
            dyns,
            TriggerCatalog::new(),
            ckpt.as_ref(),
            &Obs::off(),
            &ProfileCollector::off(),
        )
    }

    /// The standalone worker for one shard of `dir`, from an empty catalog,
    /// with telemetry off.
    fn shard(
        config: &ShardedEvolveConfig,
        dyns: &[&dyn OmpBackend],
        dir: &Path,
        round: usize,
        shard: usize,
    ) -> Result<ShardProgress, CoordError> {
        run_standalone_shard(
            config,
            dyns,
            TriggerCatalog::new(),
            &Checkpoint::open(dir).unwrap(),
            round,
            shard,
            &Obs::off(),
            &ProfileCollector::off(),
        )
    }

    static DIR_ID: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch directory per test invocation (no tempfile crate in
    /// the offline workspace).
    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ompfuzz-coord-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::SeqCst)
        ))
    }

    /// The headline invariant: the merged catalog — and the per-round
    /// summaries — are identical for 1, 3 and 4 shards, checkpointed or
    /// not.
    #[test]
    fn shard_count_never_changes_the_result() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let baseline = crate::run_evolution(&test_config(), &dyns, TriggerCatalog::new());
        let four = evolve(&sharded(4), &dyns, None).unwrap();
        assert_eq!(baseline.rounds, four.evolution.rounds);
        assert_eq!(
            baseline.catalog.save_to_string(),
            four.evolution.catalog.save_to_string()
        );
        let dir = scratch("counts");
        let three = evolve(&sharded(3), &dyns, Some(&dir)).unwrap();
        assert_eq!(baseline.rounds, three.evolution.rounds);
        assert_eq!(
            baseline.catalog.save_to_string(),
            three.evolution.catalog.save_to_string()
        );
        // The between-rounds checkpoint of the last round IS the result.
        let ckpt = Checkpoint::open(&dir).unwrap();
        let Loaded::Present(last) = ckpt.load_round_catalog(test_config().rounds - 1).unwrap()
        else {
            panic!("final round checkpointed");
        };
        assert_eq!(last.save_to_string(), baseline.catalog.save_to_string());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Kill/resume at a shard boundary: one shard runs standalone (the
    /// `ompfuzz shard` path), then the coordinator finishes the campaign,
    /// skipping the completed shard; a second coordinator run resumes
    /// everything. All three views agree byte-for-byte with unsharded.
    #[test]
    fn resume_skips_completed_shards_and_preserves_bytes() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let baseline = crate::run_evolution(&test_config(), &dyns, TriggerCatalog::new());
        let dir = scratch("resume");

        let first = shard(&sharded(3), &dyns, &dir, 0, 1).unwrap();
        assert_eq!(first.status, ShardStatus::Ran);
        assert_eq!(first.summary.shard, 1);
        // Running the same shard again is a no-op.
        let again = shard(&sharded(3), &dyns, &dir, 0, 1).unwrap();
        assert_eq!(again.status, ShardStatus::Cached);
        assert_eq!(again.summary, first.summary);

        let resumed = evolve(&sharded(3), &dyns, Some(&dir)).unwrap();
        let statuses: Vec<ShardStatus> = resumed.progress[0]
            .shards
            .iter()
            .map(|s| s.status)
            .collect();
        assert_eq!(
            statuses,
            vec![ShardStatus::Ran, ShardStatus::Cached, ShardStatus::Ran]
        );
        assert_eq!(
            baseline.catalog.save_to_string(),
            resumed.evolution.catalog.save_to_string()
        );
        assert_eq!(baseline.rounds, resumed.evolution.rounds);

        // A second coordinator pass finds every shard checkpointed.
        let rerun = evolve(&sharded(3), &dyns, Some(&dir)).unwrap();
        assert!(rerun
            .progress
            .iter()
            .flat_map(|r| &r.shards)
            .all(|s| s.status == ShardStatus::Cached));
        assert_eq!(
            baseline.catalog.save_to_string(),
            rerun.evolution.catalog.save_to_string()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint directory written under a different configuration is
    /// rejected, not silently merged.
    #[test]
    fn foreign_checkpoints_are_rejected() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let dir = scratch("foreign");
        shard(&sharded(2), &dyns, &dir, 0, 0).unwrap();
        let mut other = sharded(2);
        other.evolve.base.seed += 1;
        let e = evolve(&other, &dyns, Some(&dir)).expect_err("mismatched seed must be rejected");
        assert!(e.0.contains("different campaign"), "{e}");
        // Same config with a different shard count is also a different
        // campaign as far as the manifests are concerned.
        let e = evolve(&sharded(3), &dyns, Some(&dir))
            .expect_err("mismatched shard count must be rejected");
        assert!(e.0.contains("different campaign"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A valid, sealed checkpoint of another shard under this shard's name
    /// is rejected by the standalone worker and the coordinator alike —
    /// never reported as this shard's cached result.
    #[test]
    fn another_shards_checkpoint_is_rejected() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let dir = scratch("swapped");
        for index in 0..2 {
            shard(&sharded(2), &dyns, &dir, 0, index).unwrap();
        }
        let round_dir = dir.join("round-0");
        fs::copy(round_dir.join("shard-0.txt"), round_dir.join("shard-1.txt")).unwrap();
        let e = shard(&sharded(2), &dyns, &dir, 0, 1)
            .expect_err("shard 0's checkpoint must not pass as shard 1's");
        assert!(e.0.contains("round-0/shard-1 does not match"), "{e}");
        let e =
            evolve(&sharded(2), &dyns, Some(&dir)).expect_err("the coordinator must refuse it too");
        assert!(e.0.contains("round-0/shard-1 does not match"), "{e}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The round reader the daemon merges through checks every shard file
    /// against the round's sealed manifest: intact files read back in shard
    /// order, and a valid file of another shard or of another campaign is
    /// refused.
    #[test]
    fn the_round_reader_refuses_foreign_shard_files() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let dir = scratch("reader");
        for index in 0..2 {
            shard(&sharded(2), &dyns, &dir, 0, index).unwrap();
        }
        let ckpt = Checkpoint::open(&dir).unwrap();
        let Loaded::Present(files) = read_round_shards(&ckpt, 0).unwrap() else {
            panic!("round 0 has a sealed manifest");
        };
        let order: Vec<usize> = files
            .iter()
            .map(|file| match file {
                Loaded::Present(outcome) => outcome.summary.shard,
                other => panic!("intact shard file read as {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![0, 1]);

        let round_dir = dir.join("round-0");
        let own = fs::read(round_dir.join("shard-1.txt")).unwrap();
        fs::copy(round_dir.join("shard-0.txt"), round_dir.join("shard-1.txt")).unwrap();
        let e = read_round_shards(&ckpt, 0).expect_err("shard 0's file must not pass as shard 1's");
        assert!(e.0.contains("round-0/shard-1 does not match"), "{e}");

        // Shard 1 over the same range, written by a campaign with another
        // seed: only the fingerprint tells it apart.
        let other_dir = scratch("reader-other");
        let mut other = sharded(2);
        other.evolve.base.seed += 1;
        shard(&other, &dyns, &other_dir, 0, 1).unwrap();
        let other_file = other_dir.join("round-0").join("shard-1.txt");
        fs::copy(other_file, round_dir.join("shard-1.txt")).unwrap();
        let e = read_round_shards(&ckpt, 0).expect_err("another campaign's file must be refused");
        assert!(e.0.contains("round-0/shard-1 does not match"), "{e}");

        fs::write(round_dir.join("shard-1.txt"), own).unwrap();
        assert!(matches!(
            read_round_shards(&ckpt, 0),
            Ok(Loaded::Present(_))
        ));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other_dir);
    }

    /// Standalone shards of a later round need the previous round's merged
    /// catalog checkpoint; without it the worker cannot reconstruct its
    /// corpus and must refuse.
    #[test]
    fn later_round_shards_require_the_previous_checkpoint() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let dir = scratch("later");
        let e =
            shard(&sharded(2), &dyns, &dir, 1, 0).expect_err("round 1 without round 0 checkpoint");
        assert!(e.0.contains("no checkpointed catalog"), "{e}");
        // Out-of-range coordinates are rejected up front.
        assert!(shard(&sharded(2), &dyns, &dir, 9, 0).is_err());
        assert!(shard(&sharded(2), &dyns, &dir, 0, 2).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint written on one host must resume on a host with a
    /// different worker count, and a campaign started on one execution
    /// engine must resume on the other — results are independent of both
    /// knobs, so the fingerprint must be too. Everything result-affecting
    /// still changes it.
    #[test]
    fn fingerprint_ignores_workers_but_not_results() {
        let base = test_config();
        let fp = |c: &EvolveConfig, shards: usize| {
            campaign_fingerprint(c, shards, &TriggerCatalog::new())
        };
        let mut other_workers = base.clone();
        other_workers.base.workers = 16;
        assert_eq!(fp(&base, 2), fp(&other_workers, 2));
        let mut other_engine = base.clone();
        other_engine.base.run.engine = ompfuzz_exec::ExecEngine::Tree;
        assert_eq!(fp(&base, 2), fp(&other_engine, 2));
        let mut other_seed = base.clone();
        other_seed.base.seed += 1;
        assert_ne!(fp(&base, 2), fp(&other_seed, 2));
        let mut other_bias = base.clone();
        other_bias.bias_strength += 0.1;
        assert_ne!(fp(&base, 2), fp(&other_bias, 2));
        assert_ne!(fp(&base, 2), fp(&base, 3));
        let mut seeded = TriggerCatalog::new();
        let mut pg = ompfuzz_gen::ProgramGenerator::new(base.base.generator.clone(), 5);
        seeded.insert(crate::TriggerKernel {
            input: ompfuzz_inputs::InputGenerator::new(1).generate_for(&pg.generate("test_k")),
            program: pg.generate("test_k"),
            kind: ompfuzz_outlier::OutlierKind::Slow,
            backend: 0,
            provenance: crate::Provenance {
                seed: 1,
                round: 0,
                source_program: "test_k".into(),
                program_index: 0,
                input_index: 0,
            },
        });
        assert_ne!(fp(&base, 2), campaign_fingerprint(&base, 2, &seeded));
    }

    /// Recording a completion unions with what is already on disk, so an
    /// out-of-process worker that finished another shard meanwhile is not
    /// erased by this process's stale in-memory manifest.
    #[test]
    fn recording_completions_preserves_concurrent_progress() {
        let dir = scratch("union");
        let ckpt = Checkpoint::open(&dir).unwrap();
        let base = RoundManifest::new(0, 7, 42, 3);
        // Worker A records shard 2 while our in-memory copy is still empty.
        ckpt.record_completed(&base, 2).unwrap();
        // Our process records shard 0 from the stale copy.
        let merged = ckpt.record_completed(&base, 0).unwrap();
        assert_eq!(
            merged.completed.iter().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(
            ckpt.load_manifest(0).unwrap(),
            Loaded::Present(merged.clone())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip one payload byte of a checkpoint artifact in place.
    fn flip_byte(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        bytes[1] ^= 0x01;
        fs::write(path, bytes).unwrap();
    }

    /// Truncate a checkpoint artifact to its first half (a torn write).
    fn tear(path: &Path) {
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    }

    /// A bit-flipped or truncated shard checkpoint is treated as missing:
    /// the coordinator re-runs the shard (emitting `checkpoint_corrupt`)
    /// and the final catalog is byte-identical — no wedging, no degrade.
    #[test]
    fn corrupt_shard_checkpoints_rerun_instead_of_wedging() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let baseline = crate::run_evolution(&test_config(), &dyns, TriggerCatalog::new());
        for (tag, damage) in [("flip", flip_byte as fn(&Path)), ("tear", tear)] {
            let dir = scratch(&format!("corrupt-shard-{tag}"));
            shard(&sharded(3), &dyns, &dir, 0, 1).unwrap();
            damage(&dir.join("round-0").join("shard-1.txt"));

            let ckpt = Checkpoint::open(&dir).unwrap();
            assert!(
                matches!(ckpt.load_shard(0, 1).unwrap(), Loaded::Corrupt(_)),
                "{tag}: damaged checkpoint must read as corrupt"
            );

            let sink = std::sync::Arc::new(ompfuzz_obs::CaptureSink::new());
            let obs = Obs::with_sink(sink.clone());
            let resumed = run_sharded_evolution(
                &sharded(3),
                &dyns,
                TriggerCatalog::new(),
                Some(&ckpt),
                &obs,
                &ProfileCollector::off(),
            )
            .unwrap();
            assert!(
                resumed.progress[0]
                    .shards
                    .iter()
                    .all(|s| s.status == ShardStatus::Ran),
                "{tag}: every shard (including the corrupt one) must re-run"
            );
            assert_eq!(
                baseline.catalog.save_to_string(),
                resumed.evolution.catalog.save_to_string()
            );
            assert!(
                sink.events()
                    .iter()
                    .any(|e| e.kind() == "checkpoint_corrupt"),
                "{tag}: no checkpoint_corrupt event emitted"
            );
            // The re-run rewrote an intact, verifiable checkpoint.
            assert!(matches!(ckpt.load_shard(0, 1).unwrap(), Loaded::Present(_)));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A corrupt round manifest is replaced by a fresh one: the round's
    /// shards re-run and the result is unchanged.
    #[test]
    fn corrupt_manifests_rerun_the_round() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let baseline = crate::run_evolution(&test_config(), &dyns, TriggerCatalog::new());
        let dir = scratch("corrupt-manifest");
        shard(&sharded(2), &dyns, &dir, 0, 0).unwrap();
        flip_byte(&dir.join("round-0").join("manifest.txt"));
        let resumed = evolve(&sharded(2), &dyns, Some(&dir)).unwrap();
        assert_eq!(
            baseline.catalog.save_to_string(),
            resumed.evolution.catalog.save_to_string()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The other verdict: a file whose checksum verifies but whose payload
    /// does not parse is version drift or tampering — rejected with an
    /// error, never silently re-run.
    #[test]
    fn checksum_valid_but_unparseable_checkpoints_are_rejected() {
        let backends = standard_backends();
        let dyns = dyns(&backends);
        let dir = scratch("sealed-garbage");
        shard(&sharded(2), &dyns, &dir, 0, 0).unwrap();
        fs::write(
            dir.join("round-0").join("shard-0.txt"),
            crate::integrity::seal("(not a shard checkpoint)\n"),
        )
        .unwrap();
        let e = evolve(&sharded(2), &dyns, Some(&dir))
            .expect_err("sealed garbage must be rejected, not re-run");
        assert!(!e.0.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_round_trip() {
        let mut m = RoundManifest::new(2, 77, 0xABCD, 5);
        m.completed.insert(3);
        m.completed.insert(0);
        let text = m.to_text();
        assert_eq!(RoundManifest::from_text(&text).unwrap(), m);
        assert!(RoundManifest::from_text("(manifest v2 0 0 0 0 (done))").is_err());
        assert!(RoundManifest::from_text("(manifest v1 0 0)").is_err());
    }
}
