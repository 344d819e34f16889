//! The crash-safety property behind `ompfuzz serve`'s restart story:
//! a sharded evolution whose checkpoint I/O suffers torn writes, failed
//! renames, transient read errors and mid-write aborts — restarted after
//! every simulated crash against the same checkpoint directory —
//! converges to a catalog **byte-identical** to the fault-free run.
//!
//! Faults come from a seeded deterministic [`FaultPlan`] (SplitMix64 over
//! FNV-1a operation-site keys), so every plan here is reproducible from
//! its seed alone. The proptest shim's fixed 256-case budget is far too
//! hot for full evolutions, so the "random fault plans" sweep is a seeded
//! loop over derived plans instead — same property, test-scale budget.
//! One pinned seed doubles as the CI smoke case.

use ompfuzz_backends::{standard_backends, OmpBackend};
use ompfuzz_corpus::{
    run_sharded_evolution, Checkpoint, CheckpointFs, EvolveConfig, FaultPlan, FaultyFs,
    ShardedEvolveConfig, TriggerCatalog,
};
use ompfuzz_exec::ProfileCollector;
use ompfuzz_obs::Obs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Test-scale campaign: 2 rounds x 12 programs over 3 shards — enough to
/// cross several checkpoint boundaries (manifests, shard files, round
/// catalogs) without making the restart loop expensive.
fn test_config() -> ShardedEvolveConfig {
    let mut evolve = EvolveConfig::quick();
    evolve.rounds = 2;
    evolve.base.programs = 12;
    ShardedEvolveConfig { evolve, shards: 3 }
}

fn backends_dyn(backends: &[impl OmpBackend]) -> Vec<&dyn OmpBackend> {
    backends.iter().map(|b| b as &dyn OmpBackend).collect()
}

/// The fault-free catalog every faulted run must reproduce bit-for-bit.
fn reference_catalog() -> &'static String {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let backends = standard_backends();
        let dyns = backends_dyn(&backends);
        run_sharded_evolution(
            &test_config(),
            &dyns,
            TriggerCatalog::new(),
            None,
            &Obs::off(),
            &ProfileCollector::off(),
        )
        .expect("fault-free run cannot fail")
        .evolution
        .catalog
        .save_to_string()
    })
}

/// A unique scratch directory per invocation (no tempfile crate in the
/// offline workspace), removed on drop: when the campaign finishes, and
/// when an assertion unwinds out of it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    static DIR_ID: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ompfuzz-fault-recovery-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Scratch(dir)
}

/// Drive one campaign to completion under `plan`: every `Err` from the
/// coordinator is a simulated crash, answered the way `ompfuzz serve`
/// answers a real one — restart against the same checkpoint directory.
/// The fault handle survives restarts so per-site attempt counters keep
/// advancing and the plan's faults stay transient (a retried operation
/// draws a fresh decision). Returns the final catalog and how many
/// crashes it rode out.
fn run_with_faults(tag: &str, plan: FaultPlan) -> (String, usize) {
    let config = test_config();
    let backends = standard_backends();
    let dyns = backends_dyn(&backends);
    let dir = scratch(tag);
    let fs: Arc<dyn CheckpointFs> = Arc::new(FaultyFs::new(plan));
    let ckpt = Checkpoint::open_with(&dir.0, fs).expect("scratch dir is creatable");
    let mut crashes = 0;
    loop {
        match run_sharded_evolution(
            &config,
            &dyns,
            TriggerCatalog::new(),
            Some(&ckpt),
            &Obs::off(),
            &ProfileCollector::off(),
        ) {
            Ok(result) => return (result.evolution.catalog.save_to_string(), crashes),
            Err(_) => {
                crashes += 1;
                assert!(
                    crashes < 100,
                    "fault plan seed {:#x} never converged (100 restarts)",
                    plan.seed
                );
            }
        }
    }
}

/// The property, swept over derived fault plans: whatever the injected
/// faults, restart-until-done ends with the fault-free catalog bytes.
#[test]
fn faulted_campaigns_converge_to_the_clean_catalog() {
    let expected = reference_catalog();
    let mut total_crashes = 0;
    for case in 0u64..8 {
        // SplitMix64-style derivation so each case is a distinct plan;
        // rates vary per case across torn/rename/read/abort emphasis.
        let seed = 0x5eed_0000_0000_0000 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let plan = FaultPlan {
            seed,
            torn_write_permille: 100 + 40 * (case % 4),
            fail_rename_permille: 60 + 30 * ((case >> 1) % 3),
            read_error_permille: 60 + 30 * ((case >> 2) % 3),
            abort_permille: 50 + 25 * (case % 3),
        };
        let (catalog, crashes) = run_with_faults(&format!("sweep-{case}"), plan);
        assert_eq!(
            &catalog, expected,
            "fault plan seed {seed:#x} changed the catalog bytes"
        );
        total_crashes += crashes;
    }
    // The sweep must actually exercise the crash path — an all-quiet run
    // would vacuously pass.
    assert!(
        total_crashes > 0,
        "no fault plan in the sweep ever crashed the campaign"
    );
}

/// The pinned-seed CI smoke case: one plan, hot enough to guarantee at
/// least one simulated crash, still byte-identical after recovery.
#[test]
fn pinned_fault_plan_smoke() {
    let plan = FaultPlan {
        seed: 0xf001_7ab1e,
        torn_write_permille: 150,
        fail_rename_permille: 100,
        read_error_permille: 100,
        abort_permille: 100,
    };
    let (catalog, crashes) = run_with_faults("pinned", plan);
    assert_eq!(&catalog, reference_catalog());
    assert!(
        crashes > 0,
        "pinned plan injected no crash — raise its rates"
    );
}

/// A zero-rate plan is exactly the real filesystem: no crashes, same
/// bytes. Pins the harness itself (the loop, the scratch dir, the
/// reference) so a regression in the fault plumbing can't hide behind
/// retry noise.
#[test]
fn quiet_fault_plan_is_a_plain_run() {
    let (catalog, crashes) = run_with_faults("quiet", FaultPlan::none(7));
    assert_eq!(&catalog, reference_catalog());
    assert_eq!(crashes, 0);
}
