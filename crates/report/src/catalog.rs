//! Rendering of the trigger-kernel catalog, the per-round evolution
//! summary, and the per-shard progress table (`ompfuzz evolve` /
//! `ompfuzz reduce --all` / `ompfuzz shard`).

use crate::table::TextTable;
use ompfuzz_corpus::{RoundProgress, RoundSummary, ShardProgress, TriggerCatalog};

/// Longest skeleton rendered verbatim; longer ones are elided in the
/// middle (the saved catalog file always carries the full string).
const SKELETON_WIDTH: usize = 44;

fn elide(skeleton: &str) -> String {
    if skeleton.len() <= SKELETON_WIDTH {
        return skeleton.to_string();
    }
    let half = (SKELETON_WIDTH - 3) / 2;
    let head: String = skeleton.chars().take(half).collect();
    let tail_start = skeleton.len() - half;
    format!("{head}...{}", &skeleton[tail_start..])
}

/// The catalog table: one row per distinct trigger skeleton, with the
/// outlier class, the outlying implementation, kernel size, the structural
/// stressors the kernel carries, and its provenance.
pub fn render_catalog(catalog: &TriggerCatalog, labels: &[String]) -> String {
    let mut table = TextTable::new(vec![
        "skeleton", "kind", "impl", "stmts", "lock", "team", "nan", "round", "source",
    ])
    .with_title(format!(
        "TRIGGER CATALOG ({} distinct kernels)",
        catalog.len()
    ));
    for (skeleton, kernel) in catalog.iter() {
        let features = kernel.features();
        let backend = labels
            .get(kernel.backend)
            .map(String::as_str)
            .unwrap_or("?");
        let flag = |on: bool| if on { "x" } else { "–" };
        table.push_row(vec![
            elide(skeleton),
            kernel.kind.label().to_string(),
            backend.to_string(),
            kernel.program.body.stmt_count().to_string(),
            flag(features.stresses_lock_contention()).to_string(),
            flag(features.stresses_team_recreation()).to_string(),
            flag(features.nan_branch_candidate()).to_string(),
            kernel.provenance.round.to_string(),
            format!(
                "{}@{}",
                kernel.provenance.source_program, kernel.provenance.seed
            ),
        ]);
    }
    table.render()
}

/// The evolution summary: one row per round.
pub fn render_evolution(rounds: &[RoundSummary]) -> String {
    let mut table = TextTable::new(vec![
        "round", "seed", "programs", "mutants", "racy", "outliers", "reduced", "new", "per1k",
        "catalog",
    ])
    .with_title("EVOLUTION SUMMARY");
    for r in rounds {
        table.push_row(vec![
            r.round.to_string(),
            r.seed.to_string(),
            r.programs.to_string(),
            r.mutants.to_string(),
            r.racy.to_string(),
            r.outlier_records.to_string(),
            r.reduced.to_string(),
            r.new_skeletons.to_string(),
            r.yield_per_1k.to_string(),
            r.catalog_size.to_string(),
        ]);
    }
    table.render()
}

/// The per-shard progress table of a coordinated (sharded/checkpointed)
/// evolution: one row per `(round, shard)` with the slice it covered, its
/// accounting, and whether it ran in this invocation or was loaded from a
/// checkpoint (`cached`) — the row CI greps to pin resume semantics.
pub fn render_shard_progress(progress: &[RoundProgress]) -> String {
    let shards = progress.first().map_or(0, |r| r.shards.len());
    let mut table = TextTable::new(SHARD_COLUMNS.to_vec()).with_title(format!(
        "SHARD PROGRESS ({} rounds × {shards} shards)",
        progress.len()
    ));
    for round in progress {
        for shard in &round.shards {
            table.push_row(shard_row(shard));
        }
    }
    let mut out = table.render();
    // The per-round wall clock the summary tables used to lose: one line
    // per round, below the table so the per-shard CI greps stay anchored.
    for round in progress {
        out.push_str(&format!(
            "round {} wall time: {}\n",
            round.round,
            millis(round.wall_us)
        ));
    }
    out
}

/// Shared by the multi-row progress table and the single-shard result so
/// `ompfuzz evolve` and `ompfuzz shard` output (and the CI greps over it)
/// can never drift apart. `time` trails `status` so resume greps keyed on
/// `... cached` keep matching.
const SHARD_COLUMNS: [&str; 10] = [
    "round", "shard", "slice", "programs", "mutants", "racy", "outliers", "reduced", "status",
    "time",
];

fn millis(wall_us: u64) -> String {
    format!("{:.1} ms", wall_us as f64 / 1_000.0)
}

fn shard_row(progress: &ShardProgress) -> Vec<String> {
    let s = &progress.summary;
    vec![
        s.round.to_string(),
        format!("{}/{}", s.shard, s.shards),
        format!("{}..{}", s.start, s.end),
        s.programs().to_string(),
        s.mutants.to_string(),
        s.racy.to_string(),
        s.outlier_records.to_string(),
        s.reduced.to_string(),
        progress.status.label().to_string(),
        millis(progress.wall_us),
    ]
}

/// One shard's progress as a standalone table (`ompfuzz shard` output).
pub fn render_shard_summary(progress: &ShardProgress) -> String {
    let mut table = TextTable::new(SHARD_COLUMNS.to_vec()).with_title("SHARD RESULT");
    table.push_row(shard_row(progress));
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_backends::{standard_backends, OmpBackend};
    use ompfuzz_corpus::{run_evolution, EvolveConfig};

    #[test]
    fn catalog_and_evolution_tables_render() {
        let config = EvolveConfig::quick();
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let evolution = run_evolution(&config, &dyns, TriggerCatalog::new());

        let labels = vec!["Intel".to_string(), "Clang".to_string(), "GCC".to_string()];
        let cat = render_catalog(&evolution.catalog, &labels);
        assert!(cat.contains("TRIGGER CATALOG"), "{cat}");
        assert_eq!(
            cat.lines().count(),
            3 + evolution.catalog.len(), // title, header, rule, rows
            "{cat}"
        );
        let evo = render_evolution(&evolution.rounds);
        assert!(evo.contains("EVOLUTION SUMMARY"), "{evo}");
        assert!(evo.lines().count() == 3 + evolution.rounds.len(), "{evo}");
    }

    #[test]
    fn shard_progress_tables_render_with_status_labels() {
        use ompfuzz_corpus::{run_sharded_evolution, ShardedEvolveConfig, TriggerCatalog};
        let mut config = EvolveConfig::quick();
        config.rounds = 1;
        config.base.programs = 12;
        let backends = standard_backends();
        let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
        let result = run_sharded_evolution(
            &ShardedEvolveConfig {
                evolve: config,
                shards: 3,
            },
            &dyns,
            TriggerCatalog::new(),
            None,
            &ompfuzz_obs::Obs::off(),
            &ompfuzz_exec::ProfileCollector::off(),
        )
        .unwrap();
        let table = render_shard_progress(&result.progress);
        assert!(
            table.contains("SHARD PROGRESS (1 rounds × 3 shards)"),
            "{table}"
        );
        // title, header, rule, 3 shard rows, 1 round wall-time line
        assert_eq!(table.lines().count(), 3 + 3 + 1, "{table}");
        assert_eq!(table.matches(" ran").count(), 3, "{table}");
        assert!(table.contains("round 0 wall time:"), "{table}");
        assert_eq!(table.matches(" ms").count(), 4, "{table}");
        let one = render_shard_summary(&result.progress[0].shards[0]);
        assert!(one.contains("SHARD RESULT"), "{one}");
        assert!(one.contains("0/3"), "{one}");
    }

    #[test]
    fn long_skeletons_are_elided() {
        let long = "par{".repeat(30);
        let e = elide(&long);
        assert!(e.len() <= SKELETON_WIDTH);
        assert!(e.contains("..."));
        assert_eq!(elide("comp"), "comp");
    }
}
