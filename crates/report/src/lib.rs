//! # ompfuzz-report
//!
//! Rendering and regeneration of every table and figure in the paper's
//! evaluation, plus the `ompfuzz` command-line interface.
//!
//! * [`experiments`](mod@experiments) — the per-experiment registry (`table1`, `table2`,
//!   `table3`, `fig1`, `fig5`–`fig9`, `versions`); each experiment reruns
//!   its workload and renders paper-style output.
//! * [`table`] — aligned text tables in the paper's visual style.
//! * [`csv`] — campaign export for downstream analysis.
//! * [`reduction`] — summary rendering for the `ompfuzz reduce` test-case
//!   reducer.
//! * [`catalog`] — the trigger-kernel catalog table and the per-round
//!   summary of the `ompfuzz evolve` loop.
//! * [`metrics`] — the `ompfuzz report --metrics` summary of a
//!   `--metrics-out` JSONL telemetry stream.
//! * [`profile`] — the `--profile-out` VM hot-path profile file format and
//!   the `ompfuzz report --profile` hot-opcode/hot-block tables.
//! * [`serve`] — the `ompfuzz status` table over the serve daemon's job
//!   queue.
//!
//! ```
//! use ompfuzz_report::{run_experiment, Scale};
//! let fig5 = run_experiment("fig5", Scale::Quick).unwrap();
//! assert!(fig5.contains("SLOW"));
//! ```

pub mod catalog;
pub mod csv;
pub mod experiments;
pub mod metrics;
pub mod profile;
pub mod reduction;
pub mod serve;
pub mod table;

pub use catalog::{render_catalog, render_evolution, render_shard_progress, render_shard_summary};
pub use csv::campaign_to_csv;
pub use experiments::{
    experiments, hang_run, render_table1, run_experiment, table1_campaign, Experiment, Scale,
};
pub use metrics::{check_schema, render_metrics_report};
pub use profile::{profile_to_json, render_profile_report};
pub use reduction::render_reduction_summary;
pub use serve::render_serve_status;
pub use table::TextTable;
