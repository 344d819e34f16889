//! A full differential-testing campaign, as in §V of the paper, at a
//! configurable scale.
//!
//! ```sh
//! cargo run --release --example differential_campaign            # 60 programs
//! cargo run --release --example differential_campaign -- 200 3   # paper scale
//! ```
//!
//! Prints the Table-I overview, the most extreme outliers with their
//! triggering programs' features, and writes the per-run record grid to
//! `campaign_records.csv`.

use ompfuzz::ast::ProgramFeatures;
use ompfuzz::backends::{standard_backends, OmpBackend};
use ompfuzz::harness::{generate_corpus, run_campaign, CampaignConfig};
use ompfuzz::report::{campaign_to_csv, render_table1};
use ompfuzz_obs::Obs;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let programs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60);
    let inputs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    let config = CampaignConfig {
        programs,
        inputs_per_program: inputs,
        ..CampaignConfig::paper()
    };
    eprintln!(
        "campaign: {} programs × {} inputs × 3 implementations = {} runs",
        programs,
        inputs,
        programs * inputs * 3
    );

    let backends = standard_backends();
    let dyns: Vec<&dyn OmpBackend> = backends.iter().map(|b| b as &dyn OmpBackend).collect();
    let result = run_campaign(&config, &dyns, &Obs::off());

    println!("{}", render_table1(&result));
    println!("campaign wall time: {:.2?}\n", result.wall_time);

    // Show the most extreme performance outliers and connect them to the
    // structural features of their programs — the paper's case-study step.
    let corpus = generate_corpus(&config);
    let mut perf: Vec<_> = result
        .records
        .iter()
        .filter_map(|r| r.analysis.performance.map(|p| (p.ratio(), p, r)))
        .collect();
    perf.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    println!("top outliers (by distance from the midpoint):");
    for (ratio, p, record) in perf.iter().take(5) {
        let features = ProgramFeatures::of(&corpus[record.program_index].program);
        println!(
            "  {} input {}: {} {} at {:.2}×  [regions={} region-in-serial-loop={} \
             critical-in-omp-for={} reductions={}]",
            record.program_name,
            record.input_index,
            result.labels[p.index()],
            if p.is_slow() { "SLOW" } else { "FAST" },
            ratio,
            features.parallel_regions,
            features.parallel_in_serial_loop,
            features.critical_in_omp_for,
            features.reductions,
        );
    }

    let csv = campaign_to_csv(&result);
    std::fs::write("campaign_records.csv", &csv).expect("write csv");
    println!(
        "\n{} per-run records written to campaign_records.csv",
        result.records.len()
    );
}
