//! The paper-report experiments, pinned byte for byte: every registered
//! experiment except `table1` renders at both scales exactly the text in
//! `tests/golden/`, which is `ompfuzz reproduce -e ID [--quick]` output.
//! `table1` is left out because the campaign's own `cmp` gates pin it.
//!
//! A change that means to alter a report regenerates its file from the
//! release binary, e.g.
//! `ompfuzz reproduce -e table2 --quick > crates/report/tests/golden/table2.quick.txt`.

use ompfuzz_report::{experiments, run_experiment, Scale};
use std::path::Path;

/// The experiments whose text differs from the golden file at `scale`,
/// each with the first line that differs.
fn mismatches(scale: Scale, tag: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut ids: Vec<&str> = experiments().iter().map(|e| e.id).collect();
    ids.retain(|&id| id != "table1");
    assert_eq!(ids.len(), 9, "a new experiment needs a golden file");
    ids.into_iter()
        .filter_map(|id| {
            let path = dir.join(format!("{id}.{tag}.txt"));
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            // `reproduce` prints the experiment with `println!`.
            let got = run_experiment(id, scale).unwrap() + "\n";
            (got != want).then(|| {
                let line = got
                    .lines()
                    .zip(want.lines())
                    .position(|(g, w)| g != w)
                    .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
                format!(
                    "{id} ({tag}) differs at line {}: got {:?}, want {:?}",
                    line + 1,
                    got.lines().nth(line),
                    want.lines().nth(line)
                )
            })
        })
        .collect()
}

#[test]
fn quick_experiments_match_golden_text() {
    let diffs = mismatches(Scale::Quick, "quick");
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn paper_experiments_match_golden_text() {
    let diffs = mismatches(Scale::Paper, "paper");
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}
