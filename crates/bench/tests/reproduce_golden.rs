//! The figures the `reproduce` binary prints are pinned: every line is
//! cost-model output (Figures 1a–7b and the ablations), so a diff here means
//! a modeled figure moved. If that is intended, refresh the golden with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bench --test reproduce_golden
//! ```
//!
//! and review its diff like any other code change.

use std::path::PathBuf;

#[test]
fn reproduce_prints_the_golden_figures() {
    // `reproduce` prints each table followed by a blank line.
    let rendered: String = bench::EXPERIMENTS
        .iter()
        .map(|name| bench::render_experiment(name).expect("a known experiment") + "\n")
        .collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/reproduce.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    for (line, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of the figures moved; if intended, refresh with UPDATE_GOLDEN=1",
            line + 1
        );
    }
    assert_eq!(
        rendered, expected,
        "the figures gained or lost lines; if intended, refresh with UPDATE_GOLDEN=1"
    );
}
