//! Every figure's virtual-time record matches `figures.golden.json`.
//!
//! Virtual time is a pure function of the configuration, so each figure's
//! `virt_json()` repeats byte for byte in any build on any host.  A change
//! that moves a number fails here, naming the figure, row and field; an
//! intended change accepts the fresh file (the failure prints the `cp`
//! line) so the golden's diff is the review.

use std::path::Path;

use vphi_bench::support::first_difference;
use vphi_bench::FIGURES;

const GOLDEN: &str = include_str!("../figures.golden.json");

#[test]
fn every_figure_matches_the_golden() {
    let figures: Vec<String> =
        FIGURES.iter().flat_map(|(_, run)| run()).map(|f| f.virt_json()).collect();
    let fresh = format!("[\n{}\n]\n", figures.join(",\n"));
    if let Some(difference) = first_difference(GOLDEN, &fresh) {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures.golden.json");
        std::fs::write(&out, &fresh).expect("write the fresh figures");
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("figures.golden.json");
        panic!(
            "a figure moved: {difference}\naccept it with:\n  cp {} {}",
            out.display(),
            golden.display()
        );
    }
}

/// The comparator names what moved: a `host-cost` row doctored by one in
/// one count fails naming its shape, side and column.
#[test]
fn a_host_cost_moved_by_one_is_named_by_shape_side_and_column() {
    use vphi_bench::support::{bracketed, split_cells};

    let golden = include_str!("../host_cost.golden.json");
    let columns = golden.lines().find(|l| l.starts_with(" \"columns\": ")).unwrap();
    let at = split_cells(bracketed(columns)).iter().position(|&c| c == "\"signals\"").unwrap();
    let row = golden.lines().find(|l| l.starts_with("  [\"send 1 B\", \"guest\"")).unwrap();
    let mut cells = split_cells(bracketed(row));
    let (was, moved) = (cells[at], (cells[at].parse::<f64>().unwrap() + 1.0).to_string());
    cells[at] = &moved;
    let doctored = golden.replace(row, &format!("  [{}],", cells.join(", ")));

    let named = first_difference(golden, &doctored).expect("a difference");
    let expected = format!("(send 1 B, guest), field signals: golden {was} vs fresh {moved}");
    assert!(named.contains(&expected), "{named}");
}
