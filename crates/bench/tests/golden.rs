//! Every figure's virtual-time record matches `figures.golden.json`.
//!
//! Virtual time is a pure function of the configuration, so each figure's
//! `virt_json()` repeats byte for byte in any build on any host.  A change
//! that moves a number fails here, naming the figure, row and field; an
//! intended change accepts the fresh file (the failure prints the `cp`
//! line) so the golden's diff is the review.

use std::path::Path;

use vphi_bench::FIGURES;

const GOLDEN: &str = include_str!("../figures.golden.json");

/// Split one JSON row or list on the commas outside strings.
fn split_cells(list: &str) -> Vec<&str> {
    let (mut cells, mut start, mut in_str, mut escaped) = (Vec::new(), 0, false, false);
    for (i, c) in list.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                cells.push(list[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    cells.push(list[start..].trim());
    cells
}

/// The text between a line's outermost `[` and `]`.
fn bracketed(line: &str) -> &str {
    let open = line.find('[').map_or(0, |i| i + 1);
    let close = line.rfind(']').unwrap_or(line.len());
    &line[open..close.max(open)]
}

/// Name the figure, row and field of the first line where `fresh` departs
/// from `golden`, with both values.
fn first_difference(golden: &str, fresh: &str) -> Option<String> {
    let (g, f): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), fresh.lines().collect());
    let at = (0..g.len().max(f.len())).find(|&i| g.get(i) != f.get(i))?;
    let (g_line, f_line) =
        (g.get(at).copied().unwrap_or("<end>"), f.get(at).copied().unwrap_or("<end>"));
    let before = &g[..at.min(g.len())];
    let last = |prefix: &str| before.iter().rposition(|l| l.starts_with(prefix));
    let figure = last("{\"id\": ").map_or("<none>", |i| before[i].trim_start_matches("{\"id\": "));
    let place = if let (true, Some(rows)) = (g_line.starts_with("  ["), last(" \"rows\": [")) {
        let (gc, fc) = (split_cells(bracketed(g_line)), split_cells(bracketed(f_line)));
        let col = (0..gc.len().max(fc.len())).find(|&i| gc.get(i) != fc.get(i)).unwrap_or(0);
        let names = last(" \"columns\": ").map(|i| split_cells(bracketed(before[i])));
        let name = names.and_then(|n| n.get(col).map(|n| n.to_string()));
        format!(
            "row {}, field {}: golden {} vs fresh {}",
            at - rows - 1,
            name.unwrap_or_else(|| format!("#{col}")),
            gc.get(col).unwrap_or(&"<none>"),
            fc.get(col).unwrap_or(&"<none>")
        )
    } else if g_line.starts_with("  \"") {
        let fact = g_line.trim().split(": ").next().unwrap_or("?");
        format!("fact {fact}: golden `{}` vs fresh `{}`", g_line.trim(), f_line.trim())
    } else {
        format!("golden `{g_line}` vs fresh `{f_line}`")
    };
    Some(format!("figure {}, line {}: {place}", figure.trim_end_matches(','), at + 1))
}

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
