//! Table rendering for the experiments.

/// Render a simple fixed-width table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("## {title}\n");
    let hdr: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    out.push_str(&hdr.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> =
            row.iter().enumerate().map(|(i, c)| format!("{c:>w$}", w = widths[i])).collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}
