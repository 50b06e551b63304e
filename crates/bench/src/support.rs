//! The figure record every experiment returns, its printer, JSON and diff,
//! the serial link the contention replays share, and the wall-clock loop
//! timer the overhead ablations share.

use std::fmt;
use std::time::Instant;

use vphi_sim_core::units::{format_bytes, format_throughput};
use vphi_sim_core::{CostModel, SimDuration, SimTime, SpanLabel, Timeline};

/// One typed value of a figure: a table cell, a fact or a wall reading.
/// `Display` is the table text; [`Cell::json`] the raw value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Virtual time, printed as [`SimDuration`] prints; JSON integer ns.
    Time(SimDuration),
    /// Virtual nanoseconds printed raw (`10600 ns`); JSON integer.
    Ns(u64),
    /// A byte count, printed by [`format_bytes`]; JSON integer.
    Bytes(u64),
    /// Bytes per second, printed by [`format_throughput`].
    Rate(f64),
    /// A fraction, printed as a percentage with this many decimals; JSON
    /// the fraction.
    Share(f64, usize),
    /// An integer count.
    Count(u64),
    /// A derived number, printed with this many decimals and this unit.
    Real(f64, usize, &'static str),
    Flag(bool),
    Text(String),
}

impl Cell {
    /// The raw JSON value: integers stay integers, a derived `f64` is
    /// Rust's shortest round-trip form.
    pub fn json(&self) -> String {
        match self {
            Cell::Time(d) => d.as_nanos().to_string(),
            Cell::Ns(n) | Cell::Bytes(n) | Cell::Count(n) => n.to_string(),
            Cell::Rate(v) | Cell::Share(v, _) | Cell::Real(v, ..) if v.is_finite() => v.to_string(),
            Cell::Rate(_) | Cell::Share(..) | Cell::Real(..) => "null".to_string(),
            Cell::Flag(b) => b.to_string(),
            Cell::Text(s) => json_str(s),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Time(d) => write!(f, "{d}"),
            Cell::Ns(n) => write!(f, "{n} ns"),
            Cell::Bytes(n) => f.write_str(&format_bytes(*n)),
            Cell::Rate(v) => f.write_str(&format_throughput(*v)),
            &Cell::Share(v, digits) => write!(f, "{:.digits$}%", 100.0 * v),
            Cell::Count(n) => write!(f, "{n}"),
            &Cell::Real(v, digits, unit) => write!(f, "{v:.digits$}{unit}"),
            Cell::Flag(b) => write!(f, "{b}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One figure: a titled table of typed rows, named facts, the note lines
/// printed under the table, and the host-time readings that vary between
/// runs.  The printed table and [`Figure::virt_json`] both derive from
/// the same cells; only the JSON is golden, and it never reads `wall`.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    id: &'static str,
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<Cell>>,
    facts: Vec<(String, Cell)>,
    notes: Vec<String>,
    wall: Vec<(String, Cell)>,
}

impl Figure {
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&'static str]) -> Self {
        Figure {
            id,
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            facts: Vec::new(),
            notes: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Append a table row; it must have one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: row width != column count", self.id);
        self.rows.push(cells);
    }

    /// Record a named virtual-time fact; returns its table text, for the
    /// note that shows it.
    pub fn fact(&mut self, name: impl Into<String>, value: Cell) -> String {
        let text = value.to_string();
        self.facts.push((name.into(), value));
        text
    }

    /// A line printed under the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A host reading that varies run to run: printed, never in the JSON.
    pub fn wall(&mut self, name: impl Into<String>, value: Cell) {
        self.wall.push((name.into(), value));
    }

    /// The virtual-time record as JSON, one row and one fact per line, so
    /// a moved value is a one-line diff.
    pub fn virt_json(&self) -> String {
        let block = |open: char, close: char, lines: Vec<String>| {
            if lines.is_empty() {
                format!("{open}{close}")
            } else {
                format!("{open}\n{}\n {close}", lines.join(",\n"))
            }
        };
        let list = |items: Vec<String>| items.join(", ");
        let columns = list(self.columns.iter().map(|c| json_str(c)).collect());
        let rows = self
            .rows
            .iter()
            .map(|r| format!("  [{}]", list(r.iter().map(Cell::json).collect())))
            .collect();
        let facts =
            self.facts.iter().map(|(k, v)| format!("  {}: {}", json_str(k), v.json())).collect();
        format!(
            "{{\"id\": {},\n \"title\": {},\n \"columns\": [{columns}],\n \"rows\": {},\n \"facts\": {}}}",
            json_str(self.id),
            json_str(&self.title),
            block('[', ']', rows),
            block('{', '}', facts),
        )
    }
}

/// The printed figure: the table, then its notes and wall readings.
impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Cell::to_string).collect()).collect();
        writeln!(f, "{}", render_table(&self.title, &self.columns, &rows))?;
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        if !self.wall.is_empty() {
            writeln!(f, "wall (host readings, vary run to run):")?;
            for (name, v) in &self.wall {
                writeln!(f, "  {name}: {v}")?;
            }
        }
        if !self.notes.is_empty() || !self.wall.is_empty() {
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Split one JSON row or list on the commas outside strings.
pub fn split_cells(list: &str) -> Vec<&str> {
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
pub fn bracketed(line: &str) -> &str {
    let open = line.find('[').map_or(0, |i| i + 1);
    let close = line.rfind(']').unwrap_or(line.len());
    &line[open..close.max(open)]
}

/// Name the figure, row and field of the first line where `fresh` departs
/// from `golden` (both lists of [`Figure::virt_json`] records), with both
/// values.  A row is named by its index and its leading text cells, so a
/// host-cost row reads as its shape and side.
pub fn first_difference(golden: &str, fresh: &str) -> Option<String> {
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
        let name = names.and_then(|n| n.get(col).map(|n| n.trim_matches('"').to_string()));
        let label: Vec<&str> =
            gc.iter().take_while(|c| c.starts_with('"')).map(|c| c.trim_matches('"')).collect();
        format!(
            "row {}{}, field {}: golden {} vs fresh {}",
            at - rows - 1,
            if label.is_empty() { String::new() } else { format!(" ({})", label.join(", ")) },
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

/// Wall ns per call of `f`: 2 M calls run as 5 equal passes and the
/// fastest pass is reported, so a preempted pass cannot set the number
/// (and the first pass warms the path).
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: u64 = 2_000_000;
    const PASSES: u64 = 5;
    const PER_PASS: u64 = CALLS / PASSES;
    (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PER_PASS {
                f();
            }
            start.elapsed().as_nanos() as f64 / PER_PASS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A PCIe link replayed at explicit virtual instants, for the experiments
/// that model queueing on a shared link (SHARE, MQ-SCALE).  A transfer
/// starts when it is issued or when the transfers issued before it have
/// left, whichever is later: the link serves in issue order.  The stack's
/// own `PcieLink` keeps no such state — it charges each request as if
/// alone.
#[derive(Debug)]
pub struct SerialLink<'a> {
    cost: &'a CostModel,
    free_at: SimTime,
}

impl<'a> SerialLink<'a> {
    /// An idle link with `cost`'s latency and bandwidth.
    pub fn new(cost: &'a CostModel) -> Self {
        SerialLink { cost, free_at: SimTime::ZERO }
    }

    /// Issue `bytes` at `at`: charge the link latency, the wait behind the
    /// transfers issued before it and the transfer itself to `tl`, and
    /// return when its last byte arrives.
    pub fn transmit(&mut self, at: SimTime, bytes: u64, tl: &mut Timeline) -> SimTime {
        let hold = self.cost.link_transfer(bytes);
        let start = self.free_at.max(at);
        self.free_at = start + hold;
        tl.charge(SpanLabel::LinkLatency, self.cost.link_latency);
        tl.charge(SpanLabel::LinkContention, start.elapsed_since(at));
        tl.charge(SpanLabel::LinkTransfer, hold);
        self.free_at + self.cost.link_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_link_queues_in_issue_order() {
        let cost = CostModel::paper_calibrated();
        let (latency, hold) = (cost.link_latency, cost.link_transfer(1 << 20));
        let mut link = SerialLink::new(&cost);
        let issue = |link: &mut SerialLink<'_>, at| {
            let mut tl = Timeline::new();
            let end = link.transmit(SimTime(at), 1 << 20, &mut tl);
            (end, tl.total_for(SpanLabel::LinkContention))
        };
        assert_eq!(issue(&mut link, 0), (SimTime::ZERO + hold + latency, SimDuration::ZERO));
        // Issued before the first has left: it waits for the link.
        let (end, queued) = issue(&mut link, 10);
        assert_eq!(queued, hold - SimDuration(10));
        assert_eq!(end, SimTime::ZERO + hold * 2 + latency);
        // Issued once the link is free: it starts at once.
        let at = (hold * 3).as_nanos();
        assert_eq!(issue(&mut link, at), (SimTime(at) + hold + latency, SimDuration::ZERO));
    }
}
