//! Output: the human-readable table, the result line the driver parses,
//! and the chrome-trace file of a traced run.

use std::io::Write;
use std::path::Path;

use crate::json::escape;
use crate::os::Pinning;
use crate::record::HarnessSpan;
use crate::runner::{RunArgs, RunOutcome};

/// Every metric by name with its unit, then anchors and notes.
pub fn print_table(args: &RunArgs, pinning: &Pinning, outcome: &RunOutcome) {
    println!(
        "workload {} seed {} seconds {} trace {}: pinned to CPUs {:?} of the {} allowed",
        args.workload, args.seed, args.seconds, args.trace as u8, pinning.cpus, pinning.allowed,
    );
    for m in &outcome.metrics {
        let spread = match m.spread {
            Some((lo, hi)) => format!("   of {lo:.6} .. {hi:.6}"),
            None => String::new(),
        };
        println!("  {:<40} {:>18.6} {:<6}{spread}", m.name, m.value, m.unit);
    }
    println!(
        "  {} guest-op samples; {} ops attempted, {} failed",
        outcome.samples, outcome.attempted, outcome.failed
    );
    for a in &outcome.anchors {
        println!(
            "  anchor {:<40} measured {:.4}, published {} ({:.2} % off)",
            a.what,
            a.measured,
            a.published,
            a.err_pct()
        );
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// The one-line JSON object the driver reads from the end of stdout.
pub fn result_line(outcome: &RunOutcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Write the harness spans as a chrome-trace (`chrome://tracing`,
/// Perfetto) file.  Guest calls, native twins and probes get a track
/// each; `args` carries the span id, its parent and the request id.
pub fn write_chrome_trace(path: &Path, spans: &[HarnessSpan]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\": [\n")?;
    for (i, s) in spans.iter().enumerate() {
        let tid = match s.cat {
            "guest" => 1,
            "native" => 2,
            _ => 3,
        };
        write!(
            out,
            "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \
             \"req_id\": {}, \"virt_ns\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            escape(s.name),
            s.cat,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req_id,
            s.virt_ns,
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
