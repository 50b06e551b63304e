//! The whole suite, the way the driver runs it: read `BENCHMARK.json`
//! from the current directory, run its command once per workload and
//! trace mode in a child process (so `peak_rss_mib` is per workload), and
//! collect the result lines.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;

/// One child's parsed result line.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

struct Manifest {
    command: Vec<String>,
    workloads: Vec<String>,
    /// name → (better, bound)
    end_to_end: Vec<(String, String, f64)>,
}

fn read_manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text)?;
    let strings = |key: &str, field: Option<&str>| -> Result<Vec<String>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no {key} array"))?
            .iter()
            .map(|item| {
                field.map_or(Some(item), |f| item.get(f)).and_then(Json::as_str).map(String::from)
            })
            .collect::<Option<Vec<String>>>()
            .ok_or(format!("BENCHMARK.json: malformed {key}"))
    };
    let end_to_end = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end")?;
    Ok(Manifest {
        command: strings("command", None)?,
        workloads: strings("workloads", Some("name"))?,
        end_to_end,
    })
}

/// Parse the last stdout line of a workload process.
pub fn parse_result_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let json = Json::parse(line)?;
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64)?;
            let unit = m.get("unit").and_then(Json::as_str)?;
            Some((name.clone(), (value, unit.to_string())))
        })
        .collect::<Option<BTreeMap<_, _>>>()
        .ok_or("malformed metric in result line")?;
    Ok(ChildResult {
        correct: json.get("correct").and_then(Json::as_bool).ok_or("no correct field")?,
        attempted: json.get("attempted").and_then(Json::as_f64).ok_or("no attempted field")? as u64,
        failed: json.get("failed").and_then(Json::as_f64).ok_or("no failed field")? as u64,
        metrics,
    })
}

fn run_child(
    manifest: &Manifest,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let mut cmd = Command::new(&manifest.command[0]);
    cmd.args(&manifest.command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {:?}: {e}", manifest.command))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child's table, minus its machine-readable last line.
    let body: Vec<&str> = stdout.lines().collect();
    for line in &body[..body.len().saturating_sub(1)] {
        println!("{line}");
    }
    parse_result_line(&stdout).map_err(|e| {
        format!(
            "{workload} (trace {}) gave no result ({e}); exit {:?}; stderr:\n{}",
            trace as u8,
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn metrics_json(metrics: &BTreeMap<String, (f64, String)>) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("        \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{\n{}\n      }}", rows.join(",\n"))
}

/// `run`: every workload, untraced then traced.  Writes
/// `benchmark/out/run_seed<n>.json`; returns whether every run was correct.
pub fn run_suite(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    let manifest = read_manifest()?;
    let mut all_correct = true;
    let mut sections = Vec::new();
    for workload in &manifest.workloads {
        let plain = run_child(&manifest, workload, seed, seconds, false, quick)?;
        let traced = run_child(&manifest, workload, seed, seconds, true, quick)?;
        all_correct &= plain.correct && traced.correct;
        sections.push(format!(
            "    \"{workload}\": {{\n      \"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            plain.correct && traced.correct,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics_json(&plain.metrics),
            metrics_json(&traced.metrics),
        ));
    }
    let body = format!(
        "{{\n  \"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}, \"claim\": null,\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        sections.join(",\n")
    );
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    let path = format!("benchmark/out/run_seed{seed}.json");
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    println!("suite {}; results in {path}", if all_correct { "correct" } else { "INCORRECT" });
    Ok(all_correct)
}

/// `self-check`: the A/A acceptance run.  Two untraced passes of the same
/// build must agree on every end-to-end metric within its bound.
pub fn self_check(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    let manifest = read_manifest()?;
    let mut agree = true;
    for workload in &manifest.workloads {
        let first = run_child(&manifest, workload, seed, seconds, false, quick)?;
        let second = run_child(&manifest, workload, seed, seconds, false, quick)?;
        agree &= first.correct && second.correct;
        for (name, better, bound) in &manifest.end_to_end {
            let (a, b) = match (first.metrics.get(name), second.metrics.get(name)) {
                (Some(a), Some(b)) => (a.0, b.0),
                _ => return Err(format!("{workload}: metric {name} missing from a result line")),
            };
            // How much worse the second pass reads, as a share of the first.
            let worse = if better == "higher" { (a - b) / a } else { (b - a) / a };
            let ok = worse.abs() <= *bound;
            agree &= ok;
            println!(
                "self-check {workload:<13} {name:<22} {a:>16.6} vs {b:>16.6}  {:+7.3} % of ±{:.1} %  {}",
                100.0 * worse,
                100.0 * bound,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    println!("self-check {}", if agree { "passed" } else { "FAILED" });
    Ok(agree)
}
