//! The benchmark's own tests: the generator, the declared surface, and
//! quick end-to-end runs of the built binary.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use vphi_benchmark::gen::op_stream_bytes;
use vphi_benchmark::json::Json;
use vphi_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use vphi_benchmark::suite::{parse_result_line, ChildResult};

/// Run one workload `--quick` in a child process; returns its exit status,
/// raw stdout and parsed result line.
fn quick_run(workload: &str, trace: bool, extra: &[&str]) -> (bool, String, ChildResult) {
    let out_dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{}", trace as u8));
    let output = Command::new(env!("CARGO_BIN_EXE_vphi-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--quick"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let parsed = parse_result_line(&stdout).unwrap_or_else(|e| {
        panic!(
            "{workload}: {e}\nstdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    (output.status.success(), stdout, parsed)
}

/// Every declared metric appears exactly once in a quick run's result
/// line, with its declared unit and a finite value.
fn assert_declared_metrics(workload: &str, trace: bool) -> ChildResult {
    let (ok, stdout, result) = quick_run(workload, trace, &[]);
    let line = stdout.lines().last().unwrap();
    assert!(ok && result.correct, "{workload} trace {trace}: not correct\n{stdout}");
    assert_eq!(result.failed, 0, "{workload}: failed ops\n{stdout}");
    assert!(result.attempted >= 1);
    let declared: &[spec::MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(result.metrics.len(), declared.len(), "{workload}: metric count");
    for m in declared {
        let (value, unit) = result
            .metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{workload}: {} missing from the result line", m.name));
        assert!(value.is_finite(), "{workload}: {} = {value}", m.name);
        assert_eq!(unit, m.unit, "{workload}: unit of {}", m.name);
        assert_eq!(line.matches(&format!("\"{}\":", m.name)).count(), 1, "{} repeated", m.name);
        if !trace {
            assert!(*value != 0.0, "{workload}: end-to-end metric {} is zero", m.name);
        }
    }
    result
}

/// The checks a traced quick run must pass on every workload.
fn assert_clean_trace(workload: &str, result: &ChildResult) {
    for must_be_zero in [
        "sync.violations",
        "faults.fired",
        "failed_ops_pct",
        "pcie.aperture.mapped_windows_end",
        "pcie.aperture.inflight_end",
        "core.frontend.pending_tokens_end",
        "core.backend.open_endpoints_end",
        "trace.open_spans_end",
    ] {
        assert_eq!(result.metrics[must_be_zero].0, 0.0, "{workload}: {must_be_zero}");
    }
    assert!(result.metrics["paper_err_pct"].0 <= 3.0, "{workload}: paper anchors off");
    let trace_file = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-1"))
        .join(format!("trace_{workload}.json"));
    let trace = Json::parse(&std::fs::read_to_string(&trace_file).expect("trace file")).unwrap();
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let cats: BTreeSet<&str> =
        events.iter().filter_map(|e| e.get("cat").and_then(Json::as_str)).collect();
    assert_eq!(cats, BTreeSet::from(["guest", "native", "probe"]), "{workload}: span tracks");
    // Every native twin and every probe names the guest call it belongs to.
    let guest_ids: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("guest"))
        .filter_map(|e| e.get("args")?.get("id")?.as_f64())
        .map(|id| id as u64)
        .collect();
    for e in events.iter().filter(|e| e.get("cat").and_then(Json::as_str) != Some("guest")) {
        let parent = e.get("args").and_then(|a| a.get("parent")).and_then(Json::as_f64);
        assert!(
            parent.is_some_and(|p| guest_ids.contains(&(p as u64))),
            "{workload}: span without a guest parent: {e:?}"
        );
    }
}

#[test]
fn msg_small_quick_runs_emit_every_metric() {
    assert_declared_metrics("msg_small", false);
    let traced = assert_declared_metrics("msg_small", true);
    assert_clean_trace("msg_small", &traced);
    // One traced root per blocking call: the stages account for all of it.
    assert_eq!(traced.metrics["virt.stage.residual_ns"].0, 0.0);
    assert_eq!(traced.metrics["core.frontend.kicks_per_req"].0, 1.0);
}

#[test]
fn rma_staged_quick_runs_emit_every_metric() {
    assert_declared_metrics("rma_staged", false);
    let traced = assert_declared_metrics("rma_staged", true);
    assert_clean_trace("rma_staged", &traced);
    assert_eq!(traced.metrics["virt.stage.residual_ns"].0, 0.0);
    // Half the ops re-use their range, half slide: exactly half hit.
    assert_eq!(traced.metrics["core.backend.reg_cache_hit_pct"].0, 50.0);
    assert!(traced.metrics["core.backend.reg_cache_evictions"].0 > 0.0, "cold ops must evict");
    assert_eq!(traced.metrics["core.backend.windows_mapped"].0, 0.0);
}

#[test]
fn rma_mapped_quick_runs_emit_every_metric() {
    assert_declared_metrics("rma_mapped", false);
    let traced = assert_declared_metrics("rma_mapped", true);
    assert_clean_trace("rma_mapped", &traced);
    assert_eq!(traced.metrics["virt.stage.residual_ns"].0, 0.0);
    assert!(traced.metrics["core.backend.windows_mapped"].0 > 0.0, "large ops must map");
    assert!(traced.metrics["virt.stage.dma-map_pct"].0 > 0.0);
}

#[test]
fn serve_batch_quick_runs_emit_every_metric() {
    assert_declared_metrics("serve_batch", false);
    let traced = assert_declared_metrics("serve_batch", true);
    assert_clean_trace("serve_batch", &traced);
    assert_eq!(traced.metrics["core.frontend.entries_per_kick"].0, 16.0);
}

#[test]
fn dgemm_launch_quick_runs_emit_every_metric() {
    assert_declared_metrics("dgemm_launch", false);
    let traced = assert_declared_metrics("dgemm_launch", true);
    assert_clean_trace("dgemm_launch", &traced);
    assert_eq!(traced.metrics["phi-device.device_time_mismatch"].0, 0.0);
    assert!(traced.metrics["coi.requests_per_launch"].0 > 1.0);
}

#[test]
fn a_corrupted_payload_is_a_failed_op() {
    let (ok, stdout, result) = quick_run("msg_small", false, &["--corrupt-check", "7"]);
    assert!(!ok, "a run with a failed op must exit non-zero");
    assert!(!result.correct);
    assert_eq!(result.failed, 1, "exactly the corrupted op fails\n{stdout}");
    assert!(stdout.contains("payload mismatch at check 7 (injected)"), "{stdout}");
}

#[test]
fn generator_is_byte_stable_per_seed_and_differs_across_seeds() {
    for w in &WORKLOADS {
        let a = op_stream_bytes(w.name, 7, 3);
        assert!(!a.is_empty());
        assert_eq!(a, op_stream_bytes(w.name, 7, 3), "{}: same seed, different ops", w.name);
        assert_ne!(a, op_stream_bytes(w.name, 8, 3), "{}: seed ignored", w.name);
        // A longer run extends the stream, it does not reshuffle it.
        assert!(
            op_stream_bytes(w.name, 7, 4).starts_with(&a),
            "{}: rounds not independent",
            w.name
        );
    }
}

#[test]
fn declared_surface_respects_the_contract_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name) && names.insert(w.name), "workload name {}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(m.name) && names.insert(m.name), "metric name {}", m.name);
        assert!(unit_ok(m.unit), "unit of {}", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    // Set-up time is declared, in seconds, with the largest bound.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn benchmark_json_matches_the_declared_surface() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(on_disk, spec::benchmark_json(), "regenerate with `-- emit-spec`");
    let json = Json::parse(&on_disk).unwrap();
    let keys: Vec<&str> = json.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert!(on_disk.len() <= 64 * 1024);
}
