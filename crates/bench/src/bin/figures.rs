//! `figures` — regenerate every table and figure of the paper (plus the
//! ablations) and print them as tables of virtual-time measurements.
//!
//! ```text
//! figures                # everything
//! figures --fig 4        # just Figure 4
//! figures --fig breakdown
//! figures --fig 6|7|8|abl-wait|abl-chunk|abl-block|abl-cache|abl-faults|trace-breakdown|zero-copy|share|mq-scale|open-loop
//! ```

use vphi_bench::abl_cache::abl_cache;
use vphi_bench::ablations::{abl_block, abl_chunk, abl_wait};
use vphi_bench::breakdown::breakdown_one_byte;
use vphi_bench::dgemm::{dgemm_figure, dgemm_sizes};
use vphi_bench::faults::abl_faults;
use vphi_bench::fig4::fig4_latency;
use vphi_bench::fig5::fig5_throughput;
use vphi_bench::mq_scale::mq_scale;
use vphi_bench::open_loop::open_loop;
use vphi_bench::sharing::sharing_scaling;
use vphi_bench::support::render_table;
use vphi_bench::trace_breakdown::{trace_breakdown, DISARMED_PROBE_BUDGET_NS};
use vphi_bench::zero_copy::zero_copy;
use vphi_sim_core::units::{format_bytes, format_throughput};
use vphi_trace::Stage;

fn fig4() {
    let rows = fig4_latency();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format_bytes(r.bytes),
                r.host.to_string(),
                r.vphi.to_string(),
                r.overhead().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Fig. 4 — send-receive communication latency",
            &["size", "host", "vPHI", "overhead"],
            &table,
        )
    );
    println!("paper anchors: host 1B = 7us, vPHI 1B = 382us, constant offset ~375us\n");
}

fn breakdown() {
    let (total, overhead, rows) = breakdown_one_byte();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.label),
                r.time.to_string(),
                if r.overhead_share > 0.0 {
                    format!("{:.1}%", 100.0 * r.overhead_share)
                } else {
                    "-".to_string()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Breakdown — vPHI 1-byte send (§IV-B)",
            &["component", "time", "share of overhead"],
            &table,
        )
    );
    println!("total = {total}, virtualization overhead = {overhead}");
    println!("paper: \"93% of this overhead attributes to the waiting scheme\"\n");
}

fn fig5() {
    let rows = fig5_throughput();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format_bytes(r.bytes),
                format_throughput(r.host_bw),
                format_throughput(r.vphi_bw),
                format!("{:.1}%", 100.0 * r.ratio()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Fig. 5 — remote memory access throughput",
            &["size", "host", "vPHI", "vPHI/host"],
            &table,
        )
    );
    println!("paper anchors: host peak 6.4GB/s, vPHI 4.6GB/s (72%)\n");
}

fn dgemm_fig(threads: u32, fig_no: u32) {
    let rows = dgemm_figure(threads, &dgemm_sizes());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format_bytes(r.input_bytes),
                r.host_total.to_string(),
                r.vphi_total.to_string(),
                r.device_time.to_string(),
                format!("{:.3}", r.normalized()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("Fig. {fig_no} — dgemm launch+execution, {threads} threads"),
            &["N", "inputs", "host", "vPHI", "on-device", "vPHI/host"],
            &table,
        )
    );
    println!("paper: overhead amortizes as input size grows (ratio → 1)\n");
}

fn abl_wait_fig() {
    let rows = abl_wait();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.to_string(),
                format_bytes(r.bytes),
                r.latency.to_string(),
                if r.slept { "sleep".into() } else { "spin".into() },
                format!("{} ns", r.spin_burn_ns),
                format!("{} ns", r.svc_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABL-WAIT — waiting schemes (paper's future-work hybrid included)",
            &["scheme", "size", "latency", "vCPU", "spin burn", "service"],
            &table,
        )
    );
    println!("adaptive spins small requests below the EWMA budget, sleeps bulk at once\n");

    // Machine-readable companion for plotting scripts.
    let json = abl_wait_json(&rows);
    let path = "BENCH_wait.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn abl_wait_json(rows: &[vphi_bench::WaitRow]) -> String {
    let series = |f: &dyn Fn(&vphi_bench::WaitRow) -> String| -> String {
        rows.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\n  \"figure\": \"abl-wait\",\n  \"unit\": \"nanoseconds_virtual_time\",\n\
         \x20 \"schemes\": [{}],\n  \"sizes_bytes\": [{}],\n  \"latency_ns\": [{}],\n\
         \x20 \"slept\": [{}],\n  \"spin_burn_ns\": [{}],\n  \"service_ns\": [{}]\n}}\n",
        series(&|r| format!("\"{}\"", r.scheme)),
        series(&|r| r.bytes.to_string()),
        series(&|r| r.latency.as_nanos().to_string()),
        series(&|r| r.slept.to_string()),
        series(&|r| r.spin_burn_ns.to_string()),
        series(&|r| r.svc_ns.to_string()),
    )
}

fn abl_chunk_fig() {
    let rows = abl_chunk();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![format_bytes(r.chunk), format_bytes(r.transfer), format_throughput(r.bandwidth)]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABL-CHUNK — staging chunk size vs 64MiB send bandwidth",
            &["chunk", "transfer", "bandwidth"],
            &table,
        )
    );
}

fn abl_block_fig() {
    let rows = abl_block();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                format_bytes(r.bytes),
                r.latency.to_string(),
                r.vm_paused.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABL-BLOCK — backend dispatch: blocking vs worker threads",
            &["policy", "size", "latency", "VM paused"],
            &table,
        )
    );
}

fn abl_cache_fig() {
    let report = abl_cache();
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format_bytes(r.bytes),
                format_throughput(r.native_bw),
                format_throughput(r.cold_bw),
                format_throughput(r.warm_bw),
                format!("{:.1}%", 100.0 * r.cold_ratio()),
                format!("{:.1}%", 100.0 * r.warm_ratio()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABL-CACHE — remote-read throughput with the registration cache off/on",
            &["size", "native", "cache off", "cache warm", "off/native", "warm/native"],
            &table,
        )
    );
    println!(
        "warm VM cache: {} hits / {} misses (hit rate {:.0}%)",
        report.warm_hits,
        report.warm_misses,
        100.0 * report.hit_rate
    );
    println!("cache off reproduces Fig. 5's 72% ceiling; warm reads land within 10% of native\n");

    // Machine-readable companion for plotting scripts.
    let json = abl_cache_json(&report);
    let path = "BENCH_abl_cache.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn abl_cache_json(report: &vphi_bench::AblCacheReport) -> String {
    let field = |name: &str, f: fn(&vphi_bench::AblCacheRow) -> f64| -> String {
        let vals: Vec<String> = report.rows.iter().map(|r| format!("{:.1}", f(r))).collect();
        format!("  \"{}\": [{}]", name, vals.join(", "))
    };
    let sizes: Vec<String> = report.rows.iter().map(|r| r.bytes.to_string()).collect();
    format!(
        "{{\n  \"figure\": \"abl-cache\",\n  \"unit\": \"bytes_per_second_virtual_time\",\n\
         \x20 \"sizes_bytes\": [{}],\n{},\n{},\n{},\n\
         \x20 \"warm_hits\": {},\n  \"warm_misses\": {},\n  \"warm_hit_rate\": {:.4}\n}}\n",
        sizes.join(", "),
        field("native_bw", |r| r.native_bw),
        field("cache_off_bw", |r| r.cold_bw),
        field("cache_warm_bw", |r| r.warm_bw),
        report.warm_hits,
        report.warm_misses,
        report.hit_rate,
    )
}

fn abl_faults_fig() {
    let report = abl_faults();
    let table = vec![
        vec![
            "hook fire (disarmed)".to_string(),
            format!("{:.1} ns", report.disarmed_ns_per_fire),
            String::new(),
        ],
        vec![
            "hook fire (armed, idle plan)".to_string(),
            format!("{:.1} ns", report.armed_idle_ns_per_fire),
            String::new(),
        ],
        vec![
            "1-byte send (hooks disarmed)".to_string(),
            report.latency_disarmed.to_string(),
            format!("{:.0} ns wall", report.send_wall_ns),
        ],
        vec![
            "1-byte send (hooks armed)".to_string(),
            report.latency_armed.to_string(),
            format!("{} hook crossings", report.crossings_per_send),
        ],
        vec![
            "hook share of send wall time".to_string(),
            format!("{:.4}%", report.hook_overhead_pct),
            "budget: <1%".to_string(),
        ],
        vec![
            "card reset, 2 VMs attached".to_string(),
            report.reset_recovery.to_string(),
            format!(
                "quarantined {}/{} (victim/bystander)",
                report.victim_quarantined, report.bystander_quarantined
            ),
        ],
    ];
    println!(
        "{}",
        render_table(
            "ABL-FAULTS — steady-state cost of disarmed fault hooks + recovery latency",
            &["measurement", "cost", "notes"],
            &table,
        )
    );
    println!(
        "bystander unaffected: {}; victim reconnected after reset: {}\n",
        report.bystander_send_ok, report.victim_recovered_send_ok
    );

    // Machine-readable companion for plotting scripts.
    let json = abl_faults_json(&report);
    let path = "BENCH_faults.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn abl_faults_json(report: &vphi_bench::FaultsReport) -> String {
    format!(
        "{{\n  \"figure\": \"abl-faults\",\n\
         \x20 \"disarmed_ns_per_fire\": {:.2},\n\
         \x20 \"armed_idle_ns_per_fire\": {:.2},\n\
         \x20 \"crossings_per_send\": {},\n\
         \x20 \"send_wall_ns\": {:.0},\n\
         \x20 \"hook_overhead_pct\": {:.4},\n\
         \x20 \"latency_disarmed_us\": {:.3},\n\
         \x20 \"latency_armed_us\": {:.3},\n\
         \x20 \"reset_recovery_us\": {:.3},\n\
         \x20 \"victim_quarantined\": {},\n\
         \x20 \"bystander_quarantined\": {},\n\
         \x20 \"bystander_send_ok\": {},\n\
         \x20 \"victim_recovered_send_ok\": {}\n}}\n",
        report.disarmed_ns_per_fire,
        report.armed_idle_ns_per_fire,
        report.crossings_per_send,
        report.send_wall_ns,
        report.hook_overhead_pct,
        report.latency_disarmed.as_micros_f64(),
        report.latency_armed.as_micros_f64(),
        report.reset_recovery.as_micros_f64(),
        report.victim_quarantined,
        report.bystander_quarantined,
        report.bystander_send_ok,
        report.victim_recovered_send_ok,
    )
}

fn trace_breakdown_fig() {
    let report = trace_breakdown();

    let mut anchor_table: Vec<Vec<String>> = Stage::ALL
        .iter()
        .map(|s| {
            let t = report.anchor_stages[s.index()];
            let share = 100.0 * t.as_nanos() as f64 / report.anchor_total.as_nanos() as f64;
            vec![s.name().to_string(), t.to_string(), format!("{share:.1}%")]
        })
        .collect();
    anchor_table.push(vec![
        "end-to-end".to_string(),
        report.anchor_total.to_string(),
        "100.0%".to_string(),
    ]);
    println!(
        "{}",
        render_table(
            "TRACE — 1-byte send decomposed by stage (Fig. 4 anchor)",
            &["stage", "time", "share"],
            &anchor_table,
        )
    );

    let sweep_table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![format_bytes(r.bytes), r.native.to_string(), r.vphi.to_string()];
            row.extend(Stage::ALL.iter().map(|s| r.stages[s.index()].to_string()));
            row.push(format!("{:.2}%", r.reconcile_err_pct()));
            row
        })
        .collect();
    let mut headers = vec!["size", "native", "vPHI"];
    headers.extend(Stage::ALL.iter().map(|s| s.name()));
    headers.push("recon err");
    println!(
        "{}",
        render_table(
            "TRACE — Fig. 5 sweep decomposed by stage (where the 28% goes)",
            &headers,
            &sweep_table,
        )
    );
    println!(
        "disarmed probe: {:.1} ns; {} probes/send = {:.1} ns (budget {DISARMED_PROBE_BUDGET_NS:.0} ns), {:.4}% of {:.0} ns wall\n",
        report.disarmed_probe_ns,
        report.spans_per_send + report.roots_per_send,
        report.disarmed_probes_ns,
        report.trace_overhead_pct,
        report.send_wall_ns,
    );
    assert!(
        report.disarmed_probes_ns <= DISARMED_PROBE_BUDGET_NS,
        "disarmed probes cost {:.1} ns per send, over the {DISARMED_PROBE_BUDGET_NS:.0} ns budget",
        report.disarmed_probes_ns
    );

    // Machine-readable companion for plotting scripts.
    let json = trace_breakdown_json(&report);
    let path = "BENCH_trace.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn trace_breakdown_json(report: &vphi_bench::TraceBreakdownReport) -> String {
    let stage_series = |f: &dyn Fn(&vphi_bench::TraceStageRow, Stage) -> u64| -> String {
        Stage::ALL
            .iter()
            .map(|&s| {
                let vals: Vec<String> = report.rows.iter().map(|r| f(r, s).to_string()).collect();
                format!("    \"{}\": [{}]", s.name(), vals.join(", "))
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let sizes: Vec<String> = report.rows.iter().map(|r| r.bytes.to_string()).collect();
    let native: Vec<String> = report.rows.iter().map(|r| r.native.as_nanos().to_string()).collect();
    let vphi: Vec<String> = report.rows.iter().map(|r| r.vphi.as_nanos().to_string()).collect();
    let anchor: Vec<String> = Stage::ALL
        .iter()
        .map(|s| format!("    \"{}\": {}", s.name(), report.anchor_stages[s.index()].as_nanos()))
        .collect();
    format!(
        "{{\n  \"figure\": \"trace-breakdown\",\n  \"unit\": \"nanoseconds_virtual_time\",\n\
         \x20 \"anchor_total_ns\": {},\n  \"anchor_stages_ns\": {{\n{}\n  }},\n\
         \x20 \"sizes_bytes\": [{}],\n  \"native_ns\": [{}],\n  \"vphi_ns\": [{}],\n\
         \x20 \"stages_ns\": {{\n{}\n  }},\n\
         \x20 \"max_reconcile_err_pct\": {:.4},\n\
         \x20 \"spans_per_send\": {},\n  \"roots_per_send\": {},\n\
         \x20 \"disarmed_probe_ns\": {:.2},\n  \"send_wall_ns\": {:.0},\n\
         \x20 \"trace_overhead_pct\": {:.4}\n}}\n",
        report.anchor_total.as_nanos(),
        anchor.join(",\n"),
        sizes.join(", "),
        native.join(", "),
        vphi.join(", "),
        stage_series(&|r, s| r.stages[s.index()].as_nanos()),
        report.rows.iter().map(vphi_bench::TraceStageRow::reconcile_err_pct).fold(0.0f64, f64::max),
        report.spans_per_send,
        report.roots_per_send,
        report.disarmed_probe_ns,
        report.send_wall_ns,
        report.trace_overhead_pct,
    )
}

fn zero_copy_fig() {
    let report = zero_copy();
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format_bytes(r.bytes),
                format_throughput(r.native_bw),
                format_throughput(r.off_bw),
                format_throughput(r.zc_cold_bw),
                format_throughput(r.zc_warm_bw),
                format!("{:.1}%", 100.0 * r.off_ratio()),
                format!("{:.1}%", 100.0 * r.zc_cold_ratio()),
                format!("{:.1}%", 100.0 * r.zc_warm_ratio()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ZERO-COPY — large-RMA throughput: staged seed vs aperture-mapped gather",
            &[
                "size",
                "native",
                "staged",
                "zc cold",
                "zc warm",
                "staged/nat",
                "cold/nat",
                "warm/nat"
            ],
            &table,
        )
    );
    let peak = report.rows.last().expect("rows");
    println!(
        "256MiB cache-cold: staged {:.1}% vs zero-copy {:.1}% of native (target ≥95%, floor 90%)",
        100.0 * peak.off_ratio(),
        100.0 * peak.zc_cold_ratio()
    );
    println!(
        "anchors: off {} / on {} (must be byte-identical); counters: {} maps, {} hits, {} sg descriptors, {} bytes unstaged",
        report.anchor_off,
        report.anchor_zc,
        report.windows_mapped,
        report.map_hits,
        report.sg_descriptors,
        report.staging_bytes_avoided,
    );
    println!(
        "aperture audit after close: {} windows, {} inflight (both must be 0)\n",
        report.mapped_after_close, report.inflight_after_close
    );
    assert_eq!(report.anchor_off, report.anchor_zc, "zero-copy moved the 1-byte anchor");
    assert!(
        peak.zc_cold_ratio() >= 0.90,
        "cache-cold zero-copy at 256MiB below the 90% floor: {:.3}",
        peak.zc_cold_ratio()
    );

    // Machine-readable companion for plotting scripts.
    let json = zero_copy_json(&report);
    let path = "BENCH_zc.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn zero_copy_json(report: &vphi_bench::ZeroCopyReport) -> String {
    let field = |name: &str, f: fn(&vphi_bench::ZeroCopyRow) -> f64| -> String {
        let vals: Vec<String> = report.rows.iter().map(|r| format!("{:.1}", f(r))).collect();
        format!("  \"{}\": [{}]", name, vals.join(", "))
    };
    let stages = |s: &[vphi_sim_core::SimDuration]| -> String {
        Stage::ALL
            .iter()
            .map(|st| format!("    \"{}\": {}", st.name(), s[st.index()].as_nanos()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let sizes: Vec<String> = report.rows.iter().map(|r| r.bytes.to_string()).collect();
    format!(
        "{{\n  \"figure\": \"zero-copy\",\n  \"unit\": \"bytes_per_second_virtual_time\",\n\
         \x20 \"sizes_bytes\": [{}],\n{},\n{},\n{},\n{},\n\
         \x20 \"anchor_off_ns\": {},\n  \"anchor_zc_ns\": {},\n\
         \x20 \"peak_stages_off_ns\": {{\n{}\n  }},\n\
         \x20 \"peak_stages_zc_ns\": {{\n{}\n  }},\n\
         \x20 \"windows_mapped\": {},\n  \"map_hits\": {},\n  \"sg_descriptors\": {},\n\
         \x20 \"staging_bytes_avoided\": {},\n  \"off_staging_bytes_avoided\": {},\n\
         \x20 \"mapped_after_close\": {},\n  \"inflight_after_close\": {}\n}}\n",
        sizes.join(", "),
        field("native_bw", |r| r.native_bw),
        field("staged_bw", |r| r.off_bw),
        field("zc_cold_bw", |r| r.zc_cold_bw),
        field("zc_warm_bw", |r| r.zc_warm_bw),
        report.anchor_off.as_nanos(),
        report.anchor_zc.as_nanos(),
        stages(&report.peak_stages_off),
        stages(&report.peak_stages_zc),
        report.windows_mapped,
        report.map_hits,
        report.sg_descriptors,
        report.staging_bytes_avoided,
        report.off_staging_bytes_avoided,
        report.mapped_after_close,
        report.inflight_after_close,
    )
}

fn share_fig() {
    let rows = sharing_scaling(&[1, 2, 4, 8]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.vms.to_string(),
                format_bytes(r.bytes_each),
                r.mean_latency.to_string(),
                format_throughput(r.aggregate_bw),
                format!("{:.3}", r.fairness),
                format!("{:.2}x", r.compute_slowdown),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "SHARE — N VMs sharing one Xeon Phi (64MiB remote reads + 224-thread dgemm each)",
            &["VMs", "bytes/VM", "mean latency", "aggregate BW", "fairness", "compute slowdown"],
            &table,
        )
    );
}

fn mq_scale_fig() {
    let report = mq_scale();
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.queues.to_string(),
                r.vms.to_string(),
                r.requests.to_string(),
                format_bytes(r.bytes_each),
                format!("{:.0}%", 100.0 * r.busiest_lane_share),
                r.makespan.to_string(),
                format_throughput(r.aggregate_bw),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "MQ-SCALE — aggregate throughput vs virtqueue lanes × VMs",
            &["queues", "VMs", "requests", "bytes/req", "busiest lane", "makespan", "aggregate BW"],
            &table,
        )
    );
    println!("4-VM speedup at 4 queues vs 1: {:.2}x (floor 2.5x)", report.mq_speedup());
    println!(
        "1-queue 1B anchor: {} (seed: 382us); default config: {}",
        report.anchor_single_queue, report.anchor_default
    );
    println!(
        "pipelined {} read: {} vs monolithic {} ({:.1}% better, floor 20%)\n",
        format_bytes(report.rma_bytes),
        report.rma_pipelined,
        report.rma_monolithic,
        report.rma_improvement_pct()
    );

    // Machine-readable companion for plotting scripts.
    let json = mq_scale_json(&report);
    let path = "BENCH_mq.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn mq_scale_json(report: &vphi_bench::MqScaleReport) -> String {
    let series = |f: &dyn Fn(&vphi_bench::MqScaleRow) -> String| -> String {
        report.rows.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\n  \"figure\": \"mq-scale\",\n  \"unit\": \"bytes_per_second_virtual_time\",\n\
         \x20 \"queues\": [{}],\n  \"vms\": [{}],\n  \"requests\": [{}],\n\
         \x20 \"busiest_lane_share\": [{}],\n  \"makespan_ns\": [{}],\n\
         \x20 \"aggregate_bw\": [{}],\n\
         \x20 \"mq_speedup_4vm_4q_vs_1q\": {:.4},\n\
         \x20 \"anchor_single_queue_ns\": {},\n  \"anchor_default_ns\": {},\n\
         \x20 \"rma_bytes\": {},\n  \"rma_monolithic_ns\": {},\n\
         \x20 \"rma_pipelined_ns\": {},\n  \"rma_improvement_pct\": {:.2}\n}}\n",
        series(&|r| r.queues.to_string()),
        series(&|r| r.vms.to_string()),
        series(&|r| r.requests.to_string()),
        series(&|r| format!("{:.4}", r.busiest_lane_share)),
        series(&|r| r.makespan.as_nanos().to_string()),
        series(&|r| format!("{:.1}", r.aggregate_bw)),
        report.mq_speedup(),
        report.anchor_single_queue.as_nanos(),
        report.anchor_default.as_nanos(),
        report.rma_bytes,
        report.rma_monolithic.as_nanos(),
        report.rma_pipelined.as_nanos(),
        report.rma_improvement_pct(),
    )
}

fn open_loop_fig() {
    let report = open_loop();
    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                if r.batch == 1 { "1/kick".to_string() } else { format!("batch {}", r.batch) },
                format!("{:.0}", r.rate_per_vm),
                r.vms.to_string(),
                r.requests.to_string(),
                format!("{:.0}", r.throughput_rps),
                r.p50.to_string(),
                r.p99.to_string(),
                r.p999.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "OPEN-LOOP — serving throughput-latency: batched SQ/CQ vs one-request-per-kick",
            &["mode", "rate/VM", "VMs", "requests", "rps", "p50", "p99", "p999"],
            &table,
        )
    );
    println!(
        "saturation (p99 ≤ 2ms): batched {:.0} rps vs one-per-kick {:.0} rps — {:.2}x (floor 2x)",
        report.batched_saturation_rps(),
        report.single_saturation_rps(),
        report.batching_speedup()
    );
    println!(
        "doorbell ledger: {} entries / {} kicks = {:.3} kicks/submission; backend popped {:.1} chains/drain",
        report.ledger.batch_entries,
        report.ledger.batch_kicks,
        report.ledger.kicks_per_submission(),
        report.ledger.chains_per_drain()
    );
    println!("1-byte blocking anchor after the redesign: {} (seed: 382us)\n", report.anchor);

    // Machine-readable companion for plotting scripts.
    let json = open_loop_json(&report);
    let path = "BENCH_serve.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Hand-rolled JSON (the build environment has no serde).
fn open_loop_json(report: &vphi_bench::OpenLoopReport) -> String {
    let series = |f: &dyn Fn(&vphi_bench::OpenLoopRow) -> String| -> String {
        report.rows.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\n  \"figure\": \"open-loop\",\n  \"unit\": \"nanoseconds_virtual_time\",\n\
         \x20 \"batch\": [{}],\n  \"rate_per_vm\": [{}],\n  \"vms\": [{}],\n\
         \x20 \"requests\": [{}],\n  \"throughput_rps\": [{}],\n\
         \x20 \"p50_ns\": [{}],\n  \"p99_ns\": [{}],\n  \"p999_ns\": [{}],\n\
         \x20 \"batched_saturation_rps\": {:.1},\n  \"single_saturation_rps\": {:.1},\n\
         \x20 \"batching_speedup\": {:.4},\n\
         \x20 \"ledger_batch_entries\": {},\n  \"ledger_batch_kicks\": {},\n\
         \x20 \"ledger_kicks_per_submission\": {:.4},\n\
         \x20 \"ledger_burst_drains\": {},\n  \"ledger_burst_chains\": {},\n\
         \x20 \"anchor_ns\": {}\n}}\n",
        series(&|r| r.batch.to_string()),
        series(&|r| format!("{:.0}", r.rate_per_vm)),
        series(&|r| r.vms.to_string()),
        series(&|r| r.requests.to_string()),
        series(&|r| format!("{:.1}", r.throughput_rps)),
        series(&|r| r.p50.as_nanos().to_string()),
        series(&|r| r.p99.as_nanos().to_string()),
        series(&|r| r.p999.as_nanos().to_string()),
        report.batched_saturation_rps(),
        report.single_saturation_rps(),
        report.batching_speedup(),
        report.ledger.batch_entries,
        report.ledger.batch_kicks,
        report.ledger.kicks_per_submission(),
        report.ledger.burst_drains,
        report.ledger.burst_chains,
        report.anchor.as_nanos(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--fig")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");

    println!("vPHI reproduction — figure harness (virtual-time measurements)\n");
    match which {
        "4" => fig4(),
        "breakdown" => breakdown(),
        "5" => fig5(),
        "6" => dgemm_fig(56, 6),
        "7" => dgemm_fig(112, 7),
        "8" => dgemm_fig(224, 8),
        "abl-wait" => abl_wait_fig(),
        "abl-chunk" => abl_chunk_fig(),
        "abl-block" => abl_block_fig(),
        "abl-cache" => abl_cache_fig(),
        "abl-faults" => abl_faults_fig(),
        "trace-breakdown" => trace_breakdown_fig(),
        "zero-copy" => zero_copy_fig(),
        "share" => share_fig(),
        "mq-scale" => mq_scale_fig(),
        "open-loop" => open_loop_fig(),
        "all" => {
            fig4();
            breakdown();
            fig5();
            dgemm_fig(56, 6);
            dgemm_fig(112, 7);
            dgemm_fig(224, 8);
            abl_wait_fig();
            abl_chunk_fig();
            abl_block_fig();
            abl_cache_fig();
            abl_faults_fig();
            trace_breakdown_fig();
            zero_copy_fig();
            share_fig();
            mq_scale_fig();
            open_loop_fig();
        }
        other => {
            eprintln!(
                "unknown figure '{other}': use 4|breakdown|5|6|7|8|abl-wait|abl-chunk|abl-block|abl-cache|abl-faults|trace-breakdown|zero-copy|share|mq-scale|open-loop|all"
            );
            std::process::exit(2);
        }
    }
}
