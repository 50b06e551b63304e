//! ABL-CACHE bench: regenerates the registration-cache ablation series
//! and measures the simulator's wall cost per remote read with the cache
//! disabled (seed charging) vs enabled and warm, across transfer sizes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vphi::backend::RegCacheConfig;
use vphi::builder::{VmConfig, VphiHost};
use vphi_bench::abl_cache::abl_cache;
use vphi_bench::support::{render_table, spawn_device_window};
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::{format_bytes, format_throughput, MIB};
use vphi_sim_core::Timeline;

fn print_figure() {
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
                format!("{:.1}%", 100.0 * r.warm_ratio()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "ABL-CACHE — registration cache off/warm (virtual time)",
            &["size", "native", "cache off", "cache warm", "warm/native"],
            &table,
        )
    );
}

fn bench(c: &mut Criterion) {
    print_figure();

    let host = VphiHost::new(1);
    let sizes = [MIB, 16 * MIB, 64 * MIB];
    let max = *sizes.last().unwrap();

    let configs: [(&str, RegCacheConfig); 2] =
        [("cache_off", RegCacheConfig::disabled()), ("cache_on", RegCacheConfig::default())];

    for (i, (label, reg_cache)) in configs.into_iter().enumerate() {
        let port = Port(910 + i as u16);
        let server = spawn_device_window(&host, port, max);
        let vm = host
            .spawn_vm(VmConfig::builder().mem_size(max + 64 * MIB).reg_cache(reg_cache).build());
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).unwrap();
        guest.connect(ScifAddr::new(host.device_node(0), port), &mut tl).unwrap();
        server.wait_registered();

        let mut group = c.benchmark_group(format!("abl_reg_cache/{label}"));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(200));
        group.measurement_time(std::time::Duration::from_millis(600));
        for size in sizes {
            let gbuf = vm.alloc_buf(size).unwrap();
            // First touch warms the cache, so the measured iterations are
            // all hits in the cache_on configuration.
            let mut warm_tl = Timeline::new();
            guest.vreadfrom(&gbuf, 0, RmaFlags::SYNC, &mut warm_tl).unwrap();
            group.throughput(Throughput::Bytes(size));
            group.bench_function(format_bytes(size), |b| {
                b.iter(|| {
                    let mut tl = Timeline::new();
                    guest.vreadfrom(&gbuf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                    tl.total()
                })
            });
            drop(gbuf);
        }
        group.finish();

        let mut tlc = Timeline::new();
        let _ = guest.close(&mut tlc);
        vm.shutdown();
        let _ = server.join();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
