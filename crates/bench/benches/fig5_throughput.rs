//! Figure 5 bench: regenerates the remote-read throughput series and
//! measures the simulator's wall cost per 4 MiB remote read.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vphi::builder::{VmConfig, VphiHost};
use vphi_bench::fig5::fig5_throughput;
use vphi_bench::support::{render_table, spawn_device_window};
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::{format_bytes, format_throughput, MIB};
use vphi_sim_core::Timeline;

fn print_figure() {
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
            "Fig. 5 — remote memory read throughput (virtual time)",
            &["size", "host", "vPHI", "vPHI/host"],
            &table,
        )
    );
}

fn bench(c: &mut Criterion) {
    print_figure();

    let host = VphiHost::new(1);
    let size = 4 * MIB;

    let server = spawn_device_window(&host, Port(902), size);
    let native = host.native_endpoint().unwrap();
    let mut tl = Timeline::new();
    native.connect(ScifAddr::new(host.device_node(0), Port(902)), &mut tl).unwrap();
    server.wait_registered();

    let server2 = spawn_device_window(&host, Port(903), size);
    let vm = host.spawn_vm(VmConfig::default());
    let guest = vm.open_scif(&mut tl).unwrap();
    guest.connect(ScifAddr::new(host.device_node(0), Port(903)), &mut tl).unwrap();
    server2.wait_registered();

    let mut group = c.benchmark_group("fig5");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.throughput(Throughput::Bytes(size));
    let mut buf = vec![0u8; size as usize];
    group.bench_function("native_vread_4MiB", |b| {
        b.iter(|| {
            let mut tl = Timeline::new();
            native.vreadfrom(&mut buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
            tl.total()
        })
    });
    let gbuf = vm.alloc_buf(size).unwrap();
    group.bench_function("vphi_vread_4MiB", |b| {
        b.iter(|| {
            let mut tl = Timeline::new();
            guest.vreadfrom(&gbuf, 0, RmaFlags::SYNC, &mut tl).unwrap();
            tl.total()
        })
    });
    group.finish();

    drop(gbuf);
    native.close();
    let mut tlc = Timeline::new();
    let _ = guest.close(&mut tlc);
    vm.shutdown();
    let _ = server.join();
    let _ = server2.join();
}

criterion_group!(benches, bench);
criterion_main!(benches);
