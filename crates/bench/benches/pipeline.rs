//! Analysis-pipeline benchmarks: what it costs to turn a capture into
//! the paper's observations.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use v6brick_bench::household_capture;
use v6brick_core::flows::FlowTable;
use v6brick_core::observe;
use v6brick_devices::registry;
use v6brick_experiments::{scenario, NetworkConfig};
use v6brick_pcap::format;
use v6brick_pcap::stats::CaptureStats;

fn bench_pipeline(c: &mut Criterion) {
    // A realistic dual-stack capture from an 8-device household.
    let (capture, macs) = household_capture(
        &[
            "echo_show_5",
            "nest_camera",
            "google_home_mini",
            "aqara_hub",
            "homepod_mini",
            "apple_tv",
            "samsung_fridge",
            "hue_hub",
        ],
        240,
    );
    let bytes = capture.total_bytes();

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("analyze_household", |b| {
        b.iter(|| observe::analyze(black_box(&capture), &macs, scenario::lan_prefix()))
    });
    g.bench_function("streaming_analyze_household", |b| {
        b.iter(|| {
            let mut a = observe::StreamingAnalyzer::new(&macs, scenario::lan_prefix());
            for p in black_box(&capture).iter() {
                a.feed(p.timestamp_us, &p.data);
            }
            a.finish().frames
        })
    });
    g.bench_function("flow_table", |b| {
        b.iter(|| {
            let mut t = FlowTable::new();
            for (ts, p) in capture.parsed() {
                t.record(ts, &p);
            }
            t.len()
        })
    });
    g.bench_function("capture_stats", |b| {
        b.iter(|| CaptureStats::of(black_box(&capture)))
    });
    g.finish();

    let mut g = c.benchmark_group("pcap_io");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("write", |b| {
        b.iter(|| format::to_bytes(black_box(&capture)))
    });
    let on_disk = format::to_bytes(&capture);
    g.bench_function("read", |b| {
        b.iter(|| format::from_bytes(black_box(&on_disk)).unwrap())
    });
    g.finish();

    // The full simulate-and-capture path for one experiment config.
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    g.bench_function("household_dual_stack_240s", |b| {
        b.iter(|| {
            let ids = ["echo_show_5", "nest_camera", "google_home_mini"];
            let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
            let home = scenario::Home::new(NetworkConfig::DualStack, &profiles);
            let run = scenario::run(&home, scenario::build_zones(&profiles));
            black_box(run.run.frames)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
