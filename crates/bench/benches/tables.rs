//! One benchmark per paper table: each measures the cost of regenerating
//! that table's rows from the (cached) six-experiment suite, plus one
//! end-to-end benchmark of running a full 93-device experiment.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::OnceLock;
use v6brick_experiments::suite::ExperimentSuite;
use v6brick_experiments::{active_dns, config, scenario, tables, NetworkConfig};

fn suite() -> &'static ExperimentSuite {
    static SUITE: OnceLock<ExperimentSuite> = OnceLock::new();
    SUITE.get_or_init(ExperimentSuite::run_all)
}

fn active() -> &'static active_dns::ActiveDnsReport {
    static R: OnceLock<active_dns::ActiveDnsReport> = OnceLock::new();
    R.get_or_init(|| {
        let s = suite();
        let zones = scenario::build_zones(&s.profiles);
        active_dns::probe(s.observed_domains(), zones)
    })
}

fn bench_tables(c: &mut Criterion) {
    // End-to-end: one full 93-device IPv6-only experiment, simulated,
    // captured, and analyzed.
    let mut g = c.benchmark_group("experiment");
    g.sample_size(10);
    g.bench_function("ipv6_only_full_testbed", |b| {
        b.iter(|| {
            let profiles = v6brick_devices::registry::shared();
            let home = scenario::Home::new(NetworkConfig::Ipv6Only, profiles);
            black_box(scenario::run(&home, scenario::build_zones(profiles)))
                .run
                .frames
        })
    });
    g.finish();

    let s = suite();
    let a = active();
    let mut g = c.benchmark_group("tables");
    // The generators remerge per-device observations; 20 samples keep the
    // full-workspace bench run to minutes.
    g.sample_size(20);
    g.bench_function("table2", |b| b.iter(|| black_box(config::table2())));
    g.bench_function("table3", |b| b.iter(|| black_box(tables::table3(s))));
    g.bench_function("table4", |b| b.iter(|| black_box(tables::table4(s))));
    g.bench_function("table5", |b| b.iter(|| black_box(tables::table5(s))));
    g.bench_function("table6", |b| b.iter(|| black_box(tables::table6(s))));
    g.bench_function("table7", |b| b.iter(|| black_box(tables::table7(s, a))));
    g.bench_function("table8", |b| b.iter(|| black_box(tables::table8(s))));
    g.bench_function("table9", |b| b.iter(|| black_box(tables::table9(s, a))));
    g.bench_function("table10", |b| b.iter(|| black_box(tables::table10(s))));
    g.bench_function("table12", |b| b.iter(|| black_box(tables::table12(s))));
    g.bench_function("table13", |b| b.iter(|| black_box(tables::table13(s))));
    g.bench_function("dad_report", |b| {
        b.iter(|| black_box(tables::dad_report(s)))
    });
    g.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
