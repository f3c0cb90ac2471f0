//! `paper`: the `repro json` suite, all 93 devices × the six Table 2
//! configs over 420 s windows, on two workers.
//!
//! The suite's inputs are pinned by the paper — the registry, the six
//! configs in `NetworkConfig::ALL` order, and the suite's own base seed —
//! so this workload accepts `--seed` and ignores it: every run does the
//! same work and must reproduce the pinned Table 3 headline.

use crate::home::{self, HomeOutput};
use crate::metrics::{self, Values};
use crate::trace::{self, UnitSpan};
use crate::{Expect, Options, Outcome, Size, WORKERS};
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;
use v6brick_experiments::scenario::EXPERIMENT_DURATION;
use v6brick_experiments::{figures, tables, tracking, ExperimentSuite, NetworkConfig};
use v6brick_fleet::run_indexed;

/// The base seed `ExperimentSuite` runs every config with.
const SUITE_BASE_SEED: u64 = 0x6b1c_0000;

/// Table 3's pinned totals (`repro json` headline, paper Table 3).
const HEADLINE: [(&str, i64); 7] = [
    ("t3_ndp", 59),
    ("t3_addr", 51),
    ("t3_gua", 27),
    ("t3_aaaa_v6", 22),
    ("t3_aaaa_pos", 19),
    ("t3_data", 19),
    ("t3_functional", 8),
];

/// The tiny suite's headline: the first eight registry devices.
const TINY_HEADLINE: [(&str, i64); 7] = [
    ("t3_ndp", 4),
    ("t3_addr", 3),
    ("t3_gua", 1),
    ("t3_aaaa_v6", 1),
    ("t3_aaaa_pos", 1),
    ("t3_data", 1),
    ("t3_functional", 0),
];

const TINY_DEVICES: usize = 8;

/// The analyzer passes `repro json` runs: every table's, every figure's
/// and the tracking report's, in first-seen order.
pub fn json_passes() -> Vec<PassId> {
    let mut passes = tables::all_table_passes();
    for extra in [
        figures::FIGURE2_PASSES,
        figures::FIGURE3_PASSES,
        figures::FIGURE4_PASSES,
        figures::FIGURE5_PASSES,
        tracking::PASSES,
    ] {
        for p in extra {
            if !passes.contains(p) {
                passes.push(*p);
            }
        }
    }
    passes
}

#[derive(PartialEq)]
struct Inputs {
    profiles: Vec<DeviceProfile>,
    passes: Vec<PassId>,
}

fn setup(opts: &Options) -> Inputs {
    let mut profiles = registry::build();
    if opts.size == Size::Tiny {
        profiles.truncate(TINY_DEVICES);
    }
    Inputs {
        profiles,
        passes: json_passes(),
    }
}

fn expected_headline(opts: &Options) -> BTreeMap<String, i64> {
    let pinned = match opts.size {
        Size::Full => HEADLINE,
        Size::Tiny => TINY_HEADLINE,
    };
    let mut out: BTreeMap<String, i64> = pinned.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    out.extend(opts.expect.headline.iter().cloned());
    out
}

fn run_suite(inputs: &Inputs) -> ExperimentSuite {
    ExperimentSuite::run_configs_scoped(
        inputs.profiles.clone(),
        &NetworkConfig::ALL,
        WORKERS,
        &inputs.passes,
    )
}

fn check_headline(out: &mut Outcome, suite: &ExperimentSuite, expected: &BTreeMap<String, i64>) {
    let got = tables::headline_numbers(suite);
    for (key, want) in expected {
        let have = got.get(key.as_str()).copied();
        out.check(have == Some(*want), || {
            format!("paper: headline {key} = {have:?}, expected {want}")
        });
    }
}

/// Untraced run: repeat the suite for the time budget.
///
/// Set-up builds the registry and pass list and warms the process with
/// the tiny suite, so first-run allocator growth and page faults land
/// in set-up rather than in the first timed suite.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let tiny = Options {
        size: Size::Tiny,
        expect: Expect::default(),
        ..opts.clone()
    };
    let (inputs, setup_s, same) = crate::repeated_setup(|| {
        check_headline(
            &mut out,
            &run_suite(&setup(&tiny)),
            &expected_headline(&tiny),
        );
        setup(opts)
    });
    out.check(same, || "paper: set-up is not deterministic".into());
    let expected = expected_headline(opts);
    let samples = crate::run_for(opts.seconds, || {
        let suite = run_suite(&inputs);
        check_headline(&mut out, &suite, &expected);
    });
    let configs = NetworkConfig::ALL.len() as f64;
    out.attempted = samples.len() as u64 * NetworkConfig::ALL.len() as u64;
    let p50 = crate::steady_median(&samples);
    let m = &mut out.metrics;
    m.insert("setup_s".into(), setup_s);
    m.insert("items_per_s".into(), configs / p50);
    m.insert("latency_p50_ms".into(), p50 * 1e3);
    m.insert("peak_rss_mb".into(), crate::peak_rss_mb());
    eprintln!(
        "paper: {} suites ({} least disturbed kept), suite p50 {p50:.3} s, steal {:.2} s, setup {setup_s:.4} s",
        samples.len(),
        crate::least_stolen(&samples).len(),
        crate::total_steal(&samples),
    );
    out
}

/// The comparable outputs of one config: observations, functional map
/// and frame count, serialized.
fn fingerprint(
    devices: &BTreeMap<String, DeviceObservation>,
    functional: &BTreeMap<String, bool>,
    frames: u64,
) -> String {
    format!(
        "{}|{}|{frames}",
        serde_json::to_string(devices).expect("observations serialize"),
        serde_json::to_string(functional).expect("functional map serializes"),
    )
}

fn traced_pass(inputs: &Inputs) -> (Vec<(NetworkConfig, HomeOutput)>, Values, Vec<UnitSpan>) {
    let refs: Vec<&DeviceProfile> = inputs.profiles.iter().collect();
    let epoch = trace::begin_pass();
    let runs = run_indexed(
        NetworkConfig::ALL
            .iter()
            .copied()
            .enumerate()
            .collect::<Vec<_>>(),
        WORKERS,
        |(i, config)| {
            trace::unit("config", i as u64, || {
                let run = home::run_ethernet(
                    None,
                    config,
                    &refs,
                    SUITE_BASE_SEED,
                    EXPERIMENT_DURATION,
                    &inputs.passes,
                );
                (config, run)
            })
        },
        Vec::new(),
        |acc, _, run| acc.push(run),
    );
    let wall = epoch.elapsed().as_secs_f64();
    let units = trace::end_pass();
    let mut values = metrics::layer_totals(&units, wall, WORKERS);
    for (_, run) in &runs {
        home::add_pass_counters(&mut values, &run.passes);
    }
    (runs, values, units)
}

/// Traced run: one untraced suite, then two traced passes whose outputs
/// must equal it and whose counts must repeat.
pub fn run_traced(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let inputs = setup(opts);
    let (suite, untraced) = crate::timed(|| run_suite(&inputs));
    check_headline(&mut out, &suite, &expected_headline(opts));
    let (first, first_values, _) = traced_pass(&inputs);
    let (second, mut values, units) = traced_pass(&inputs);
    crate::save_trace(&mut out, "paper", opts.seed, &units);
    let untraced_frames: u64 = suite.runs().iter().map(|r| r.frames).sum();
    for (config, run) in first.iter().chain(&second) {
        let base = suite.run(*config);
        out.check(
            fingerprint(&run.devices, &run.functional, run.frames)
                == fingerprint(&base.analysis.devices, &base.functional, base.frames),
            || format!("paper: traced {config:?} differs from the untraced run"),
        );
    }
    crate::check_counts(&mut out, "paper", &first_values, &values);
    out.check(
        values["core.observe.frames"] as u64 == untraced_frames,
        || "paper: traced tap frames differ from the untraced suite".into(),
    );
    out.attempted = (first.len() + second.len()) as u64;
    let untraced_s = untraced.as_secs_f64();
    crate::untraced_reference(&mut values, untraced_s, &mut [untraced_s * 1e3]);
    out.metrics = values;
    out
}
