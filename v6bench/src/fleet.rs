//! `fleet`: a fleet campaign of short homes — 10 s windows, 3–12
//! devices, the six configs in equal mix, half the homes behind a
//! 6LoWPAN border router, population passes, two workers.
//!
//! Set-up runs a small reference campaign with a fixed seed and checks
//! its report against a pinned digest; it also fills the registry's
//! lazily built tables before timing starts. Every timed campaign must
//! have no failed home, both Ethernet and `+ mesh` labels, and report
//! bytes identical to every other campaign of the run (and to a pinned
//! digest for the development and held-out seeds).

use crate::home::{self, HomeOutput};
use crate::metrics::{self, Values};
use crate::trace::{self, Layer, UnitSpan};
use crate::{Options, Outcome, Size, WORKERS};
use v6brick_core::population::PopulationReport;
use v6brick_experiments::fleet::{self as campaign, home_is_mesh, CampaignSpec};
use v6brick_experiments::scenario::ZoneCache;
use v6brick_experiments::NetworkConfig;
use v6brick_fleet::seed::fold_bytes;
use v6brick_fleet::{plan_home, run_partials, HomeSpec};
use v6brick_sim::SimTime;

/// Homes per timed campaign.
pub const HOMES: u64 = 2000;
const TINY_HOMES: u64 = 24;
/// Per-mille of homes on the mesh link layer.
pub const MESH_PER_MILLE: u32 = 500;
/// Simulated seconds per home.
pub const DURATION_S: u64 = 10;

/// The reference campaign set-up runs: fixed seed, 128 homes.
const REFERENCE_SEED: u64 = 0x6b1c;
const REFERENCE_HOMES: u64 = 128;
/// `fold_bytes(0, report JSON)` of the reference campaign.
const REFERENCE_DIGEST: u64 = 0xd70a_9897_6507_3563;

/// Pinned report digests of the full-size campaign for the development
/// and held-out seeds.
const PINNED: [(u64, u64); 2] = [(1, 0x9543_8623_160a_a645), (7, 0xa78a_6d96_963a_d9fc)];

fn spec(seed: u64, homes: u64) -> CampaignSpec {
    CampaignSpec {
        homes,
        seed,
        workers: WORKERS,
        duration_s: DURATION_S,
        mesh_per_mille: MESH_PER_MILLE,
        ..CampaignSpec::default()
    }
}

fn workload_spec(opts: &Options) -> CampaignSpec {
    let homes = match opts.size {
        Size::Full => HOMES,
        Size::Tiny => TINY_HOMES,
    };
    spec(opts.seed, homes)
}

/// Report bytes digest.
pub fn digest(json: &str) -> u64 {
    fold_bytes(0, json.as_bytes())
}

fn report_json(report: &PopulationReport) -> String {
    serde_json::to_string(report).expect("population report serializes")
}

/// Run the reference campaign, check its digest, and return the set-up
/// time.
fn reference(out: &mut Outcome, opts: &Options) -> f64 {
    let (json, setup_s, same) = crate::repeated_setup(|| {
        report_json(&campaign::run(&spec(REFERENCE_SEED, REFERENCE_HOMES)))
    });
    let want = opts.expect.fleet_digest.unwrap_or(REFERENCE_DIGEST);
    let got = digest(&json);
    out.check(same, || {
        "fleet: reference campaign is not deterministic".into()
    });
    out.check(got == want, || {
        format!("fleet: reference digest {got:#018x}, expected {want:#018x}")
    });
    setup_s
}

/// The per-campaign checks: no failures, full home count, both link
/// layers present.
fn check_report(out: &mut Outcome, spec: &CampaignSpec, report: &PopulationReport) {
    out.failed += report.failures.len() as u64;
    out.check(
        report.homes == spec.homes - report.failures.len() as u64,
        || format!("fleet: {} homes reported of {}", report.homes, spec.homes),
    );
    let labels: Vec<&String> = report.homes_by_config.keys().collect();
    let mesh = labels.iter().any(|l| l.ends_with(" + mesh"));
    let ethernet = labels.iter().any(|l| !l.ends_with(" + mesh"));
    out.check(mesh && ethernet, || {
        format!("fleet: expected both Ethernet and mesh homes, got {labels:?}")
    });
}

fn check_pinned(out: &mut Outcome, opts: &Options, json: &str) {
    if opts.size != Size::Full {
        return;
    }
    if let Some((_, want)) = PINNED.iter().find(|(seed, _)| *seed == opts.seed) {
        let got = digest(json);
        out.check(got == *want, || {
            format!(
                "fleet: seed {} report digest {got:#018x}, pinned {want:#018x}",
                opts.seed
            )
        });
    }
}

/// Untraced run: repeat the campaign for the time budget.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = reference(&mut out, opts);
    let spec = workload_spec(opts);
    let mut first: Option<String> = None;
    let samples = crate::run_for(opts.seconds, || {
        let report = campaign::run(&spec);
        check_report(&mut out, &spec, &report);
        let json = report_json(&report);
        match &first {
            None => first = Some(json),
            Some(f) => out.check(*f == json, || {
                "fleet: report bytes differ between campaigns of one seed".into()
            }),
        }
    });
    if let Some(json) = &first {
        check_pinned(&mut out, opts, json);
    }
    out.attempted = samples.len() as u64 * spec.homes;
    let p50 = crate::steady_median(&samples);
    let m = &mut out.metrics;
    m.insert("setup_s".into(), setup_s);
    m.insert("items_per_s".into(), spec.homes as f64 / p50);
    m.insert("latency_p50_ms".into(), p50 * 1e3);
    m.insert("peak_rss_mb".into(), crate::peak_rss_mb());
    eprintln!(
        "fleet: {} campaigns of {} homes ({} least disturbed kept), p50 {p50:.3} s, {:.1} homes/s, steal {:.2} s",
        samples.len(),
        spec.homes,
        crate::least_stolen(&samples).len(),
        spec.homes as f64 / p50,
        crate::total_steal(&samples),
    );
    out
}

fn simulate(
    scratch: &mut ZoneCache,
    spec: &CampaignSpec,
    home: HomeSpec<NetworkConfig>,
) -> HomeOutput {
    let duration = SimTime::from_secs(spec.duration_s);
    if home_is_mesh(home.seed, spec.mesh_per_mille) {
        home::run_mesh(
            scratch,
            home.config,
            &home.profiles,
            home.seed,
            duration,
            &spec.passes,
        )
    } else {
        home::run_ethernet(
            Some(scratch),
            home.config,
            &home.profiles,
            home.seed,
            duration,
            &spec.passes,
        )
    }
}

/// One traced campaign: the fleet runner's plan → pool → absorb → merge
/// path with every home assembled by hand.
fn traced_pass(spec: &CampaignSpec) -> (PopulationReport, u64, Values, Vec<UnitSpan>) {
    let (dev_min, dev_max) = spec.device_range;
    let epoch = trace::begin_pass();
    let (partials, panics) = run_partials(
        (0..spec.homes).map(|i| plan_home(spec.seed, i, &spec.mix, dev_min..=dev_max)),
        WORKERS,
        ZoneCache::new,
        |scratch, home: HomeSpec<NetworkConfig>| {
            trace::unit("home", home.index, || {
                (home.index, simulate(scratch, spec, home))
            })
        },
        || (PopulationReport::new(spec.seed), Values::new()),
        |(partial, passes), _, (index, home)| {
            home::add_pass_counters(passes, &home.passes);
            trace::unit("absorb", index, || {
                trace::span(Layer::PopulationAbsorb, || {
                    partial.absorb_home(home.label, &home.devices, &home.functional, home.frames)
                })
            });
        },
    );
    let report = trace::unit("merge", 0, || {
        trace::span(Layer::PopulationAbsorb, || {
            let mut report = PopulationReport::new(spec.seed);
            for (partial, _) in &partials {
                report.merge(partial);
            }
            report
        })
    });
    let wall = epoch.elapsed().as_secs_f64();
    let units = trace::end_pass();
    let mut values = metrics::layer_totals(&units, wall, WORKERS);
    for (_, passes) in &partials {
        for (name, v) in passes {
            *values.entry(name.clone()).or_default() += v;
        }
    }
    (report, panics.len() as u64, values, units)
}

/// Traced run: one untraced campaign, then two traced passes whose
/// report bytes must equal it and whose counts must repeat.
pub fn run_traced(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    reference(&mut out, opts);
    let spec = workload_spec(opts);
    let (report, untraced) = crate::timed(|| campaign::run(&spec));
    check_report(&mut out, &spec, &report);
    let json = report_json(&report);
    check_pinned(&mut out, opts, &json);
    let (first, first_panics, first_values, _) = traced_pass(&spec);
    let (second, second_panics, mut values, units) = traced_pass(&spec);
    crate::save_trace(&mut out, "fleet", opts.seed, &units);
    out.failed += first_panics + second_panics;
    for traced in [&first, &second] {
        out.check(report_json(traced) == json, || {
            "fleet: traced report differs from the untraced campaign".into()
        });
    }
    crate::check_counts(&mut out, "fleet", &first_values, &values);
    out.check(
        values["core.observe.frames"] as u64 == report.traffic.frames,
        || "fleet: traced tap frames differ from the report's frame total".into(),
    );
    out.attempted = 2 * spec.homes;
    let untraced_s = untraced.as_secs_f64();
    crate::untraced_reference(&mut values, untraced_s, &mut [untraced_s * 1e3]);
    out.metrics = values;
    out
}
