//! # v6bench — the v6brick benchmark
//!
//! Three workloads drive the workspace through the entry points the
//! `repro` CLI and `v6brickd` use:
//!
//! * `paper`  — the `repro json` suite: 93 devices × 6 Table 2 configs;
//! * `fleet`  — a mixed Ethernet/mesh fleet campaign of short homes;
//! * `ingest` — a durable `v6brickd` fed a packaged campaign by two
//!   closed-loop clients.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A
//! traced run (`--trace 1`) runs the workload once untraced and twice
//! with every layer wrapped from outside, checks that the traced outputs
//! equal the untraced ones and that the work counts repeat, and reports
//! the per-layer split. `BENCHMARK.md` records why each workload,
//! metric and seed was chosen, and the first baseline.

pub mod fleet;
pub mod home;
pub mod ingest;
pub mod metrics;
pub mod paper;
pub mod trace;

use std::time::{Duration, Instant};

/// Worker threads and client connections: the benchmark's load comes
/// from one process sized to a two-core machine.
pub const WORKERS: usize = 2;

/// Set-up repetitions per untraced run; `setup_s` is the median of the
/// least disturbed of them (see [`least_stolen`]).
pub const SETUP_REPEATS: usize = 3;

/// Input sizes. `Full` is the benchmark; `Tiny` exercises every check in
/// a fraction of a second for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.md` documents.
    Full,
    /// Test sizes.
    Tiny,
}

/// Everything one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget for untraced runs.
    pub seconds: f64,
    /// Input sizes.
    pub size: Size,
    /// Overrides of the pinned expectations (tests use these to prove a
    /// wrong expectation fails the run).
    pub expect: Expect,
}

/// Overrides of pinned expected outputs. `None` keeps the pin.
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// Table 3 headline, `key=value` pairs replacing the pinned ones.
    pub headline: Vec<(String, i64)>,
    /// Digest of the fleet reference campaign's report.
    pub fleet_digest: Option<u64>,
    /// The snapshot the ingest daemon must serve, replacing the offline
    /// oracle.
    pub snapshot: Option<String>,
}

/// A workload's result: the check outcome plus named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items attempted (configs, homes or uploads).
    pub attempted: u64,
    /// Items that failed.
    pub failed: u64,
    /// Every check that did not hold, in the order found.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: metrics::Values,
}

impl Outcome {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Did every check hold?
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Time one closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `setup` [`SETUP_REPEATS`] times; return the first result, the
/// set-up time (see [`steady_median`]), and whether every repeat
/// produced the same value.
pub fn repeated_setup<R: PartialEq>(mut setup: impl FnMut() -> R) -> (R, f64, bool) {
    let (first, one) = sample(&mut setup);
    let mut samples = vec![one];
    let mut same = true;
    for _ in 1..SETUP_REPEATS {
        let (again, one) = sample(&mut setup);
        samples.push(one);
        same &= again == first;
    }
    (first, steady_median(&samples), same)
}

/// Median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (sorts them); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of CPU time the hypervisor has stolen from this machine's
/// virtual CPUs since boot (`steal` in `/proc/stat`), 0 if unknown.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// One timed unit: its wall time and the CPU time stolen meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds.
    pub secs: f64,
    /// Stolen CPU seconds, summed over the machine's CPUs.
    pub steal_s: f64,
}

/// Time one unit as a [`Sample`].
pub fn sample<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let steal = steal_s();
    let (out, took) = timed(f);
    let sample = Sample {
        secs: took.as_secs_f64(),
        steal_s: steal_s() - steal,
    };
    (out, sample)
}

/// Keep running units until `seconds` of wall time have passed (at
/// least one). Returns each unit's sample.
pub fn run_for(seconds: f64, mut unit: impl FnMut()) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        samples.push(sample(&mut unit).1);
    }
    samples
}

/// The units the hypervisor disturbed least, as indices in run order:
/// every unit whose share of stolen CPU time is no larger than that of
/// the median unit — at least half of them, all of them on a machine that
/// steals nothing.
///
/// On a shared virtual machine a unit that overlapped a burst of steal
/// measures the host, not the program.
pub fn least_stolen(samples: &[Sample]) -> Vec<usize> {
    let share = |s: &Sample| s.steal_s / s.secs.max(1e-9);
    let mut shares: Vec<f64> = samples.iter().map(share).collect();
    let cut = quantile(&mut shares, 0.5);
    (0..samples.len())
        .filter(|&i| share(&samples[i]) <= cut)
        .collect()
}

/// Median wall seconds over the [`least_stolen`] units.
pub fn steady_median(samples: &[Sample]) -> f64 {
    let mut secs: Vec<f64> = least_stolen(samples)
        .into_iter()
        .map(|i| samples[i].secs)
        .collect();
    median(&mut secs)
}

/// Stolen CPU seconds over all units.
pub fn total_steal(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.steal_s).sum()
}

/// Directory, relative to the checkout root, for the benchmark's
/// scratch files and traces. It sits under the build directory the
/// checkout ignores.
pub fn scratch_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_build").join("v6bench")
}

/// Fail unless two traced passes of one seed counted the same work.
pub fn check_counts(out: &mut Outcome, workload: &str, a: &metrics::Values, b: &metrics::Values) {
    for ((name, x), (_, y)) in metrics::counts_of(a).iter().zip(&metrics::counts_of(b)) {
        out.check(x == y, || {
            format!("{workload}: count {name} differs between two traced passes: {x} vs {y}")
        });
    }
}

/// The per-layer metrics a traced run reports about its untraced
/// reference: its wall time, the tracing overhead against it, and its
/// latency samples (one per suite or campaign, one per upload).
pub fn untraced_reference(values: &mut metrics::Values, untraced_s: f64, latencies_ms: &mut [f64]) {
    let traced_s = values.get("trace.wall_s").copied().unwrap_or(0.0);
    values.insert("trace.untraced_wall_s".into(), untraced_s);
    values.insert("trace.overhead_s".into(), traced_s - untraced_s);
    values.insert("e2e.latency_samples".into(), latencies_ms.len() as f64);
    values.insert("e2e.latency_p99_ms".into(), quantile(latencies_ms, 0.99));
}

/// Save a traced pass's unit spans to
/// `<scratch_dir>/trace-<workload>-seed<N>.jsonl`, noting a failure as a
/// problem.
pub fn save_trace(out: &mut Outcome, workload: &str, seed: u64, units: &[trace::UnitSpan]) {
    let path = scratch_dir().join(format!("trace-{workload}-seed{seed}.jsonl"));
    if let Err(e) = trace::save(&path, units) {
        out.problems
            .push(format!("{workload}: writing {}: {e}", path.display()));
    }
}
