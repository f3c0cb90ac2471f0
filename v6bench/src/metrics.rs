//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists exactly these names; a test keeps the two in
//! step. Untraced runs print every end-to-end metric, traced runs every
//! per-layer metric; a per-layer metric the workload never exercises
//! reads 0 (the ingest workload has no device stacks, the paper workload
//! no WAL).

use crate::trace::{Count, Layer, UnitSpan};
use crate::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write;
use v6brick_core::analysis::PassId;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// One end-to-end metric: name, unit, direction, regression bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

/// `STATS` fields reported as `ingest.stats.<field>` (numeric ones; the
/// campaign seed and recovery origin are identifiers, not measurements).
pub const STATS_FIELDS: [&str; 16] = [
    "shards",
    "connections_total",
    "connections_active",
    "connections_refused",
    "loop_threads",
    "handler_threads",
    "uploads_ok",
    "uploads_failed",
    "uploads_rejected",
    "frames_total",
    "parse_errors",
    "bytes_received",
    "uploads_duplicate",
    "wal_records",
    "wal_bytes",
    "snapshots_written",
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.wall_s".into(), "s"),
        ("trace.untraced_wall_s".into(), "s"),
        ("trace.overhead_s".into(), "s"),
        ("trace.residual_s".into(), "s"),
        ("pool.busy_frac".into(), "ratio"),
        ("e2e.latency_samples".into(), "count"),
        ("e2e.latency_p99_ms".into(), "ms"),
        ("host.steal_s".into(), "s"),
    ];
    for layer in Layer::ALL {
        out.push((layer.metric().into(), "s"));
    }
    out.push(("devices.calls".into(), "count"));
    out.push(("sim.mesh.calls".into(), "count"));
    for count in Count::ALL {
        out.push((count.metric().into(), "count"));
    }
    for pass in PassId::ALL {
        out.push((format!("core.analysis.{}.ns", pass.label()), "ns"));
        out.push((format!("core.analysis.{}.frames", pass.label()), "count"));
    }
    out.push(("ingest.server.rest_ms".into(), "ms"));
    for field in STATS_FIELDS {
        out.push((format!("ingest.stats.{field}"), "count"));
    }
    for pass in PassId::ALL {
        out.push((format!("ingest.stats.passes.{}.nanos", pass.label()), "ns"));
        out.push((
            format!("ingest.stats.passes.{}.frames", pass.label()),
            "count",
        ));
    }
    out
}

/// Per-layer totals of one traced pass: layer self times, calls and
/// counts summed over its unit spans, plus the wall-time accounting.
///
/// `thread_s` is the time the units occupied worker threads; the layers'
/// self times plus `trace.residual_s` make it up exactly, and
/// `pool.busy_frac` is its share of `wall × workers` (the rest is
/// threads idle or between units).
pub fn layer_totals(units: &[UnitSpan], wall_s: f64, workers: usize) -> Values {
    let mut acc = crate::trace::Acc::default();
    let mut thread_ns = 0u64;
    for u in units {
        acc.add(&u.acc);
        thread_ns += u.wall_ns();
    }
    let mut v = Values::new();
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        v.insert(layer.metric().into(), acc.self_s(layer));
        attributed += acc.self_s(layer);
    }
    v.insert("devices.calls".into(), acc.calls(Layer::Devices) as f64);
    v.insert("sim.mesh.calls".into(), acc.calls(Layer::Mesh) as f64);
    for count in Count::ALL {
        v.insert(count.metric().into(), acc.count(count) as f64);
    }
    let thread_s = thread_ns as f64 / 1e9;
    v.insert("trace.wall_s".into(), wall_s);
    v.insert("trace.residual_s".into(), thread_s - attributed);
    v.insert(
        "pool.busy_frac".into(),
        thread_s / (wall_s * workers as f64),
    );
    v
}

/// The deterministic subset of a traced pass's values: every count.
pub fn counts_of(values: &Values) -> Vec<(String, u64)> {
    let mut names: Vec<String> = Count::ALL.iter().map(|c| c.metric().into()).collect();
    names.push("devices.calls".into());
    names.push("sim.mesh.calls".into());
    names.extend(
        PassId::ALL
            .iter()
            .map(|p| format!("core.analysis.{}.frames", p.label())),
    );
    names
        .into_iter()
        .map(|n| {
            let v = values.get(&n).copied().unwrap_or(0.0) as u64;
            (n, v)
        })
        .collect()
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every end-to-end (untraced) or per-layer (traced)
/// metric. A missing end-to-end metric is a failed check.
pub fn result_line(outcome: &mut Outcome, traced: bool) -> String {
    let names: Vec<(String, &'static str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = String::new();
    for (name, unit) in &names {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => {
                outcome
                    .problems
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// The `BENCHMARK.json` metric lists, as printed by `--list-metrics`.
pub fn benchmark_lists() -> String {
    let mut out = String::from("  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit)| {
            let better = if name.ends_with("busy_frac") || name.ends_with("samples") {
                "higher"
            } else {
                "lower"
            };
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]");
    out
}
