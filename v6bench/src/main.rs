//! `v6bench --workload <paper|fleet|ingest> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). Exits 1
//! when any check fails, 2 on a usage error.
//!
//! Test-only flags: `--size tiny`, `--expect-headline key=value,...`,
//! `--expect-digest <hex>`, `--expect-snapshot <file>` (replace a pinned
//! expectation, to prove a wrong one fails the run). `--list-metrics`
//! prints the metric lists `BENCHMARK.json` carries.

use std::process::ExitCode;
use v6bench::{fleet, ingest, metrics, paper, Expect, Options, Size};

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "v6bench: {msg}\nusage: v6bench --workload paper|fleet|ingest --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        println!("{}", metrics::benchmark_lists());
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let mut trace = false;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        size: Size::Full,
        expect: Expect::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| opts.seconds = v)
                .is_ok_and(|_| opts.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--size" => match value.as_str() {
                "full" | "tiny" => {
                    opts.size = if value == "tiny" {
                        Size::Tiny
                    } else {
                        Size::Full
                    };
                    true
                }
                _ => false,
            },
            "--expect-headline" => value.split(',').all(|kv| {
                kv.split_once('=')
                    .and_then(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                    .map(|kv| opts.expect.headline.push(kv))
                    .is_some()
            }),
            "--expect-digest" => u64::from_str_radix(value.trim_start_matches("0x"), 16)
                .map(|d| opts.expect.fleet_digest = Some(d))
                .is_ok(),
            "--expect-snapshot" => std::fs::read_to_string(value)
                .map(|s| opts.expect.snapshot = Some(s))
                .is_ok(),
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let run = match (workload.as_deref(), trace) {
        (Some("paper"), false) => paper::run,
        (Some("paper"), true) => paper::run_traced,
        (Some("fleet"), false) => fleet::run,
        (Some("fleet"), true) => fleet::run_traced,
        (Some("ingest"), false) => ingest::run,
        (Some("ingest"), true) => ingest::run_traced,
        (other, _) => return usage(&format!("unknown workload {other:?}")),
    };
    let steal = v6bench::steal_s();
    let mut outcome = run(&opts);
    if trace {
        outcome
            .metrics
            .insert("host.steal_s".into(), v6bench::steal_s() - steal);
    }
    let line = metrics::result_line(&mut outcome, trace);
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
