//! The benchmark's own tests: wrappers are transparent to downcasts,
//! every workload's tiny run passes its checks untraced and traced, a
//! wrong expectation fails the run, work counts repeat across runs of
//! one seed, and `BENCHMARK.json` lists exactly the metrics the code
//! reports.

use std::process::Command;
use v6bench::metrics::{per_layer, END_TO_END};
use v6bench::trace::{Layer, TracedHost, TracedSink};
use v6brick_core::observe::StreamingAnalyzer;
use v6brick_devices::registry;
use v6brick_devices::stack::IotDevice;
use v6brick_experiments::scenario::lan_prefix;
use v6brick_sim::{FrameSink, Host};

struct Run {
    code: i32,
    json: serde_json::Value,
}

fn bench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_v6bench"))
        .args(["--size", "tiny", "--seconds", "0.2"])
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Run {
        code: out.status.code().unwrap_or(-1),
        json: serde_json::from_str(last).unwrap_or(serde_json::Value::Null),
    }
}

fn passes(workload: &str, trace: &str) -> Run {
    let run = bench(&["--workload", workload, "--seed", "3", "--trace", trace]);
    assert_eq!(run.code, 0, "{workload} trace={trace}: {:?}", run.json);
    assert_eq!(
        run.json.get_field("correct"),
        &serde_json::Value::Bool(true)
    );
    assert_eq!(run.json.get_field("failed").as_u64(), Some(0));
    assert!(run.json.get_field("attempted").as_u64() >= Some(1));
    let metrics = run
        .json
        .get_field("metrics")
        .as_object()
        .expect("metrics object");
    let expected: Vec<String> = if trace == "1" {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name.to_string()).collect()
    };
    let mut got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    got.sort();
    let mut want = expected.clone();
    want.sort();
    assert_eq!(got, want, "{workload}: metric set");
    if trace == "0" {
        for name in &expected {
            let v = run
                .json
                .get_field("metrics")
                .get_field(name)
                .get_field("value")
                .as_f64()
                .expect("numeric value");
            assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
        }
    }
    run
}

#[test]
fn traced_host_forwards_downcasts() {
    let device = IotDevice::new(registry::by_id("google_home_mini"));
    let mac = device.mac();
    let mut host = TracedHost::new(Box::new(device), Layer::Devices);
    assert_eq!(host.mac(), mac);
    assert!(host.as_any().downcast_ref::<IotDevice>().is_some());
    assert!(host.as_any_mut().downcast_mut::<IotDevice>().is_some());
}

#[test]
fn traced_sink_hands_back_the_analyzer() {
    let analyzer = StreamingAnalyzer::new(&[], lan_prefix());
    let sink: Box<dyn FrameSink> = Box::new(TracedSink::new(analyzer));
    assert!(sink.into_any().downcast::<StreamingAnalyzer>().is_ok());
}

#[test]
fn nested_spans_attribute_self_time() {
    v6bench::trace::begin_pass();
    v6bench::trace::unit("config", 0, || {
        v6bench::trace::span(Layer::SimRest, || {
            v6bench::trace::span(Layer::Devices, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
    });
    let units = v6bench::trace::end_pass();
    let acc = &units[0].acc;
    assert!(acc.self_s(Layer::Devices) >= 0.02);
    assert!(acc.self_s(Layer::SimRest) < acc.self_s(Layer::Devices));
    assert_eq!(acc.calls(Layer::Devices), 1);
    let attributed = acc.self_s(Layer::Devices) + acc.self_s(Layer::SimRest);
    assert!(attributed <= units[0].wall_ns() as f64 / 1e9);
}

#[test]
fn paper_tiny_passes() {
    passes("paper", "0");
    passes("paper", "1");
}

#[test]
fn fleet_tiny_passes() {
    passes("fleet", "0");
    passes("fleet", "1");
}

#[test]
fn ingest_tiny_passes() {
    passes("ingest", "0");
    passes("ingest", "1");
}

#[test]
fn traced_counts_repeat_across_runs() {
    let a = passes("fleet", "1");
    let b = passes("fleet", "1");
    for name in [
        "devices.calls",
        "core.observe.frames",
        "sim.frames_delivered",
    ] {
        assert_eq!(
            a.json.get_field("metrics").get_field(name),
            b.json.get_field("metrics").get_field(name),
            "{name}"
        );
    }
}

fn fails(args: &[&str]) {
    let run = bench(args);
    assert_eq!(run.code, 1, "{args:?} must fail its checks");
    assert_eq!(
        run.json.get_field("correct"),
        &serde_json::Value::Bool(false)
    );
}

#[test]
fn wrong_headline_fails() {
    fails(&[
        "--workload",
        "paper",
        "--trace",
        "0",
        "--expect-headline",
        "t3_ndp=60",
    ]);
}

#[test]
fn wrong_digest_fails() {
    fails(&[
        "--workload",
        "fleet",
        "--trace",
        "0",
        "--expect-digest",
        "0x1",
    ]);
}

#[test]
fn wrong_snapshot_fails() {
    let dir = v6bench::scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join(format!("wrong-snapshot-{}.json", std::process::id()));
    std::fs::write(&file, "{}").expect("scratch file");
    let path = file.to_str().expect("utf-8 path");
    fails(&[
        "--workload",
        "ingest",
        "--trace",
        "0",
        "--expect-snapshot",
        path,
    ]);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(bench(&["--workload", "nope"]).code, 2);
    assert_eq!(bench(&["--workload", "paper", "--trace", "2"]).code, 2);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        json.get_field(key)
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get_field("name").as_str().expect("name").to_string(),
                    m.get_field("unit").as_str().expect("unit").to_string(),
                )
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}

#[test]
fn least_stolen_drops_only_disturbed_units() {
    use v6bench::{least_stolen, Sample};
    let clean = |secs| Sample { secs, steal_s: 0.0 };
    assert_eq!(
        least_stolen(&[clean(1.0), clean(1.2), clean(0.9)]),
        vec![0, 1, 2]
    );
    let burst = Sample {
        secs: 1.5,
        steal_s: 0.4,
    };
    assert_eq!(least_stolen(&[clean(1.0), burst, clean(0.9)]), vec![0, 2]);
}
