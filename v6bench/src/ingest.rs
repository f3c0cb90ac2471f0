//! `ingest`: a durable `v6brickd` fed a packaged fleet campaign by two
//! closed-loop clients.
//!
//! Set-up simulates the campaign into upload bundles and computes the
//! offline oracle (`fleet::run` over the same spec). Each timed round
//! spawns a fresh daemon on a fresh data directory; client `c` uploads
//! bundles `j` with `j % 2 == c`, in the chunk size `loadgen` draws for it,
//! and waits for every ack before sending the next upload. An upload is
//! timed from its first byte to its ack. After the round the daemon's
//! `SNAPSHOT` must equal the oracle, and after a graceful drain so must
//! the state `recover` rebuilds from the data directory.
//!
//! The traced run cannot wrap calls inside the daemon, so it replays the
//! daemon's per-upload path through the same public calls — frame
//! reader, stream decoder, analyzer, `absorb_upload`, `persist_snapshot`,
//! `recover` — on two threads, and must reach the same snapshot bytes.

use crate::metrics::{self, Values, STATS_FIELDS};
use crate::trace::{self, Count, Layer, UnitSpan};
use crate::{Options, Outcome, Size, WORKERS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;
use v6brick_core::observe::StreamingAnalyzer;
use v6brick_core::population::POPULATION_PASSES;
use v6brick_experiments::fleet::CampaignSpec;
use v6brick_experiments::serve;
use v6brick_ingest::loadgen::{client_chunk_size, client_partition};
use v6brick_ingest::wire::{
    write_frame, FrameReader, K_UPLOAD_BEGIN, K_UPLOAD_CHUNK, K_UPLOAD_END, MAX_FRAME_BYTES,
};
use v6brick_ingest::{
    recover, spawn, Client, ServerConfig, SharedState, UploadBundle, UploadHeader,
};
use v6brick_net::ipv6::Cidr;
use v6brick_net::Mac;
use v6brick_pcap::stream::StreamDecoder;

/// Homes in the packaged campaign (uploads per round).
pub const HOMES: u64 = 512;
const TINY_HOMES: u64 = 16;
/// Simulated seconds per home.
pub const DURATION_S: u64 = 30;
/// The load seed the clients draw their chunk sizes from (1024 and
/// 4096 bytes). It is fixed, unlike the campaign seed: `loadgen` draws
/// 512–4096 bytes per client, and the upload rate falls by about a fifth
/// when both clients draw small chunks, so a seed-drawn chunking would
/// swamp run-to-run comparisons with the load shape.
const LOAD_SEED: u64 = 1;
/// Bytes the traced replay hands the frame reader per read.
const READ_BYTES: usize = 64 * 1024;

fn spec(opts: &Options) -> CampaignSpec {
    CampaignSpec {
        homes: match opts.size {
            Size::Full => HOMES,
            Size::Tiny => TINY_HOMES,
        },
        seed: opts.seed,
        workers: WORKERS,
        duration_s: DURATION_S,
        ..CampaignSpec::default()
    }
}

struct Inputs {
    spec: CampaignSpec,
    bundles: Vec<UploadBundle>,
    oracle: String,
}

fn setup(opts: &Options) -> (Inputs, f64, bool) {
    let spec = spec(opts);
    let ((bundles, oracle), setup_s, same) = crate::repeated_setup(|| {
        (
            serve::campaign_bundles(&spec),
            serve::offline_report_json(&spec),
        )
    });
    let oracle = opts.expect.snapshot.clone().unwrap_or(oracle);
    (
        Inputs {
            spec,
            bundles,
            oracle,
        },
        setup_s,
        same,
    )
}

/// A fresh, empty data directory for one daemon or replay.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = crate::scratch_dir().join(format!("ingest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What one round against a live daemon produced.
struct Round {
    /// Upload phase: first byte of the first upload to the last ack.
    wall_s: f64,
    /// Per-upload latency, seconds.
    latencies: Vec<f64>,
    failed: u64,
    snapshot: String,
    stats: String,
    recovered: String,
}

fn round(inputs: &Inputs, dir: &Path) -> Result<Round, String> {
    let server = spawn(ServerConfig {
        campaign_seed: inputs.spec.seed,
        loop_threads: WORKERS,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = server.addr();
    let n = inputs.bundles.len();
    let barrier = Barrier::new(WORKERS + 1);
    let (start, per_client) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let client = Client::connect(addr);
                    barrier.wait();
                    let mut client = client.map_err(|e| format!("connect: {e}"))?;
                    let chunk = client_chunk_size(LOAD_SEED, c);
                    let mut latencies = Vec::new();
                    let mut failed = 0u64;
                    for j in client_partition(n, WORKERS, c) {
                        let t = Instant::now();
                        match client.upload_bundle(&inputs.bundles[j], chunk) {
                            Ok(ack) if ack.home_index == j as u64 => {}
                            _ => failed += 1,
                        }
                        latencies.push(t.elapsed().as_secs_f64());
                    }
                    Ok::<_, String>((client, latencies, failed, Instant::now()))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread never panics"))
            .collect();
        (start, per_client)
    });
    let mut latencies = Vec::with_capacity(n);
    let mut failed = 0;
    let mut end = start;
    let mut clients = Vec::new();
    for result in per_client {
        let (client, lat, f, done) = result?;
        latencies.extend(lat);
        failed += f;
        end = end.max(done);
        clients.push(client);
    }
    let client = &mut clients[0];
    let snapshot = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    drop(clients);
    server.shutdown();
    server.join();
    let recovered = recover(dir, inputs.spec.seed).map_err(|e| format!("recover: {e}"))?;
    let recovered = serde_json::to_string(&recovered.report).expect("report serializes");
    let _ = std::fs::remove_dir_all(dir);
    Ok(Round {
        wall_s: (end - start).as_secs_f64(),
        latencies,
        failed,
        snapshot,
        stats,
        recovered,
    })
}

fn check_round(out: &mut Outcome, inputs: &Inputs, r: &Round) {
    out.failed += r.failed;
    out.check(r.snapshot == inputs.oracle, || {
        "ingest: daemon SNAPSHOT differs from the offline oracle".into()
    });
    out.check(r.recovered == inputs.oracle, || {
        "ingest: recovered state differs from the offline oracle".into()
    });
}

/// Fresh-daemon rounds until `seconds` have passed (at least `min`).
fn rounds(
    out: &mut Outcome,
    inputs: &Inputs,
    seconds: f64,
    min: usize,
) -> Vec<(Round, crate::Sample)> {
    let mut done = Vec::new();
    let started = Instant::now();
    while done.len() < min || started.elapsed().as_secs_f64() < seconds {
        let dir = fresh_dir(&done.len().to_string());
        match crate::sample(|| round(inputs, &dir)) {
            (Ok(r), sample) => {
                check_round(out, inputs, &r);
                done.push((r, sample));
            }
            (Err(e), _) => {
                out.problems
                    .push(format!("ingest: round {}: {e}", done.len()));
                break;
            }
        }
    }
    done
}

/// Untraced run: fresh-daemon rounds for the time budget.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s, same) = setup(opts);
    out.check(same, || "ingest: set-up is not deterministic".into());
    let done = rounds(&mut out, &inputs, opts.seconds, 1);
    let samples: Vec<crate::Sample> = done.iter().map(|(_, s)| *s).collect();
    let kept: Vec<&Round> = crate::least_stolen(&samples)
        .into_iter()
        .map(|i| &done[i].0)
        .collect();
    let mut latencies: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let rate = latencies.len() as f64 / kept.iter().map(|r| r.wall_s).sum::<f64>();
    out.attempted = done.iter().map(|(r, _)| r.latencies.len() as u64).sum();
    let p50 = crate::median(&mut latencies);
    let p99 = crate::quantile(&mut latencies, 0.99);
    let m = &mut out.metrics;
    m.insert("setup_s".into(), setup_s);
    m.insert("items_per_s".into(), rate);
    m.insert("latency_p50_ms".into(), p50 * 1e3);
    m.insert("peak_rss_mb".into(), crate::peak_rss_mb());
    eprintln!(
        "ingest: {} rounds ({} least disturbed kept, {} uploads), {rate:.1} uploads/s, p50 {:.3} ms, p99 {:.3} ms, steal {:.2} s, setup {setup_s:.3} s",
        done.len(),
        kept.len(),
        latencies.len(),
        p50 * 1e3,
        p99 * 1e3,
        crate::total_steal(&samples),
    );
    out
}

/// The bytes a client puts on the wire for one upload.
fn wire_bytes(bundle: &UploadBundle, chunk_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bundle.pcap.len() + 4096);
    let header = serde_json::to_string(&bundle.header).expect("header serializes");
    write_frame(&mut out, K_UPLOAD_BEGIN, header.as_bytes()).expect("vec write");
    for chunk in bundle.pcap.chunks(chunk_size.clamp(1, MAX_FRAME_BYTES)) {
        write_frame(&mut out, K_UPLOAD_CHUNK, chunk).expect("vec write");
    }
    write_frame(&mut out, K_UPLOAD_END, &[]).expect("vec write");
    out
}

struct Replay<'a> {
    state: &'a SharedState,
    /// Serializes absorbs and snapshots so each absorb's WAL byte delta
    /// can be read off the shared counter.
    wal: Mutex<()>,
    since_snapshot: AtomicU64,
    snapshot_every: u64,
    passes: Mutex<Values>,
}

impl Replay<'_> {
    /// Replay one upload's bytes through the daemon's per-upload path.
    fn upload(&self, wire: &[u8]) -> Result<(), String> {
        let mut reader = FrameReader::new();
        let mut open: Option<(UploadHeader, StreamingAnalyzer, StreamDecoder)> = None;
        for mut data in wire.chunks(READ_BYTES) {
            while !data.is_empty() {
                let (used, frame) = trace::span(Layer::Wire, || reader.feed(data))
                    .map_err(|e| format!("wire: {e}"))?;
                data = &data[used..];
                let Some(frame) = frame else { continue };
                match frame.kind {
                    K_UPLOAD_BEGIN => {
                        let header: UploadHeader = std::str::from_utf8(&frame.payload)
                            .map_err(|e| format!("header: {e}"))
                            .and_then(|h| {
                                serde_json::from_str(h).map_err(|e| format!("header: {e:?}"))
                            })?;
                        let macs: Vec<(Mac, String)> = header
                            .devices
                            .iter()
                            .map(|d| (d.mac, d.id.clone()))
                            .collect();
                        let lan = Cidr::new(header.lan_prefix, header.lan_prefix_len);
                        let mut analyzer =
                            StreamingAnalyzer::with_passes(&macs, lan, POPULATION_PASSES);
                        analyzer.enable_metrics();
                        open = Some((header, analyzer, StreamDecoder::new()));
                    }
                    K_UPLOAD_CHUNK => {
                        let (_, analyzer, decoder) = open.as_mut().ok_or("chunk outside upload")?;
                        trace::count(Count::PcapBytes, frame.payload.len() as u64);
                        trace::span(Layer::PcapStream, || {
                            decoder
                                .feed(&frame.payload, &mut |ts, f| trace::observe(analyzer, ts, f))
                        })
                        .map_err(|e| format!("pcap: {e}"))?;
                    }
                    K_UPLOAD_END => {
                        let (header, analyzer, decoder) =
                            open.take().ok_or("end outside upload")?;
                        self.finish(header, analyzer, decoder)?;
                    }
                    other => return Err(format!("unexpected frame kind {other:#04x}")),
                }
            }
        }
        Ok(())
    }

    fn finish(
        &self,
        header: UploadHeader,
        analyzer: StreamingAnalyzer,
        decoder: StreamDecoder,
    ) -> Result<(), String> {
        let frames = trace::span(Layer::PcapStream, || decoder.finish())
            .map_err(|e| format!("pcap: {e}"))?;
        trace::count(Count::PcapFrames, frames);
        let analyzed = analyzer.frames_fed();
        let passes: Vec<_> = analyzer
            .pass_metrics()
            .into_iter()
            .map(|(id, m)| (id.label(), m.frames, m.nanos))
            .collect();
        crate::home::add_pass_counters(&mut self.passes.lock().expect("pass lock"), &passes);
        let analysis = trace::span(Layer::Observe, || analyzer.finish());
        let functional: BTreeMap<String, bool> = header
            .devices
            .iter()
            .map(|d| (d.id.clone(), d.functional))
            .collect();
        let _serial = self.wal.lock().expect("wal lock");
        let before = self.state.stats.wal_bytes.load(Ordering::Relaxed);
        trace::span(Layer::WalAppend, || {
            self.state.absorb_upload(
                header.home_index,
                &header.config_label,
                &analysis.devices,
                &functional,
                analyzed,
            )
        })
        .map_err(|e| format!("absorb: {e}"))?;
        trace::count(Count::WalRecords, 1);
        trace::count(
            Count::WalBytes,
            self.state.stats.wal_bytes.load(Ordering::Relaxed) - before,
        );
        Ok(())
    }

    /// The daemon's snapshot cadence: every `snapshot_every` absorbs.
    fn maybe_snapshot(&self, index: u64) -> Result<(), String> {
        if self.since_snapshot.fetch_add(1, Ordering::SeqCst) + 1 != self.snapshot_every {
            return Ok(());
        }
        self.since_snapshot.store(0, Ordering::SeqCst);
        trace::unit("snapshot", index, || self.snapshot())
    }

    fn snapshot(&self) -> Result<(), String> {
        let _serial = self.wal.lock().expect("wal lock");
        trace::count(Count::Snapshots, 1);
        trace::span(Layer::SnapshotWrite, || self.state.persist_snapshot())
            .map(|_| ())
            .map_err(|e| format!("snapshot: {e}"))
    }
}

/// One traced replay of the whole campaign. Returns the snapshot and the
/// recovered report (both JSON), the per-layer values, and the median
/// traced upload time in seconds.
fn traced_pass(
    inputs: &Inputs,
    dir: &Path,
) -> Result<(String, String, Values, f64, Vec<UnitSpan>), String> {
    let config = ServerConfig::default();
    let state = SharedState::durable(inputs.spec.seed, config.shards, dir, 0)
        .map_err(|e| format!("durable state: {e}"))?;
    let replay = Replay {
        state: &state,
        wal: Mutex::new(()),
        since_snapshot: AtomicU64::new(0),
        snapshot_every: config.snapshot_every,
        passes: Mutex::new(Values::new()),
    };
    let n = inputs.bundles.len();
    let epoch = trace::begin_pass();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| {
                let replay = &replay;
                s.spawn(move || {
                    let chunk = client_chunk_size(LOAD_SEED, c);
                    for j in client_partition(n, WORKERS, c) {
                        let wire = wire_bytes(&inputs.bundles[j], chunk);
                        trace::unit("upload", j as u64, || replay.upload(&wire))?;
                        replay.maybe_snapshot(j as u64)?;
                    }
                    Ok::<(), String>(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("replay thread never panics"))
    })?;
    trace::unit("snapshot", n as u64, || {
        replay.snapshot()?;
        state
            .finalize_durability()
            .map_err(|e| format!("sync: {e}"))
    })?;
    let snapshot = trace::unit("merge", 0, || {
        trace::span(Layer::StateMerge, || state.snapshot_json())
    });
    let passes = replay.passes.into_inner().expect("pass lock");
    drop(state);
    let recovered = trace::unit("recover", 0, || {
        trace::span(Layer::Recover, || recover(dir, inputs.spec.seed))
    })
    .map_err(|e| format!("recover: {e}"))?;
    let wall = epoch.elapsed().as_secs_f64();
    let units = trace::end_pass();
    let mut upload_s: Vec<f64> = units
        .iter()
        .filter(|u| u.kind == "upload")
        .map(|u| u.wall_ns() as f64 / 1e9)
        .collect();
    let mut values = metrics::layer_totals(&units, wall, WORKERS);
    values.extend(passes);
    let _ = std::fs::remove_dir_all(dir);
    Ok((
        snapshot,
        serde_json::to_string(&recovered.report).expect("report serializes"),
        values,
        crate::median(&mut upload_s),
        units,
    ))
}

/// `STATS` numeric fields as `ingest.stats.*` values.
fn stats_values(stats: &str) -> Values {
    let mut out = Values::new();
    let Ok(json) = serde_json::from_str::<serde_json::Value>(stats) else {
        return out;
    };
    for field in STATS_FIELDS {
        if let Some(v) = json.get(field).and_then(|v| v.as_f64()) {
            out.insert(format!("ingest.stats.{field}"), v);
        }
    }
    if let Some(passes) = json.get("passes").and_then(|p| p.as_object()) {
        for (label, t) in passes {
            for key in ["nanos", "frames"] {
                if let Some(v) = t.get(key).and_then(|v| v.as_f64()) {
                    out.insert(format!("ingest.stats.passes.{label}.{key}"), v);
                }
            }
        }
    }
    out
}

/// Traced run: one untraced round, then two traced replays whose
/// snapshots must equal it and whose counts must repeat.
pub fn run_traced(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, _, _) = setup(opts);
    // Two rounds: enough uploads that p99 has ten samples beyond it.
    let done = rounds(&mut out, &inputs, 0.0, 2);
    let Some((r, _)) = done.last() else {
        return out;
    };
    let mut passes = Vec::new();
    for name in ["traced-1", "traced-2"] {
        match traced_pass(&inputs, &fresh_dir(name)) {
            Ok(p) => passes.push(p),
            Err(e) => {
                out.problems.push(format!("ingest: {name}: {e}"));
                return out;
            }
        }
    }
    for (snapshot, recovered, ..) in &passes {
        out.check(*snapshot == r.snapshot && *recovered == r.snapshot, || {
            "ingest: traced replay state differs from the daemon's SNAPSHOT".into()
        });
    }
    let (_, _, second_values, traced_upload_s, units) = passes.pop().expect("two passes");
    let (_, _, first_values, ..) = passes.pop().expect("two passes");
    crate::save_trace(&mut out, "ingest", opts.seed, &units);
    crate::check_counts(&mut out, "ingest", &first_values, &second_values);
    let mut values = second_values;
    let stats = stats_values(&r.stats);
    out.check(
        stats.get("ingest.stats.frames_total").copied()
            == values.get("pcap.stream.frames").copied(),
        || "ingest: traced decoded frames differ from the daemon's frames_total".into(),
    );
    values.extend(stats);
    let mut latencies: Vec<f64> = done
        .iter()
        .flat_map(|(r, _)| r.latencies.iter().map(|s| s * 1e3))
        .collect();
    out.attempted = latencies.len() as u64;
    let p50_ms = crate::median(&mut latencies);
    values.insert(
        "ingest.server.rest_ms".into(),
        p50_ms - traced_upload_s * 1e3,
    );
    crate::untraced_reference(&mut values, r.wall_s, &mut latencies);
    out.metrics = values;
    out
}
