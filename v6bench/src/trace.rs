//! Layer attribution measured from outside the program.
//!
//! Every timed call into a layer runs inside [`span`], which keeps a
//! per-thread stack so a layer's *self* time excludes the layers it
//! called (a border router minus its leaves, `run_until` minus the hosts
//! and the capture tap). Per-call times and counts accumulate in a
//! thread-local [`Acc`]; [`unit`] snapshots that accumulator around one
//! home, config, upload or snapshot and files the difference as a
//! [`UnitSpan`] in a process-wide list, which is read back once the
//! traced pass ends. Nothing is written while the workload runs.

use std::any::Any;
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;
use v6brick_core::observe::StreamingAnalyzer;
use v6brick_net::Mac;
use v6brick_sim::{Effects, FrameSink, Host, SimTime};

/// The layers the benchmark attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Device stacks and phones (`Host::on_*`).
    Devices,
    /// The 6LoWPAN border router, minus its leaves.
    Mesh,
    /// The streaming analyzer (`FrameSink::on_frame`, `feed`, `finish`).
    Observe,
    /// `run_until` minus hosts and tap: router, Internet model, engine.
    SimRest,
    /// Zones, hosts and builder before `run_until`.
    ScenarioSetup,
    /// Downcasts, functional test and analyzer hand-off after it.
    ScenarioFinish,
    /// `PopulationReport::absorb_home` and `merge`.
    PopulationAbsorb,
    /// `wire::FrameReader::feed`.
    Wire,
    /// `StreamDecoder::feed`/`finish`, minus the analyzer it feeds.
    PcapStream,
    /// `SharedState::snapshot_json`: the stripe merge.
    StateMerge,
    /// `SharedState::absorb_upload`: claim, WAL append and stripe fold.
    WalAppend,
    /// `SharedState::persist_snapshot`.
    SnapshotWrite,
    /// `recover`.
    Recover,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Devices,
        Layer::Mesh,
        Layer::Observe,
        Layer::SimRest,
        Layer::ScenarioSetup,
        Layer::ScenarioFinish,
        Layer::PopulationAbsorb,
        Layer::Wire,
        Layer::PcapStream,
        Layer::StateMerge,
        Layer::WalAppend,
        Layer::SnapshotWrite,
        Layer::Recover,
    ];

    /// The metric name of the layer's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Devices => "devices.self_s",
            Layer::Mesh => "sim.mesh.self_s",
            Layer::Observe => "core.observe.self_s",
            Layer::SimRest => "sim.rest.self_s",
            Layer::ScenarioSetup => "scenario.setup_s",
            Layer::ScenarioFinish => "scenario.finish_s",
            Layer::PopulationAbsorb => "core.population.absorb_s",
            Layer::Wire => "ingest.wire.self_s",
            Layer::PcapStream => "pcap.stream.self_s",
            Layer::StateMerge => "ingest.state.merge_s",
            Layer::WalAppend => "ingest.wal.append_s",
            Layer::SnapshotWrite => "ingest.snapshot.write_s",
            Layer::Recover => "ingest.recover_s",
        }
    }
}

/// Work counted at layer boundaries. Each is deterministic for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Frames the device stacks handed to the LAN or the mesh.
    DevicesFramesOut,
    /// Frames the tap handed to the analyzer.
    ObserveFrames,
    /// Bytes of those frames.
    ObserveBytes,
    /// Frames the engine delivered (`Simulation::frames_delivered`).
    FramesDelivered,
    /// Bytes the Internet model served (`Internet::served`).
    ServedBytes,
    /// Frames the router dropped (`Router::dropped`).
    RouterDropped,
    /// Frames the pcap stream decoder emitted.
    PcapFrames,
    /// Capture bytes fed to the decoder.
    PcapBytes,
    /// WAL records appended.
    WalRecords,
    /// WAL bytes appended.
    WalBytes,
    /// Snapshots persisted.
    Snapshots,
}

impl Count {
    /// Every count, in report order.
    pub const ALL: [Count; 11] = [
        Count::DevicesFramesOut,
        Count::ObserveFrames,
        Count::ObserveBytes,
        Count::FramesDelivered,
        Count::ServedBytes,
        Count::RouterDropped,
        Count::PcapFrames,
        Count::PcapBytes,
        Count::WalRecords,
        Count::WalBytes,
        Count::Snapshots,
    ];

    /// The metric name of the count.
    pub fn metric(self) -> &'static str {
        match self {
            Count::DevicesFramesOut => "devices.frames_out",
            Count::ObserveFrames => "core.observe.frames",
            Count::ObserveBytes => "core.observe.bytes",
            Count::FramesDelivered => "sim.frames_delivered",
            Count::ServedBytes => "sim.internet.served_bytes",
            Count::RouterDropped => "sim.router.dropped",
            Count::PcapFrames => "pcap.stream.frames",
            Count::PcapBytes => "pcap.stream.bytes",
            Count::WalRecords => "ingest.wal.records",
            Count::WalBytes => "ingest.wal.bytes",
            Count::Snapshots => "ingest.snapshot.count",
        }
    }
}

const LAYERS: usize = Layer::ALL.len();
const COUNTS: usize = Count::ALL.len();

/// Per-layer self nanoseconds and call counts, plus the work counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Acc {
    /// Self time per layer, in [`Layer::ALL`] order.
    pub self_ns: [u64; LAYERS],
    /// Timed calls per layer.
    pub calls: [u64; LAYERS],
    /// Work counts, in [`Count::ALL`] order.
    pub counts: [u64; COUNTS],
}

impl Acc {
    fn minus(&self, earlier: &Acc) -> Acc {
        let mut out = self.clone();
        for i in 0..LAYERS {
            out.self_ns[i] -= earlier.self_ns[i];
            out.calls[i] -= earlier.calls[i];
        }
        for i in 0..COUNTS {
            out.counts[i] -= earlier.counts[i];
        }
        out
    }

    /// Add another accumulator into this one.
    pub fn add(&mut self, other: &Acc) {
        for i in 0..LAYERS {
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
        }
        for i in 0..COUNTS {
            self.counts[i] += other.counts[i];
        }
    }

    /// Self seconds of one layer.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e9
    }

    /// Timed calls into one layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// One work count.
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }
}

#[derive(Default)]
struct Tracer {
    acc: Acc,
    /// Child nanoseconds of each open span, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// One home, config, upload or snapshot: its wall interval on one
/// thread and the layer work done inside it.
#[derive(Debug, Clone)]
pub struct UnitSpan {
    /// `config`, `home`, `upload`, `snapshot`, `merge` or `recover`.
    pub kind: &'static str,
    /// Config position, home index or upload index.
    pub index: u64,
    /// Start, nanoseconds since the traced pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the traced pass began.
    pub end_ns: u64,
    /// Layer work done inside the interval.
    pub acc: Acc,
}

impl UnitSpan {
    /// Wall nanoseconds of the unit.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static UNITS: Mutex<Vec<UnitSpan>> = Mutex::new(Vec::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Start a traced pass: clear the unit list and set its time origin.
/// Returns the origin.
pub fn begin_pass() -> Instant {
    let now = Instant::now();
    UNITS.lock().expect("unit list lock").clear();
    *EPOCH.lock().expect("epoch lock") = Some(now);
    now
}

/// End a traced pass and take its unit spans, ordered by kind and index.
pub fn end_pass() -> Vec<UnitSpan> {
    let mut units = std::mem::take(&mut *UNITS.lock().expect("unit list lock"));
    units.sort_by_key(|u| (u.kind, u.index));
    units
}

/// Write `units` as JSON lines to `path` (one object per unit: kind,
/// index, start/end nanoseconds, and the non-zero per-layer self
/// nanoseconds, call counts and work counts inside it).
pub fn save(path: &std::path::Path, units: &[UnitSpan]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for u in units {
        let mut fields = Vec::new();
        for layer in Layer::ALL {
            let i = layer as usize;
            if u.acc.calls[i] > 0 {
                fields.push(format!("\"{}.ns\": {}", layer.metric(), u.acc.self_ns[i]));
                fields.push(format!("\"{}.calls\": {}", layer.metric(), u.acc.calls[i]));
            }
        }
        for count in Count::ALL {
            let n = u.acc.counts[count as usize];
            if n > 0 {
                fields.push(format!("\"{}\": {n}", count.metric()));
            }
        }
        let _ = writeln!(
            out,
            "{{\"kind\": \"{}\", \"index\": {}, \"start_ns\": {}, \"end_ns\": {}, \"layers\": {{{}}}}}",
            u.kind,
            u.index,
            u.start_ns,
            u.end_ns,
            fields.join(", ")
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Time `f` as one call into `layer`; its self time excludes nested spans.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().stack.push(0));
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let children = t.stack.pop().expect("span stack balanced");
        t.acc.self_ns[layer as usize] += dur.saturating_sub(children);
        t.acc.calls[layer as usize] += 1;
        if let Some(parent) = t.stack.last_mut() {
            *parent += dur;
        }
    });
    out
}

/// Add `n` to a work count on this thread.
pub fn count(what: Count, n: u64) {
    TRACER.with(|t| t.borrow_mut().acc.counts[what as usize] += n);
}

/// Run `f` as one unit of work and file its span.
pub fn unit<R>(kind: &'static str, index: u64, f: impl FnOnce() -> R) -> R {
    let epoch = EPOCH.lock().expect("epoch lock").expect("begin_pass first");
    let before = TRACER.with(|t| t.borrow().acc.clone());
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let acc = TRACER.with(|t| t.borrow().acc.minus(&before));
    UNITS.lock().expect("unit list lock").push(UnitSpan {
        kind,
        index,
        start_ns: (start - epoch).as_nanos() as u64,
        end_ns: (end - epoch).as_nanos() as u64,
        acc,
    });
    out
}

/// A delegating host that times every callback as `layer` and counts
/// the frames it emits. `as_any` forwards, so downcasts still reach the
/// wrapped device, phone or border router.
pub struct TracedHost {
    inner: Box<dyn Host>,
    layer: Layer,
}

impl TracedHost {
    /// Wrap `inner`, attributing its callbacks to `layer`.
    pub fn new(inner: Box<dyn Host>, layer: Layer) -> TracedHost {
        TracedHost { inner, layer }
    }

    fn call(&mut self, fx: &mut Effects, f: impl FnOnce(&mut dyn Host, &mut Effects)) {
        let before = fx.frames.len();
        let inner = self.inner.as_mut();
        span(self.layer, || f(inner, fx));
        if self.layer == Layer::Devices {
            count(Count::DevicesFramesOut, (fx.frames.len() - before) as u64);
        }
    }
}

impl Host for TracedHost {
    fn mac(&self) -> Mac {
        self.inner.mac()
    }

    fn on_start(&mut self, now: SimTime, fx: &mut Effects) {
        self.call(fx, |h, fx| h.on_start(now, fx));
    }

    fn on_frame(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects) {
        self.call(fx, |h, fx| h.on_frame(now, frame, fx));
    }

    fn on_timer(&mut self, now: SimTime, token: u64, fx: &mut Effects) {
        self.call(fx, |h, fx| h.on_timer(now, token, fx));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A delegating capture-tap sink around the streaming analyzer.
/// `into_any` hands back the bare analyzer, so the usual downcast to
/// [`StreamingAnalyzer`] works unchanged.
pub struct TracedSink {
    inner: StreamingAnalyzer,
}

impl TracedSink {
    /// Wrap `inner`.
    pub fn new(inner: StreamingAnalyzer) -> TracedSink {
        TracedSink { inner }
    }
}

/// Feed one frame to `analyzer` as a timed, counted analyzer call.
pub fn observe(analyzer: &mut StreamingAnalyzer, timestamp_us: u64, frame: &[u8]) {
    count(Count::ObserveFrames, 1);
    count(Count::ObserveBytes, frame.len() as u64);
    span(Layer::Observe, || analyzer.feed(timestamp_us, frame));
}

impl FrameSink for TracedSink {
    fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]) {
        observe(&mut self.inner, timestamp_us, frame);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        Box::new(self.inner)
    }
}
