//! One simulated home, assembled by hand from public parts so every
//! host and the capture tap can be wrapped for tracing.
//!
//! The build order, seeds and analyzer set-up follow the experiment
//! harness's Ethernet and mesh home runners step for step, so a traced
//! home produces the same observations as the untraced one; the
//! workloads' fidelity gates compare the two and fail on any
//! difference.

use crate::trace::{self, Count, Layer, TracedHost, TracedSink};
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::{DeviceObservation, StreamingAnalyzer};
use v6brick_devices::phone::Phone;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::stack::IotDevice;
use v6brick_experiments::scenario::{lan_prefix, ZoneCache};
use v6brick_experiments::NetworkConfig;
use v6brick_net::Mac;
use v6brick_sim::internet::Internet;
use v6brick_sim::{BorderRouter, FaultPlan, Host, Router, SimTime, Simulation, SimulationBuilder};

/// What a traced home yields: the outputs the fidelity gates compare,
/// plus the analyzer's per-pass counters.
pub struct HomeOutput {
    /// Report label (`<config>` or `<config> + mesh`).
    pub label: &'static str,
    /// Per-device observations.
    pub devices: BTreeMap<String, DeviceObservation>,
    /// Functionality-test outcome per device id.
    pub functional: BTreeMap<String, bool>,
    /// Frames the analyzer was fed.
    pub frames: u64,
    /// Per-pass `(label, frames, nanos)`.
    pub passes: Vec<(&'static str, u64, u64)>,
}

fn traced(host: Box<dyn Host>, layer: Layer) -> Box<dyn Host> {
    Box::new(TracedHost::new(host, layer))
}

fn analyzer(profiles: &[&DeviceProfile], passes: &[PassId]) -> StreamingAnalyzer {
    let macs: Vec<(Mac, String)> = profiles.iter().map(|p| (p.mac, p.id.clone())).collect();
    let mut analyzer = StreamingAnalyzer::with_passes(&macs, lan_prefix(), passes);
    analyzer.enable_metrics();
    analyzer
}

fn pass_counters(analyzer: &StreamingAnalyzer) -> Vec<(&'static str, u64, u64)> {
    analyzer
        .pass_metrics()
        .into_iter()
        .map(|(id, m)| (id.label(), m.frames, m.nanos))
        .collect()
}

/// Run the simulation to `duration` as the `sim.rest` span and record
/// the engine's public work counters.
fn run_sim(sim: &mut Simulation, duration: SimTime) {
    trace::span(Layer::SimRest, || sim.run_until(duration));
    trace::count(Count::FramesDelivered, sim.frames_delivered);
    trace::count(
        Count::ServedBytes,
        sim.internet().served.values().sum::<u64>(),
    );
    trace::count(Count::RouterDropped, sim.router().dropped);
}

fn phone_hosts() -> [Box<dyn Host>; 2] {
    [
        traced(Box::new(Phone::pixel7()), Layer::Devices),
        traced(Box::new(Phone::iphone_x()), Layer::Devices),
    ]
}

fn is_functional(host: &dyn Host) -> bool {
    host.as_any()
        .downcast_ref::<IotDevice>()
        .expect("host is a device")
        .is_functional()
}

/// One home with its devices directly on the Ethernet LAN and the
/// analyzer streaming off the tap.
pub fn run_ethernet(
    cache: Option<&mut ZoneCache>,
    config: NetworkConfig,
    profiles: &[&DeviceProfile],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
) -> HomeOutput {
    let (mut sim, device_hosts) = trace::span(Layer::ScenarioSetup, || {
        let zones = match cache {
            Some(cache) => cache.zones_for(profiles),
            None => v6brick_experiments::scenario::build_zones(profiles),
        };
        let mut b =
            SimulationBuilder::new(Router::new(config.router_config()), Internet::new(zones));
        let device_hosts: Vec<_> = profiles
            .iter()
            .map(|p| {
                b.add_host(traced(
                    Box::new(IotDevice::new((*p).clone())),
                    Layer::Devices,
                ))
            })
            .collect();
        for phone in phone_hosts() {
            b.add_host(phone);
        }
        b.add_sink(Box::new(TracedSink::new(analyzer(profiles, passes))));
        let sim = b
            .seed(base_seed ^ config as u64)
            .capture(false)
            .faults(FaultPlan::new())
            .build();
        (sim, device_hosts)
    });
    run_sim(&mut sim, duration);
    let (functional, analyzer) = trace::span(Layer::ScenarioFinish, || {
        let functional: BTreeMap<String, bool> = profiles
            .iter()
            .zip(&device_hosts)
            .map(|(p, h)| (p.id.clone(), is_functional(sim.host(*h))))
            .collect();
        let analyzer = sim
            .take_sinks()
            .pop()
            .expect("the analyzer sink was attached")
            .into_any()
            .downcast::<StreamingAnalyzer>()
            .expect("the traced sink hands back the analyzer");
        (functional, analyzer)
    });
    finish(config.label(), functional, *analyzer)
}

/// One home with its devices behind a 6LoWPAN border router: simulate
/// with a buffered LAN capture, recover leaf bindings from the mesh air,
/// then walk the LAN capture with the bindings installed.
pub fn run_mesh(
    cache: &mut ZoneCache,
    config: NetworkConfig,
    profiles: &[&DeviceProfile],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
) -> HomeOutput {
    let sim_seed = base_seed ^ config as u64;
    let (mut sim, br_id) = trace::span(Layer::ScenarioSetup, || {
        let zones = cache.zones_for(profiles);
        let mut b =
            SimulationBuilder::new(Router::new(config.router_config()), Internet::new(zones));
        let leaves: Vec<Box<dyn Host>> = profiles
            .iter()
            .map(|p| traced(Box::new(IotDevice::new((*p).clone())), Layer::Devices))
            .collect();
        let br_id = b.add_host(traced(
            Box::new(BorderRouter::new(sim_seed, leaves)),
            Layer::Mesh,
        ));
        for phone in phone_hosts() {
            b.add_host(phone);
        }
        (b.seed(sim_seed).capture(true).build(), br_id)
    });
    run_sim(&mut sim, duration);
    let (functional, lan_capture, mesh_capture) = trace::span(Layer::ScenarioFinish, || {
        let lan_capture = sim.take_capture();
        let br = sim
            .host_mut(br_id)
            .as_any_mut()
            .downcast_mut::<BorderRouter>()
            .expect("host is the border router");
        let mesh_capture = br.take_mesh_capture();
        let functional: BTreeMap<String, bool> = profiles
            .iter()
            .enumerate()
            .map(|(idx, p)| (p.id.clone(), is_functional(br.leaf(idx))))
            .collect();
        (functional, lan_capture, mesh_capture)
    });
    let mut analyzer = trace::span(Layer::Observe, || {
        let bindings = v6brick_core::bindings_from_mesh_capture(&mesh_capture, &lan_prefix());
        let mut analyzer = analyzer(profiles, passes);
        for (addr, mac) in &bindings.by_addr {
            analyzer.add_mesh_binding(*addr, *mac);
        }
        analyzer
    });
    for pkt in lan_capture.iter() {
        trace::observe(&mut analyzer, pkt.timestamp_us, &pkt.data);
    }
    finish(config.mesh_label(), functional, analyzer)
}

fn finish(
    label: &'static str,
    functional: BTreeMap<String, bool>,
    analyzer: StreamingAnalyzer,
) -> HomeOutput {
    let frames = analyzer.frames_fed();
    let passes = pass_counters(&analyzer);
    let analysis = trace::span(Layer::ScenarioFinish, || analyzer.finish());
    HomeOutput {
        label,
        devices: analysis.devices,
        functional,
        frames,
        passes,
    }
}

/// Add one analyzer's per-pass counters to the `core.analysis.*` metrics.
pub fn add_pass_counters(values: &mut crate::metrics::Values, passes: &[(&str, u64, u64)]) {
    for (label, frames, nanos) in passes {
        *values
            .entry(format!("core.analysis.{label}.ns"))
            .or_default() += *nanos as f64;
        *values
            .entry(format!("core.analysis.{label}.frames"))
            .or_default() += *frames as f64;
    }
}
