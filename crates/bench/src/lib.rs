//! Benchmark harness crate. The actual benchmarks live in `benches/`:
//!
//! * `tables` — regenerates every paper table end-to-end (Criterion timing
//!   the full simulate-capture-analyze path per table);
//! * `figures` — same for every figure;
//! * `pipeline` — analysis-pipeline micro-benches (flow table, DNS
//!   transaction pairing, address classification);
//! * `wire` — parse/emit micro-benches for the wire formats;
//! * `ablations` — the design-choice ablations called out in DESIGN.md.

use v6brick_devices::registry;
use v6brick_devices::stack::IotDevice;
use v6brick_experiments::{scenario, NetworkConfig};
use v6brick_net::Mac;
use v6brick_pcap::Capture;
use v6brick_sim::{Internet, Router, SimTime, SimulationBuilder};

/// The benches' household fixture: the named registry devices on a
/// dual-stack LAN with no verification phones, run for `secs` virtual
/// seconds on the builder's default seed. Returns the buffered LAN
/// capture and the `(mac, id)` table the analyzer attributes by.
pub fn household_capture(ids: &[&str], secs: u64) -> (Capture, Vec<(Mac, String)>) {
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let mut b = SimulationBuilder::new(
        Router::new(NetworkConfig::DualStack.router_config()),
        Internet::new(scenario::build_zones(&profiles)),
    );
    let macs = profiles
        .iter()
        .map(|p| {
            b.add_host(Box::new(IotDevice::new(p.clone())));
            (p.mac, p.id.clone())
        })
        .collect();
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(secs));
    (sim.take_capture(), macs)
}
