//! Scenario construction and single-experiment execution.
//!
//! Builds the full testbed — router per Table 2 row, the Internet's zone
//! database derived from every device's destination list, all 93 device
//! models, the two verification phones — runs the experiment window,
//! performs the functionality test, and analyzes the traffic.
//!
//! Analysis is streaming by default: a [`StreamingAnalyzer`] rides the
//! simulator's capture tap and folds every frame into `O(state)` as it
//! crosses the LAN, so the experiment never materializes an `O(frames)`
//! capture buffer and never parses a frame twice. Buffered captures
//! (pcap export, upload bundles) remain available via
//! [`Home::keep_capture`].

use crate::config::NetworkConfig;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use v6brick_core::analysis::PassId;
use v6brick_core::observe::{ExperimentAnalysis, StreamingAnalyzer};
use v6brick_core::outage::SwitchRecord;
use v6brick_devices::phone::Phone;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::stack::{ntp_anycast, IotDevice};
use v6brick_net::ipv6::Cidr;
use v6brick_net::Mac;
use v6brick_pcap::Capture;
use v6brick_sim::event::SimTime;
use v6brick_sim::internet::{DomainProfile, Internet, ZoneDb};
use v6brick_sim::{
    addrs, BorderRouter, FaultPlan, Host, HostId, Router, Simulation, SimulationBuilder,
};

/// How long each connectivity experiment runs (virtual time). Long enough
/// for boot, addressing, resolution, rendezvous, and several telemetry
/// rounds.
pub const EXPERIMENT_DURATION: SimTime = SimTime::from_secs(420);

/// The domain registrations one profile contributes to a zone database,
/// in destination order — the unit [`ZoneCache`] memoizes.
fn zone_fragment(p: &DeviceProfile) -> Vec<DomainProfile> {
    let mut out = Vec::with_capacity(p.app.destinations.len() + 1);
    for d in &p.app.destinations {
        out.push(if d.aaaa_ready {
            DomainProfile::dual_stack(d.domain.clone())
        } else {
            DomainProfile::v4_only(d.domain.clone())
        });
    }
    if let Some(h) = &p.app.hardcoded_v6_endpoint {
        out.push(DomainProfile::dual_stack(h.clone()));
    }
    out
}

/// Replay per-profile fragments into one zone database. First
/// registration wins (deterministic because profiles and their
/// destinations are ordered); the NTP anycast and the phones' canary
/// domain are registered last, unconditionally — exactly the order the
/// uncached builder always used.
fn assemble_zones<'a>(fragments: impl Iterator<Item = &'a [DomainProfile]>) -> ZoneDb {
    let mut zones = ZoneDb::new();
    for fragment in fragments {
        for dp in fragment {
            // Don't overwrite: shared domains keep their first profile.
            if zones.get(&dp.name).is_none() {
                zones.insert(dp.clone());
            }
        }
    }
    zones.insert(DomainProfile::dual_stack(ntp_anycast()));
    zones.insert(DomainProfile::dual_stack(Phone::canary_domain()));
    zones
}

/// Build the authoritative zone database for a set of device profiles:
/// every destination with its AAAA readiness, the hard-coded endpoints,
/// the NTP anycast, and the phones' canary domain.
pub fn build_zones<P: Borrow<DeviceProfile>>(profiles: &[P]) -> ZoneDb {
    let fragments: Vec<Vec<DomainProfile>> =
        profiles.iter().map(|p| zone_fragment(p.borrow())).collect();
    assemble_zones(fragments.iter().map(|f| f.as_slice()))
}

/// Per-worker scratch for fleet-scale zone building: memoizes each
/// profile's [`DomainProfile`] fragment so a worker that simulates
/// thousands of homes derives every destination's zone entry once per
/// registry profile instead of once per home. Produces a database
/// byte-equivalent to [`build_zones`] for any profile list — the cache
/// only skips re-deriving per-profile fragments; the first-wins
/// assembly order is identical.
#[derive(Default)]
pub struct ZoneCache {
    fragments: HashMap<String, Vec<DomainProfile>>,
}

impl ZoneCache {
    /// An empty cache; it warms up as homes are simulated.
    pub fn new() -> ZoneCache {
        ZoneCache::default()
    }

    /// [`build_zones`], memoized per profile id.
    pub fn zones_for<P: Borrow<DeviceProfile>>(&mut self, profiles: &[P]) -> ZoneDb {
        for p in profiles {
            let p = p.borrow();
            self.fragments
                .entry(p.id.clone())
                .or_insert_with(|| zone_fragment(p));
        }
        assemble_zones(
            profiles
                .iter()
                .map(|p| self.fragments[&p.borrow().id].as_slice()),
        )
    }
}

/// The outcome of one connectivity experiment.
pub struct ExperimentRun {
    /// Config.
    pub config: NetworkConfig,
    /// Pipeline output, streamed off the LAN capture tap.
    pub analysis: ExperimentAnalysis,
    /// Functionality-test outcome per device id (§4.1).
    pub functional: BTreeMap<String, bool>,
    /// Did the verification phones confirm the network works?
    pub phones_ok: bool,
    /// The router's IPv6 neighbor table at the end of the run.
    pub neighbors_v6: Vec<(std::net::Ipv6Addr, Mac)>,
    /// Frames captured.
    pub frames: u64,
}

/// The LAN /64 used to split local from Internet IPv6 traffic.
pub fn lan_prefix() -> Cidr {
    Cidr::new(addrs::LAN_PREFIX, 64)
}

/// Where a home's IoT devices sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Directly on the Ethernet LAN, each device a host of its own.
    Ethernet,
    /// Behind one 6LoWPAN border router, each device a mesh leaf.
    Mesh,
}

/// One simulated home: the Table 2 router, the devices, the two
/// verification phones and the §4.1 functionality check. Every field
/// feeds the output bytes; [`Home::new`] supplies the paper's defaults
/// and struct-update syntax overrides the rest.
pub struct Home<'a, P> {
    /// Network configuration the router runs.
    pub config: NetworkConfig,
    /// The device models in the home.
    pub profiles: &'a [P],
    /// Base seed; the simulation runs on `seed ^ config`. Device
    /// *behaviours* are seed-invariant (only boot jitter and temporary
    /// addresses vary), which `tests/paper_reproduction.rs` checks.
    pub seed: u64,
    /// Virtual time the experiment window lasts.
    pub duration: SimTime,
    /// Analyzer passes to run (plus their dependencies). Callers that
    /// read a known subset of [`v6brick_core::observe::DeviceObservation`]
    /// skip the passes whose fields they never look at; the fields a
    /// disabled pass owns stay at their defaults.
    pub passes: &'a [PassId],
    /// Faults injected into the router, the Internet model and the LAN.
    pub faults: FaultPlan,
    /// Where the IoT devices sit.
    pub link: Link,
    /// Retain the LAN capture (and, on the mesh link, the mesh capture).
    /// Enabling the buffered capture consumes no randomness, so the
    /// home simulates bit-identically either way.
    pub keep_capture: bool,
}

impl<'a, P: Borrow<DeviceProfile>> Home<'a, P> {
    /// The paper's experiment over `profiles`: base seed `0x6b1c_0000`,
    /// [`EXPERIMENT_DURATION`], every analyzer pass, no faults, Ethernet,
    /// no retained capture.
    pub fn new(config: NetworkConfig, profiles: &'a [P]) -> Home<'a, P> {
        Home {
            config,
            profiles,
            seed: 0x6b1c_0000,
            duration: EXPERIMENT_DURATION,
            passes: &PassId::ALL,
            faults: FaultPlan::new(),
            link: Link::Ethernet,
            keep_capture: false,
        }
    }
}

/// Border-router accounting from a mesh home.
pub struct MeshStats {
    /// 802.15.4 frames the border router put on the air.
    pub mesh_frames: u64,
    /// Leaf IPv4/ARP frames refused transit by the v6-only mesh.
    pub dropped_v4_frames: u64,
    /// IPv6 packets forwarded mesh → Ethernet.
    pub forwarded_up: u64,
    /// IPv6 packets forwarded Ethernet → mesh.
    pub forwarded_down: u64,
    /// Ethernet→mesh unicasts with no learned leaf route.
    pub no_route_drops: u64,
    /// IPv6 → leaf-MAC bindings recovered from the mesh capture.
    pub mesh_bindings: u64,
    /// Mesh frames/datagrams any decode stage dropped.
    pub mesh_decode_errors: u64,
    /// The mesh-side 802.15.4 capture, when the home kept its captures.
    pub mesh_capture: Option<Capture>,
}

/// Everything one [`Home`] produces.
pub struct HomeRun {
    /// The ordinary experiment outcome.
    pub run: ExperimentRun,
    /// Every device's v6↔v4 switch log, keyed by device id.
    pub switches: BTreeMap<String, Vec<SwitchRecord>>,
    /// 6in4 tunnel packets an injected outage swallowed.
    pub tunnel_drops: u64,
    /// Every LAN frame in tap order, when the home kept its captures.
    pub capture: Option<Capture>,
    /// Border-router accounting, on the mesh link only.
    pub mesh: Option<MeshStats>,
}

/// The devices a [`place`]d simulation holds, on either link.
pub(crate) enum Placement {
    /// One LAN host per device, in profile order.
    Lan(Vec<HostId>),
    /// One border router whose leaves are the devices, in profile order.
    Mesh(HostId),
}

/// Start a simulation over `router` and `zones` with one device per
/// profile placed on `link`. `seed` seeds the simulation and, on the
/// mesh link, the border router. Every testbed with IoT devices is
/// assembled here, so all of them place devices the same way.
pub(crate) fn place<P: Borrow<DeviceProfile>>(
    router: Router,
    zones: ZoneDb,
    link: Link,
    seed: u64,
    profiles: &[P],
) -> (SimulationBuilder, Placement) {
    let mut b = SimulationBuilder::new(router, Internet::new(zones));
    let devices = profiles
        .iter()
        .map(|p| Box::new(IotDevice::new(p.borrow().clone())) as Box<dyn Host>);
    let placement = match link {
        Link::Ethernet => Placement::Lan(devices.map(|d| b.add_host(d)).collect()),
        Link::Mesh => {
            let leaves = devices.collect();
            Placement::Mesh(b.add_host(Box::new(BorderRouter::new(seed, leaves))))
        }
    };
    (b.seed(seed), placement)
}

impl Placement {
    /// The placed devices, in profile order.
    pub(crate) fn devices<'s>(&self, sim: &'s Simulation) -> Vec<&'s IotDevice> {
        let device = |h: &'s dyn Host| {
            h.as_any()
                .downcast_ref::<IotDevice>()
                .expect("host is a device")
        };
        match self {
            Placement::Lan(ids) => ids.iter().map(|&id| device(sim.host(id))).collect(),
            Placement::Mesh(id) => {
                let br = sim
                    .host(*id)
                    .as_any()
                    .downcast_ref::<BorderRouter>()
                    .expect("host is the border router");
                (0..br.leaf_count()).map(|i| device(br.leaf(i))).collect()
            }
        }
    }
}

/// Run one home on `zones`, the Internet's authoritative zone database
/// ([`build_zones`], a [`ZoneCache`], or a deliberately degraded one).
///
/// On Ethernet the analyzer streams off the capture tap, so the home
/// never buffers an `O(frames)` capture unless asked to. The mesh link
/// runs in two phases — simulate with a buffered LAN capture, then
/// analyze — because leaf attribution comes from *decoding the mesh
/// capture* (802.15.4 framing → RFC 4944 reassembly → IPHC), and the
/// analyzer needs those bindings installed before its first frame.
pub fn run<P: Borrow<DeviceProfile>>(home: &Home<'_, P>, zones: ZoneDb) -> HomeRun {
    let config = home.config;
    let buffered = home.keep_capture || home.link == Link::Mesh;
    let (mut b, placement) = place(
        Router::new(config.router_config()),
        zones,
        home.link,
        home.seed ^ config as u64,
        home.profiles,
    );
    let pixel = b.add_host(Box::new(Phone::pixel7()));
    let iphone = b.add_host(Box::new(Phone::iphone_x()));
    let macs: Vec<(Mac, String)> = home
        .profiles
        .iter()
        .map(|p| (p.borrow().mac, p.borrow().id.clone()))
        .collect();
    let new_analyzer = || StreamingAnalyzer::with_passes(&macs, lan_prefix(), home.passes);
    if home.link == Link::Ethernet {
        b.add_sink(Box::new(new_analyzer()));
    }
    let mut sim = b.capture(buffered).faults(home.faults.clone()).build();
    sim.run_until(home.duration);
    let capture = buffered.then(|| sim.take_capture());

    let (analyzer, mesh) = match placement {
        Placement::Lan(_) => {
            let analyzer = sim
                .take_sinks()
                .pop()
                .expect("the streaming analyzer was attached above")
                .into_any()
                .downcast::<StreamingAnalyzer>()
                .expect("the only sink is the streaming analyzer");
            (*analyzer, None)
        }
        Placement::Mesh(id) => {
            // Phase 2: recover leaf identity from the mesh air, then walk
            // the LAN capture with the bindings installed. The border
            // router's own mesh-local address binds nothing.
            let br = sim
                .host_mut(id)
                .as_any_mut()
                .downcast_mut::<BorderRouter>()
                .expect("host is the border router");
            let mesh_capture = br.take_mesh_capture();
            let bindings = v6brick_core::bindings_from_mesh_capture(&mesh_capture, &lan_prefix());
            let mut analyzer = new_analyzer();
            for (addr, mac) in &bindings.by_addr {
                analyzer.add_mesh_binding(*addr, *mac);
            }
            for pkt in capture.as_ref().expect("the mesh link buffers").iter() {
                analyzer.feed(pkt.timestamp_us, &pkt.data);
            }
            let stats = MeshStats {
                mesh_frames: br.mesh_frames,
                dropped_v4_frames: br.dropped_v4_frames,
                forwarded_up: br.forwarded_up,
                forwarded_down: br.forwarded_down,
                no_route_drops: br.no_route_drops,
                mesh_bindings: bindings
                    .by_addr
                    .values()
                    .filter(|m| **m != addrs::BORDER_ROUTER_MAC)
                    .count() as u64,
                mesh_decode_errors: bindings.decode_errors,
                mesh_capture: home.keep_capture.then_some(mesh_capture),
            };
            (analyzer, Some(stats))
        }
    };

    // Functionality test: ask each device model whether its primary
    // function (cloud rendezvous with every required destination)
    // completed — the §4.1 companion-app check.
    let mut functional = BTreeMap::new();
    let mut switches = BTreeMap::new();
    for (p, dev) in home.profiles.iter().zip(placement.devices(&sim)) {
        let id = &p.borrow().id;
        functional.insert(id.clone(), dev.is_functional());
        let log = dev.switch_events().iter().map(|e| SwitchRecord {
            at_us: e.at_us,
            domain: e.domain.as_str().to_string(),
            to_v6: e.to_v6,
        });
        switches.insert(id.clone(), log.collect());
    }
    let phones_ok = [pixel, iphone].iter().all(|h| {
        sim.host(*h)
            .as_any()
            .downcast_ref::<Phone>()
            .is_some_and(|p| p.network_ok())
    });
    let frames = analyzer.frames_fed();
    HomeRun {
        run: ExperimentRun {
            config,
            analysis: analyzer.finish(),
            functional,
            phones_ok,
            neighbors_v6: sim.router().neighbor_table_v6(),
            frames,
        },
        switches,
        tunnel_drops: sim.tunnel_drops,
        capture: capture.filter(|_| home.keep_capture),
        mesh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_devices::registry;
    use v6brick_net::dns::Name;

    fn profiles(ids: &[&str]) -> Vec<DeviceProfile> {
        ids.iter().map(|id| registry::by_id(id)).collect()
    }

    /// The paper's home over the named devices, on `link`.
    fn home(config: NetworkConfig, ids: &[&str], link: Link) -> HomeRun {
        let profiles = profiles(ids);
        let home = Home {
            link,
            keep_capture: true,
            ..Home::new(config, &profiles)
        };
        run(&home, build_zones(&profiles))
    }

    fn run_with_profiles(config: NetworkConfig, profiles: &[DeviceProfile]) -> ExperimentRun {
        run(&Home::new(config, profiles), build_zones(profiles)).run
    }

    #[test]
    fn zone_db_covers_all_destinations() {
        let profiles = registry::build();
        let zones = build_zones(&profiles);
        assert!(zones.len() > 1000, "zones: {}", zones.len());
        for p in &profiles {
            for d in &p.app.destinations {
                let prof = zones.get(&d.domain).expect("domain registered");
                // AAAA readiness is consistent for non-shared domains;
                // shared ones keep their first registration.
                if d.domain.as_str().contains(".example") || d.aaaa_ready {
                    let _ = prof;
                }
            }
        }
        assert!(zones.get(&ntp_anycast()).is_some());
        assert!(zones.get(&Phone::canary_domain()).is_some());
    }

    #[test]
    fn functional_device_works_in_ipv6_only() {
        let run = run_with_profiles(NetworkConfig::Ipv6Only, &profiles(&["google_home_mini"]));
        assert!(run.phones_ok, "phones must verify the v6-only network");
        assert_eq!(run.functional.get("google_home_mini"), Some(&true));
        let o = run.analysis.device("google_home_mini").unwrap();
        assert!(o.ndp_traffic);
        assert!(o.dns_over_v6());
        assert!(!o.aaaa_q_v6.is_empty());
        assert!(o.v6_internet_data());
    }

    #[test]
    fn amazon_echo_bricks_in_ipv6_only_but_works_dual() {
        let run6 = run_with_profiles(NetworkConfig::Ipv6Only, &profiles(&["echo_show_5"]));
        assert_eq!(run6.functional.get("echo_show_5"), Some(&false));
        let o = run6.analysis.device("echo_show_5").unwrap();
        // Full IPv6 feature support...
        assert!(o.ndp_traffic && o.has_v6_addr());
        assert!(!o.aaaa_q_v6.is_empty());
        // ...but its required api.amazon.com never resolves AAAA.
        assert!(o.aaaa_neg.contains(&Name::new("api.amazon.com").unwrap()));

        let run_dual = run_with_profiles(NetworkConfig::DualStack, &profiles(&["echo_show_5"]));
        assert_eq!(run_dual.functional.get("echo_show_5"), Some(&true));
        let o = run_dual.analysis.device("echo_show_5").unwrap();
        assert!(o.v6_internet_data(), "transmits v6 data in dual-stack");
        assert!(o.v4_internet_bytes > 0, "but still relies on IPv4");
    }

    #[test]
    fn no_ipv6_device_stays_silent_on_v6() {
        let run = run_with_profiles(NetworkConfig::Ipv6Only, &profiles(&["wyze_cam"]));
        let o = run.analysis.device("wyze_cam").unwrap();
        assert!(!o.ndp_traffic);
        assert!(!o.has_v6_addr());
        assert_eq!(run.functional.get("wyze_cam"), Some(&false));
        // But in IPv4-only it works.
        let run4 = run_with_profiles(NetworkConfig::Ipv4Only, &profiles(&["wyze_cam"]));
        assert_eq!(run4.functional.get("wyze_cam"), Some(&true));
    }

    #[test]
    fn mesh_home_attributes_leaves_and_v6_device_works() {
        let home = home(NetworkConfig::Ipv6Only, &["google_home_mini"], Link::Mesh);
        let mesh = home.mesh.expect("a mesh home reports its border router");
        assert!(home.run.phones_ok, "phones live on Ethernet, unaffected");
        assert_eq!(home.run.functional.get("google_home_mini"), Some(&true));
        assert!(mesh.mesh_frames > 0, "traffic crossed the mesh air");
        assert!(mesh.mesh_bindings >= 1, "leaf addresses recovered");
        assert_eq!(mesh.mesh_decode_errors, 0);
        assert!(mesh.forwarded_up > 0 && mesh.forwarded_down > 0);
        let o = home.run.analysis.device("google_home_mini").unwrap();
        assert!(o.dns_over_v6(), "DNS attributed to the leaf, not the BR");
        assert!(o.v6_internet_data(), "data attributed to the leaf");
        let cap = mesh
            .mesh_capture
            .expect("keep_capture keeps the mesh capture");
        assert!(!cap.is_empty());
    }

    #[test]
    fn v4_dependent_device_bricks_behind_the_mesh() {
        // On Ethernet this device works over IPv4; the v6-only mesh
        // refuses its DHCPv4/ARP frames at the border, so it bricks even
        // with IPv4 service on the router — the readiness delta the mesh
        // family measures.
        let home = home(NetworkConfig::Ipv4Only, &["wyze_cam"], Link::Mesh);
        assert_eq!(home.run.functional.get("wyze_cam"), Some(&false));
        assert!(home.mesh.unwrap().dropped_v4_frames > 0);
    }

    #[test]
    fn everything_functional_in_ipv4_only() {
        // Spot-check a diverse subset (the full-matrix assertion lives in
        // the integration tests).
        let ids = [
            "samsung_fridge",
            "nest_camera",
            "apple_tv",
            "ikea_gateway",
            "echo_plus",
            "aqara_hub",
            "behmor_brewer",
            "homepod_mini",
        ];
        let run = run_with_profiles(NetworkConfig::Ipv4Only, &profiles(&ids));
        for id in ids {
            assert_eq!(run.functional.get(id), Some(&true), "{id} must work on v4");
        }
    }
}
