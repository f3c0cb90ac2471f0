//! Byte-identity pins for the simulator's frame path.
//!
//! One small fixed home (five registry devices, 120 s, fixed seed) is
//! run under IPv4-only, IPv6-only and dual-stack, and the exact classic
//! pcap bytes of its LAN capture are pinned by digest and frame count.
//! Between them the three runs cover NAT44 in both directions, 6in4
//! encapsulation and decapsulation, and the Internet model's bulk
//! response payloads, so any change to how frames are built, copied,
//! encapsulated or checksummed that moves a single byte fails here.
//!
//! The records are sorted before digesting (see [`home`]), so the pin is
//! on the multiset of timestamped frames, not on same-instant ordering.

use v6brick::devices::registry;
use v6brick::devices::stack::IotDevice;
use v6brick::experiments::{scenario, NetworkConfig};
use v6brick::pcap::{format, Capture};
use v6brick::sim::{Internet, Router, SimTime, SimulationBuilder};

/// FNV-1a 64: a stable, dependency-free digest of the capture bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run the pinned home under `config`; returns (frames, largest frame,
/// pcap digest).
fn home(config: NetworkConfig) -> (usize, usize, u64) {
    let ids = [
        "echo_show_5",
        "nest_camera",
        "google_home_mini",
        "aqara_hub",
        "homepod_mini",
    ];
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(Router::new(config.router_config()), Internet::new(zones));
    for p in &profiles {
        b.add_host(Box::new(IotDevice::new(p.clone())));
    }
    let mut sim = b.seed(0x000b_17e5_u64).build();
    sim.run_until(SimTime::from_secs(120));
    let capture = sim.take_capture();
    let largest = capture.iter().map(|p| p.data.len()).max().unwrap_or(0);
    // Devices keep their connections in hash maps, so frames sent in one
    // callback leave in a per-process order. Canonicalize by sorting the
    // records (timestamp first, so the file stays a valid capture); every
    // byte of every frame still reaches the digest.
    let mut records: Vec<(u64, &[u8])> = capture
        .iter()
        .map(|p| (p.timestamp_us, &p.data[..]))
        .collect();
    records.sort_unstable();
    let mut canonical = Capture::new();
    for (ts, data) in records {
        canonical.push(ts, data);
    }
    (
        canonical.len(),
        largest,
        fnv1a(&format::to_bytes(&canonical)),
    )
}

#[test]
fn ipv4_only_capture_bytes_are_pinned() {
    let (frames, largest, digest) = home(NetworkConfig::Ipv4Only);
    assert!(largest > 40_000, "bulk responses must be in the capture");
    assert_eq!(
        (frames, digest),
        (3065, 18_305_700_224_200_078_306),
        "IPv4-only capture moved"
    );
}

#[test]
fn ipv6_only_capture_bytes_are_pinned() {
    let (frames, largest, digest) = home(NetworkConfig::Ipv6Only);
    assert!(largest > 40_000, "bulk responses must be in the capture");
    assert_eq!(
        (frames, digest),
        (1871, 6_484_369_537_418_632_497),
        "IPv6-only capture moved"
    );
}

#[test]
fn dual_stack_capture_bytes_are_pinned() {
    let (frames, largest, digest) = home(NetworkConfig::DualStack);
    assert!(largest > 40_000, "bulk responses must be in the capture");
    assert_eq!(
        (frames, digest),
        (3800, 16_219_862_893_009_466_472),
        "dual-stack capture moved"
    );
}
