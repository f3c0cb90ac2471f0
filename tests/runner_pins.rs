//! Byte-identity pins for every home-runner mode that the other suites
//! only compare against a rerun: a mesh home, the captured homes behind
//! the upload bundles, a fault-injected preset, a home on degraded
//! zones, a mixed-link fleet campaign and a WAN-scan campaign.
//!
//! Each pin is an absolute FNV-1a digest (the same `fnv1a` as
//! `tests/capture_pins.rs`). Captures are canonicalized before
//! digesting: devices keep their connections in hash maps, so frames
//! sent in one callback leave in a per-process order, and the pin is on
//! the multiset of timestamped frames (every byte of every frame still
//! reaches the digest).

use v6brick::devices::registry;
use v6brick::experiments::fleet::{self, CampaignSpec};
use v6brick::experiments::scenario::{Home, HomeRun, Link};
use v6brick::experiments::wanscan::{self, WanScanSpec};
use v6brick::experiments::{broken, reachability, scenario, serve, NetworkConfig};
use v6brick::pcap::{format, pcapng, Capture};

/// FNV-1a 64: a stable, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `capture` with its records sorted by (timestamp, bytes).
fn canonical(capture: &Capture) -> Capture {
    let mut records: Vec<(u64, &[u8])> = capture
        .iter()
        .map(|p| (p.timestamp_us, &p.data[..]))
        .collect();
    records.sort_unstable();
    let mut out = Capture::new();
    for (ts, data) in records {
        out.push(ts, data);
    }
    out
}

/// FNV-1a of a value's JSON serialization.
macro_rules! json_digest {
    ($value:expr) => {
        fnv1a(serde_json::to_string(&$value).unwrap().as_bytes())
    };
}

#[test]
fn mesh_home_bytes_are_pinned() {
    let profiles: Vec<_> = ["google_home_mini", "wyze_cam"]
        .iter()
        .map(|id| registry::by_id(id))
        .collect();
    let home = Home {
        link: Link::Mesh,
        keep_capture: true,
        ..Home::new(NetworkConfig::DualStack, &profiles)
    };
    let HomeRun { run, mesh, .. } = scenario::run(&home, scenario::build_zones(&profiles));
    let mesh = mesh.expect("a mesh home reports its border router");
    let counters = (
        mesh.mesh_frames,
        mesh.dropped_v4_frames,
        mesh.forwarded_up,
        mesh.forwarded_down,
        mesh.no_route_drops,
        mesh.mesh_bindings,
        mesh.mesh_decode_errors,
    );
    let capture = canonical(&mesh.mesh_capture.expect("the mesh capture is kept"));
    let pcapng_bytes =
        pcapng::to_bytes_with_linktype(&capture, pcapng::LINKTYPE_IEEE802_15_4_NOFCS);
    assert_eq!(
        (
            run.frames,
            json_digest!(run.analysis.devices),
            json_digest!(run.functional),
        ),
        (2128, 12_057_406_342_274_907_843, 4_972_229_375_657_751_154),
        "mesh analysis moved"
    );
    assert_eq!(
        counters,
        (515, 10, 1073, 1039, 0, 29, 0),
        "border-router counters moved"
    );
    assert_eq!(
        (capture.len(), fnv1a(&pcapng_bytes)),
        (515, 833_902_778_910_104_598),
        "mesh capture moved"
    );
}

#[test]
fn upload_bundle_bytes_are_pinned() {
    let spec = CampaignSpec {
        homes: 3,
        seed: 0x5e7e,
        workers: 2,
        device_range: (2, 3),
        duration_s: 60,
        ..Default::default()
    };
    let got: Vec<(u64, usize, u64, u64)> = serve::campaign_bundles(&spec)
        .iter()
        .map(|b| {
            let capture = if b.header.home_index % 2 == 0 {
                format::from_bytes(&b.pcap).unwrap()
            } else {
                pcapng::from_bytes(&b.pcap).unwrap()
            };
            (
                b.header.home_index,
                capture.len(),
                fnv1a(&format::to_bytes(&canonical(&capture))),
                json_digest!(b.header),
            )
        })
        .collect();
    let want = [
        (0, 144, 5_660_509_472_321_133_091, 1_394_282_762_764_432_903),
        (
            1,
            504,
            16_868_227_841_869_115_435,
            11_744_965_538_590_700_665,
        ),
        (2, 147, 6_621_742_910_913_348_904, 3_684_068_726_669_393_725),
    ];
    assert_eq!(got, want, "captured homes moved");
}

#[test]
fn tunnel_flap_preset_is_pinned() {
    let report = broken::run_preset("tunnel-flap", 0xf1a9).expect("known preset");
    assert_eq!(
        (report.frames, report.tunnel_drops, json_digest!(report)),
        (16_874, 552, 8_662_256_469_734_529_571),
        "tunnel-flap preset moved"
    );
}

#[test]
fn degraded_zone_home_is_pinned() {
    let profiles: Vec<_> = ["google_home_mini", "apple_tv"]
        .iter()
        .map(|id| registry::by_id(id))
        .collect();
    let run = reachability::run_with_dead_v6(NetworkConfig::Ipv6Only, &profiles, 2);
    assert_eq!(
        (
            run.frames,
            json_digest!(run.analysis.devices),
            json_digest!(run.functional),
        ),
        (6041, 10_880_002_483_925_200_309, 10_669_296_544_870_755_029),
        "degraded-zone home moved"
    );
}

#[test]
fn mixed_link_fleet_report_is_pinned() {
    let spec = CampaignSpec {
        homes: 10,
        seed: 0x6e50,
        workers: 2,
        device_range: (2, 3),
        duration_s: 60,
        mesh_per_mille: 500,
        ..Default::default()
    };
    let report = fleet::run(&spec);
    assert!(report.failures.is_empty());
    assert_eq!(
        json_digest!(report),
        18_085_272_982_674_469_919,
        "mixed-link fleet report moved"
    );
}

#[test]
fn wanscan_report_is_pinned() {
    let spec = WanScanSpec {
        homes: 3,
        seed: 0x5caa,
        workers: 1,
        device_range: (2, 3),
        settle_s: 45,
        // Home 1 of this seed draws the mesh link, homes 0 and 2 Ethernet.
        mesh_per_mille: 500,
        ..Default::default()
    };
    let report = wanscan::run(&spec);
    assert_eq!(
        json_digest!(report),
        10_059_955_336_483_157_576,
        "wanscan report moved"
    );
}
