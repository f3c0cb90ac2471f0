//! Per-device behavioural tests for the paper's named findings, measured
//! through the full simulate-capture-analyze path.

use v6brick_core::observe::DeviceObservation;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;
use v6brick_experiments::scenario::{self, Home};
use v6brick_experiments::NetworkConfig;
use v6brick_net::dns::Name;
use v6brick_net::ipv6::Ipv6AddrExt;

fn profiles(ids: &[&str]) -> Vec<DeviceProfile> {
    ids.iter().map(|id| registry::by_id(id)).collect()
}

fn observe(config: NetworkConfig, id: &str) -> DeviceObservation {
    let p = profiles(&[id]);
    let run = scenario::run(&Home::new(config, &p), scenario::build_zones(&p)).run;
    run.analysis.device(id).cloned().expect("device analyzed")
}

#[test]
fn addressless_devices_probe_from_unspecified() {
    // §5.1.2: eight devices multicast NDP from `::` without ever
    // configuring an address. Representative: the Miele dishwasher.
    let o = observe(NetworkConfig::Ipv6Only, "miele_dishwasher");
    assert!(o.ndp_traffic, "NDP present");
    assert!(!o.has_v6_addr(), "no address ever configured");
    assert!(o.active_v6.is_empty());
}

#[test]
fn aqara_hub_never_performs_dad() {
    // §5.2.1: the Aqara hubs assign EUI-64 addresses without any DAD.
    let o = observe(NetworkConfig::Ipv6Only, "aqara_hub");
    assert!(o.has_v6_addr());
    assert!(o.dad_probed.is_empty(), "no DAD probes at all");
    // And its addresses are EUI-64 (the paper's observation that the four
    // full DAD-skippers are all EUI-64 devices).
    assert!(o.all_addrs().iter().any(|a| a.is_eui64()));
}

#[test]
fn compliant_device_dads_every_address() {
    let o = observe(NetworkConfig::Ipv6Only, "google_home_mini");
    // Each assigned address was probed before use... except temporaries
    // announced mid-churn, which the paper also counts separately. The
    // boot addresses (LLA + first GUAs) must all be probed.
    assert!(!o.dad_probed.is_empty());
    for a in &o.dns_src_v6 {
        assert!(o.dad_probed.contains(a), "DNS source {a} was DAD'd");
    }
}

#[test]
fn echo_dot2_gets_gua_only_with_ipv4() {
    // Table 4's speaker "+2 GUA": the 2nd-gen Echo Dot only brings up a
    // global address when IPv4 is present.
    let v6 = observe(NetworkConfig::Ipv6Only, "echo_dot_2");
    assert!(v6.has_v6_addr(), "LLA exists");
    assert!(
        !v6.active_v6.iter().any(|a| a.is_global_unicast()),
        "no *active* GUA in IPv6-only (the latent EUI-64 assignment is
         announced but never used)"
    );
    assert!(!v6.v6_internet_data());
    let dual = observe(NetworkConfig::DualStack, "echo_dot_2");
    assert!(dual.active_v6.iter().any(|a| a.is_global_unicast()));
    assert!(dual.v6_internet_data(), "and it carries v6 data there");
}

#[test]
fn thermopro_needs_v4_for_any_addressing() {
    // Table 4's health "+1 address".
    let v6 = observe(NetworkConfig::Ipv6Only, "thermopro_sensor");
    assert!(v6.ndp_traffic && !v6.has_v6_addr());
    let dual = observe(NetworkConfig::DualStack, "thermopro_sensor");
    assert!(dual.has_v6_addr());
    assert!(dual.active_v6.iter().any(|a| a.is_global_unicast()));
}

#[test]
fn smartlife_hub_queries_tuya_domain_a_only() {
    // §5.1.3's irony: a2.tuyaus.com has AAAA records the hub never asks
    // for — it A-queries the name even over IPv6 transport.
    let o = observe(NetworkConfig::Ipv6Only, "smartlife_hub");
    let tuya = Name::new("a2.tuyaus.com").unwrap();
    assert!(o.a_q_v6.contains(&tuya), "A query over v6 transport");
    assert!(!o.aaaa_q_v6.contains(&tuya), "never an AAAA");
    assert!(o.a_only_v6_names().contains(&tuya));
    // Yet the hub still transmits v6 data — its hard-coded fallback.
    assert!(o.v6_internet_data());
}

#[test]
fn ikea_gateway_transmits_without_dns() {
    // Table 10: IKEA has global data but no DNS over IPv6 (hard-coded
    // endpoint).
    let o = observe(NetworkConfig::Ipv6Only, "ikea_gateway");
    assert!(o.aaaa_q_v6.is_empty() && o.a_q_v6.is_empty(), "no v6 DNS");
    assert!(o.v6_internet_data(), "but v6 data flows");
}

#[test]
fn echo_spot_resolves_but_never_connects_v6() {
    // Table 10: DNS over IPv6 yes, global data no.
    let o = observe(NetworkConfig::Ipv6Only, "echo_spot");
    assert!(!o.aaaa_q_v6.is_empty());
    assert!(!o.aaaa_pos_v6.is_empty(), "answers arrive");
    assert!(!o.v6_internet_data(), "but its TCP client is v4-bound");
}

#[test]
fn samsung_fridge_sources_traffic_from_stateful_address() {
    // §5.2.1: the Fridge is one of four devices actually using its
    // stateful DHCPv6 address.
    let p = profiles(&["samsung_fridge"]);
    let home = Home::new(NetworkConfig::Ipv6OnlyStateful, &p);
    let run = scenario::run(&home, scenario::build_zones(&p)).run;
    let o = run.analysis.device("samsung_fridge").unwrap();
    assert!(o.dhcpv6_stateful, "solicited an IA_NA");
    let stateful: Vec<_> = o.dhcpv6_addrs.iter().collect();
    assert!(!stateful.is_empty());
    assert!(
        stateful.iter().any(|a| o.dns_src_v6.contains(a)),
        "DNS rides the stateful address: {stateful:?} vs {:?}",
        o.dns_src_v6
    );
    // Its EUI-64 address still leaks via the echo probe.
    assert!(o
        .active_v6
        .iter()
        .any(|a| a.is_eui64() && a.is_global_unicast()));
}

#[test]
fn samsung_tv_hides_traffic_behind_privacy_gua() {
    // §5.4.1: the TV forms an EUI-64 GUA but sources DNS/data from a
    // privacy address; only connectivity probes use the stable one.
    let o = observe(NetworkConfig::Ipv6Only, "samsung_tv");
    let eui: Vec<_> = o
        .active_v6
        .iter()
        .filter(|a| a.is_global_unicast() && a.is_eui64())
        .collect();
    assert!(!eui.is_empty(), "the EUI-64 GUA is active (probe)");
    for a in &o.dns_src_v6 {
        assert!(!a.is_eui64(), "DNS never from the EUI-64 address");
    }
    for a in &o.data_src_v6 {
        assert!(!a.is_eui64(), "data never from the EUI-64 address");
    }
}

#[test]
fn apple_tv_uses_privacy_addresses_and_svcb() {
    let o = observe(NetworkConfig::Ipv6Only, "apple_tv");
    for a in o.active_v6.iter().filter(|a| a.is_global_unicast()) {
        assert!(!a.is_eui64(), "Apple uses RFC 8981 temporaries: {a}");
    }
    assert!(!o.svcb_q.is_empty(), "SVCB queries (HTTP/3 probing)");
    assert!(!o.https_q.is_empty());
}

#[test]
fn vizio_needs_dhcpv6_for_dns() {
    // §5.2.1: Vizio cannot use RDNSS; it resolves only when stateless
    // DHCPv6 exists.
    let baseline = observe(NetworkConfig::Ipv6Only, "vizio_tv");
    assert!(baseline.dns_over_v6());
    let rdnss_only = observe(NetworkConfig::Ipv6OnlyRdnssOnly, "vizio_tv");
    assert!(!rdnss_only.dns_over_v6(), "no DNS without DHCPv6");
    assert!(rdnss_only.has_v6_addr(), "SLAAC still works");
}

#[test]
fn matter_devices_speak_local_ipv6_without_internet() {
    // §5.2.3: home-automation Matter devices transmit locally (ULA
    // sources, multicast) but never to the Internet.
    for id in ["tuya_matter_plug", "leviton_matter_plug"] {
        let o = observe(NetworkConfig::Ipv6Only, id);
        assert!(o.v6_local_bytes > 0, "{id}: local Matter chatter");
        assert!(!o.v6_internet_data(), "{id}: no global traffic");
        assert!(
            o.all_addrs().iter().any(|a| a.is_unique_local()),
            "{id}: fabric ULA assigned"
        );
    }
}

#[test]
fn lla_rotators_accumulate_multiple_llas() {
    // §5.2.1: only four devices rotate their LLA. Across the six-run
    // union this shows as >1 link-local per rotator; here a single run
    // with the right seed demonstrates at least the mechanism.
    let runs = [
        NetworkConfig::Ipv6Only,
        NetworkConfig::Ipv6OnlyRdnssOnly,
        NetworkConfig::Ipv6OnlyStateful,
        NetworkConfig::DualStack,
        NetworkConfig::DualStackStateful,
    ];
    let mut llas = std::collections::BTreeSet::new();
    for c in runs {
        let o = observe(c, "homepod_mini");
        llas.extend(o.all_addrs().into_iter().filter(|a| a.is_link_local()));
    }
    assert!(llas.len() >= 2, "HomePod rotates its LLA: {llas:?}");
}

#[test]
fn no_rotation_for_stable_lla_devices() {
    let runs = [NetworkConfig::Ipv6Only, NetworkConfig::DualStack];
    let mut llas = std::collections::BTreeSet::new();
    for c in runs {
        let o = observe(c, "echo_plus");
        llas.extend(o.all_addrs().into_iter().filter(|a| a.is_link_local()));
    }
    assert_eq!(llas.len(), 1, "the Echo Plus keeps one EUI-64 LLA");
    assert!(llas.iter().next().unwrap().is_eui64());
}
