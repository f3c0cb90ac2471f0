//! Extension experiment (§7 future work): the enterprise-style IPv6-only
//! network where DHCPv6 operates **without SLAAC** (RA prefix `A=0`).
//!
//! The paper's Table 2 never tests this; its §7 names it as the obvious
//! next configuration. v6brick runs it: only devices with stateful
//! DHCPv6 clients can obtain a global address at all, so enterprise
//! networks are *strictly harsher* than the consumer IPv6-only rows.

use crate::render::TextTable;
use crate::scenario::{self, ExperimentRun, Home};
use crate::NetworkConfig;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;

/// Run the enterprise experiment over the full registry.
pub fn run() -> ExperimentRun {
    run_on(NetworkConfig::Ipv6OnlyEnterprise, registry::shared())
}

/// The paper's home over `profiles` under `config`.
fn run_on(config: NetworkConfig, profiles: &[DeviceProfile]) -> ExperimentRun {
    scenario::run(
        &Home::new(config, profiles),
        scenario::build_zones(profiles),
    )
    .run
}

/// Render the comparison: enterprise vs the consumer IPv6-only baseline.
pub fn report() -> TextTable {
    let enterprise = run();
    let baseline = run_on(NetworkConfig::Ipv6Only, registry::shared());

    let mut t = TextTable::new(
        "Extension (paper §7): enterprise IPv6-only (DHCPv6 without SLAAC) vs consumer baseline",
    )
    .headers(["Metric", "Consumer IPv6-only", "Enterprise (A=0)"]);
    let count = |run: &ExperimentRun, f: &dyn Fn(&v6brick_core::DeviceObservation) -> bool| {
        run.analysis.count(|o| f(o)).to_string()
    };
    use v6brick_net::ipv6::Ipv6AddrExt;
    t.row([
        "NDP traffic".to_string(),
        count(&baseline, &|o| o.ndp_traffic),
        count(&enterprise, &|o| o.ndp_traffic),
    ]);
    t.row([
        "Any IPv6 address".to_string(),
        count(&baseline, &|o| o.has_v6_addr()),
        count(&enterprise, &|o| o.has_v6_addr()),
    ]);
    t.row([
        "Global address (active)".to_string(),
        count(&baseline, &|o| {
            o.active_v6.iter().any(|a| a.is_global_unicast())
        }),
        count(&enterprise, &|o| {
            o.active_v6.iter().any(|a| a.is_global_unicast())
        }),
    ]);
    t.row([
        "Stateful DHCPv6 exchange".to_string(),
        count(&baseline, &|o| o.dhcpv6_stateful),
        count(&enterprise, &|o| o.dhcpv6_stateful),
    ]);
    t.row([
        "DNS over IPv6".to_string(),
        count(&baseline, &|o| o.dns_over_v6()),
        count(&enterprise, &|o| o.dns_over_v6()),
    ]);
    t.row([
        "Internet IPv6 data".to_string(),
        count(&baseline, &|o| o.v6_internet_data()),
        count(&enterprise, &|o| o.v6_internet_data()),
    ]);
    t.row([
        "Functional".to_string(),
        baseline
            .functional
            .values()
            .filter(|f| **f)
            .count()
            .to_string(),
        enterprise
            .functional
            .values()
            .filter(|f| **f)
            .count()
            .to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_net::ipv6::Ipv6AddrExt;

    fn profiles(ids: &[&str]) -> Vec<DeviceProfile> {
        ids.iter().map(|id| registry::by_id(id)).collect()
    }

    #[test]
    fn slaac_only_device_gets_no_global_address() {
        // The Echo Plus relies on SLAAC; with A=0 it never forms a GUA.
        let run = run_on(NetworkConfig::Ipv6OnlyEnterprise, &profiles(&["echo_plus"]));
        let o = run.analysis.device("echo_plus").unwrap();
        assert!(o.ndp_traffic, "it still solicits routers");
        assert!(
            !o.active_v6.iter().any(|a| a.is_global_unicast()),
            "no SLAAC => no active GUA: {:?}",
            o.active_v6
        );
        assert!(!o.v6_internet_data());
        assert_eq!(run.functional.get("echo_plus"), Some(&false));
    }

    #[test]
    fn stateful_capable_device_still_gets_an_address() {
        // The HomePod speaks stateful DHCPv6, so it obtains a global
        // address even without SLAAC.
        let run = run_on(
            NetworkConfig::Ipv6OnlyEnterprise,
            &profiles(&["homepod_mini"]),
        );
        let o = run.analysis.device("homepod_mini").unwrap();
        assert!(o.dhcpv6_stateful, "solicited DHCPv6");
        assert!(!o.dhcpv6_addrs.is_empty(), "received an IA_NA address");
        assert!(
            o.active_v6.iter().any(|a| a.is_global_unicast()),
            "uses the DHCPv6 address: {:?}",
            o.active_v6
        );
    }

    #[test]
    fn enterprise_is_harsher_than_consumer_baseline() {
        // Across a representative mixed set, the enterprise config can
        // never have MORE devices with global addresses than the
        // SLAAC-enabled baseline.
        let ids = [
            "echo_plus",
            "homepod_mini",
            "apple_tv",
            "google_home_mini",
            "samsung_fridge",
            "smartthings_hub",
        ];
        let base = run_on(NetworkConfig::Ipv6Only, &profiles(&ids));
        let ent = run_on(NetworkConfig::Ipv6OnlyEnterprise, &profiles(&ids));
        let gua = |run: &ExperimentRun| {
            run.analysis
                .count(|o| o.active_v6.iter().any(|a| a.is_global_unicast()))
        };
        assert!(gua(&ent) <= gua(&base));
        // And the Google devices — functional in consumer IPv6-only but
        // without DHCPv6 support — brick entirely.
        assert_eq!(base.functional.get("google_home_mini"), Some(&true));
        assert_eq!(ent.functional.get("google_home_mini"), Some(&false));
    }
}
