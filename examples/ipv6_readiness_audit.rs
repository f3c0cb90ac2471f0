//! Scenario: you are deciding whether *your* smart home can survive an
//! IPv6-only ISP. Pick the devices you own, run them through the
//! IPv6-only and dual-stack experiments, and get a per-device verdict
//! with the root cause for every failure — the paper's RQ1 as a tool.
//!
//! ```sh
//! cargo run --release --example ipv6_readiness_audit -- echo_show_5 nest_camera apple_tv hue_hub
//! ```
//! (With no arguments, a representative mixed household is audited.)

use v6brick::devices::registry;
use v6brick::experiments::{scenario, NetworkConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        [
            "echo_show_5",
            "nest_camera",
            "apple_tv",
            "hue_hub",
            "samsung_fridge",
            "wyze_cam",
            "google_home_mini",
            "tplink_kasa_plug",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        args
    };
    let mut profiles = Vec::new();
    for id in &ids {
        match registry::find(id) {
            Some(p) => profiles.push(p),
            None => {
                eprintln!("unknown device id {id:?}; valid ids are:");
                for p in registry::build() {
                    eprintln!("  {}", p.id);
                }
                std::process::exit(2);
            }
        }
    }

    println!(
        "Auditing {} devices for IPv6-only readiness...\n",
        profiles.len()
    );
    let run = |config| {
        let home = scenario::Home::new(config, &profiles);
        scenario::run(&home, scenario::build_zones(&profiles)).run
    };
    let v6 = run(NetworkConfig::Ipv6Only);
    let dual = run(NetworkConfig::DualStack);

    for p in &profiles {
        let works_v6 = v6.functional.get(&p.id).copied().unwrap_or(false);
        let works_dual = dual.functional.get(&p.id).copied().unwrap_or(false);
        let o = v6.analysis.device(&p.id).expect("analyzed");
        println!("{} ({} / {}):", p.name, p.manufacturer, p.category.label());
        if works_v6 {
            println!("  VERDICT: works on IPv6-only — safe to drop IPv4.");
        } else if works_dual {
            // Diagnose why the IPv6-only run failed.
            let reason = if !o.ndp_traffic {
                "no IPv6 stack at all (no NDP traffic observed)".to_string()
            } else if !o.has_v6_addr() {
                "IPv6 probing but no address ever configured".to_string()
            } else if o.aaaa_q_v6.is_empty() {
                "cannot resolve names over IPv6 (no AAAA queries on v6 transport)".to_string()
            } else if o.aaaa_pos_v6.is_empty() {
                format!(
                    "its destinations lack AAAA records ({} negative answers)",
                    o.aaaa_neg.len()
                )
            } else {
                let missing: Vec<String> = p
                    .required_destinations()
                    .filter(|d| o.aaaa_neg.contains(&d.domain) || !d.aaaa_ready)
                    .map(|d| d.domain.to_string())
                    .collect();
                format!(
                    "required cloud endpoints are IPv4-only: {}",
                    missing.join(", ")
                )
            };
            println!("  VERDICT: needs IPv4 — works dual-stack, bricks IPv6-only.");
            println!("  ROOT CAUSE: {reason}");
        } else {
            println!("  VERDICT: did not complete its cloud rendezvous in either run.");
        }
        if o.v6_internet_data() {
            println!(
                "  NOTE: already moves {} KiB over IPv6 when it can.",
                o.v6_internet_bytes / 1024
            );
        }
        println!();
    }

    let survivors = profiles
        .iter()
        .filter(|p| v6.functional.get(&p.id).copied().unwrap_or(false))
        .count();
    println!(
        "Summary: {survivors}/{} of this household would survive an IPv6-only network.",
        profiles.len()
    );
}
