//! End-to-end engine tests: a minimal hand-written client host exercises
//! the full router + WAN + Internet path (DHCPv4, ARP, SLAAC, DNS over
//! both families, TCP through NAT and through the 6in4 tunnel) without
//! any of the device-model machinery.

use std::any::Any;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::{Message, Name, RecordType};
use v6brick_net::ipv6::mcast;
use v6brick_net::ndp::{NdpOption, Repr as Ndp};
use v6brick_net::parse::{Net, ParsedPacket, L4};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{dhcpv4, icmpv6, tcp, Mac};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::{DomainProfile, Internet, ZoneDb};
use v6brick_sim::wire;
use v6brick_sim::{addrs, Router, RouterConfig, SimulationBuilder};

/// A bare-bones dual-stack client.
#[derive(Default)]
struct Client {
    v4: Option<Ipv4Addr>,
    gw_mac: Option<Mac>,
    gua: Option<Ipv6Addr>,
    router_mac: Option<Mac>,
    resolved_a: Option<Ipv4Addr>,
    resolved_aaaa: Option<Ipv6Addr>,
    synack_v4: bool,
    synack_v6: bool,
    step: u32,
}

impl Client {
    fn mac(&self) -> Mac {
        Mac::new(2, 0xc1, 0, 0, 0, 1)
    }
}

impl Host for Client {
    fn mac(&self) -> Mac {
        Client::mac(self)
    }

    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        fx.set_timer(SimTime::from_millis(100), 0);
    }

    fn on_frame(&mut self, _now: SimTime, frame: &[u8], _fx: &mut Effects) {
        let Ok(p) = ParsedPacket::parse(frame) else {
            return;
        };
        match (&p.net, &p.l4) {
            (
                Net::Ipv4(_),
                L4::Udp {
                    src_port: 67,
                    payload,
                    ..
                },
            ) => {
                if let Ok(m) = dhcpv4::Repr::parse_bytes(payload) {
                    if m.message_type == dhcpv4::MessageType::Offer {
                        self.v4 = Some(m.your_addr);
                    } else if m.message_type == dhcpv4::MessageType::Ack {
                        self.v4 = Some(m.your_addr);
                        self.gw_mac = Some(p.eth.src);
                    }
                }
            }
            (Net::Ipv6(_), L4::Icmpv6(icmpv6::Repr::Ndp(Ndp::RouterAdvert { options, .. }))) => {
                self.router_mac = Some(p.eth.src);
                for o in options {
                    if let NdpOption::PrefixInfo {
                        autonomous: true,
                        prefix,
                        ..
                    } = o
                    {
                        let mut oct = prefix.octets();
                        oct[15] = 0x77;
                        self.gua = Some(Ipv6Addr::from(oct));
                    }
                }
            }
            (
                _,
                L4::Udp {
                    src_port: 53,
                    payload,
                    ..
                },
            ) => {
                if let Ok(m) = Message::parse_bytes(payload) {
                    if let Some(a) = m.a_answers().next() {
                        self.resolved_a = Some(a);
                    }
                    if let Some(a) = m.aaaa_answers().next() {
                        self.resolved_aaaa = Some(a);
                    }
                }
            }
            (Net::Ipv4(_), L4::Tcp { flags, .. })
                if flags.contains(tcp::Flags::SYN) && flags.contains(tcp::Flags::ACK) =>
            {
                self.synack_v4 = true;
            }
            (Net::Ipv6(_), L4::Tcp { flags, .. })
                if flags.contains(tcp::Flags::SYN) && flags.contains(tcp::Flags::ACK) =>
            {
                self.synack_v6 = true;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, fx: &mut Effects) {
        self.step += 1;
        match self.step {
            1 => {
                // DHCP DISCOVER + RS.
                let d = dhcpv4::Repr::client(dhcpv4::MessageType::Discover, 7, self.mac());
                fx.emit_frame(|f| {
                    wire::udp_frame(
                        f,
                        self.mac(),
                        Mac::BROADCAST,
                        PseudoHeader::V4 {
                            src: Ipv4Addr::UNSPECIFIED,
                            dst: Ipv4Addr::BROADCAST,
                        },
                        68,
                        67,
                        &d.build(),
                    )
                });
                let rs = icmpv6::Repr::Ndp(Ndp::RouterSolicit { options: vec![] });
                fx.emit_frame(|f| {
                    wire::icmpv6_frame(
                        f,
                        self.mac(),
                        Mac::for_ipv6_multicast(mcast::ALL_ROUTERS),
                        Ipv6Addr::UNSPECIFIED,
                        mcast::ALL_ROUTERS,
                        &rs,
                    )
                });
            }
            2 => {
                // DHCP REQUEST.
                let mut r = dhcpv4::Repr::client(dhcpv4::MessageType::Request, 7, self.mac());
                r.requested_ip = self.v4;
                r.server_id = Some(addrs::ROUTER_IPV4);
                fx.emit_frame(|f| {
                    wire::udp_frame(
                        f,
                        self.mac(),
                        Mac::BROADCAST,
                        PseudoHeader::V4 {
                            src: Ipv4Addr::UNSPECIFIED,
                            dst: Ipv4Addr::BROADCAST,
                        },
                        68,
                        67,
                        &r.build(),
                    )
                });
                // Announce the GUA so the tunnel can route back.
                if let Some(gua) = self.gua {
                    let na = icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
                        router: false,
                        solicited: false,
                        override_flag: true,
                        target: gua,
                        options: vec![NdpOption::TargetLinkLayerAddr(self.mac())],
                    });
                    fx.emit_frame(|f| {
                        wire::icmpv6_frame(
                            f,
                            self.mac(),
                            Mac::for_ipv6_multicast(mcast::ALL_NODES),
                            gua,
                            mcast::ALL_NODES,
                            &na,
                        )
                    });
                }
            }
            3 => {
                // DNS over v4 (A) and v6 (AAAA).
                if let (Some(v4), Some(gw)) = (self.v4, self.gw_mac) {
                    let q = Message::query(1, Name::new("svc.e2e.example").unwrap(), RecordType::A);
                    fx.emit_frame(|f| {
                        wire::udp_frame(
                            f,
                            self.mac(),
                            gw,
                            PseudoHeader::V4 {
                                src: v4,
                                dst: addrs::DNS4_PRIMARY,
                            },
                            40000,
                            53,
                            &q.build(),
                        )
                    });
                }
                if let (Some(gua), Some(rm)) = (self.gua, self.router_mac) {
                    let q =
                        Message::query(2, Name::new("svc.e2e.example").unwrap(), RecordType::Aaaa);
                    fx.emit_frame(|f| {
                        wire::udp_frame(
                            f,
                            self.mac(),
                            rm,
                            PseudoHeader::V6 {
                                src: gua,
                                dst: addrs::DNS6_PRIMARY,
                            },
                            40001,
                            53,
                            &q.build(),
                        )
                    });
                }
            }
            4 => {
                // TCP SYN over both families.
                if let (Some(v4), Some(gw), Some(dst)) = (self.v4, self.gw_mac, self.resolved_a) {
                    fx.emit_frame(|f| {
                        wire::tcp_frame(
                            f,
                            self.mac(),
                            gw,
                            PseudoHeader::V4 { src: v4, dst },
                            &tcp::Repr::syn(41000, 443, 9),
                        )
                    });
                }
                if let (Some(gua), Some(rm), Some(dst)) =
                    (self.gua, self.router_mac, self.resolved_aaaa)
                {
                    fx.emit_frame(|f| {
                        wire::tcp_frame(
                            f,
                            self.mac(),
                            rm,
                            PseudoHeader::V6 { src: gua, dst },
                            &tcp::Repr::syn(41001, 443, 9),
                        )
                    });
                }
            }
            _ => return,
        }
        fx.set_timer(SimTime::from_millis(500), 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run_client(config: RouterConfig) -> (Client, v6brick_pcap::Capture) {
    let mut zones = ZoneDb::new();
    zones.insert(DomainProfile::dual_stack(
        Name::new("svc.e2e.example").unwrap(),
    ));
    let mut b = SimulationBuilder::new(Router::new(config), Internet::new(zones));
    let id = b.add_host(Box::new(Client::default()));
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(10));
    let client = {
        let c = sim.host(id).as_any().downcast_ref::<Client>().unwrap();
        Client {
            v4: c.v4,
            gw_mac: c.gw_mac,
            gua: c.gua,
            router_mac: c.router_mac,
            resolved_a: c.resolved_a,
            resolved_aaaa: c.resolved_aaaa,
            synack_v4: c.synack_v4,
            synack_v6: c.synack_v6,
            step: c.step,
        }
    };
    (client, sim.take_capture())
}

#[test]
fn dual_stack_full_path() {
    let (c, capture) = run_client(RouterConfig::dual_stack());
    assert_eq!(c.v4, Some(Ipv4Addr::new(192, 168, 1, 100)), "DHCP lease");
    assert!(c.gua.is_some(), "SLAAC prefix received");
    assert!(c.resolved_a.is_some(), "A over v4 through NAT");
    assert!(c.resolved_aaaa.is_some(), "AAAA over v6 through the tunnel");
    assert!(c.synack_v4, "TCP handshake through NAT44");
    assert!(c.synack_v6, "TCP handshake through 6in4");
    assert!(capture.len() > 10);
}

#[test]
fn ipv6_only_blocks_v4_path() {
    let (c, _) = run_client(RouterConfig::ipv6_only());
    assert_eq!(c.v4, None, "no DHCPv4 service");
    assert!(c.gua.is_some());
    assert!(c.resolved_a.is_none(), "v4 resolver unreachable");
    assert!(c.resolved_aaaa.is_some());
    assert!(!c.synack_v4);
    assert!(c.synack_v6);
}

#[test]
fn ipv4_only_blocks_v6_path() {
    let (c, _) = run_client(RouterConfig::ipv4_only());
    assert!(c.v4.is_some());
    assert_eq!(c.gua, None, "no RAs without IPv6");
    assert!(c.resolved_a.is_some());
    assert!(c.resolved_aaaa.is_none());
    assert!(c.synack_v4);
    assert!(!c.synack_v6);
}

#[test]
fn enterprise_suppresses_slaac_prefix() {
    let (c, _) = run_client(RouterConfig::ipv6_only_enterprise());
    // The RA arrives but carries A=0, so this SLAAC-only client never
    // forms a GUA.
    assert!(c.router_mac.is_some(), "RA received");
    assert_eq!(c.gua, None, "A=0 prevents SLAAC");
    assert!(!c.synack_v6);
}

#[test]
fn periodic_ra_keeps_arriving() {
    // Count multicast RAs over 10 minutes: one at boot + one per 120s.
    let mut zones = ZoneDb::new();
    zones.insert(DomainProfile::dual_stack(
        Name::new("svc.e2e.example").unwrap(),
    ));
    let mut b =
        SimulationBuilder::new(Router::new(RouterConfig::ipv6_only()), Internet::new(zones));
    b.add_host(Box::new(Client::default()));
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(600));
    let capture = sim.take_capture();
    let ras = capture
        .parsed()
        .filter(|(_, p)| {
            matches!(
                &p.l4,
                L4::Icmpv6(icmpv6::Repr::Ndp(Ndp::RouterAdvert { .. }))
            ) && p.eth.dst == Mac::for_ipv6_multicast(mcast::ALL_NODES)
        })
        .count();
    assert!(
        (5..=7).contains(&ras),
        "expected ~6 periodic RAs, saw {ras}"
    );
}
