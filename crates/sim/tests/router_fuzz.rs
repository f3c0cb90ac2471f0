//! Receive-path fuzzing: the router must never panic, whatever bytes
//! arrive on either interface.
//!
//! The LAN carries frames built by device models, but the fault
//! injector's corruption windows (and, in the real world, any
//! misbehaving device) can hand the router arbitrary bytes. Same for
//! the WAN side: 6in4 encapsulation means attacker-controlled inner
//! packets. Every parser on the receive path is `new_checked`-style,
//! so the property is simply "no panic, ever" — the companion
//! round-trip properties live in `v6brick-net`'s proptests.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv6Addr;
use v6brick_net::ipv4::Protocol;
use v6brick_net::tail::{Fill, Tailed};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{dhcpv6, ethernet, icmpv6, ipv4, ipv6, ndp, udp, Mac};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::Effects;
use v6brick_sim::{addrs, Router, RouterConfig};

fn all_configs() -> Vec<RouterConfig> {
    vec![
        RouterConfig::ipv4_only(),
        RouterConfig::ipv6_only(),
        RouterConfig::ipv6_only_rdnss_only(),
        RouterConfig::ipv6_only_stateful(),
        RouterConfig::dual_stack(),
        RouterConfig::dual_stack_stateful(),
    ]
}

/// Feed one byte string through every router config, LAN and WAN side.
fn feed(bytes: &[u8]) {
    for config in all_configs() {
        let mut router = Router::new(config);
        let mut rng = StdRng::seed_from_u64(7);
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::from_secs(1), bytes, &mut fx);
        router.on_wan_packet(SimTime::from_secs(1), Tailed::bytes(bytes), &mut fx);
    }
}

fn link_local(mac: Mac) -> Ipv6Addr {
    mac.slaac_address(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0))
}

/// A well-formed DHCPv6 Solicit as a device would send it: link-local
/// source, All_DHCP_Relay_Agents_and_Servers destination, UDP 546→547.
fn dhcpv6_solicit_frame(mac: Mac, xid: u32) -> Vec<u8> {
    let mut d = dhcpv6::Repr::new(dhcpv6::MessageType::Solicit, xid);
    d.client_id = Some(mac.as_bytes().to_vec());
    d.ia_na = Some(dhcpv6::IaNa {
        iaid: 1,
        t1: 0,
        t2: 0,
        addresses: vec![],
    });
    let src = link_local(mac);
    let dst: Ipv6Addr = "ff02::1:2".parse().unwrap();
    let u = udp::Repr {
        src_port: 546,
        dst_port: 547,
        payload: d.build(),
    }
    .build(PseudoHeader::V6 { src, dst });
    let ip = ipv6::Repr {
        src,
        dst,
        next_header: Protocol::Udp,
        hop_limit: 1,
        payload_len: u.len(),
    }
    .build(&u);
    ethernet::Repr {
        src: mac,
        dst: Mac::for_ipv6_multicast(dst),
        ethertype: ethernet::EtherType::Ipv6,
    }
    .build(&ip)
}

/// A Router Solicitation with a source link-layer option — the frame
/// whose RA answer carries the RDNSS option the devices parse.
fn rs_frame(mac: Mac) -> Vec<u8> {
    let src = link_local(mac);
    let dst: Ipv6Addr = "ff02::2".parse().unwrap();
    let icmp = icmpv6::Repr::Ndp(ndp::Repr::RouterSolicit {
        options: vec![ndp::NdpOption::SourceLinkLayerAddr(mac)],
    })
    .build(src, dst);
    let ip = ipv6::Repr {
        src,
        dst,
        next_header: Protocol::Icmpv6,
        hop_limit: 255,
        payload_len: icmp.len(),
    }
    .build(&icmp);
    ethernet::Repr {
        src: mac,
        dst: Mac::for_ipv6_multicast(dst),
        ethertype: ethernet::EtherType::Ipv6,
    }
    .build(&ip)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes on either interface: no panic, any config.
    #[test]
    fn router_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        feed(&bytes);
    }

    /// Every truncation of a valid DHCPv6 Solicit frame parses or is
    /// rejected — never a panic (and a single flipped byte likewise).
    #[test]
    fn router_survives_mangled_dhcpv6(mac in any::<[u8; 6]>(), xid in any::<u32>(),
                                      cut in any::<usize>(), flip in any::<(usize, u8)>()) {
        let frame = dhcpv6_solicit_frame(Mac::from(mac), xid);
        feed(&frame[..cut % (frame.len() + 1)]);
        let mut mangled = frame.clone();
        let idx = flip.0 % mangled.len();
        mangled[idx] ^= flip.1.max(1);
        feed(&mangled);
    }

    /// Same for the NDP path that triggers RDNSS-bearing RAs.
    #[test]
    fn router_survives_mangled_router_solicit(mac in any::<[u8; 6]>(),
                                              cut in any::<usize>(), flip in any::<(usize, u8)>()) {
        let frame = rs_frame(Mac::from(mac));
        feed(&frame[..cut % (frame.len() + 1)]);
        let mut mangled = frame.clone();
        let idx = flip.0 % mangled.len();
        mangled[idx] ^= flip.1.max(1);
        feed(&mangled);
    }

    /// WAN side: 6in4 packets from the tunnel broker with arbitrary
    /// inner bytes must decapsulate safely or drop.
    #[test]
    fn router_survives_hostile_tunnel_payloads(inner in proptest::collection::vec(any::<u8>(), 0..128)) {
        let packet = ipv4::Repr {
            src: addrs::TUNNEL_REMOTE_IPV4,
            dst: addrs::ROUTER_WAN_IPV4,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: inner.len(),
        }
        .build(&inner);
        for config in all_configs() {
            let mut router = Router::new(config);
            let mut rng = StdRng::seed_from_u64(7);
            let mut fx = Effects::new(&mut rng);
            router.on_wan_packet(SimTime::from_secs(1), Tailed::bytes(&packet), &mut fx);
        }
    }
}

/// A LAN frame from a device GUA to an off-link server: an IPv6 packet
/// whose header declares `declared` payload bytes, followed by the
/// payload and `trailing` extra bytes the header does not cover.
fn oversized_v6_frame(declared: usize, trailing: usize, fill: u8) -> Vec<u8> {
    let src = Mac::new(2, 0, 0, 0, 0, 0x42).slaac_address(addrs::LAN_PREFIX);
    let dst: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();
    let mut frame = Vec::with_capacity(ethernet::HEADER_LEN + 40 + declared + trailing);
    ethernet::Repr {
        src: Mac::new(2, 0, 0, 0, 0, 0x42),
        dst: addrs::ROUTER_MAC,
        ethertype: ethernet::EtherType::Ipv6,
    }
    .emit_into(&mut frame);
    // Header by hand: the payload length is whatever the test declares,
    // next header "no next header" (59) so only routing looks at it.
    frame.extend_from_slice(&[0x60, 0, 0, 0]);
    frame.extend_from_slice(&(declared as u16).to_be_bytes());
    frame.extend_from_slice(&[59, 64]);
    frame.extend_from_slice(&src.octets());
    frame.extend_from_slice(&dst.octets());
    frame.resize(frame.len() + declared, fill);
    frame.resize(frame.len() + trailing, !fill);
    frame
}

/// Run one LAN frame through a dual-stack router; (WAN packets, drops).
fn route(frame: &[u8]) -> (Vec<Vec<u8>>, u64) {
    let mut router = Router::new(RouterConfig::dual_stack());
    let mut rng = StdRng::seed_from_u64(7);
    let mut fx = Effects::new(&mut rng);
    router.on_frame(SimTime::from_secs(1), frame, &mut fx);
    (fx.wan, router.dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bytes after the declared IPv6 packet never reach the tunnel: the
    /// 6in4 payload is exactly the `40 + payload_len` bytes the header
    /// declares, for payloads up to the largest that still fits.
    #[test]
    fn tunnel_carries_exactly_the_declared_packet(
        declared in 0usize..=65_475,
        trailing in 0usize..64,
        fill in any::<u8>(),
    ) {
        let frame = oversized_v6_frame(declared, trailing, fill);
        let (wan, dropped) = route(&frame);
        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(wan.len(), 1);
        let outer = ipv4::Packet::new_checked(&wan[0][..]).unwrap();
        prop_assert_eq!(outer.protocol(), Protocol::Ipv6);
        let packet = &frame[ethernet::HEADER_LEN..ethernet::HEADER_LEN + 40 + declared];
        prop_assert_eq!(outer.payload(), packet);
    }

    /// A LAN packet whose 6in4 encapsulation would overflow the IPv4
    /// total length is dropped and counted, never a panic.
    #[test]
    fn oversized_tunnel_packets_are_dropped(
        declared in 65_476usize..=65_535,
        trailing in 0usize..64,
        fill in any::<u8>(),
    ) {
        let frame = oversized_v6_frame(declared, trailing, fill);
        let (wan, dropped) = route(&frame);
        prop_assert!(wan.is_empty());
        prop_assert_eq!(dropped, 1);
    }
}

/// A device on the LAN of a dual-stack router: its MAC and GUA.
fn lan_device() -> (Mac, Ipv6Addr) {
    let mac = Mac::new(2, 0, 0, 0, 0, 0x42);
    (mac, mac.slaac_address(addrs::LAN_PREFIX))
}

/// A dual-stack router that has learned the LAN device as a neighbor
/// (from one outbound frame of it).
fn router_knowing_device() -> Router {
    let mut router = Router::new(RouterConfig::dual_stack());
    let mut rng = StdRng::seed_from_u64(7);
    let mut fx = Effects::new(&mut rng);
    router.on_frame(SimTime::from_secs(1), &oversized_v6_frame(0, 0, 0), &mut fx);
    router
}

/// An inbound 6in4 packet: a UDP reply to the LAN device whose payload is
/// `payload_len` bytes of `fill`, followed inside the tunnel by `trailing`
/// bytes the inner header does not declare. With `tailed`, the reply's
/// payload and the trailing bytes stay a fill tail (trailing bytes
/// then repeat the fill); otherwise every byte is materialized, the
/// trailing ones as `!fill`. Returns the packet and the inner IPv6 packet
/// the header declares.
fn inbound_6in4(
    payload_len: usize,
    trailing: usize,
    fill: u8,
    tailed: bool,
) -> (Tailed<Vec<u8>>, Vec<u8>) {
    let (_, dev) = lan_device();
    let remote: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();
    let datagram = udp::Repr {
        src_port: 443,
        dst_port: 5000,
        payload: vec![fill; payload_len],
    }
    .build(PseudoHeader::V6 {
        src: remote,
        dst: dev,
    });
    let inner = ipv6::Repr {
        src: remote,
        dst: dev,
        next_header: Protocol::Udp,
        hop_limit: 64,
        payload_len: datagram.len(),
    }
    .build(&datagram);
    let tunnel = ipv4::Repr {
        src: addrs::TUNNEL_REMOTE_IPV4,
        dst: addrs::ROUTER_WAN_IPV4,
        protocol: Protocol::Ipv6,
        ttl: 64,
        payload_len: 0,
    };
    let packet = if tailed {
        // The Internet model's form: headers held, the rest a tail the
        // tunnel header's total length covers.
        let held = ipv6::HEADER_LEN + udp::HEADER_LEN;
        let mut head = Vec::new();
        let open = tunnel.open(&mut head);
        head.extend_from_slice(&inner[..held]);
        let fill = Fill {
            byte: fill,
            len: payload_len + trailing,
        };
        open.close_over(&mut head, fill);
        Tailed { head, fill }
    } else {
        let mut body = inner.clone();
        body.resize(inner.len() + trailing, !fill);
        Tailed::bytes(
            ipv4::Repr {
                payload_len: body.len(),
                ..tunnel
            }
            .build(&body),
        )
    };
    (packet, inner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inbound, the LAN frame carries exactly the inner packet its header
    /// declares: bytes after it inside the tunnel, held or in the tail,
    /// never reach the LAN.
    #[test]
    fn lan_frame_carries_exactly_the_declared_inner_packet(
        payload_len in (any::<bool>(), 0usize..64)
            .prop_map(|(bulk, n)| if bulk { 48 * 1024 + n % 2 } else { n }),
        trailing in 0usize..=64,
        fill in any::<u8>(),
        tailed in any::<bool>(),
    ) {
        let (packet, inner) = inbound_6in4(payload_len, trailing, fill, tailed);
        let mut router = router_knowing_device();
        let mut rng = StdRng::seed_from_u64(7);
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(SimTime::from_secs(2), packet.view(), &mut fx);
        prop_assert_eq!(router.dropped, 0);
        prop_assert_eq!(fx.frames.len(), 1);
        let frame = &fx.frames[0];
        prop_assert_eq!(frame.len(), ethernet::HEADER_LEN + inner.len());
        prop_assert_eq!(&frame[..6], lan_device().0.as_bytes());
        prop_assert_eq!(&frame[ethernet::HEADER_LEN..], &inner[..]);
    }

    /// A packet whose declared lengths its held bytes and tail cannot
    /// fill (a tail one or more bytes short) is dropped and counted.
    #[test]
    fn short_tails_are_dropped_and_counted(
        payload_len in 1usize..2048,
        short in 1usize..=64,
        fill in any::<u8>(),
    ) {
        let (mut packet, _) = inbound_6in4(payload_len, 0, fill, true);
        packet.fill.len = packet.fill.len.saturating_sub(short);
        let mut router = router_knowing_device();
        let mut rng = StdRng::seed_from_u64(7);
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(SimTime::from_secs(2), packet.view(), &mut fx);
        prop_assert!(fx.frames.is_empty());
        prop_assert_eq!(router.dropped, 1);
    }
}
