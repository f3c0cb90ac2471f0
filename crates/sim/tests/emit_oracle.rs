//! Property tests pinning the in-place emitters to the compositional
//! builders they replaced.
//!
//! Every frame used to be assembled layer by layer: each `Repr::build`
//! returned a fresh vector that the next layer out copied behind its own
//! header. The emitters now append all layers to one buffer and patch
//! lengths and checksums in place. The oracle below is the old code,
//! copied verbatim (as free functions over the public reprs) so the
//! comparison stays independent of the emitters: for TCP, UDP and ICMPv6
//! over IPv4 and IPv6, in Ethernet and in 6in4, with empty, odd-length
//! and 48 KiB payloads, both paths must produce the same bytes. The old
//! NAT44 parse-and-rebuild (`rewrite_v4`) is the oracle for the router's
//! in-place rewrite, and the old router's inbound framing
//! (`inbound_frame`) for the LAN frames it writes from filler replies
//! that cross the WAN as headers plus a fill tail.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::checksum::{self, Checksum};
use v6brick_net::dns::Name;
use v6brick_net::emit;
use v6brick_net::ethernet::{self, EtherType};
use v6brick_net::ipv4::Protocol;
use v6brick_net::tail::{Fill, Tailed};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{icmpv6, ipv4, ipv6, tcp, tls, udp, Mac};
use v6brick_sim::addrs;
use v6brick_sim::router::nat44_rewrite;
use v6brick_sim::{wire, Effects, Router, RouterConfig, SimTime};

// --- the oracle: the pre-emitter compositional builders ---------------------

mod oracle {
    use super::*;

    /// `ethernet::Repr::build`.
    pub fn eth(src: Mac, dst: Mac, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
        let repr = ethernet::Repr {
            src,
            dst,
            ethertype,
        };
        let mut buf = vec![0u8; ethernet::HEADER_LEN + payload.len()];
        let mut f = ethernet::Frame::new_unchecked(&mut buf[..]);
        repr.emit(&mut f);
        f.payload_mut().copy_from_slice(payload);
        buf
    }

    /// `ipv4::Repr::build`.
    pub fn ipv4(r: &ipv4::Repr, payload: &[u8]) -> Vec<u8> {
        assert!(
            ipv4::HEADER_LEN + payload.len() <= usize::from(u16::MAX),
            "ipv4 total length {} exceeds the length field",
            ipv4::HEADER_LEN + payload.len()
        );
        let total = ipv4::HEADER_LEN + payload.len();
        let mut b = vec![0u8; total];
        b[0] = 0x45;
        b[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        b[8] = r.ttl;
        b[9] = r.protocol.into();
        b[12..16].copy_from_slice(&r.src.octets());
        b[16..20].copy_from_slice(&r.dst.octets());
        let c = checksum::checksum(&b[..ipv4::HEADER_LEN]);
        b[10..12].copy_from_slice(&c.to_be_bytes());
        b[ipv4::HEADER_LEN..].copy_from_slice(payload);
        b
    }

    /// `ipv6::Repr::build`.
    pub fn ipv6(r: &ipv6::Repr, payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len() <= usize::from(u16::MAX),
            "ipv6 payload {} exceeds the length field",
            payload.len()
        );
        let mut b = vec![0u8; ipv6::HEADER_LEN + payload.len()];
        b[0] = 0x60;
        b[4..6].copy_from_slice(&(payload.len() as u16).to_be_bytes());
        b[6] = r.next_header.into();
        b[7] = r.hop_limit;
        b[8..24].copy_from_slice(&r.src.octets());
        b[24..40].copy_from_slice(&r.dst.octets());
        b[ipv6::HEADER_LEN..].copy_from_slice(payload);
        b
    }

    /// `udp::Repr::build`.
    pub fn udp(r: &udp::Repr, ph: PseudoHeader) -> Vec<u8> {
        let len = udp::HEADER_LEN + r.payload.len();
        let mut b = vec![0u8; len];
        b[0..2].copy_from_slice(&r.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&r.dst_port.to_be_bytes());
        b[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        b[udp::HEADER_LEN..].copy_from_slice(&r.payload);
        let mut c = Checksum::new();
        match ph {
            PseudoHeader::V4 { src, dst } => c.add_ipv4_pseudo(src, dst, 17, len as u16),
            PseudoHeader::V6 { src, dst } => c.add_ipv6_pseudo(src, dst, 17, len as u32),
        }
        c.add(&b);
        let mut sum = c.finish();
        if sum == 0 {
            sum = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        b[6..8].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// `tcp::Repr::build`.
    pub fn tcp(r: &tcp::Repr, ph: PseudoHeader) -> Vec<u8> {
        let len = tcp::HEADER_LEN + r.payload.len();
        let mut b = vec![0u8; len];
        b[0..2].copy_from_slice(&r.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&r.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&r.seq.to_be_bytes());
        b[8..12].copy_from_slice(&r.ack.to_be_bytes());
        b[12] = ((tcp::HEADER_LEN / 4) as u8) << 4;
        b[13] = r.flags.0;
        b[14..16].copy_from_slice(&r.window.to_be_bytes());
        b[tcp::HEADER_LEN..].copy_from_slice(&r.payload);
        let mut c = Checksum::new();
        match ph {
            PseudoHeader::V4 { src, dst } => c.add_ipv4_pseudo(src, dst, 6, len as u16),
            PseudoHeader::V6 { src, dst } => c.add_ipv6_pseudo(src, dst, 6, len as u32),
        }
        c.add(&b);
        let sum = c.finish();
        b[16..18].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// `icmpv6::Repr::build` for the echo messages.
    pub fn icmpv6_echo(msg: &icmpv6::Repr, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match msg {
            icmpv6::Repr::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                b.extend_from_slice(&[128, 0, 0, 0]);
                b.extend_from_slice(&ident.to_be_bytes());
                b.extend_from_slice(&seq.to_be_bytes());
                b.extend_from_slice(payload);
            }
            icmpv6::Repr::EchoReply {
                ident,
                seq,
                payload,
            } => {
                b.extend_from_slice(&[129, 0, 0, 0]);
                b.extend_from_slice(&ident.to_be_bytes());
                b.extend_from_slice(&seq.to_be_bytes());
                b.extend_from_slice(payload);
            }
            other => unreachable!("oracle covers echo only: {other:?}"),
        }
        let mut c = Checksum::new();
        c.add_ipv6_pseudo(src, dst, 58, b.len() as u32);
        c.add(&b);
        let sum = c.finish();
        b[2..4].copy_from_slice(&sum.to_be_bytes());
        b
    }

    /// `tls::client_hello`.
    pub fn client_hello(sni: &Name, payload_len: usize) -> Vec<u8> {
        let host = sni.as_str().as_bytes();

        // server_name extension body: list length, type 0 (host_name), name.
        let mut ext_body = Vec::with_capacity(host.len() + 5);
        ext_body.extend_from_slice(&((host.len() + 3) as u16).to_be_bytes());
        ext_body.push(0);
        ext_body.extend_from_slice(&(host.len() as u16).to_be_bytes());
        ext_body.extend_from_slice(host);

        let mut extensions = Vec::with_capacity(ext_body.len() + 4);
        extensions.extend_from_slice(&0u16.to_be_bytes()); // extension type 0: server_name
        extensions.extend_from_slice(&(ext_body.len() as u16).to_be_bytes());
        extensions.extend_from_slice(&ext_body);

        // ClientHello body.
        let mut hello = Vec::with_capacity(extensions.len() + 48);
        hello.extend_from_slice(&[0x03, 0x03]); // legacy_version TLS1.2
        hello.extend_from_slice(&[0x11; 32]); // random (deterministic)
        hello.push(0); // session id length
        hello.extend_from_slice(&[0x00, 0x02, 0x13, 0x01]); // ciphers: TLS_AES_128_GCM_SHA256
        hello.extend_from_slice(&[0x01, 0x00]); // compression: null
        hello.extend_from_slice(&(extensions.len() as u16).to_be_bytes());
        hello.extend_from_slice(&extensions);

        // Handshake header.
        let mut hs = Vec::with_capacity(hello.len() + 4);
        hs.push(1); // handshake type: client_hello
        hs.extend_from_slice(&(hello.len() as u32).to_be_bytes()[1..]);
        hs.extend_from_slice(&hello);

        // TLS record.
        let mut rec = Vec::with_capacity(hs.len() + 5 + payload_len);
        rec.push(22); // content type: handshake
        rec.extend_from_slice(&[0x03, 0x01]);
        rec.extend_from_slice(&(hs.len() as u16).to_be_bytes());
        rec.extend_from_slice(&hs);

        // Pad to the requested volume with application-data records.
        let mut remaining = payload_len.saturating_sub(rec.len());
        while remaining > 0 {
            let chunk = remaining.min(4096);
            rec.push(23); // application data
            rec.extend_from_slice(&[0x03, 0x03]);
            rec.extend_from_slice(&(chunk as u16).to_be_bytes());
            rec.extend_from_slice(&vec![0x5a; chunk]);
            remaining -= chunk;
        }
        rec
    }

    /// `sim::wire::udp4_frame` / `udp6_frame`.
    pub fn udp_frame(
        src_mac: Mac,
        dst_mac: Mac,
        ph: PseudoHeader,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Vec<u8> {
        let udp_bytes = udp(
            &udp::Repr {
                src_port,
                dst_port,
                payload,
            },
            ph,
        );
        ip_frame(src_mac, dst_mac, ph, Protocol::Udp, 64, &udp_bytes)
    }

    /// `sim::wire::tcp4_frame` / `tcp6_frame`.
    pub fn tcp_frame(src_mac: Mac, dst_mac: Mac, ph: PseudoHeader, seg: &tcp::Repr) -> Vec<u8> {
        let bytes = tcp(seg, ph);
        ip_frame(src_mac, dst_mac, ph, Protocol::Tcp, 64, &bytes)
    }

    /// `sim::wire::icmpv6_frame` for echo messages (hop limit 64).
    pub fn icmpv6_frame(
        src_mac: Mac,
        dst_mac: Mac,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        msg: &icmpv6::Repr,
    ) -> Vec<u8> {
        let body = icmpv6_echo(msg, src, dst);
        let ph = PseudoHeader::V6 { src, dst };
        ip_frame(src_mac, dst_mac, ph, Protocol::Icmpv6, 64, &body)
    }

    /// The shared tail of the old `wire` builders: IP header, then the
    /// Ethernet header (`router::eth_frame`).
    fn ip_frame(
        src_mac: Mac,
        dst_mac: Mac,
        ph: PseudoHeader,
        protocol: Protocol,
        hop_limit: u8,
        l4: &[u8],
    ) -> Vec<u8> {
        let (ethertype, ip) = ip_packet(ph, protocol, hop_limit, l4);
        eth(src_mac, dst_mac, ethertype, &ip)
    }

    /// An IP packet the way the old Internet model wrapped its replies.
    pub fn ip_packet(
        ph: PseudoHeader,
        protocol: Protocol,
        hop_limit: u8,
        l4: &[u8],
    ) -> (EtherType, Vec<u8>) {
        match ph {
            PseudoHeader::V4 { src, dst } => (
                EtherType::Ipv4,
                ipv4(
                    &ipv4::Repr {
                        src,
                        dst,
                        protocol,
                        ttl: hop_limit,
                        payload_len: l4.len(),
                    },
                    l4,
                ),
            ),
            PseudoHeader::V6 { src, dst } => (
                EtherType::Ipv6,
                ipv6(
                    &ipv6::Repr {
                        src,
                        dst,
                        next_header: protocol,
                        hop_limit,
                        payload_len: l4.len(),
                    },
                    l4,
                ),
            ),
        }
    }

    /// 6in4 encapsulation (`Router::route_v6`, `Internet` reply wrap).
    pub fn encap(src: Ipv4Addr, dst: Ipv4Addr, inner: &[u8]) -> Vec<u8> {
        ipv4(
            &ipv4::Repr {
                src,
                dst,
                protocol: Protocol::Ipv6,
                ttl: 64,
                payload_len: inner.len(),
            },
            inner,
        )
    }

    /// `router::rewrite_v4`.
    pub fn rewrite_v4(
        repr: &ipv4::Repr,
        l4: &[u8],
        new_src: Option<(Ipv4Addr, u16)>,
        new_dst: Option<(Ipv4Addr, u16)>,
    ) -> Vec<u8> {
        let src = new_src.map(|(ip, _)| ip).unwrap_or(repr.src);
        let dst = new_dst.map(|(ip, _)| ip).unwrap_or(repr.dst);
        let l4_new = match repr.protocol {
            Protocol::Udp => {
                let u = udp::Packet::new_checked(l4).expect("caller verified");
                udp(
                    &udp::Repr {
                        src_port: new_src.map(|(_, p)| p).unwrap_or_else(|| u.src_port()),
                        dst_port: new_dst.map(|(_, p)| p).unwrap_or_else(|| u.dst_port()),
                        payload: u.payload().to_vec(),
                    },
                    PseudoHeader::V4 { src, dst },
                )
            }
            Protocol::Tcp => {
                let t = tcp::Packet::new_checked(l4).expect("caller verified");
                let mut seg = tcp::Repr::parse(&t);
                if let Some((_, p)) = new_src {
                    seg.src_port = p;
                }
                if let Some((_, p)) = new_dst {
                    seg.dst_port = p;
                }
                tcp(&seg, PseudoHeader::V4 { src, dst })
            }
            _ => l4.to_vec(),
        };
        ipv4(
            &ipv4::Repr {
                src,
                dst,
                protocol: repr.protocol,
                ttl: repr.ttl.saturating_sub(1),
                payload_len: l4_new.len(),
            },
            &l4_new,
        )
    }

    /// The LAN frame `Router::on_wan_packet` wrote for a well-formed
    /// inbound packet before filler crossed the WAN as a tail: a 6in4
    /// packet's IPv4 payload behind an Ethernet header to `mac`, or an
    /// IPv4 packet NATed to `nat_to` (`rewrite_v4`).
    pub fn inbound_frame(packet: &[u8], mac: Mac, nat_to: (Ipv4Addr, u16)) -> Vec<u8> {
        let p = ipv4::Packet::new_checked(packet).expect("a well-formed packet");
        let repr = ipv4::Repr::parse(&p);
        if repr.protocol == Protocol::Ipv6 {
            eth(ROUTER_MAC, mac, EtherType::Ipv6, p.payload())
        } else {
            let rewritten = rewrite_v4(&repr, p.payload(), None, Some(nat_to));
            eth(ROUTER_MAC, mac, EtherType::Ipv4, &rewritten)
        }
    }

    const ROUTER_MAC: Mac = v6brick_sim::addrs::ROUTER_MAC;
}

// --- strategies --------------------------------------------------------------

/// Payload lengths: empty, odd (the checksum's zero-pad case) or a full
/// 48 KiB Internet response.
fn payload_len() -> impl Strategy<Value = usize> {
    (0u8..3, 0usize..700).prop_map(|(kind, n)| match kind {
        0 => 0,
        1 => 2 * n + 1,
        _ => 48 * 1024,
    })
}

fn payload() -> impl Strategy<Value = Vec<u8>> {
    (payload_len(), any::<u8>()).prop_map(|(n, seed)| {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    })
}

fn v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn v6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

fn mac() -> impl Strategy<Value = Mac> {
    any::<[u8; 6]>().prop_map(Mac::from)
}

/// An address pair of either family.
fn ips() -> impl Strategy<Value = PseudoHeader> {
    (any::<bool>(), v4(), v4(), v6(), v6()).prop_map(|(is_v6, s4, d4, s6, d6)| {
        if is_v6 {
            PseudoHeader::V6 { src: s6, dst: d6 }
        } else {
            PseudoHeader::V4 { src: s4, dst: d4 }
        }
    })
}

fn segment() -> impl Strategy<Value = tcp::Repr> {
    (
        (any::<u16>(), any::<u16>()),
        (any::<u32>(), any::<u32>()),
        0u8..0x20,
        any::<u16>(),
        payload(),
    )
        .prop_map(|((sp, dp), (seq, ack), flags, window, payload)| tcp::Repr {
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags: tcp::Flags(flags),
            window,
            payload,
        })
}

fn echo() -> impl Strategy<Value = icmpv6::Repr> {
    (any::<bool>(), any::<u16>(), any::<u16>(), payload()).prop_map(|(req, ident, seq, payload)| {
        if req {
            icmpv6::Repr::EchoRequest {
                ident,
                seq,
                payload,
            }
        } else {
            icmpv6::Repr::EchoReply {
                ident,
                seq,
                payload,
            }
        }
    })
}

/// A TCP segment or UDP datagram as an IPv4 packet, built by the oracle:
/// (header repr, transport bytes, whole packet).
fn v4_transport() -> impl Strategy<Value = (ipv4::Repr, Vec<u8>)> {
    (any::<bool>(), v4(), v4(), any::<u8>(), segment()).prop_map(|(is_tcp, src, dst, ttl, seg)| {
        let ph = PseudoHeader::V4 { src, dst };
        let (protocol, l4) = if is_tcp {
            (Protocol::Tcp, oracle::tcp(&seg, ph))
        } else {
            let d = udp::Repr {
                src_port: seg.src_port,
                dst_port: seg.dst_port,
                payload: seg.payload,
            };
            (Protocol::Udp, oracle::udp(&d, ph))
        };
        let repr = ipv4::Repr {
            src,
            dst,
            protocol,
            ttl,
            payload_len: l4.len(),
        };
        (repr, l4)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tcp_frames_match_the_layered_builders(
        (m1, m2) in (mac(), mac()),
        ph in ips(),
        seg in segment(),
    ) {
        let mut f = Vec::new();
        wire::tcp_frame(&mut f, m1, m2, ph, &seg);
        prop_assert_eq!(&f, &oracle::tcp_frame(m1, m2, ph, &seg));

        // The same frame with its payload written in place.
        let mut g = vec![0xee; 7];
        let open = wire::open_tcp(&mut g, m1, m2, ph, &seg.header());
        g.extend_from_slice(&seg.payload);
        open.close(&mut g);
        prop_assert_eq!(&g[7..], &f[..]);

        prop_assert_eq!(seg.build(ph), oracle::tcp(&seg, ph));
    }

    #[test]
    fn udp_frames_match_the_layered_builders(
        (m1, m2) in (mac(), mac()),
        ph in ips(),
        (sp, dp) in (any::<u16>(), any::<u16>()),
        data in payload(),
    ) {
        let mut f = Vec::new();
        wire::udp_frame(&mut f, m1, m2, ph, sp, dp, &data);
        prop_assert_eq!(&f, &oracle::udp_frame(m1, m2, ph, sp, dp, data.clone()));
        let d = udp::Repr { src_port: sp, dst_port: dp, payload: data };
        prop_assert_eq!(d.build(ph), oracle::udp(&d, ph));
    }

    #[test]
    fn icmpv6_frames_match_the_layered_builders(
        (m1, m2) in (mac(), mac()),
        (src, dst) in (v6(), v6()),
        msg in echo(),
    ) {
        let mut f = Vec::new();
        wire::icmpv6_frame(&mut f, m1, m2, src, dst, &msg);
        prop_assert_eq!(&f, &oracle::icmpv6_frame(m1, m2, src, dst, &msg));
        prop_assert_eq!(msg.build(src, dst), oracle::icmpv6_echo(&msg, src, dst));
    }

    #[test]
    fn six_in_four_packets_match_the_layered_builders(
        (t_src, t_dst) in (v4(), v4()),
        (src, dst) in (v6(), v6()),
        kind in 0u8..3,
        seg in segment(),
        msg in echo(),
    ) {
        // Inside one buffer, the way the Internet model writes a reply:
        // tunnel header, IPv6 header, transport header, payload.
        let ph = PseudoHeader::V6 { src, dst };
        let (protocol, l4) = match kind {
            0 => (Protocol::Tcp, oracle::tcp(&seg, ph)),
            1 => {
                let d = udp::Repr {
                    src_port: seg.src_port,
                    dst_port: seg.dst_port,
                    payload: seg.payload.clone(),
                };
                (Protocol::Udp, oracle::udp(&d, ph))
            }
            _ => (Protocol::Icmpv6, oracle::icmpv6_echo(&msg, src, dst)),
        };
        let (_, inner) = oracle::ip_packet(ph, protocol, 64, &l4);
        let want = oracle::encap(t_src, t_dst, &inner);

        let mut buf = Vec::new();
        let tunnel = ipv4::Repr {
            src: t_src,
            dst: t_dst,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: 0,
        }
        .open(&mut buf);
        let ip = emit::open_ip(&mut buf, ph, protocol, 64);
        match kind {
            0 => {
                let t = seg.header().open(&mut buf, ph);
                buf.extend_from_slice(&seg.payload);
                t.close(&mut buf);
            }
            1 => {
                let u = udp::open(&mut buf, seg.src_port, seg.dst_port, ph);
                buf.extend_from_slice(&seg.payload);
                u.close(&mut buf);
            }
            _ => msg.emit_into(&mut buf, src, dst),
        }
        ip.close(&mut buf);
        tunnel.close(&mut buf);
        prop_assert_eq!(&buf, &want);

        // The router's encapsulation of an existing inner packet.
        let r = ipv4::Repr {
            src: t_src,
            dst: t_dst,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: inner.len(),
        };
        prop_assert_eq!(r.build(&inner), want);
        prop_assert_eq!(
            ethernet::Repr { src: Mac::BROADCAST, dst: Mac::BROADCAST, ethertype: EtherType::Ipv6 }
                .build(&inner),
            oracle::eth(Mac::BROADCAST, Mac::BROADCAST, EtherType::Ipv6, &inner)
        );
    }

    #[test]
    fn client_hello_matches_the_layered_builder(
        label in 0u32..100_000,
        len in 0usize..13_000,
        prefix in 0usize..9,
    ) {
        let sni = Name::new(&format!("d{label}.telemetry.example.com")).unwrap();
        let want = oracle::client_hello(&sni, len);
        prop_assert_eq!(&tls::client_hello(&sni, len), &want);
        prop_assert_eq!(tls::client_hello_len(&sni, len), want.len());
        let mut buf = vec![0xee; prefix];
        tls::emit_client_hello(&mut buf, &sni, len);
        prop_assert_eq!(&buf[prefix..], &want[..]);
    }

    #[test]
    fn in_place_nat_matches_rewrite_v4(
        (repr, l4) in v4_transport(),
        (new_addr, new_port) in (v4(), any::<u16>()),
        outbound in any::<bool>(),
        trailing in 0usize..5,
    ) {
        let (new_src, new_dst) = if outbound {
            (Some((new_addr, new_port)), None)
        } else {
            (None, Some((new_addr, new_port)))
        };
        // Bytes past the transport's own length (a NATed datagram never
        // carries them) must be handled the same way by both.
        let mut l4 = l4;
        l4.extend(std::iter::repeat_n(0xa5, trailing));
        let repr = ipv4::Repr { payload_len: l4.len(), ..repr };
        let want = oracle::rewrite_v4(&repr, &l4, new_src, new_dst);
        let mut buf = vec![0xee; 14];
        nat44_rewrite(&mut buf, &repr, Tailed::bytes(&l4), new_src, new_dst);
        prop_assert_eq!(&buf[14..], &want[..]);
    }
}

// --- the lazy WAN leg ----------------------------------------------------------

/// A filler reply the way the Internet model sends one: a TCP segment
/// with `header` or a UDP datagram between its ports, whose payload is
/// `fill`, from `ips`' source to its destination, inside the tunnel when
/// `tunnel` is set. Returns it as held headers plus the fill tail (every
/// layer closed over the tail) and as the oracle materializes it.
fn filler_reply(
    ips: PseudoHeader,
    tunnel: bool,
    is_tcp: bool,
    header: &tcp::Header,
    fill: Fill,
) -> (Tailed<Vec<u8>>, Vec<u8>) {
    let payload = vec![fill.byte; fill.len];
    let (protocol, l4) = if is_tcp {
        let seg = tcp::Repr {
            src_port: header.src_port,
            dst_port: header.dst_port,
            seq: header.seq,
            ack: header.ack,
            flags: header.flags,
            window: header.window,
            payload,
        };
        (Protocol::Tcp, oracle::tcp(&seg, ips))
    } else {
        let d = udp::Repr {
            src_port: header.src_port,
            dst_port: header.dst_port,
            payload,
        };
        (Protocol::Udp, oracle::udp(&d, ips))
    };
    let (_, ip) = oracle::ip_packet(ips, protocol, 64, &l4);
    let tunnel_ends = (addrs::TUNNEL_REMOTE_IPV4, addrs::ROUTER_WAN_IPV4);
    let materialized = if tunnel {
        oracle::encap(tunnel_ends.0, tunnel_ends.1, &ip)
    } else {
        ip
    };

    let mut head = Vec::new();
    let outer = tunnel.then(|| {
        ipv4::Repr {
            src: tunnel_ends.0,
            dst: tunnel_ends.1,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: 0,
        }
        .open(&mut head)
    });
    let ip = emit::open_ip(&mut head, ips, protocol, 64);
    let transport = if is_tcp {
        header.open(&mut head, ips)
    } else {
        udp::open(&mut head, header.src_port, header.dst_port, ips)
    };
    for layer in [transport, ip].into_iter().chain(outer) {
        layer.close_over(&mut head, fill);
    }
    (Tailed { head, fill }, materialized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A TCP or UDP filler reply over IPv4 (NAT44 inbound) or 6in4, with
    /// an empty, odd or 48 KiB fill: the headers-plus-tail packet is the
    /// materialized packet's bytes, and the LAN frame the router writes
    /// from it, or from the materialized packet, is the old router's.
    #[test]
    fn lazy_wan_leg_matches_the_materialized_path(
        tunnel in any::<bool>(),
        is_tcp in any::<bool>(),
        (seq, ack, flags, window) in (any::<u32>(), any::<u32>(), 0u8..0x20, any::<u16>()),
        fill_byte in any::<u8>(),
        fill_len in payload_len(),
    ) {
        let mac = Mac::new(2, 0, 0, 0, 0, 0x42);
        let (lan_ip, lan_port) = (Ipv4Addr::new(192, 168, 1, 100), 5000);
        let gua = mac.slaac_address(addrs::LAN_PREFIX);
        let (remote4, remote6) = (Ipv4Addr::new(198, 18, 7, 7), "2001:db8:ffff::7".parse().unwrap());
        let (out_ips, reply_ips) = if tunnel {
            (PseudoHeader::V6 { src: gua, dst: remote6 }, PseudoHeader::V6 { src: remote6, dst: gua })
        } else {
            (
                PseudoHeader::V4 { src: lan_ip, dst: remote4 },
                PseudoHeader::V4 { src: remote4, dst: addrs::ROUTER_WAN_IPV4 },
            )
        };

        // The device's request opens the NAT mapping (IPv4) or teaches
        // the router its neighbor (IPv6).
        let mut router = Router::new(RouterConfig::dual_stack());
        let mut rng = StdRng::seed_from_u64(1);
        let mut request = Vec::new();
        if is_tcp {
            wire::tcp_frame(&mut request, mac, addrs::ROUTER_MAC, out_ips, &tcp::Repr::syn(lan_port, 443, 1));
        } else {
            wire::udp_frame(&mut request, mac, addrs::ROUTER_MAC, out_ips, lan_port, 443, b"request");
        }
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::ZERO, &request, &mut fx);
        prop_assert_eq!(fx.wan.len(), 1);
        let sent = ipv4::Packet::new_checked(&fx.wan[0][..]).unwrap();
        let reply_port = if tunnel {
            lan_port
        } else {
            u16::from_be_bytes([sent.payload()[0], sent.payload()[1]])
        };

        let header = tcp::Header { src_port: 443, dst_port: reply_port, seq, ack, flags: tcp::Flags(flags), window };
        let fill = Fill { byte: fill_byte, len: fill_len };
        let (lazy, materialized) = filler_reply(reply_ips, tunnel, is_tcp, &header, fill);
        prop_assert_eq!(&lazy.view().to_vec(), &materialized);
        prop_assert!(lazy.head.len() <= ipv4::HEADER_LEN + ipv6::HEADER_LEN + tcp::HEADER_LEN);

        let want = oracle::inbound_frame(&materialized, mac, (lan_ip, lan_port));
        for packet in [lazy.view(), Tailed::bytes(&materialized[..])] {
            let mut fx = Effects::new(&mut rng);
            router.on_wan_packet(SimTime::ZERO, packet, &mut fx);
            prop_assert_eq!(router.dropped, 0);
            prop_assert_eq!(fx.frames.len(), 1);
            prop_assert_eq!(&fx.frames[0], &want);
        }
    }
}
