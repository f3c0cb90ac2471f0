//! Frame emitters shared by every host implementation (devices, phones,
//! the router, the port scanner, tests).
//!
//! Each appends one complete Ethernet frame to a caller's buffer — in a
//! simulation, a recycled one handed out by
//! [`Effects::emit_frame`](crate::host::Effects::emit_frame) — writing
//! every byte of it once. IP frames name their addresses with a
//! [`PseudoHeader`]: the same (source, destination) pair fills the IP
//! header and seeds the transport checksum, and its variant picks IPv4
//! or IPv6.

use std::net::Ipv6Addr;
use v6brick_net::emit::{self, Open};
use v6brick_net::ethernet::{self, EtherType};
use v6brick_net::ipv4::Protocol;
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{icmpv6, tcp, udp, Mac};

/// Append an Ethernet frame carrying `payload`.
pub fn eth_frame(buf: &mut Vec<u8>, src: Mac, dst: Mac, ethertype: EtherType, payload: &[u8]) {
    buf.reserve_exact(ethernet::HEADER_LEN + payload.len());
    ethernet::Repr {
        src,
        dst,
        ethertype,
    }
    .emit_into(buf);
    buf.extend_from_slice(payload);
}

/// The IP and transport layers of a frame opened by [`open_tcp`]: append
/// the segment's payload, then [`OpenFrame::close`] it.
#[must_use = "an opened frame must be closed once its payload is in place"]
#[derive(Debug)]
pub struct OpenFrame {
    ip: Open,
    l4: Open,
}

impl OpenFrame {
    /// Patch the transport and IP lengths and checksums over the payload
    /// appended since the frame was opened.
    pub fn close(self, buf: &mut [u8]) {
        self.l4.close(buf);
        self.ip.close(buf);
    }
}

/// Append the Ethernet and IP headers of a frame from `ips`' source to its
/// destination carrying `protocol`.
fn open_ip(
    buf: &mut Vec<u8>,
    src_mac: Mac,
    dst_mac: Mac,
    ips: PseudoHeader,
    protocol: Protocol,
    hop_limit: u8,
) -> Open {
    let ethertype = match ips {
        PseudoHeader::V4 { .. } => EtherType::Ipv4,
        PseudoHeader::V6 { .. } => EtherType::Ipv6,
    };
    ethernet::Repr {
        src: src_mac,
        dst: dst_mac,
        ethertype,
    }
    .emit_into(buf);
    emit::open_ip(buf, ips, protocol, hop_limit)
}

/// Open a TCP-in-IP-in-Ethernet frame whose payload the caller appends in
/// place (bulk data is written once, straight into the frame).
pub fn open_tcp(
    buf: &mut Vec<u8>,
    src_mac: Mac,
    dst_mac: Mac,
    ips: PseudoHeader,
    header: &tcp::Header,
) -> OpenFrame {
    let ip = open_ip(buf, src_mac, dst_mac, ips, Protocol::Tcp, 64);
    let l4 = header.open(buf, ips);
    OpenFrame { ip, l4 }
}

/// Append a TCP-in-IP-in-Ethernet frame carrying `seg`.
pub fn tcp_frame(
    buf: &mut Vec<u8>,
    src_mac: Mac,
    dst_mac: Mac,
    ips: PseudoHeader,
    seg: &tcp::Repr,
) {
    let frame = open_tcp(buf, src_mac, dst_mac, ips, &seg.header());
    buf.extend_from_slice(&seg.payload);
    frame.close(buf);
}

/// Append a UDP-in-IP-in-Ethernet frame.
pub fn udp_frame(
    buf: &mut Vec<u8>,
    src_mac: Mac,
    dst_mac: Mac,
    ips: PseudoHeader,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) {
    let ip = open_ip(buf, src_mac, dst_mac, ips, Protocol::Udp, 64);
    let l4 = udp::open(buf, src_port, dst_port, ips);
    buf.extend_from_slice(payload);
    l4.close(buf);
    ip.close(buf);
}

/// Append an ICMPv6-in-IPv6-in-Ethernet frame (NDP hop limit 255 applied
/// when the message is NDP).
pub fn icmpv6_frame(
    buf: &mut Vec<u8>,
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    msg: &icmpv6::Repr,
) {
    let hop_limit = if msg.as_ndp().is_some() { 255 } else { 64 };
    let ips = PseudoHeader::V6 { src, dst };
    let ip = open_ip(buf, src_mac, dst_mac, ips, Protocol::Icmpv6, hop_limit);
    msg.emit_into(buf, src, dst);
    ip.close(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use v6brick_net::parse::{ParsedPacket, L4};

    #[test]
    fn builders_produce_parseable_frames() {
        let m1 = Mac::new(2, 0, 0, 0, 0, 1);
        let m2 = Mac::new(2, 0, 0, 0, 0, 2);
        let mut f = Vec::new();
        udp_frame(
            &mut f,
            m1,
            m2,
            PseudoHeader::V4 {
                src: Ipv4Addr::new(192, 168, 1, 5),
                dst: Ipv4Addr::new(8, 8, 8, 8),
            },
            1234,
            53,
            &[0; 8],
        );
        assert!(matches!(
            ParsedPacket::parse(&f).unwrap().l4,
            L4::Udp { dst_port: 53, .. }
        ));

        let mut f = Vec::new();
        tcp_frame(
            &mut f,
            m1,
            m2,
            PseudoHeader::V6 {
                src: "2001:db8:10:1::5".parse().unwrap(),
                dst: "2001:db8:ffff::1".parse().unwrap(),
            },
            &tcp::Repr::syn(40000, 443, 1),
        );
        assert!(matches!(
            ParsedPacket::parse(&f).unwrap().l4,
            L4::Tcp { dst_port: 443, .. }
        ));

        let mut f = Vec::new();
        icmpv6_frame(
            &mut f,
            m1,
            m2,
            "fe80::1".parse().unwrap(),
            "ff02::1".parse().unwrap(),
            &icmpv6::Repr::EchoRequest {
                ident: 1,
                seq: 1,
                payload: vec![],
            },
        );
        assert!(matches!(ParsedPacket::parse(&f).unwrap().l4, L4::Icmpv6(_)));
    }

    #[test]
    fn open_tcp_takes_a_payload_written_in_place() {
        let mut f = Vec::new();
        let frame = open_tcp(
            &mut f,
            Mac::new(2, 0, 0, 0, 0, 1),
            Mac::new(2, 0, 0, 0, 0, 2),
            PseudoHeader::V4 {
                src: Ipv4Addr::new(192, 168, 1, 5),
                dst: Ipv4Addr::new(198, 18, 0, 1),
            },
            &tcp::Repr::syn(40000, 443, 1).header(),
        );
        v6brick_net::tail::Fill {
            byte: 0x5a,
            len: 999,
        }
        .write(&mut f);
        frame.close(&mut f);
        let p = ParsedPacket::parse(&f).unwrap();
        assert_eq!(p.l4_payload(), Some(&[0x5a; 999][..]));
    }
}
