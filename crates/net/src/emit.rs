//! In-place emission: one buffer per packet, every layer written into it
//! once.
//!
//! A frame is emitted outside-in by appending to a single caller-owned
//! `Vec<u8>`: each header is appended with its length and checksum
//! fields zeroed ([`Open`]), the payload is appended behind the
//! innermost header (copied, or written straight in as filler), and the
//! layers are then closed inside-out, which patches each length and
//! checksum over the bytes already in the buffer. The headers in front
//! of a layer are its headroom, so wrapping a packet in one more layer
//! costs one header write rather than a copy of the payload. A payload
//! that ends in filler can instead stay a [`Fill`] tail behind the
//! buffer: [`Open::close_over`] counts it in every length and checksum
//! without a byte of it written (see [`crate::tail`]).
//!
//! Every `Repr::build` in this crate is a wrapper over these emitters,
//! so the in-place and the one-shot paths cannot drift apart.

use crate::checksum::Checksum;
use crate::ipv4::Protocol;
use crate::tail::Fill;
use crate::udp::PseudoHeader;
use crate::{ipv4, ipv6};
use std::net::Ipv6Addr;

/// A header already appended to a buffer whose length and checksum
/// fields wait for the payload behind it.
///
/// Close layers innermost first: an outer checksum or length covers the
/// inner layers' final bytes.
#[must_use = "an opened layer must be closed once its payload is in place"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open {
    at: usize,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ipv4,
    Ipv6,
    Udp(PseudoHeader),
    Tcp(PseudoHeader),
    Icmpv6 { src: Ipv6Addr, dst: Ipv6Addr },
}

impl Open {
    pub(crate) fn ipv4(at: usize) -> Open {
        Open {
            at,
            kind: Kind::Ipv4,
        }
    }

    pub(crate) fn ipv6(at: usize) -> Open {
        Open {
            at,
            kind: Kind::Ipv6,
        }
    }

    pub(crate) fn udp(at: usize, ph: PseudoHeader) -> Open {
        Open {
            at,
            kind: Kind::Udp(ph),
        }
    }

    pub(crate) fn tcp(at: usize, ph: PseudoHeader) -> Open {
        Open {
            at,
            kind: Kind::Tcp(ph),
        }
    }

    pub(crate) fn icmpv6(at: usize, src: Ipv6Addr, dst: Ipv6Addr) -> Open {
        Open {
            at,
            kind: Kind::Icmpv6 { src, dst },
        }
    }

    /// Patch this layer's length and checksum fields to cover everything
    /// from its header to the end of `buf`. Returns the layer's length
    /// (header plus payload).
    ///
    /// # Panics
    /// An IPv4 total length or an IPv6 payload length beyond its 16-bit
    /// field is a caller bug, as in the `Repr::build` wrappers.
    pub fn close(self, buf: &mut [u8]) -> usize {
        self.close_over(buf, Fill::NONE)
    }

    /// [`Open::close`] for a payload that continues past the end of
    /// `buf` with `tail`: lengths count the tail and checksums take its
    /// closed-form sum ([`Checksum::add_fill`]), so the tail's bytes need
    /// not exist yet. Writing them behind the closed layers
    /// ([`Fill::write`]) yields the packet a plain close over the
    /// materialized bytes would have.
    ///
    /// # Panics
    /// As [`Open::close`].
    pub fn close_over(self, buf: &mut [u8], tail: Fill) -> usize {
        let b = &mut buf[self.at..];
        let held = b.len();
        let len = held + tail.len;
        let sum = |mut c: Checksum, b: &[u8]| {
            c.add(b);
            if held % 2 == 1 && tail.len > 0 {
                // The held bytes end mid-word: the tail's first byte
                // completes it, the rest start at an even offset.
                c.add_u16(u16::from(tail.byte));
                c.add_fill(tail.byte, tail.len - 1);
            } else {
                c.add_fill(tail.byte, tail.len);
            }
            c.finish()
        };
        match self.kind {
            Kind::Ipv4 => {
                assert!(
                    len <= usize::from(u16::MAX),
                    "ipv4 total length {len} exceeds the length field"
                );
                b[2..4].copy_from_slice(&(len as u16).to_be_bytes());
                let c = crate::checksum::checksum(&b[..ipv4::HEADER_LEN]);
                b[10..12].copy_from_slice(&c.to_be_bytes());
            }
            Kind::Ipv6 => {
                let plen = len - ipv6::HEADER_LEN;
                assert!(
                    plen <= usize::from(u16::MAX),
                    "ipv6 payload {plen} exceeds the length field"
                );
                b[4..6].copy_from_slice(&(plen as u16).to_be_bytes());
            }
            Kind::Udp(ph) => {
                b[4..6].copy_from_slice(&(len as u16).to_be_bytes());
                let mut sum = sum(pseudo(ph, 17, len), b);
                if sum == 0 {
                    sum = 0xffff; // RFC 768: transmitted zero means "no checksum"
                }
                b[6..8].copy_from_slice(&sum.to_be_bytes());
            }
            Kind::Tcp(ph) => {
                let sum = sum(pseudo(ph, 6, len), b);
                b[16..18].copy_from_slice(&sum.to_be_bytes());
            }
            Kind::Icmpv6 { src, dst } => {
                let mut c = Checksum::new();
                c.add_ipv6_pseudo(src, dst, 58, len as u32);
                let sum = sum(c, b);
                b[2..4].copy_from_slice(&sum.to_be_bytes());
            }
        }
        len
    }
}

/// A checksum seeded with `ph`'s pseudo-header for a `len`-byte segment
/// of protocol `proto` (the IPv4 form carries a 16-bit length, the IPv6
/// form a 32-bit one).
fn pseudo(ph: PseudoHeader, proto: u8, len: usize) -> Checksum {
    let mut c = Checksum::new();
    match ph {
        PseudoHeader::V4 { src, dst } => c.add_ipv4_pseudo(src, dst, proto, len as u16),
        PseudoHeader::V6 { src, dst } => c.add_ipv6_pseudo(src, dst, proto, len as u32),
    }
    c
}

/// Open an IP header of `ips`' family (IPv4 or IPv6, from its source to
/// its destination) carrying `protocol`, with TTL or hop limit
/// `hop_limit`. The same address pair is the transport layer's checksum
/// pseudo-header.
pub fn open_ip(buf: &mut Vec<u8>, ips: PseudoHeader, protocol: Protocol, hop_limit: u8) -> Open {
    match ips {
        PseudoHeader::V4 { src, dst } => ipv4::Repr {
            src,
            dst,
            protocol,
            ttl: hop_limit,
            payload_len: 0,
        }
        .open(buf),
        PseudoHeader::V6 { src, dst } => ipv6::Repr {
            src,
            dst,
            next_header: protocol,
            hop_limit,
            payload_len: 0,
        }
        .open(buf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tcp, udp};
    use std::net::Ipv4Addr;

    #[test]
    fn nested_layers_close_inside_out() {
        // UDP in IPv6 in 6in4 IPv4, all in one buffer.
        let v6src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let v6dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let ph = PseudoHeader::V6 {
            src: v6src,
            dst: v6dst,
        };
        let mut buf = Vec::new();
        let outer = ipv4::Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: 0,
        }
        .open(&mut buf);
        let inner = ipv6::Repr {
            src: v6src,
            dst: v6dst,
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: 0,
        }
        .open(&mut buf);
        let u = udp::open(&mut buf, 1000, 53, ph);
        Fill {
            byte: 0x5a,
            len: 33,
        }
        .write(&mut buf);
        assert_eq!(u.close(&mut buf), udp::HEADER_LEN + 33);
        inner.close(&mut buf);
        outer.close(&mut buf);

        let p4 = ipv4::Packet::new_checked(&buf[..]).unwrap();
        let p6 = ipv6::Packet::new_checked(p4.payload()).unwrap();
        let pu = udp::Packet::new_checked(p6.payload()).unwrap();
        assert!(pu.verify_checksum_v6(v6src, v6dst));
        assert_eq!(pu.payload(), &[0x5a; 33][..]);
    }

    #[test]
    fn tcp_open_close_matches_build() {
        let src = Ipv4Addr::new(192, 168, 1, 5);
        let dst = Ipv4Addr::new(198, 18, 0, 1);
        let ph = PseudoHeader::V4 { src, dst };
        let seg = tcp::Repr {
            src_port: 40000,
            dst_port: 443,
            seq: 7,
            ack: 9,
            flags: tcp::Flags::PSH | tcp::Flags::ACK,
            window: 0xffff,
            payload: vec![0x17; 101],
        };
        let mut buf = vec![0xee; 3]; // unrelated bytes in front
        let t = seg.header().open(&mut buf, ph);
        Fill {
            byte: 0x17,
            len: 101,
        }
        .write(&mut buf);
        t.close(&mut buf);
        assert_eq!(&buf[3..], &seg.build(ph)[..]);
        assert_eq!(&buf[..3], &[0xee; 3]);
    }
}
