//! UDP (RFC 768), with IPv4/IPv6 pseudo-header checksums.

use crate::checksum::Checksum;
use crate::emit::Open;
use crate::error::{Error, Result};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::Range;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A view over a UDP datagram.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer after validating the length field.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let b = buffer.as_ref();
        check(b, b.len())?;
        Ok(Packet { buffer })
    }

    /// Wrap without checking: for a header whose [`check`] passed
    /// against a longer packet than the buffer holds.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// True when the datagram carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == HEADER_LEN as u16
    }

    /// Stored checksum field.
    pub fn checksum(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Application payload.
    pub fn payload(&self) -> &[u8] {
        let len = usize::from(self.len());
        &self.buffer.as_ref()[HEADER_LEN..len]
    }

    /// Verify the checksum under an IPv6 pseudo-header.
    pub fn verify_checksum_v6(&self, src: Ipv6Addr, dst: Ipv6Addr) -> bool {
        let b = &self.buffer.as_ref()[..usize::from(self.len())];
        let mut c = Checksum::new();
        c.add_ipv6_pseudo(src, dst, 17, u32::from(self.len()));
        c.add(b);
        c.finish() == 0
    }

    /// Verify the checksum under an IPv4 pseudo-header. A zero checksum
    /// means "not computed" and is accepted, per RFC 768.
    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let b = &self.buffer.as_ref()[..usize::from(self.len())];
        let mut c = Checksum::new();
        c.add_ipv4_pseudo(src, dst, 17, self.len());
        c.add(b);
        c.finish() == 0
    }
}

impl<'a> Packet<&'a [u8]> {
    /// Application payload, borrowed for the buffer's whole lifetime.
    pub fn into_payload(self) -> &'a [u8] {
        let len = usize::from(self.len());
        &self.buffer[HEADER_LEN..len]
    }
}

/// Validate the header at the front of `b`, which holds the first bytes
/// of a `len`-byte datagram (all of them, for [`Packet::new_checked`]),
/// and return the payload's byte range (bounded by the length field).
#[inline]
pub fn check(b: &[u8], len: usize) -> Result<Range<usize>> {
    if b.len() < HEADER_LEN {
        return Err(Error::Truncated);
    }
    let declared = usize::from(u16::from_be_bytes([b[4], b[5]]));
    if declared < HEADER_LEN || len < declared {
        return Err(Error::Truncated);
    }
    Ok(HEADER_LEN..declared)
}

/// Owned representation of a UDP datagram (header + owned payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub payload: Vec<u8>,
}

/// Which pseudo-header to checksum against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PseudoHeader {
    /// V4.
    V4 {
        /// Source IPv4 address.
        src: Ipv4Addr,
        /// Destination IPv4 address.
        dst: Ipv4Addr,
    },
    /// V6.
    V6 {
        /// Source IPv6 address.
        src: Ipv6Addr,
        /// Destination IPv6 address.
        dst: Ipv6Addr,
    },
}

impl Repr {
    /// Parse from a checked view, copying the payload.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            payload: packet.payload().to_vec(),
        }
    }

    /// Parse straight from bytes.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Repr> {
        Ok(Repr::parse(&Packet::new_checked(bytes)?))
    }

    /// Serialize with the checksum computed against `ph`.
    pub fn build(&self, ph: PseudoHeader) -> Vec<u8> {
        let mut b = Vec::with_capacity(HEADER_LEN + self.payload.len());
        let u = open(&mut b, self.src_port, self.dst_port, ph);
        b.extend_from_slice(&self.payload);
        u.close(&mut b);
        b
    }
}

/// Append a UDP header to `buf` with its length and checksum left for
/// [`Open::close`] (against `ph`), once the payload follows it.
pub fn open(buf: &mut Vec<u8>, src_port: u16, dst_port: u16, ph: PseudoHeader) -> Open {
    let at = buf.len();
    buf.extend_from_slice(&src_port.to_be_bytes());
    buf.extend_from_slice(&dst_port.to_be_bytes());
    buf.extend_from_slice(&[0; 4]);
    Open::udp(at, ph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v6_roundtrip_with_valid_checksum() {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "fe80::2".parse().unwrap();
        let r = Repr {
            src_port: 5353,
            dst_port: 53,
            payload: b"query".to_vec(),
        };
        let bytes = r.build(PseudoHeader::V6 { src, dst });
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v6(src, dst));
        // A different pseudo-header (not a src/dst swap, which the
        // commutative sum cannot detect) must fail.
        assert!(!p.verify_checksum_v6(src, "fe80::3".parse().unwrap()));
        assert_eq!(Repr::parse(&p), r);
    }

    #[test]
    fn v4_zero_checksum_accepted() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let r = Repr {
            src_port: 1024,
            dst_port: 53,
            payload: vec![1, 2, 3],
        };
        let mut bytes = r.build(PseudoHeader::V4 { src, dst });
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
        bytes[6..8].copy_from_slice(&[0, 0]);
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
    }

    #[test]
    fn truncation_rejected() {
        assert_eq!(
            Packet::new_checked(&[0u8; 4][..]).unwrap_err(),
            Error::Truncated
        );
        // Declared length larger than buffer.
        let mut b = [0u8; 8];
        b[4..6].copy_from_slice(&20u16.to_be_bytes());
        assert_eq!(Packet::new_checked(&b[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn payload_respects_length_field() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload: b"xy".to_vec(),
        };
        let mut bytes = r.build(PseudoHeader::V4 {
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
        });
        bytes.extend_from_slice(&[9u8; 4]);
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(p.payload(), b"xy");
    }
}
