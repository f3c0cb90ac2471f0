//! RFC 1071 Internet checksum, including the IPv4 and IPv6 pseudo-headers
//! used by UDP, TCP, ICMPv4, and ICMPv6.

use std::net::{Ipv4Addr, Ipv6Addr};

/// Ones-complement sum accumulator.
///
/// Data can be fed in pieces (pseudo-header, then header, then payload);
/// each piece must be an even number of bytes except the last.
///
/// The sum is kept in a `u64`, so it cannot overflow on any buffer that
/// fits in memory. Slices are summed 32 bits at a time in native byte
/// order (RFC 1071 §2: the one's-complement sum is independent of word
/// size and, up to a final byte swap, of byte order, because
/// 2^16 ≡ 1 and a byte rotation is multiplication by 2^8 mod 0xffff).
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u64,
}

impl Checksum {
    /// Fresh accumulator.
    pub fn new() -> Checksum {
        Checksum { sum: 0 }
    }

    /// Fold a byte slice into the sum. Odd-length slices are zero-padded,
    /// so only the final piece may be odd.
    pub fn add(&mut self, data: &[u8]) {
        let mut words = data.chunks_exact(4);
        let mut native: u64 = 0;
        for w in &mut words {
            native += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
        }
        // Fold the native-order partial sum to 16 bits and bring it to
        // network order (a swap on little-endian hosts).
        self.sum += u64::from(u16::from_be(fold(native)));
        let mut tail = words.remainder().chunks_exact(2);
        for c in &mut tail {
            self.sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = tail.remainder() {
            self.sum += u64::from(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Fold `len` bytes of `byte` into the sum without reading them: the
    /// closed form of [`Checksum::add`] over `vec![byte; len]`. Every
    /// word is `byte` twice, so the sum is `len / 2` such words plus a
    /// zero-padded `byte` when `len` is odd. Like a slice, the fill must
    /// start at an even offset of the checksummed data; and like one, it
    /// cannot overflow the sum at any length a packet can have.
    pub fn add_fill(&mut self, byte: u8, len: usize) {
        self.sum += (len / 2) as u64 * u64::from(u16::from_be_bytes([byte, byte]));
        if len % 2 == 1 {
            self.sum += u64::from(u16::from_be_bytes([byte, 0]));
        }
    }

    /// Fold a single big-endian 16-bit word into the sum.
    pub fn add_u16(&mut self, v: u16) {
        self.sum += u64::from(v);
    }

    /// Fold a 32-bit value (as two words).
    pub fn add_u32(&mut self, v: u32) {
        self.add_u16((v >> 16) as u16);
        self.add_u16(v as u16);
    }

    /// Add the IPv4 pseudo-header (RFC 768 / RFC 793).
    pub fn add_ipv4_pseudo(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        self.add(&src.octets());
        self.add(&dst.octets());
        self.add_u16(u16::from(proto));
        self.add_u16(len);
    }

    /// Add the IPv6 pseudo-header (RFC 8200 §8.1).
    pub fn add_ipv6_pseudo(&mut self, src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, len: u32) {
        self.add(&src.octets());
        self.add(&dst.octets());
        self.add_u32(len);
        self.add_u16(u16::from(next_header));
    }

    /// Finish: fold carries and complement.
    pub fn finish(self) -> u16 {
        !fold(self.sum)
    }
}

/// Fold a sum of 16-bit words to 16 bits with end-around carries (zero
/// stays zero; any other sum lands in `1..=0xffff`).
fn fold(mut s: u64) -> u16 {
    while s > 0xffff {
        s = (s & 0xffff) + (s >> 16);
    }
    s as u16
}

/// One-shot checksum of a contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already populated: the total sum
/// must fold to zero (stored as `!0 == 0xffff` complement identity).
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn verify_accepts_self_checksummed_buffer() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn pseudo_header_changes_sum() {
        let mut a = Checksum::new();
        a.add(b"hi");
        let mut b = Checksum::new();
        b.add_ipv6_pseudo(
            "fe80::1".parse().unwrap(),
            "ff02::1".parse().unwrap(),
            17,
            2,
        );
        b.add(b"hi");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn large_all_ones_buffer_matches_reference_fold() {
        // 256 KiB of 0xff: twice the 131,074 bytes past which a 32-bit
        // accumulator of 16-bit words overflows.
        let data = vec![0xffu8; 256 * 1024];
        let mut reference: u128 = 0;
        for c in data.chunks(2) {
            reference += u128::from(u16::from_be_bytes([c[0], c[1]]));
        }
        while reference > 0xffff {
            reference = (reference & 0xffff) + (reference >> 16);
        }
        assert_eq!(checksum(&data), !(reference as u16));
        // Fed in even-length pieces, the sum is the same.
        let mut c = Checksum::new();
        for piece in data.chunks(6) {
            c.add(piece);
        }
        assert_eq!(c.finish(), !(reference as u16));
    }

    #[test]
    fn empty_buffer_checksums_to_ffff() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
