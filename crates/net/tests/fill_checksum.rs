//! The closed form of a fill's checksum share against the bytes it
//! stands for.
//!
//! [`Checksum::add_fill`] sums `len` bytes of one value without reading
//! them, and [`Open::close_over`] closes layers over such a tail. Both
//! must agree with [`Checksum::add`] over the materialized bytes for
//! every byte value and every length a 16-bit length field allows, and
//! UDP's "a computed zero is sent as 0xffff" rule must survive the
//! closed form.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use v6brick_net::checksum::Checksum;
use v6brick_net::tail::Fill;
use v6brick_net::udp::{self, PseudoHeader};

const MAX_LEN: usize = u16::MAX as usize;

/// Every byte value, every length 0..=65,535, after an even-length head
/// (empty, and a 6-byte one): the closed form finishes to the same
/// checksum as `Checksum::add` over the bytes. The materialized side is
/// fed one word at a time, which `Checksum` allows for even pieces, so
/// every length is reached without re-summing its prefix.
#[test]
fn closed_form_matches_materialized_bytes_for_every_byte_and_length() {
    for head in [&[][..], &[0x12, 0x34, 0xff, 0x00, 0xab, 0xcd][..]] {
        for byte in 0..=u8::MAX {
            let mut materialized = Checksum::new();
            materialized.add(head);
            for len in 0..=MAX_LEN {
                let mut closed = Checksum::new();
                closed.add(head);
                closed.add_fill(byte, len);
                let want = if len % 2 == 1 {
                    // The odd byte: a zero-padded final piece.
                    let mut c = materialized;
                    c.add(&[byte]);
                    c.finish()
                } else {
                    materialized.finish()
                };
                assert_eq!(closed.finish(), want, "byte {byte:#04x}, len {len}");
                if len % 2 == 1 {
                    materialized.add(&[byte, byte]);
                }
            }
        }
    }
}

/// The same agreement with the materialized bytes summed in one call,
/// at the extremes and at random lengths, behind random even-length
/// heads.
#[test]
fn closed_form_matches_one_call_over_the_bytes() {
    let bytes: Vec<u8> = (0..=u8::MAX).collect();
    for &byte in &bytes {
        for len in [0, 1, 2, 3, 4, 5, MAX_LEN - 1, MAX_LEN] {
            let mut closed = Checksum::new();
            closed.add_fill(byte, len);
            let mut c = Checksum::new();
            c.add(&vec![byte; len]);
            assert_eq!(closed.finish(), c.finish(), "byte {byte:#04x}, len {len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tail_behind_an_even_head_matches_the_bytes(
        head in proptest::collection::vec(any::<u8>(), 0..64),
        byte in any::<u8>(),
        len in 0usize..=MAX_LEN,
    ) {
        let head = &head[..head.len() & !1];
        let mut closed = Checksum::new();
        closed.add(head);
        closed.add_fill(byte, len);
        let mut bytes = head.to_vec();
        bytes.resize(head.len() + len, byte);
        let mut c = Checksum::new();
        c.add(&bytes);
        prop_assert_eq!(closed.finish(), c.finish());
    }

    /// A UDP datagram closed over a tail equals the one closed over its
    /// materialized payload, whatever the bytes held ahead of the tail
    /// (an odd count included).
    #[test]
    fn udp_closed_over_a_tail_matches_the_materialized_datagram(
        held in proptest::collection::vec(any::<u8>(), 0..9),
        (src, dst) in (any::<u32>(), any::<u32>()),
        (src_port, dst_port) in (any::<u16>(), any::<u16>()),
        byte in any::<u8>(),
        len in 0usize..2000,
    ) {
        let ph = PseudoHeader::V4 { src: Ipv4Addr::from(src), dst: Ipv4Addr::from(dst) };
        let tail = Fill { byte, len };
        let mut lazy = Vec::new();
        let open = udp::open(&mut lazy, src_port, dst_port, ph);
        lazy.extend_from_slice(&held);
        open.close_over(&mut lazy, tail);
        tail.write(&mut lazy);

        let mut payload = held.clone();
        payload.resize(held.len() + len, byte);
        let want = udp::Repr { src_port, dst_port, payload }.build(ph);
        prop_assert_eq!(lazy, want);
    }
}

/// A datagram whose checksum computes to zero is sent with 0xffff (RFC
/// 768) when its payload is a tail, too: search the source ports for
/// the one that sums to zero, then compare with the materialized build.
#[test]
fn udp_zero_checksum_is_sent_as_ffff_over_a_tail() {
    let (src, dst) = (Ipv4Addr::new(198, 18, 7, 7), Ipv4Addr::new(203, 0, 113, 50));
    let ph = PseudoHeader::V4 { src, dst };
    let tail = Fill {
        byte: 0x5a,
        len: 333,
    };
    let mut found = 0;
    for src_port in 0..=u16::MAX {
        let mut lazy = Vec::new();
        udp::open(&mut lazy, src_port, 123, ph).close_over(&mut lazy, tail);
        // The sum with the checksum field zeroed, computed from the
        // bytes: zero means the field must carry 0xffff.
        let mut bytes = lazy.clone();
        bytes[6..8].fill(0);
        tail.write(&mut bytes);
        let mut c = Checksum::new();
        c.add_ipv4_pseudo(src, dst, 17, bytes.len() as u16);
        c.add(&bytes);
        if c.finish() == 0 {
            assert_eq!(&lazy[6..8], &[0xff, 0xff], "source port {src_port}");
            found += 1;
        }
        tail.write(&mut lazy);
        let want = udp::Repr {
            src_port,
            dst_port: 123,
            payload: vec![tail.byte; tail.len],
        }
        .build(ph);
        assert_eq!(lazy, want, "source port {src_port}");
    }
    assert!(found > 0, "some source port sums to zero");
}
