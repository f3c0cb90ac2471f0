//! Classic pcap file format (the `tcpdump` on-disk format).
//!
//! Written files use the little-endian, microsecond-resolution magic
//! `0xa1b2c3d4` with linktype 1 (Ethernet), which any tcpdump or wireshark
//! can open. Reading accepts both endiannesses and the nanosecond-magic
//! variant `0xa1b23c4d`.

use crate::Capture;
use std::io::{self, Read, Write};

pub(crate) const MAGIC_USEC: u32 = 0xa1b2_c3d4;
pub(crate) const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
pub(crate) const LINKTYPE_ETHERNET: u32 = 1;
/// tcpdump's default snap length.
const SNAPLEN: u32 = 262_144;
/// Upper bound on a single record's captured length accepted on read —
/// far above any real snap length, low enough that a corrupt length
/// field cannot make a streaming reader buffer unbounded input.
pub(crate) const MAX_RECORD_BYTES: usize = 1 << 22;

/// Errors arising from pcap (de)serialization.
#[derive(Debug)]
pub enum PcapError {
    /// Io.
    Io(io::Error),
    /// Not a pcap file (unknown magic).
    BadMagic(u32),
    /// Linktype other than Ethernet.
    UnsupportedLinkType(u32),
    /// Structurally corrupt input: a record or block whose framing is
    /// internally inconsistent (misaligned lengths, overflowing payload
    /// bounds, mismatched trailing length).
    TruncatedRecord,
    /// The stream ended mid-record (or mid-block): everything before
    /// `offset` parsed cleanly, `pending` tail bytes do not form a
    /// complete record. Distinct from [`PcapError::TruncatedRecord`] so
    /// network-facing callers can tell a cut-short upload (retryable,
    /// prefix usable) from corruption.
    PartialTail {
        /// Byte offset of the last cleanly parsed record boundary.
        offset: u64,
        /// Unconsumed bytes after that boundary.
        pending: usize,
    },
    /// A record declares a captured length beyond any plausible snap
    /// length — refused before buffering it.
    OversizedRecord(usize),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "io error: {e}"),
            PcapError::BadMagic(m) => write!(f, "unknown pcap magic 0x{m:08x}"),
            PcapError::UnsupportedLinkType(l) => write!(f, "unsupported linktype {l}"),
            PcapError::TruncatedRecord => write!(f, "truncated pcap record"),
            PcapError::PartialTail { offset, pending } => write!(
                f,
                "stream ends mid-record: {pending} pending bytes after clean offset {offset}"
            ),
            PcapError::OversizedRecord(n) => {
                write!(f, "record declares {n} captured bytes (over the snap cap)")
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> PcapError {
        PcapError::Io(e)
    }
}

/// Serialize a capture as a classic pcap stream.
pub fn write_pcap<W: Write>(capture: &Capture, mut w: W) -> Result<(), PcapError> {
    // Global header.
    w.write_all(&MAGIC_USEC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&SNAPLEN.to_le_bytes())?;
    w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
    for p in capture.iter() {
        let sec = (p.timestamp_us / 1_000_000) as u32;
        let usec = (p.timestamp_us % 1_000_000) as u32;
        let len = p.data.len() as u32;
        w.write_all(&sec.to_le_bytes())?;
        w.write_all(&usec.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?; // incl_len
        w.write_all(&len.to_le_bytes())?; // orig_len
        w.write_all(&p.data)?;
    }
    Ok(())
}

/// Serialize to an in-memory byte vector.
pub fn to_bytes(capture: &Capture) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + capture.len() * 80);
    write_pcap(capture, &mut out).expect("in-memory write cannot fail");
    out
}

/// Deserialize a classic pcap stream.
pub fn read_pcap<R: Read>(mut r: R) -> Result<Capture, PcapError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

/// Deserialize from an in-memory byte slice: the
/// [`StreamDecoder`](crate::stream::StreamDecoder) over the whole
/// buffer, frames stable-sorted by timestamp. A pcapng stream is refused
/// with [`PcapError::BadMagic`]; read it with [`crate::pcapng::from_bytes`].
pub fn from_bytes(buf: &[u8]) -> Result<Capture, PcapError> {
    if let Some(magic) = crate::stream::leading_magic(buf) {
        if magic == crate::pcapng::BLOCK_SHB {
            return Err(PcapError::BadMagic(magic));
        }
    }
    crate::stream::decode_sorted(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capture() -> Capture {
        let mut c = Capture::new();
        c.push(1_500_000, &[0xAAu8; 20]);
        c.push(2_000_001, &[0xBBu8; 60]);
        c
    }

    #[test]
    fn roundtrip() {
        let c = sample_capture();
        let bytes = to_bytes(&c);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn header_is_tcpdump_compatible() {
        let bytes = to_bytes(&sample_capture());
        assert_eq!(&bytes[0..4], &MAGIC_USEC.to_le_bytes());
        assert_eq!(u32::from_le_bytes(bytes[20..24].try_into().unwrap()), 1);
        // First record: ts 1.5s, 20 bytes.
        assert_eq!(u32::from_le_bytes(bytes[24..28].try_into().unwrap()), 1);
        assert_eq!(
            u32::from_le_bytes(bytes[28..32].try_into().unwrap()),
            500_000
        );
        assert_eq!(u32::from_le_bytes(bytes[32..36].try_into().unwrap()), 20);
    }

    #[test]
    fn reads_big_endian() {
        // Hand-build a big-endian file with one 4-byte record.
        let mut b = Vec::new();
        b.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        b.extend_from_slice(&2u16.to_be_bytes());
        b.extend_from_slice(&4u16.to_be_bytes());
        b.extend_from_slice(&[0; 8]);
        b.extend_from_slice(&0u32.to_be_bytes());
        b.extend_from_slice(&1u32.to_be_bytes()); // linktype
        b.extend_from_slice(&3u32.to_be_bytes()); // sec
        b.extend_from_slice(&7u32.to_be_bytes()); // usec
        b.extend_from_slice(&4u32.to_be_bytes()); // incl
        b.extend_from_slice(&4u32.to_be_bytes()); // orig
        b.extend_from_slice(&[1, 2, 3, 4]);
        let c = from_bytes(&b).unwrap();
        assert_eq!(c.len(), 1);
        let p = c.iter().next().unwrap();
        assert_eq!(p.timestamp_us, 3_000_007);
        assert_eq!(&p.data[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn reads_nanosecond_magic() {
        let mut b = Vec::new();
        b.extend_from_slice(&MAGIC_NSEC.to_le_bytes());
        b.extend_from_slice(&2u16.to_le_bytes());
        b.extend_from_slice(&4u16.to_le_bytes());
        b.extend_from_slice(&[0; 8]);
        b.extend_from_slice(&0u32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes()); // sec
        b.extend_from_slice(&500_000_000u32.to_le_bytes()); // nsec
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        b.push(0xCC);
        let c = from_bytes(&b).unwrap();
        assert_eq!(c.iter().next().unwrap().timestamp_us, 1_500_000);
    }

    #[test]
    fn rejects_bad_magic_and_linktype() {
        assert!(matches!(
            from_bytes(&[0u8; 24]),
            Err(PcapError::BadMagic(_))
        ));
        let mut bytes = to_bytes(&Capture::new());
        bytes[20] = 101; // LINKTYPE_RAW
        assert!(matches!(
            from_bytes(&bytes),
            Err(PcapError::UnsupportedLinkType(101))
        ));
    }

    #[test]
    fn truncated_record_reports_typed_partial_tail() {
        let bytes = to_bytes(&sample_capture());
        // Cut mid-payload of the second record: the first record (24..60)
        // parsed cleanly, the tail is pending.
        let cut = &bytes[..bytes.len() - 3];
        match from_bytes(cut) {
            Err(PcapError::PartialTail { offset, pending }) => {
                assert_eq!(offset, 60);
                assert_eq!(pending, cut.len() - 60);
            }
            other => panic!("expected PartialTail, got {other:?}"),
        }
        // Cut mid-record-header: same typed error.
        assert!(matches!(
            from_bytes(&bytes[..24 + 7]),
            Err(PcapError::PartialTail { offset: 24, .. })
        ));
    }

    #[test]
    fn oversized_record_length_rejected() {
        let mut bytes = to_bytes(&sample_capture());
        // Corrupt the first record's incl_len to an absurd value.
        bytes[32..36].copy_from_slice(&(u32::MAX / 2).to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(PcapError::OversizedRecord(_))
        ));
    }
}
