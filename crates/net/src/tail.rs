//! Packets that end in filler, held as their leading bytes plus a
//! `{byte, len}` tail.
//!
//! A run of one repeated byte need not exist to be checksummed or
//! forwarded: its share of the RFC 1071 sum has a closed form
//! ([`Checksum::add_fill`](crate::checksum::Checksum::add_fill)),
//! emitters close their layers over the buffer plus the tail
//! ([`Open::close_over`](crate::emit::Open::close_over)), and the hop
//! that needs bytes writes the fill once ([`Tailed::write_into`]). A
//! tail of length zero is an ordinary byte packet, so one type carries
//! both.
//!
//! Parsing walks the same view layer by layer. Each protocol's `check`
//! ([`ipv4::check`](crate::ipv4::check), [`ipv6::check`](crate::ipv6::check),
//! [`udp::check`](crate::udp::check), [`tcp::check`](crate::tcp::check))
//! validates a header that lies in the held bytes against the packet's
//! whole length and names its payload range, and [`Tailed::layer`] cuts
//! the view to that range: the bounds `new_checked` and `payload()` give
//! the materialized packet.

use crate::Result;
use std::ops::Range;

/// `len` bytes of `byte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fill {
    /// The repeated byte.
    pub byte: u8,
    /// How many times it repeats.
    pub len: usize,
}

impl Fill {
    /// The empty tail.
    pub const NONE: Fill = Fill { byte: 0, len: 0 };

    /// Append the fill's bytes to `buf`, with no zero-fill in front of
    /// them.
    pub fn write(self, buf: &mut Vec<u8>) {
        buf.resize(buf.len() + self.len, self.byte);
    }
}

/// A packet as its leading bytes, `head` (owned or borrowed), followed
/// by a [`Fill`] tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tailed<T> {
    /// The packet's bytes up to the tail.
    pub head: T,
    /// The rest of the packet.
    pub fill: Fill,
}

impl<T> Tailed<T> {
    /// A packet with no tail: every byte in `head`.
    pub fn bytes(head: T) -> Tailed<T> {
        Tailed {
            head,
            fill: Fill::NONE,
        }
    }
}

impl<T: AsRef<[u8]>> Tailed<T> {
    /// Borrow the packet.
    pub fn view(&self) -> Tailed<&[u8]> {
        Tailed {
            head: self.head.as_ref(),
            fill: self.fill,
        }
    }
}

impl<'a> Tailed<&'a [u8]> {
    /// Length of the packet, tail included.
    pub fn len(&self) -> usize {
        self.head.len() + self.fill.len
    }

    /// Is the packet empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes `range` of the packet, or `None` when the range is
    /// reversed or ends past the packet.
    #[inline]
    pub fn slice(self, range: Range<usize>) -> Option<Tailed<&'a [u8]>> {
        let Range { start, end } = range;
        if start > end || end > self.len() {
            return None;
        }
        let held = self.head.len();
        Some(Tailed {
            head: &self.head[start.min(held)..end.min(held)],
            fill: Fill {
                len: end.saturating_sub(start.max(held)),
                ..self.fill
            },
        })
    }

    /// Split off one layer. `check` is the layer's header check (such as
    /// [`crate::ipv4::check`]): given the held bytes and the packet's
    /// length, it validates the header and returns the payload range.
    /// Yields the header bytes and the payload, or `None` when the check
    /// fails.
    pub fn layer(
        self,
        check: impl FnOnce(&[u8], usize) -> Result<Range<usize>>,
    ) -> Option<(&'a [u8], Tailed<&'a [u8]>)> {
        let range = check(self.head, self.len()).ok()?;
        let header = self.head.get(..range.start)?;
        Some((header, self.slice(range)?))
    }

    /// Append the packet's bytes to `buf`: the head copied, the tail
    /// written.
    pub fn write_into(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.head);
        self.fill.write(buf);
    }

    /// The packet's bytes in a fresh buffer.
    pub fn to_vec(self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        self.write_into(&mut v);
        v
    }
}
