//! The Internet model: authoritative DNS zones, public resolvers, and the
//! remote cloud endpoints the IoT devices talk to.
//!
//! The Internet sits at the far end of the WAN link. It consumes IPv4
//! packets (native, or 6in4 proto-41 encapsulating IPv6, exactly like the
//! testbed's Hurricane Electric tunnel) and produces IPv4 packets back.
//! Remote servers are deliberately semi-stateless: they answer SYN with
//! SYN/ACK, data with ACK plus a response sized by the domain's traffic
//! profile, and FIN with FIN/ACK — enough TCP for the capture analysis and
//! the port scans without a full stack on the cloud side.

use crate::addrs;
use crate::event::{SimTime, WanPacket};
use crate::faults::{DnsFaultMode, FaultPlan};
use crate::host::FreeList;
use std::collections::{BTreeSet, HashMap};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::{Message, Name, Rcode, Rdata, Record, RecordType};
use v6brick_net::emit;
use v6brick_net::ipv4::Protocol;
use v6brick_net::ipv6::Ipv6AddrExt;
use v6brick_net::tail::{Fill, Tailed};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{dns, icmpv6, ipv4, ipv6, tcp, udp};

/// How a destination domain behaves: which address families it serves, and
/// how chatty its responses are.
#[derive(Debug, Clone)]
pub struct DomainProfile {
    /// Name.
    pub name: Name,
    /// IPv4 presence. Nearly every cloud has one.
    pub a: Option<Ipv4Addr>,
    /// IPv6 presence — the paper's "AAAA readiness" (Table 7).
    pub aaaa: Option<Ipv6Addr>,
    /// Server response bytes per request byte (the cloud's verbosity).
    pub response_scale: u32,
    /// The paper's §7 caveat: "having an IPv6 address does not guarantee
    /// the destination is reachable". When false, the AAAA record exists
    /// but every IPv6 packet toward the server is silently dropped.
    pub reachable_v6: bool,
}

impl DomainProfile {
    /// A dual-stack domain with deterministic addresses derived from the
    /// name.
    pub fn dual_stack(name: Name) -> DomainProfile {
        let (a, aaaa) = derive_addrs(&name);
        DomainProfile {
            name,
            a: Some(a),
            aaaa: Some(aaaa),
            response_scale: 4,
            reachable_v6: true,
        }
    }

    /// An IPv4-only domain (no AAAA record) — the §5.1.3 functionality
    /// killers like `api.amazon.com`.
    pub fn v4_only(name: Name) -> DomainProfile {
        let (a, _) = derive_addrs(&name);
        DomainProfile {
            name,
            a: Some(a),
            aaaa: None,
            response_scale: 4,
            reachable_v6: true,
        }
    }

    /// Mark the AAAA record as published but the server as unreachable
    /// over IPv6 (the paper's §7 reachability caveat).
    pub fn with_v6_unreachable(mut self) -> DomainProfile {
        self.reachable_v6 = false;
        self
    }

    /// Override the response verbosity.
    pub fn with_scale(mut self, scale: u32) -> DomainProfile {
        self.response_scale = scale;
        self
    }
}

/// Deterministic server addresses for a domain: a stable hash of the name
/// mapped into documentation ranges.
pub fn derive_addrs(name: &Name) -> (Ipv4Addr, Ipv6Addr) {
    // FNV-1a, stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_str().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let a = Ipv4Addr::new(198, 18, (h >> 8) as u8, ((h & 0xff) as u8).max(1));
    let aaaa = Ipv6Addr::new(
        0x2001,
        0xdb8,
        0xffff,
        (h >> 48) as u16,
        (h >> 32) as u16,
        (h >> 16) as u16,
        h as u16,
        1,
    );
    (a, aaaa)
}

/// The authoritative zone database the public resolvers answer from.
#[derive(Debug, Clone, Default)]
pub struct ZoneDb {
    domains: HashMap<Name, DomainProfile>,
}

impl ZoneDb {
    /// An empty zone set.
    pub fn new() -> ZoneDb {
        ZoneDb::default()
    }

    /// Register (or replace) a domain.
    pub fn insert(&mut self, profile: DomainProfile) {
        self.domains.insert(profile.name.clone(), profile);
    }

    /// Look up a domain.
    pub fn get(&self, name: &Name) -> Option<&DomainProfile> {
        self.domains.get(name)
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterate all profiles.
    pub fn iter(&self) -> impl Iterator<Item = &DomainProfile> {
        self.domains.values()
    }

    /// Answer a DNS question per RFC-standard semantics: A/AAAA answered
    /// from the profile; a registered name without the requested record
    /// type gets NOERROR + SOA (a negative answer); an unregistered name
    /// gets NXDOMAIN.
    pub fn resolve(&self, query: &Message) -> Message {
        let Some(q) = query.question() else {
            return query.response(Rcode::FormErr);
        };
        match self.domains.get(&q.name) {
            None => {
                let mut resp = query.response(Rcode::NxDomain);
                resp.authorities.push(soa_for(&q.name));
                resp
            }
            Some(profile) => {
                let mut resp = query.response(Rcode::NoError);
                match q.rtype {
                    RecordType::A => {
                        if let Some(a) = profile.a {
                            resp.answers
                                .push(Record::new(q.name.clone(), 300, Rdata::A(a)));
                        }
                    }
                    RecordType::Aaaa => {
                        if let Some(aaaa) = profile.aaaa {
                            resp.answers
                                .push(Record::new(q.name.clone(), 300, Rdata::Aaaa(aaaa)));
                        }
                    }
                    RecordType::Https | RecordType::Svcb
                        // Service binding: advertise the same endpoint.
                        if (profile.a.is_some() || profile.aaaa.is_some()) => {
                            resp.answers.push(Record {
                                name: q.name.clone(),
                                rtype: q.rtype,
                                ttl: 300,
                                rdata: Rdata::Svcb {
                                    priority: 1,
                                    target: Name::root(),
                                },
                            });
                        }
                    _ => {}
                }
                if resp.answers.is_empty() {
                    resp.authorities.push(soa_for(&q.name));
                }
                resp
            }
        }
    }
}

fn soa_for(name: &Name) -> Record {
    Record::new(
        name.second_level(),
        900,
        Rdata::Soa {
            mname: Name::new("ns1.invalid").unwrap(),
            rname: Name::new("hostmaster.invalid").unwrap(),
            serial: 20240405,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 86_400,
        },
    )
}

/// The Internet entity: resolvers + remote servers + the 6in4 far end.
#[derive(Debug)]
pub struct Internet {
    zones: ZoneDb,
    /// Reverse map so a packet's destination identifies its server: one
    /// lookup per packet yields everything the server model reads.
    by_addr: HashMap<IpAddr, Server>,
    /// Fault schedule (zone-level DNS timeout/SERVFAIL windows).
    faults: FaultPlan,
    /// Total bytes served, per (domain, was_ipv6) — observability for tests.
    pub served: HashMap<(Name, bool), u64>,
    /// Address of an attached Internet-side scanner: inner v6 packets
    /// addressed to it are buffered instead of served.
    scanner_addr: Option<Ipv6Addr>,
    /// Buffered inner IPv6 packets destined for the scanner (probe
    /// replies crossing the tunnel outward).
    scanner_rx: Vec<Vec<u8>>,
    /// Every global-unicast source address seen inside the 6in4 tunnel —
    /// the passive vantage a tunnel provider (or tapping scanner) has on
    /// the home's addressing, and the hitlist generator's input.
    observed_v6_sources: BTreeSet<Ipv6Addr>,
}

/// A known server address: the [`Internet::served`] key for traffic to
/// it (domain, reached over IPv6) and the fields of the domain's profile
/// that the server model reads.
#[derive(Debug)]
struct Server {
    key: (Name, bool),
    response_scale: u32,
    reachable_v6: bool,
}

/// A server's answer to one packet, decided before a byte of it is
/// written so the reply can be emitted straight into its final buffer.
#[derive(Debug)]
enum Reply {
    Udp {
        src_port: u16,
        dst_port: u16,
        body: Body,
    },
    /// A segment whose payload (if any) is `fill` bytes of `0x17`.
    Tcp {
        header: tcp::Header,
        fill: usize,
    },
    Icmpv6(icmpv6::Repr),
}

/// A UDP reply payload: built bytes (DNS) or filler.
#[derive(Debug)]
enum Body {
    Bytes(Vec<u8>),
    Fill(u8, usize),
}

impl Reply {
    /// The reply's filler, which its packet carries as a fill tail.
    fn tail(&self) -> Fill {
        match *self {
            Reply::Udp {
                body: Body::Fill(byte, len),
                ..
            } => Fill { byte, len },
            Reply::Tcp { fill, .. } => Fill {
                byte: 0x17,
                len: fill,
            },
            _ => Fill::NONE,
        }
    }

    /// Bytes of the reply's transport header and payload ahead of its
    /// tail (ICMPv6 replies are small and left to ordinary growth).
    fn held_len(&self) -> usize {
        match self {
            Reply::Udp {
                body: Body::Bytes(b),
                ..
            } => udp::HEADER_LEN + b.len(),
            Reply::Udp { .. } => udp::HEADER_LEN,
            Reply::Tcp { .. } => tcp::HEADER_LEN,
            Reply::Icmpv6(_) => 0,
        }
    }

    /// Append the reply as an IP packet from `ips`' source to its
    /// destination (hop limit 64), every held byte written once, and
    /// return its tail ([`Reply::tail`]). Every layer is closed over the
    /// tail, so no filler byte is written or summed here.
    fn emit(self, buf: &mut Vec<u8>, ips: PseudoHeader) -> Fill {
        let tail = self.tail();
        let protocol = match self {
            Reply::Udp { .. } => Protocol::Udp,
            Reply::Tcp { .. } => Protocol::Tcp,
            Reply::Icmpv6(_) => Protocol::Icmpv6,
        };
        let ip = emit::open_ip(buf, ips, protocol, 64);
        let transport = match self {
            Reply::Udp {
                src_port,
                dst_port,
                body,
            } => {
                let u = udp::open(buf, src_port, dst_port, ips);
                if let Body::Bytes(b) = body {
                    buf.extend_from_slice(&b);
                }
                Some(u)
            }
            Reply::Tcp { header, .. } => Some(header.open(buf, ips)),
            Reply::Icmpv6(msg) => {
                let PseudoHeader::V6 { src, dst } = ips else {
                    unreachable!("ICMPv6 replies travel over IPv6");
                };
                msg.emit_into(buf, src, dst);
                None
            }
        };
        for layer in transport.into_iter().chain([ip]) {
            layer.close_over(buf, tail);
        }
        tail
    }
}

impl Internet {
    /// Build from a zone database.
    pub fn new(zones: ZoneDb) -> Internet {
        let mut by_addr = HashMap::new();
        for p in zones.iter() {
            let server = |v6: bool| Server {
                key: (p.name.clone(), v6),
                response_scale: p.response_scale,
                reachable_v6: p.reachable_v6,
            };
            if let Some(a) = p.a {
                by_addr.insert(IpAddr::V4(a), server(false));
            }
            if let Some(aaaa) = p.aaaa {
                by_addr.insert(IpAddr::V6(aaaa), server(true));
            }
        }
        Internet {
            zones,
            by_addr,
            faults: FaultPlan::new(),
            served: HashMap::new(),
            scanner_addr: None,
            scanner_rx: Vec::new(),
            observed_v6_sources: BTreeSet::new(),
        }
    }

    /// Attach an Internet-side scanner at `addr`: tunnel-crossing v6
    /// packets addressed to it are buffered for [`Internet::take_scanner_rx`]
    /// instead of being handled as server traffic.
    pub fn attach_scanner(&mut self, addr: Ipv6Addr) {
        self.scanner_addr = Some(addr);
    }

    /// Drain the buffered probe replies addressed to the scanner.
    pub fn take_scanner_rx(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.scanner_rx)
    }

    /// Global-unicast v6 source addresses observed inside the tunnel so
    /// far, in address order.
    pub fn observed_v6_sources(&self) -> impl Iterator<Item = &Ipv6Addr> {
        self.observed_v6_sources.iter()
    }

    /// Install the fault schedule ([`SimulationBuilder::faults`] calls
    /// this for every layer).
    ///
    /// [`SimulationBuilder::faults`]: crate::engine::SimulationBuilder::faults
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Borrow the zone database (the active-DNS experiment queries it the
    /// way `dig` would, through resolver packets; analysis tooling uses
    /// this only in tests).
    pub fn zones(&self) -> &ZoneDb {
        &self.zones
    }

    /// Handle one IPv4 packet arriving from the router's WAN interface
    /// at virtual time `now`, emitting the reply packet (if any) into a
    /// buffer taken from `free`. A reply to a 6in4 packet is written
    /// inside its tunnel header in the same buffer. A filler payload
    /// stays the reply's fill tail: every length and checksum covers it,
    /// but no byte of it is written or summed here (the router writes it
    /// once, into the LAN frame).
    pub fn serve(&mut self, now: SimTime, packet: &[u8], free: &mut FreeList) -> Option<WanPacket> {
        let p = ipv4::Packet::new_checked(packet).ok()?;
        let repr = ipv4::Repr::parse(&p);
        if repr.protocol == Protocol::Ipv6 && repr.dst == addrs::TUNNEL_REMOTE_IPV4 {
            // 6in4: unwrap and process as IPv6, re-wrapping the reply.
            let inner = ipv6::Packet::new_checked(p.payload()).ok()?;
            let inner_repr = ipv6::Repr::parse(&inner);
            if inner_repr.src.is_global_unicast() {
                self.observed_v6_sources.insert(inner_repr.src);
            }
            if Some(inner_repr.dst) == self.scanner_addr {
                self.scanner_rx.push(p.payload().to_vec());
                return None;
            }
            let reply = self.handle_v6(now, &inner_repr, inner.payload())?;
            let mut head = free.take();
            head.reserve_exact(ipv4::HEADER_LEN + ipv6::HEADER_LEN + reply.held_len());
            let tunnel = ipv4::Repr {
                src: addrs::TUNNEL_REMOTE_IPV4,
                dst: repr.src,
                protocol: Protocol::Ipv6,
                ttl: 64,
                payload_len: 0,
            }
            .open(&mut head);
            let ips = PseudoHeader::V6 {
                src: inner_repr.dst,
                dst: inner_repr.src,
            };
            let fill = reply.emit(&mut head, ips);
            tunnel.close_over(&mut head, fill);
            Some(Tailed { head, fill })
        } else {
            let reply = self.handle_v4(now, &repr, p.payload())?;
            let mut head = free.take();
            head.reserve_exact(ipv4::HEADER_LEN + reply.held_len());
            let ips = PseudoHeader::V4 {
                src: repr.dst,
                dst: repr.src,
            };
            let fill = reply.emit(&mut head, ips);
            Some(Tailed { head, fill })
        }
    }

    fn handle_v4(&mut self, now: SimTime, ip: &ipv4::Repr, payload: &[u8]) -> Option<Reply> {
        let dst = IpAddr::V4(ip.dst);
        let server = self.by_addr.get(&dst);
        match ip.protocol {
            Protocol::Udp => {
                let u = udp::Packet::new_checked(payload).ok()?;
                if is_resolver(dst) && u.dst_port() == 53 {
                    return self.resolve(now, &u);
                }
                Some(udp_service(server?, &mut self.served, &u))
            }
            Protocol::Tcp => {
                let t = tcp::Packet::new_checked(payload).ok()?;
                tcp_service(server?, &mut self.served, &t)
            }
            _ => None,
        }
    }

    fn handle_v6(&mut self, now: SimTime, ip: &ipv6::Repr, payload: &[u8]) -> Option<Reply> {
        let dst = IpAddr::V6(ip.dst);
        let server = self.by_addr.get(&dst);
        // The §7 reachability extension: servers whose AAAA exists but
        // whose IPv6 path is dead swallow everything silently.
        if server.is_some_and(|s| !s.reachable_v6) {
            return None;
        }
        match ip.next_header {
            Protocol::Udp => {
                let u = udp::Packet::new_checked(payload).ok()?;
                if is_resolver(dst) && u.dst_port() == 53 {
                    return self.resolve(now, &u);
                }
                Some(udp_service(server?, &mut self.served, &u))
            }
            Protocol::Icmpv6 => {
                // Echo service on resolvers and known servers (the IoT
                // connectivity probes of §5.4.1's "misc" EUI-64 uses).
                if !is_resolver(dst) && server.is_none() {
                    return None;
                }
                match icmpv6::Repr::parse_bytes(ip.src, ip.dst, payload) {
                    Ok(icmpv6::Repr::EchoRequest {
                        ident,
                        seq,
                        payload,
                    }) => Some(Reply::Icmpv6(icmpv6::Repr::EchoReply {
                        ident,
                        seq,
                        payload,
                    })),
                    _ => None,
                }
            }
            Protocol::Tcp => {
                let t = tcp::Packet::new_checked(payload).ok()?;
                tcp_service(server?, &mut self.served, &t)
            }
            _ => None,
        }
    }

    /// The public resolvers' DNS service for a query datagram.
    fn resolve(&self, now: SimTime, u: &udp::Packet<&[u8]>) -> Option<Reply> {
        let query = dns::Message::parse_bytes(u.payload()).ok()?;
        if query.is_response {
            return None;
        }
        let reply = |body: Vec<u8>| Reply::Udp {
            src_port: 53,
            dst_port: u.src_port(),
            body: Body::Bytes(body),
        };
        // Zone-level resolver faults: the query times out (no reply
        // packet at all) or comes back SERVFAIL.
        if let Some(q) = query.question() {
            match self.faults.dns_fault_for(now, q.name.as_str()) {
                Some(DnsFaultMode::Timeout) => return None,
                Some(DnsFaultMode::Servfail) => {
                    return Some(reply(query.response(Rcode::ServFail).build()));
                }
                None => {}
            }
        }
        Some(reply(self.zones.resolve(&query).build()))
    }
}

/// Is `addr` one of the public resolvers?
fn is_resolver(addr: IpAddr) -> bool {
    match addr {
        IpAddr::V4(a) => a == addrs::DNS4_PRIMARY || a == addrs::DNS4_SECONDARY,
        IpAddr::V6(a) => a == addrs::DNS6_PRIMARY || a == addrs::DNS6_SECONDARY,
    }
}

/// A known server's UDP service for one datagram: NTP on port 123,
/// anything else a scaled echo of filler (accounted in `served`).
fn udp_service(
    server: &Server,
    served: &mut HashMap<(Name, bool), u64>,
    u: &udp::Packet<&[u8]>,
) -> Reply {
    let (dst_port, body) = if u.dst_port() == 123 {
        (123, Body::Fill(0x24, 48))
    } else {
        let len = (u.payload().len() as u32 * server.response_scale).clamp(16, 8192) as usize;
        account(served, &server.key, len);
        (u.dst_port(), Body::Fill(0x5a, len))
    };
    Reply::Udp {
        src_port: dst_port,
        dst_port: u.src_port(),
        body,
    }
}

/// A known server's semi-stateless TCP for one segment.
fn tcp_service(
    server: &Server,
    served: &mut HashMap<(Name, bool), u64>,
    seg: &tcp::Packet<&[u8]>,
) -> Option<Reply> {
    let (flags, data_len) = (seg.flags(), seg.payload().len());
    let mut header = tcp::Header {
        src_port: seg.dst_port(),
        dst_port: seg.src_port(),
        seq: seg.ack(),
        ack: seg.seq(),
        flags: tcp::Flags::ACK,
        window: 0xffff,
    };
    let mut fill = 0;
    if flags.contains(tcp::Flags::SYN) {
        // Accept connections on the standard cloud ports; anything
        // else gets the RST a closed port sends.
        let open = matches!(seg.dst_port(), 443 | 80 | 8883 | 8443 | 123);
        header.ack = seg.seq().wrapping_add(1);
        if open {
            header.seq = 1000;
            header.flags = tcp::Flags::SYN | tcp::Flags::ACK;
        } else {
            header.seq = 0;
            header.flags = tcp::Flags::RST | tcp::Flags::ACK;
            header.window = 0;
        }
    } else if flags.contains(tcp::Flags::FIN) {
        header.ack = seg.seq().wrapping_add(1 + data_len as u32);
        header.flags = tcp::Flags::FIN | tcp::Flags::ACK;
    } else if data_len > 0 {
        // Cap the response segment well inside the IPv6 payload-length
        // field; clients chase volume with multiple request segments.
        fill = (data_len as u32 * server.response_scale).clamp(64, 48 * 1024) as usize;
        account(served, &server.key, fill);
        header.ack = seg.seq().wrapping_add(data_len as u32);
        header.flags = tcp::Flags::PSH | tcp::Flags::ACK;
    } else {
        return None;
    }
    Some(Reply::Tcp { header, fill })
}

/// Add `len` served bytes under `key`, cloning the key only the first
/// time a (domain, family) pair is served.
fn account(served: &mut HashMap<(Name, bool), u64>, key: &(Name, bool), len: usize) {
    match served.get_mut(key) {
        Some(total) => *total += len as u64,
        None => {
            served.insert(key.clone(), len as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    /// Serve one packet at `t = 0` into a fresh buffer, its tail written.
    fn serve(net: &mut Internet, packet: &[u8]) -> Option<Vec<u8>> {
        net.serve(SimTime::ZERO, packet, &mut FreeList::default())
            .map(|reply| reply.view().to_vec())
    }

    fn test_internet() -> Internet {
        let mut z = ZoneDb::new();
        z.insert(DomainProfile::dual_stack(name("cloud.example.com")));
        z.insert(DomainProfile::v4_only(name("api.amazon.com")));
        Internet::new(z)
    }

    #[test]
    fn derive_addrs_is_deterministic_and_distinct() {
        let (a1, s1) = derive_addrs(&name("cloud.example.com"));
        let (a2, s2) = derive_addrs(&name("cloud.example.com"));
        assert_eq!((a1, s1), (a2, s2));
        let (b1, t1) = derive_addrs(&name("other.example.com"));
        assert_ne!(a1, b1);
        assert_ne!(s1, t1);
    }

    #[test]
    fn resolver_answers_a_and_aaaa() {
        let net = test_internet();
        let q = Message::query(1, name("cloud.example.com"), RecordType::Aaaa);
        let resp = net.zones().resolve(&q);
        assert_eq!(resp.aaaa_answers().count(), 1);
        assert!(!resp.is_negative());

        // v4-only domain: AAAA gets NOERROR + SOA (negative).
        let q = Message::query(2, name("api.amazon.com"), RecordType::Aaaa);
        let resp = net.zones().resolve(&q);
        assert!(resp.is_negative());
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(!resp.authorities.is_empty());

        // ... but its A record exists.
        let q = Message::query(3, name("api.amazon.com"), RecordType::A);
        assert_eq!(net.zones().resolve(&q).a_answers().count(), 1);

        // Unknown name: NXDOMAIN.
        let q = Message::query(4, name("nope.invalid"), RecordType::A);
        assert_eq!(net.zones().resolve(&q).rcode, Rcode::NxDomain);
    }

    #[test]
    fn dns_over_v4_udp_end_to_end() {
        let mut net = test_internet();
        let query = Message::query(7, name("cloud.example.com"), RecordType::A).build();
        let udp_bytes = udp::Repr {
            src_port: 40000,
            dst_port: 53,
            payload: query,
        }
        .build(PseudoHeader::V4 {
            src: addrs::ROUTER_WAN_IPV4,
            dst: addrs::DNS4_PRIMARY,
        });
        let packet = ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: addrs::DNS4_PRIMARY,
            protocol: Protocol::Udp,
            ttl: 64,
            payload_len: udp_bytes.len(),
        }
        .build(&udp_bytes);
        let reply = serve(&mut net, &packet).expect("a reply");
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        assert_eq!(rp.src(), addrs::DNS4_PRIMARY);
        let ru = udp::Packet::new_checked(rp.payload()).unwrap();
        let msg = Message::parse_bytes(ru.payload()).unwrap();
        assert!(msg.is_response);
        assert_eq!(msg.a_answers().count(), 1);
    }

    #[test]
    fn dns_fault_windows_timeout_and_servfail() {
        let mut net = test_internet();
        net.set_faults(
            FaultPlan::new()
                .dns_fault(
                    SimTime::from_secs(10),
                    SimTime::from_secs(20),
                    Some("example.com"),
                    DnsFaultMode::Servfail,
                )
                .dns_fault(
                    SimTime::from_secs(30),
                    SimTime::from_secs(40),
                    None,
                    DnsFaultMode::Timeout,
                ),
        );
        let query_packet = || {
            let query = Message::query(7, name("cloud.example.com"), RecordType::Aaaa).build();
            let udp_bytes = udp::Repr {
                src_port: 40000,
                dst_port: 53,
                payload: query,
            }
            .build(PseudoHeader::V4 {
                src: addrs::ROUTER_WAN_IPV4,
                dst: addrs::DNS4_PRIMARY,
            });
            ipv4::Repr {
                src: addrs::ROUTER_WAN_IPV4,
                dst: addrs::DNS4_PRIMARY,
                protocol: Protocol::Udp,
                ttl: 64,
                payload_len: udp_bytes.len(),
            }
            .build(&udp_bytes)
        };
        let answer_at = |net: &mut Internet, t: u64| {
            let reply = net.serve(
                SimTime::from_secs(t),
                &query_packet(),
                &mut FreeList::default(),
            );
            reply.map(|r| {
                let r = r.view().to_vec();
                let rp = ipv4::Packet::new_checked(&r[..]).unwrap();
                let ru = udp::Packet::new_checked(rp.payload()).unwrap();
                Message::parse_bytes(ru.payload()).unwrap().rcode
            })
        };
        // Inside the SERVFAIL window for the matching zone.
        assert_eq!(answer_at(&mut net, 15), Some(Rcode::ServFail));
        // Inside the all-zone timeout window: no reply packet at all.
        assert_eq!(answer_at(&mut net, 35), None);
        // Outside every window: a normal answer.
        assert_eq!(answer_at(&mut net, 50), Some(Rcode::NoError));
    }

    #[test]
    fn tcp_syn_to_cloud_port_gets_synack_via_tunnel() {
        let mut net = test_internet();
        let (_, server6) = derive_addrs(&name("cloud.example.com"));
        let client: Ipv6Addr = "2001:db8:10:1::abcd".parse().unwrap();
        let syn = tcp::Repr::syn(40001, 443, 77).build(PseudoHeader::V6 {
            src: client,
            dst: server6,
        });
        let v6 = ipv6::Repr {
            src: client,
            dst: server6,
            next_header: Protocol::Tcp,
            hop_limit: 64,
            payload_len: syn.len(),
        }
        .build(&syn);
        let encap = ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: addrs::TUNNEL_REMOTE_IPV4,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: v6.len(),
        }
        .build(&v6);
        let reply = serve(&mut net, &encap).expect("a reply");
        let outer = ipv4::Packet::new_checked(&reply[..]).unwrap();
        assert_eq!(outer.protocol(), Protocol::Ipv6);
        let inner = ipv6::Packet::new_checked(outer.payload()).unwrap();
        assert_eq!(inner.src(), server6);
        let seg = tcp::Packet::new_checked(inner.payload()).unwrap();
        assert!(seg.flags().contains(tcp::Flags::SYN));
        assert!(seg.flags().contains(tcp::Flags::ACK));
        assert_eq!(seg.ack(), 78);
    }

    #[test]
    fn tcp_syn_to_closed_port_gets_rst() {
        let mut net = test_internet();
        let (server4, _) = derive_addrs(&name("cloud.example.com"));
        let syn = tcp::Repr::syn(40001, 9999, 5).build(PseudoHeader::V4 {
            src: addrs::ROUTER_WAN_IPV4,
            dst: server4,
        });
        let packet = ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: server4,
            protocol: Protocol::Tcp,
            ttl: 64,
            payload_len: syn.len(),
        }
        .build(&syn);
        let reply = serve(&mut net, &packet).expect("a reply");
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        let seg = tcp::Packet::new_checked(rp.payload()).unwrap();
        assert!(seg.flags().contains(tcp::Flags::RST));
    }

    #[test]
    fn data_gets_scaled_response_and_accounting() {
        let mut net = test_internet();
        let (server4, _) = derive_addrs(&name("cloud.example.com"));
        let data = tcp::Repr {
            src_port: 40001,
            dst_port: 443,
            seq: 100,
            ack: 1001,
            flags: tcp::Flags::PSH | tcp::Flags::ACK,
            window: 0xffff,
            payload: vec![1; 100],
        }
        .build(PseudoHeader::V4 {
            src: addrs::ROUTER_WAN_IPV4,
            dst: server4,
        });
        let packet = ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: server4,
            protocol: Protocol::Tcp,
            ttl: 64,
            payload_len: data.len(),
        }
        .build(&data);
        let reply = serve(&mut net, &packet).expect("a reply");
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        let seg = tcp::Packet::new_checked(rp.payload()).unwrap();
        assert_eq!(seg.payload().len(), 400);
        assert_eq!(
            net.served.get(&(name("cloud.example.com"), false)),
            Some(&400)
        );
    }

    #[test]
    fn packets_to_unknown_hosts_are_dropped() {
        let mut net = test_internet();
        let syn = tcp::Repr::syn(1, 443, 1).build(PseudoHeader::V4 {
            src: addrs::ROUTER_WAN_IPV4,
            dst: Ipv4Addr::new(192, 0, 2, 99),
        });
        let packet = ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: Ipv4Addr::new(192, 0, 2, 99),
            protocol: Protocol::Tcp,
            ttl: 64,
            payload_len: syn.len(),
        }
        .build(&syn);
        assert!(serve(&mut net, &packet).is_none());
    }
}
