//! The host abstraction: anything with a MAC address on the simulated LAN.

use crate::event::SimTime;
use rand::rngs::StdRng;
use std::any::Any;
use v6brick_net::Mac;

/// Index of a host within the simulation's host table.
pub type HostId = usize;

/// Most idle buffers a simulation keeps for reuse. A burst of bulk
/// frames (a telemetry round, its 48 KiB responses) can hold more than
/// this in flight; the surplus is freed once the burst drains. Each kept
/// buffer stays resident, so the cap trades peak RSS against allocator
/// churn: on the paper suite 64 runs ~10 % faster than 32 for ~5 % more
/// peak RSS, and 16 gives back most of the gain.
pub const FREE_LIST_CAP: usize = 64;

/// Consumed LAN-frame and WAN-packet buffers waiting to be reused.
///
/// The engine gives a buffer back once the frame or packet in it has
/// been delivered, and every emitter takes its buffer from here (through
/// [`Effects`]), so in steady state a simulation moves bulk payloads
/// without allocating: bulk emitters reserve exactly what they write, so
/// a buffer grows only to the largest frame it carries, and the
/// allocator is not asked to grow, shrink or trim its heap per frame.
/// Filled lazily, bounded by [`FREE_LIST_CAP`].
#[derive(Debug, Default)]
pub struct FreeList {
    bufs: Vec<Vec<u8>>,
}

impl FreeList {
    /// An empty buffer: a recycled one if any is idle.
    pub fn take(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Return a consumed buffer for reuse (dropped once the list is full).
    pub fn give(&mut self, mut buf: Vec<u8>) {
        if self.bufs.len() < FREE_LIST_CAP {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

/// The side effects a host may produce while handling an event. The engine
/// drains these after each callback, which keeps host code free of engine
/// borrows.
pub struct Effects<'a> {
    /// Frames to transmit on the LAN (fully formed Ethernet bytes).
    pub frames: Vec<Vec<u8>>,
    /// Timers to arm: (delay from now, opaque token passed back).
    pub timers: Vec<(SimTime, u64)>,
    /// IPv4 packets to transmit on the WAN toward the Internet. Only the
    /// router produces these.
    pub wan: Vec<Vec<u8>>,
    /// Deterministic per-simulation randomness.
    pub rng: &'a mut StdRng,
    /// The simulation's recycled buffers, lent for this callback: frames
    /// and packets are emitted into buffers taken from here.
    pub free: FreeList,
}

impl<'a> Effects<'a> {
    /// Create an effects sink backed by the simulation RNG, with no
    /// recycled buffers (every emitted frame gets a fresh one).
    pub fn new(rng: &'a mut StdRng) -> Effects<'a> {
        Effects::with_free_list(rng, FreeList::default())
    }

    /// Create an effects sink that emits into buffers from `free`.
    pub fn with_free_list(rng: &'a mut StdRng, free: FreeList) -> Effects<'a> {
        Effects {
            frames: Vec::new(),
            timers: Vec::new(),
            wan: Vec::new(),
            rng,
            free,
        }
    }

    /// Queue a frame for transmission.
    pub fn send_frame(&mut self, frame: Vec<u8>) {
        self.frames.push(frame);
    }

    /// Emit a frame in place and queue it: `emit` appends the whole frame
    /// to a recycled buffer.
    pub fn emit_frame(&mut self, emit: impl FnOnce(&mut Vec<u8>)) {
        let mut buf = self.free.take();
        emit(&mut buf);
        self.frames.push(buf);
    }

    /// Arm a timer `delay` from now; `token` is returned to
    /// [`Host::on_timer`].
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay, token));
    }

    /// Queue an IPv4 packet for the WAN link (router only).
    pub fn send_wan(&mut self, packet: Vec<u8>) {
        self.wan.push(packet);
    }

    /// Emit a WAN packet in place and queue it, like
    /// [`Effects::emit_frame`] (router only).
    pub fn emit_wan(&mut self, emit: impl FnOnce(&mut Vec<u8>)) {
        let mut buf = self.free.take();
        emit(&mut buf);
        self.wan.push(buf);
    }
}

/// A participant on the LAN. Implemented by the IoT device models, the
/// verification phones, and the port-scanner host; the router has its own
/// slot in the engine.
///
/// `Send` is a supertrait so whole simulations (and their boxed hosts)
/// can move between worker threads: the fleet campaign runner builds
/// and runs one `Simulation` per home on a thread pool.
pub trait Host: Any + Send {
    /// This host's MAC address (its identity for capture attribution).
    fn mac(&self) -> Mac;

    /// Called once when the simulation starts (the "power on" moment).
    fn on_start(&mut self, now: SimTime, fx: &mut Effects);

    /// Called for every LAN frame this host would see: unicast to its MAC,
    /// broadcast, or any multicast. Hosts do their own multicast filtering.
    fn on_frame(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects);

    /// Called when a timer armed via [`Effects::set_timer`] fires.
    fn on_timer(&mut self, now: SimTime, token: u64, fx: &mut Effects);

    /// Downcasting support, so experiment code can query concrete device
    /// state after a run.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Should a host with `mac` see a frame addressed to `dst`?
pub fn frame_addressed_to(dst: Mac, mac: Mac) -> bool {
    dst == mac || dst.is_multicast()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_rules() {
        let me = Mac::new(2, 0, 0, 0, 0, 5);
        assert!(frame_addressed_to(me, me));
        assert!(frame_addressed_to(Mac::BROADCAST, me));
        assert!(frame_addressed_to(Mac::new(0x33, 0x33, 0, 0, 0, 1), me));
        assert!(!frame_addressed_to(Mac::new(2, 0, 0, 0, 0, 6), me));
    }
}
