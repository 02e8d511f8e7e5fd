//! The load generator's device side: one in-memory `ChannelTransport`
//! pair per device, multiplexed on the generator thread.
//!
//! A [`Conn`] is the same shape as `fl_server::live::DeviceConn` — the
//! client end the device writes to, and the gateway end whose frames are
//! routed into the Selector or Coordinator mailbox by their tag — except
//! that it sends pre-built frames and receives without blocking, so one
//! thread can drive thousands of devices. Replies are only classified by
//! [`fl_wire::peek_tag`]; decoding is left to the caller, which decodes
//! only what a device needs to answer.

use fl_actors::ActorRef;
use fl_server::live::{CoordMsg, SelectorMsg};
use fl_wire::{tag, ChannelTransport, Transport, WireError};
use std::time::Duration;

/// One device's connection into the live tree.
#[derive(Debug)]
pub struct Conn {
    client: ChannelTransport,
    gateway: ChannelTransport,
    selector: ActorRef<SelectorMsg>,
    coordinator: ActorRef<CoordMsg>,
}

impl Conn {
    /// Opens a connection whose check-ins go to `selector` and whose
    /// reports go to `coordinator`.
    pub fn new(selector: ActorRef<SelectorMsg>, coordinator: ActorRef<CoordMsg>) -> Self {
        let (client, gateway) = ChannelTransport::pair();
        Conn {
            client,
            gateway,
            selector,
            coordinator,
        }
    }

    /// Sends one encoded frame and routes it to the owning actor, as the
    /// gateway of the TCP front door would.
    pub fn send(&self, frame: &[u8]) -> Result<(), WireError> {
        self.client.send_frame_bytes(frame)?;
        while let Some(frame) = self.gateway.try_recv_frame()? {
            let delivered = match fl_wire::peek_tag(&frame) {
                Ok(tag::UPDATE_REPORT | tag::SECAGG_REPORT) => self
                    .coordinator
                    .send(CoordMsg::Report {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
                _ => self
                    .selector
                    .send(SelectorMsg::Checkin {
                        frame,
                        conn: self.gateway.sink(),
                    })
                    .is_ok(),
            };
            if !delivered {
                return Err(WireError::Closed);
            }
        }
        Ok(())
    }

    /// The next reply frame, if one is waiting.
    pub fn try_recv(&self) -> Result<Option<Vec<u8>>, WireError> {
        self.client.try_recv_frame()
    }

    /// The next reply frame, waiting up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Result<Vec<u8>, WireError> {
        self.client.recv_frame_timeout(timeout)
    }

    /// Device-end traffic: (frames, bytes) sent plus received.
    pub fn traffic(&self) -> (u64, u64) {
        let s = self.client.stats();
        (
            s.frames_sent + s.frames_received,
            s.bytes_sent + s.bytes_received,
        )
    }
}

/// The tag of a reply frame; `u8::MAX` for an unframeable one.
pub fn reply_tag(frame: &[u8]) -> u8 {
    fl_wire::peek_tag(frame).unwrap_or(u8::MAX)
}

/// Busy-time bookkeeping for the generator thread: how long it worked
/// versus waited, and how late it ran against its schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenClock {
    /// Time spent building, sending and classifying frames (s).
    pub busy_s: f64,
    /// Wall time the generator ran (s).
    pub wall_s: f64,
    /// Worst lateness of a scheduled send (ms).
    pub lateness_max_ms: f64,
}

impl GenClock {
    /// Share of the wall time the generator was busy.
    pub fn busy_frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s / self.wall_s
        } else {
            0.0
        }
    }
}
