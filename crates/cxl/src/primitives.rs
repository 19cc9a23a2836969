//! Functional peer-to-peer and collective communication primitives.
//!
//! The fabric model in [`crate::fabric`] answers *when* data moves; this
//! module answers *what* moves: it implements the SEND_CXL / RECV_CXL /
//! BCAST_CXL semantics of §4.1 with real payloads, so the device-level
//! functional simulation can pass embedding vectors between devices exactly
//! like the hardware would.
//!
//! Semantics to note from the paper:
//! * `SEND_CXL` is **non-blocking** at the sender;
//! * `RECV_CXL` is **blocking** and names **no device ID** — any arrived
//!   message satisfies it, making gather order-insensitive;
//! * a send/receive pair constitutes one CXL write transaction.

use std::collections::{BTreeMap, VecDeque};

use cent_types::{Beat, ByteSize, CentError, CentResult, DeviceId, SbSlot, Time};

use crate::fabric::{CxlFabric, Transfer};
use crate::flit::NodeId;

/// A message in flight or delivered: a run of Shared Buffer beats.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Destination Shared Buffer slot named by the sender's `SEND_CXL Rd`.
    pub dst_slot: u16,
    /// Payload beats (256-bit each).
    pub beats: Vec<Beat>,
    /// Time the payload is visible in the destination Shared Buffer.
    pub delivered_at: Time,
}

impl Message {
    /// Payload size in bytes.
    pub fn byte_size(&self) -> ByteSize {
        ByteSize::bytes(self.beats.len() as u64 * 32)
    }
}

/// Functional mailbox layer over the timing fabric.
///
/// # Examples
///
/// ```
/// use cent_cxl::{CommunicationEngine, FabricConfig, NodeId};
/// use cent_types::{Bf16, DeviceId, Time, ZERO_BEAT};
///
/// # fn main() -> Result<(), cent_types::CentError> {
/// let mut comm = CommunicationEngine::new(FabricConfig::cent(4));
/// let mut beat = ZERO_BEAT;
/// beat[0] = Bf16::from_f32(1.0);
/// comm.send(DeviceId(0), DeviceId(1), vec![beat], Time::ZERO)?;
/// let msg = comm.recv(DeviceId(1))?; // blocking receive, no sender named
/// assert_eq!(msg.beats[0][0].to_f32(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CommunicationEngine {
    fabric: CxlFabric,
    inboxes: BTreeMap<DeviceId, VecDeque<Message>>,
}

impl CommunicationEngine {
    /// Creates the engine over a fresh fabric.
    pub fn new(config: crate::fabric::FabricConfig) -> Self {
        CommunicationEngine { fabric: CxlFabric::new(config), inboxes: BTreeMap::new() }
    }

    /// Access to the underlying timing fabric (stats, raw transfers).
    pub fn fabric(&self) -> &CxlFabric {
        &self.fabric
    }

    /// `SEND_CXL DVid Rs Rd`: non-blocking send of `beats` to `dst`.
    ///
    /// # Errors
    ///
    /// Propagates fabric validation errors.
    pub fn send(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        beats: Vec<Beat>,
        now: Time,
    ) -> CentResult<Transfer> {
        self.send_to_slot(src, dst, SbSlot(0), beats, now)
    }

    /// `SEND_CXL DVid Rs Rd`: send naming the destination Shared Buffer slot.
    ///
    /// # Errors
    ///
    /// Propagates fabric validation errors.
    pub fn send_to_slot(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        dst_slot: SbSlot,
        beats: Vec<Beat>,
        now: Time,
    ) -> CentResult<Transfer> {
        let bytes = ByteSize::bytes(beats.len() as u64 * 32);
        let t = self.fabric.write(NodeId::Device(src), NodeId::Device(dst), bytes, now)?;
        self.inboxes.entry(dst).or_default().push_back(Message {
            src: NodeId::Device(src),
            dst_slot: dst_slot.0,
            beats,
            delivered_at: t.delivered_at,
        });
        Ok(t)
    }

    /// `RECV_CXL`: blocking receive at `dst`; pops the earliest-delivered
    /// message regardless of sender.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::ProtocolViolation`] if no message is pending — in
    /// hardware the device would stall forever, which is a trace bug.
    pub fn recv(&mut self, dst: DeviceId) -> CentResult<Message> {
        let inbox = self.inboxes.entry(dst).or_default();
        // RECV takes whatever arrives first.
        let min_idx = inbox
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.delivered_at)
            .map(|(i, _)| i)
            .ok_or_else(|| {
                CentError::ProtocolViolation(format!("RECV_CXL on {dst} with empty inbox"))
            })?;
        Ok(inbox.remove(min_idx).expect("index valid"))
    }

    /// Number of undelivered messages at `dst`.
    pub fn pending(&self, dst: DeviceId) -> usize {
        self.inboxes.get(&dst).map_or(0, VecDeque::len)
    }

    /// `BCAST_CXL DVcount Rs Rd`: broadcast `beats` from `src` to the
    /// `targets` (the multicast primitive is the same mechanism with a
    /// sparser device mask).
    ///
    /// # Errors
    ///
    /// Propagates fabric errors (e.g. baseline switch without multicast).
    pub fn broadcast(
        &mut self,
        src: DeviceId,
        targets: &[DeviceId],
        beats: Vec<Beat>,
        now: Time,
    ) -> CentResult<Transfer> {
        self.broadcast_to_slot(src, targets, SbSlot(0), beats, now)
    }

    /// Broadcast naming the destination Shared Buffer slot on every target.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors.
    pub fn broadcast_to_slot(
        &mut self,
        src: DeviceId,
        targets: &[DeviceId],
        dst_slot: SbSlot,
        beats: Vec<Beat>,
        now: Time,
    ) -> CentResult<Transfer> {
        let bytes = ByteSize::bytes(beats.len() as u64 * 32);
        let t = self.fabric.broadcast(NodeId::Device(src), targets, bytes, now)?;
        for &d in targets {
            if d != src {
                self.inboxes.entry(d).or_default().push_back(Message {
                    src: NodeId::Device(src),
                    dst_slot: dst_slot.0,
                    beats: beats.clone(),
                    delivered_at: t.delivered_at,
                });
            }
        }
        Ok(t)
    }

    /// Gather: every device in `srcs` sends its beats to `dst`; returns the
    /// collected messages sorted by delivery time (the arrival order the
    /// receiver's RECV_CXL sequence would observe).
    ///
    /// # Errors
    ///
    /// Propagates fabric errors.
    pub fn gather(
        &mut self,
        dst: DeviceId,
        contributions: &[(DeviceId, Vec<Beat>)],
        now: Time,
    ) -> CentResult<Vec<Message>> {
        for (src, beats) in contributions {
            if *src != dst {
                self.send(*src, dst, beats.clone(), now)?;
            }
        }
        let mut got = Vec::with_capacity(contributions.len());
        for _ in 0..contributions.iter().filter(|(s, _)| *s != dst).count() {
            got.push(self.recv(dst)?);
        }
        got.sort_by_key(|m| m.delivered_at);
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use cent_types::{Bf16, ZERO_BEAT};

    fn beat(v: f32) -> Beat {
        let mut b = ZERO_BEAT;
        b[0] = Bf16::from_f32(v);
        b
    }

    #[test]
    fn send_recv_pair_is_one_write_transaction() {
        let mut comm = CommunicationEngine::new(FabricConfig::cent(4));
        let t = comm.send(DeviceId(0), DeviceId(1), vec![beat(5.0)], Time::ZERO).unwrap();
        assert!(t.completed_at > Time::ZERO);
        let msg = comm.recv(DeviceId(1)).unwrap();
        assert_eq!(msg.beats[0][0].to_f32(), 5.0);
        assert_eq!(msg.src, NodeId::Device(DeviceId(0)));
        assert_eq!(comm.pending(DeviceId(1)), 0);
    }

    #[test]
    fn recv_on_empty_inbox_is_a_trace_bug() {
        let mut comm = CommunicationEngine::new(FabricConfig::cent(4));
        assert!(comm.recv(DeviceId(2)).is_err());
    }

    #[test]
    fn recv_returns_earliest_delivery_first() {
        // Construct an inbox whose push order differs from delivery order;
        // RECV_CXL must surface the earliest-arrived flits first.
        let mut comm = CommunicationEngine::new(FabricConfig::cent(4));
        let inbox = comm.inboxes.entry(DeviceId(3)).or_default();
        inbox.push_back(Message {
            src: NodeId::Device(DeviceId(0)),
            dst_slot: 0,
            beats: vec![beat(1.0)],
            delivered_at: Time::from_us(8),
        });
        inbox.push_back(Message {
            src: NodeId::Device(DeviceId(1)),
            dst_slot: 0,
            beats: vec![beat(2.0)],
            delivered_at: Time::from_ns(500),
        });
        let first = comm.recv(DeviceId(3)).unwrap();
        assert_eq!(first.beats[0][0].to_f32(), 2.0);
        let second = comm.recv(DeviceId(3)).unwrap();
        assert_eq!(second.beats[0][0].to_f32(), 1.0);
    }

    #[test]
    fn broadcast_reaches_all_targets() {
        let mut comm = CommunicationEngine::new(FabricConfig::cent(8));
        let targets: Vec<DeviceId> = (1..8).map(DeviceId).collect();
        comm.broadcast(DeviceId(0), &targets, vec![beat(7.0); 512], Time::ZERO).unwrap();
        for d in &targets {
            let msg = comm.recv(*d).unwrap();
            assert_eq!(msg.beats.len(), 512);
            assert_eq!(msg.beats[0][0].to_f32(), 7.0);
        }
    }

    #[test]
    fn gather_collects_all_contributions() {
        let mut comm = CommunicationEngine::new(FabricConfig::cent(8));
        let contributions: Vec<(DeviceId, Vec<Beat>)> =
            (1..5).map(|i| (DeviceId(i), vec![beat(i as f32)])).collect();
        let msgs = comm.gather(DeviceId(0), &contributions, Time::ZERO).unwrap();
        assert_eq!(msgs.len(), 4);
        let mut values: Vec<f32> = msgs.iter().map(|m| m.beats[0][0].to_f32()).collect();
        values.sort_by(f32::total_cmp);
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn message_byte_size() {
        let m = Message {
            src: NodeId::Host,
            dst_slot: 0,
            beats: vec![ZERO_BEAT; 512],
            delivered_at: Time::ZERO,
        };
        // A 16 KB embedding vector is 512 beats.
        assert_eq!(m.byte_size(), ByteSize::kib(16));
    }
}
