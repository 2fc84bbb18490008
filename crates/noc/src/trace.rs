//! Packet-lifecycle tracing: a bounded in-memory recorder of injection,
//! per-hop routing, tampering and ejection events.
//!
//! Tracing is opt-in (`NetworkConfig::with_tracing`) and cheap when off.
//! It exists for two consumers: debugging the simulator itself, and the
//! defense work — an audit log of *where* each power request was routed is
//! exactly what a secure manager would need to reconstruct attack routes
//! after detection.

use std::collections::VecDeque;

use crate::fnv::Digest;
use crate::packet::PacketKind;
use crate::topology::NodeId;

/// One recorded event in a packet's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The packet entered its source node's injection queue.
    Injected {
        /// Simulator-assigned packet id.
        packet: u64,
        /// Packet kind at injection.
        kind: PacketKind,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Cycle of injection.
        cycle: u64,
    },
    /// The packet's header ran routing computation at a router.
    Routed {
        /// Packet id.
        packet: u64,
        /// Router where RC ran.
        node: NodeId,
        /// Cycle of routing computation.
        cycle: u64,
    },
    /// An inspector (Trojan) rewrote the packet at a router.
    Tampered {
        /// Packet id.
        packet: u64,
        /// Router where the rewrite happened.
        node: NodeId,
        /// Payload before the rewrite.
        payload_before: u32,
        /// Payload after the rewrite.
        payload_after: u32,
        /// Cycle of the rewrite.
        cycle: u64,
    },
    /// The packet's tail flit left the network at its destination.
    Ejected {
        /// Packet id.
        packet: u64,
        /// Destination node.
        node: NodeId,
        /// Cycle of ejection.
        cycle: u64,
    },
}

impl TraceEvent {
    /// The packet id this event belongs to.
    #[must_use]
    pub fn packet(&self) -> u64 {
        match self {
            TraceEvent::Injected { packet, .. }
            | TraceEvent::Routed { packet, .. }
            | TraceEvent::Tampered { packet, .. }
            | TraceEvent::Ejected { packet, .. } => *packet,
        }
    }

    /// The cycle the event occurred at.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Injected { cycle, .. }
            | TraceEvent::Routed { cycle, .. }
            | TraceEvent::Tampered { cycle, .. }
            | TraceEvent::Ejected { cycle, .. } => *cycle,
        }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s: the newest `capacity` events
/// are retained, older ones are dropped (with a counter, so consumers can
/// tell the log was clipped).
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer retaining up to `capacity` events (min 16).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: VecDeque::new(),
            capacity: capacity.max(16),
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All retained events for one packet, oldest first — the packet's
    /// reconstructed life: injection, per-hop route, tamperings, ejection.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn packet_history(&self, packet: u64) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.packet() == packet)
            .copied()
            .collect()
    }

    /// The route (routers in visit order) one packet took, from its
    /// retained `Routed` events.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn packet_route(&self, packet: u64) -> Vec<NodeId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Routed {
                    packet: p, node, ..
                } if *p == packet => Some(*node),
                _ => None,
            })
            .collect()
    }

    /// Routers where tampering was recorded, with counts, descending.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn tamper_hotspots(&self) -> Vec<(NodeId, u64)> {
        let mut counts: std::collections::BTreeMap<NodeId, u64> = std::collections::BTreeMap::new();
        for e in &self.events {
            if let TraceEvent::Tampered { node, .. } = e {
                *counts.entry(*node).or_default() += 1;
            }
        }
        let mut v: Vec<(NodeId, u64)> = counts.into_iter().collect();
        v.sort_by_key(|(n, c)| (std::cmp::Reverse(*c), n.0));
        v
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// A platform-stable FNV-1a fingerprint over the retained events (kind,
    /// fields and order) plus the eviction counter. Used by the determinism
    /// tests to certify the trace stream is byte-identical across pipeline
    /// implementations.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(self.dropped).u64(self.events.len() as u64);
        for e in &self.events {
            match *e {
                TraceEvent::Injected {
                    packet,
                    kind,
                    src,
                    dst,
                    cycle,
                } => {
                    d.u64(1)
                        .u64(packet)
                        .u64(u64::from(kind.to_type_word()))
                        .u64(u64::from(src.0))
                        .u64(u64::from(dst.0))
                        .u64(cycle);
                }
                TraceEvent::Routed {
                    packet,
                    node,
                    cycle,
                } => {
                    d.u64(2).u64(packet).u64(u64::from(node.0)).u64(cycle);
                }
                TraceEvent::Tampered {
                    packet,
                    node,
                    payload_before,
                    payload_after,
                    cycle,
                } => {
                    d.u64(3)
                        .u64(packet)
                        .u64(u64::from(node.0))
                        .u64(u64::from(payload_before))
                        .u64(u64::from(payload_after))
                        .u64(cycle);
                }
                TraceEvent::Ejected {
                    packet,
                    node,
                    cycle,
                } => {
                    d.u64(4).u64(packet).u64(u64::from(node.0)).u64(cycle);
                }
            }
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routed(packet: u64, node: u16, cycle: u64) -> TraceEvent {
        TraceEvent::Routed {
            packet,
            node: NodeId(node),
            cycle,
        }
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let mut b = TraceBuffer::new(16);
        for i in 0..20 {
            b.record(routed(i, 0, i));
        }
        assert_eq!(b.len(), 16);
        assert_eq!(b.dropped(), 4);
        // Oldest retained is packet 4.
        assert_eq!(b.events().next().unwrap().packet(), 4);
    }

    #[test]
    fn packet_history_and_route() {
        let mut b = TraceBuffer::new(64);
        b.record(TraceEvent::Injected {
            packet: 7,
            kind: PacketKind::PowerReq,
            src: NodeId(3),
            dst: NodeId(0),
            cycle: 0,
        });
        b.record(routed(7, 3, 0));
        b.record(routed(8, 5, 1)); // unrelated packet interleaved
        b.record(TraceEvent::Tampered {
            packet: 7,
            node: NodeId(2),
            payload_before: 1000,
            payload_after: 0,
            cycle: 3,
        });
        b.record(routed(7, 2, 3));
        b.record(TraceEvent::Ejected {
            packet: 7,
            node: NodeId(0),
            cycle: 9,
        });
        let hist = b.packet_history(7);
        assert_eq!(hist.len(), 5);
        assert!(matches!(hist[0], TraceEvent::Injected { .. }));
        assert!(matches!(hist.last(), Some(TraceEvent::Ejected { .. })));
        assert_eq!(b.packet_route(7), vec![NodeId(3), NodeId(2)]);
    }

    #[test]
    fn tamper_hotspots_sorted_by_count() {
        let mut b = TraceBuffer::new(64);
        for (node, times) in [(5u16, 3), (9, 1), (2, 2)] {
            for i in 0..times {
                b.record(TraceEvent::Tampered {
                    packet: u64::from(node) * 10 + i,
                    node: NodeId(node),
                    payload_before: 1,
                    payload_after: 0,
                    cycle: 0,
                });
            }
        }
        let hot = b.tamper_hotspots();
        assert_eq!(hot, vec![(NodeId(5), 3), (NodeId(2), 2), (NodeId(9), 1)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = TraceBuffer::new(16);
        for i in 0..20 {
            b.record(routed(i, 0, i));
        }
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dropped(), 0);
    }
}
