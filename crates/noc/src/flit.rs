use crate::packet::Packet;
use crate::topology::NodeId;

/// Flits per data packet (Table I: "Data packet size 5 flits").
pub(crate) const FLITS_PER_DATA_PACKET: usize = 5;

/// Flits per meta packet (Table I: "Meta packet size 1 flit").
pub const FLITS_PER_META_PACKET: usize = 1;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries the routing header.
    Head,
    /// Interior flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet; releases the wormhole path.
    Tail,
    /// Single-flit packet: head and tail at once (meta packets).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit carries the packet header (and is therefore the
    /// flit the Trojan's comparators scan).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit terminates the packet.
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// Kind of the `i`-th of a packet's `n` flits: `i == 0` carries the
    /// header, `i == n - 1` terminates the wormhole, `n == 1` is the
    /// combined `HeadTail` flit of a meta packet.
    #[must_use]
    pub(crate) fn nth(i: usize, n: usize) -> FlitKind {
        if n == 1 {
            FlitKind::HeadTail
        } else if i == 0 {
            FlitKind::Head
        } else if i == n - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        }
    }
}

/// A flow-control unit on the wire, carrying everything about its packet
/// inline.
///
/// This is the *reference* representation: `htpb-testkit`'s dense
/// `ReferenceNet` buffers these, and [`Flit::packetize`] documents how a
/// packet is cut into flits (Table I). Head flits carry the full decoded
/// [`Packet`] so that routing computation (and the Trojan sitting in front
/// of it, Fig. 2b) can inspect source, destination, type and payload
/// without reassembling the frame. Inside [`crate::Network`] a flit is only
/// an 8-byte handle into the [`crate::PacketStore`]; the frame, id and
/// injection cycle live there once per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Position within the packet.
    pub kind: FlitKind,
    /// Unique id of the packet this flit belongs to (simulator-assigned).
    pub packet_id: u64,
    /// Destination node, replicated in every flit for assertions.
    pub dst: NodeId,
    /// The full packet frame; present in head flits only.
    pub packet: Option<Packet>,
    /// Cycle at which the packet was injected (head flit only, for latency
    /// accounting).
    pub injected_at: u64,
}

impl Flit {
    /// Splits a packet into its wire flits.
    ///
    /// Meta packets (power requests/grants, config commands, coherence
    /// messages) become a single `HeadTail` flit; data packets become a
    /// `Head`, three `Body` and one `Tail` flit (Table I).
    #[must_use]
    pub fn packetize(packet: Packet, packet_id: u64, now: u64) -> Vec<Flit> {
        let n = packet.flit_count();
        (0..n)
            .map(|i| {
                let kind = FlitKind::nth(i, n);
                Flit {
                    kind,
                    packet_id,
                    dst: packet.dst(),
                    packet: kind.is_head().then_some(packet),
                    injected_at: now,
                }
            })
            .collect()
    }
}

/// What a flit is inside [`crate::Network`]: the packet's
/// [`crate::PacketStore`] slot plus its position in the packet. Eight bytes
/// per buffered or in-flight flit; everything else about the packet (frame,
/// id, injection cycle, hops, tamper flag) is read through the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlitHandle {
    pub slot: u32,
    pub kind: FlitKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn meta_packet_is_one_headtail_flit() {
        let p = Packet::power_request(NodeId(1), NodeId(2), 7);
        let flits = Flit::packetize(p, 9, 100);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
        assert_eq!(flits[0].packet, Some(p));
        assert_eq!(flits[0].injected_at, 100);
    }

    #[test]
    fn data_packet_is_five_flits() {
        let p = Packet::new(NodeId(1), NodeId(2), PacketKind::Data, 0);
        let flits = Flit::packetize(p, 1, 0);
        assert_eq!(flits.len(), FLITS_PER_DATA_PACKET);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[4].kind, FlitKind::Tail);
        assert!(flits[0].packet.is_some());
        assert!(flits[1..].iter().all(|f| f.packet.is_none()));
    }

    #[test]
    fn all_flits_share_packet_id_and_dst() {
        let p = Packet::new(NodeId(3), NodeId(9), PacketKind::Data, 0);
        let flits = Flit::packetize(p, 77, 0);
        assert!(flits.iter().all(|f| f.packet_id == 77));
        assert!(flits.iter().all(|f| f.dst == NodeId(9)));
    }

    #[test]
    fn handle_is_eight_bytes() {
        assert!(std::mem::size_of::<FlitHandle>() <= 8);
    }
}
