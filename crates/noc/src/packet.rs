use std::fmt;

use crate::topology::NodeId;

/// Wire value of the `POWER_REQ` packet type (Fig. 1a).
const TYPE_POWER_REQ: u8 = 0x01;
/// Wire value of the `CONFIG_CMD` packet type (Fig. 1b).
const TYPE_CONFIG_CMD: u8 = 0x02;
/// Wire value of a power-grant reply from the global manager.
const TYPE_POWER_GRANT: u8 = 0x03;
/// Wire value of a generic 5-flit data packet (memory transaction payload).
const TYPE_DATA: u8 = 0x04;
/// Wire value of a 1-flit meta packet (coherence / control message).
const TYPE_META: u8 = 0x05;

/// The Trojan activation signal carried in the `CONFIG_CMD` type word
/// (Fig. 1b).
///
/// The paper's attack process (Section III-B) lets the attacker alternate
/// `ON`/`OFF` signals over time to duty-cycle the Trojans; the signal is an
/// 8-bit field on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationSignal {
    /// Deactivate the Trojan: packets are forwarded unmodified.
    Off,
    /// Activate the Trojan: matching power requests are tampered with.
    On,
}

impl ActivationSignal {
    /// Wire encoding of the signal.
    #[must_use]
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            ActivationSignal::Off => 0,
            ActivationSignal::On => 1,
        }
    }
}

/// The contents of a Trojan configuration command (Fig. 1b).
///
/// The 32-bit packet-type word of a `CONFIG_CMD` packet packs the command
/// opcode (8 bits), the global manager's node id (16 bits) and the
/// activation signal (8 bits). The source-address field of the header carries
/// the attacker's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigCommand {
    /// Node id of the global power manager the Trojan should match on.
    pub manager: NodeId,
    /// Whether the Trojan should be armed.
    pub activation: ActivationSignal,
}

/// Typed packet kinds understood by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A power-budget request travelling to the global manager; the payload
    /// is the requested power in milliwatts (Fig. 1a).
    PowerReq,
    /// A Trojan configuration command broadcast by the attacker (Fig. 1b).
    ConfigCmd(ConfigCommand),
    /// A power-budget grant sent back by the global manager; the payload is
    /// the granted power in milliwatts.
    PowerGrant,
    /// A 5-flit data packet (cache-line transfer; Table I "data packet").
    Data,
    /// A 1-flit meta packet (coherence request/ack; Table I "meta packet").
    Meta,
}

impl PacketKind {
    /// Encodes the 32-bit packet-type word.
    #[must_use]
    pub fn to_type_word(self) -> u32 {
        match self {
            PacketKind::PowerReq => (TYPE_POWER_REQ as u32) << 24,
            PacketKind::ConfigCmd(cmd) => {
                ((TYPE_CONFIG_CMD as u32) << 24)
                    | ((cmd.manager.0 as u32) << 8)
                    | cmd.activation.to_wire() as u32
            }
            PacketKind::PowerGrant => (TYPE_POWER_GRANT as u32) << 24,
            PacketKind::Data => (TYPE_DATA as u32) << 24,
            PacketKind::Meta => (TYPE_META as u32) << 24,
        }
    }

    /// Whether packets of this kind occupy a single flit ("meta packet" in
    /// Table I) rather than the full 5-flit data frame.
    #[must_use]
    pub(crate) fn is_single_flit(self) -> bool {
        !matches!(self, PacketKind::Data)
    }
}

/// A network packet, following the frame layout of Fig. 1.
///
/// All fields fit in four 32-bit words (plus the optional word), so packets
/// are `Copy` and head flits carry the whole frame for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    src: NodeId,
    dst: NodeId,
    kind: PacketKind,
    payload: u32,
    options: Option<u32>,
}

impl Packet {
    /// Creates a packet with an explicit kind and payload.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId, kind: PacketKind, payload: u32) -> Self {
        Packet {
            src,
            dst,
            kind,
            payload,
            options: None,
        }
    }

    /// Creates a `POWER_REQ` packet carrying `milliwatts` (Fig. 1a).
    #[must_use]
    pub fn power_request(src: NodeId, manager: NodeId, milliwatts: u32) -> Self {
        Packet::new(src, manager, PacketKind::PowerReq, milliwatts)
    }

    /// Creates a `CONFIG_CMD` packet from the attacker to `dst` (Fig. 1b).
    ///
    /// The payload word is `#EMPTY#` (zero) per the figure.
    #[must_use]
    pub fn config_command(
        attacker: NodeId,
        dst: NodeId,
        manager: NodeId,
        activation: ActivationSignal,
    ) -> Self {
        Packet::new(
            attacker,
            dst,
            PacketKind::ConfigCmd(ConfigCommand {
                manager,
                activation,
            }),
            0,
        )
    }

    /// Creates a power-grant reply from the global manager.
    #[must_use]
    pub fn power_grant(manager: NodeId, dst: NodeId, milliwatts: u32) -> Self {
        Packet::new(manager, dst, PacketKind::PowerGrant, milliwatts)
    }

    /// Source address (16 bits on the wire). For `CONFIG_CMD` packets this is
    /// the attacker's id.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination address (16 bits on the wire).
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The typed packet kind.
    #[must_use]
    pub fn kind(&self) -> PacketKind {
        self.kind
    }

    /// The 32-bit payload word. For `POWER_REQ`/`POWER_GRANT` packets this is
    /// a power value in milliwatts.
    #[must_use]
    pub fn payload(&self) -> u32 {
        self.payload
    }

    /// Overwrites the payload word. This is the operation the Trojan's
    /// functional module performs on victim power requests (Section III-C).
    pub fn set_payload(&mut self, payload: u32) {
        self.payload = payload;
    }

    /// The optional options word.
    #[must_use]
    pub fn options(&self) -> Option<u32> {
        self.options
    }

    /// Attaches an options word, returning the modified packet.
    #[must_use]
    pub fn with_options(mut self, options: u32) -> Self {
        self.options = Some(options);
        self
    }

    /// Number of flits this packet occupies on the wire (Table I: data
    /// packets are 5 flits, meta packets 1 flit).
    #[must_use]
    pub fn flit_count(&self) -> usize {
        if self.kind.is_single_flit() {
            crate::flit::FLITS_PER_META_PACKET
        } else {
            crate::flit::FLITS_PER_DATA_PACKET
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {} -> {} payload={}",
            self.kind, self.src, self.dst, self.payload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_command_roundtrip() {
        let p = Packet::config_command(NodeId(7), NodeId(99), NodeId(136), ActivationSignal::On);
        match p.kind() {
            PacketKind::ConfigCmd(cmd) => {
                assert_eq!(cmd.manager, NodeId(136));
                assert_eq!(cmd.activation, ActivationSignal::On);
            }
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(p.src(), NodeId(7), "source carries the attacker id");
        assert_eq!(p.dst(), NodeId(99));
        assert_eq!(p.payload(), 0, "the payload word is #EMPTY#");
    }

    #[test]
    fn flit_counts_follow_table1() {
        assert_eq!(
            Packet::power_request(NodeId(0), NodeId(1), 5).flit_count(),
            1
        );
        assert_eq!(
            Packet::new(NodeId(0), NodeId(1), PacketKind::Data, 0).flit_count(),
            5
        );
        assert_eq!(
            Packet::new(NodeId(0), NodeId(1), PacketKind::Meta, 0).flit_count(),
            1
        );
    }

    #[test]
    fn tamper_changes_only_payload() {
        let mut p = Packet::power_request(NodeId(3), NodeId(4), 9_000);
        p.set_payload(100);
        assert_eq!(p.payload(), 100);
        assert_eq!(p.src(), NodeId(3));
        assert_eq!(p.dst(), NodeId(4));
        assert_eq!(p.kind(), PacketKind::PowerReq);
    }
}
