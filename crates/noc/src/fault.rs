use crate::packet::Packet;
use crate::topology::{Direction, NodeId};

/// What a fault hook ordered done to one routed packet.
///
/// Returned by [`FaultHook::packet_fault`] once per packet per router, at
/// the same pipeline point where a [`crate::PacketInspector`] runs (between
/// the input buffer and routing computation). Unlike an inspector, a fault
/// hook models *physical* corruption — bit flips on the payload wires, or a
/// faulty buffer silently losing the whole packet — rather than an
/// adversarial rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultAction {
    /// Bits of the payload word to invert. Zero leaves the payload intact.
    pub flip_mask: u32,
    /// Sink the whole packet at this router (all flits drained, credits
    /// returned upstream, counted in
    /// [`crate::NetworkStats::dropped_packets`]).
    pub drop: bool,
}

impl FaultAction {
    /// No fault: the packet passes untouched.
    #[must_use]
    pub fn none() -> Self {
        FaultAction::default()
    }

    /// Invert the payload bits selected by `mask`.
    #[must_use]
    pub fn flip(mask: u32) -> Self {
        FaultAction {
            flip_mask: mask,
            drop: false,
        }
    }

    /// Drop the whole packet at this router.
    #[must_use]
    pub(crate) fn drop_packet() -> Self {
        FaultAction {
            flip_mask: 0,
            drop: true,
        }
    }

    /// Whether this action changes anything at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.flip_mask == 0 && !self.drop
    }
}

/// Deterministic fault-injection hook for the network pipeline.
///
/// A hook is installed with [`crate::Network::set_fault_hook`] and consulted
/// from three pipeline points, chosen so that every fault mode composes with
/// the active-set invariants of [`crate::Network::step`] without touching
/// them:
///
/// * [`FaultHook::router_stalled`] — once per active router per cycle at the
///   head of switch traversal. A stalled router forwards nothing that cycle;
///   its flits stay buffered, so it simply remains in the active set.
/// * [`FaultHook::link_down`] — once per (router, output direction) arbitration
///   attempt in switch traversal. A downed link behaves exactly like a busy
///   one: the output port skips arbitration this cycle.
/// * [`FaultHook::packet_fault`] — once per packet per router, immediately
///   after the [`crate::PacketInspector`] hook. Payload bit flips reuse the
///   tamper bookkeeping (the delivered packet reports `modified`); whole-packet
///   drops reuse the inspector drop-sink machinery.
///
/// [`FaultHook::any_faults_at`] gates all three: when it returns `false` for
/// a cycle the pipeline makes **zero** per-entity hook calls, which is what
/// keeps an empty fault plan bit-identical to a build with no hook installed
/// (locked by the golden digests and the fault-plan equivalence proptest).
///
/// Implementations must be deterministic functions of their own state and
/// the arguments — the simulator calls them in a fixed order and replays
/// must reproduce bit-identical traffic.
pub trait FaultHook: Send {
    /// Cheap per-cycle gate: when `false`, no other hook method is called
    /// this cycle.
    fn any_faults_at(&mut self, cycle: u64) -> bool;

    /// Whether the link leaving `node` towards `dir` is down this cycle.
    fn link_down(&mut self, node: NodeId, dir: Direction, cycle: u64) -> bool;

    /// Whether router `node` is stalled (forwards nothing) this cycle.
    fn router_stalled(&mut self, node: NodeId, cycle: u64) -> bool;

    /// Fault to apply to `packet` as it is routed at `node`. Called once per
    /// packet per router, like packet inspection.
    fn packet_fault(&mut self, node: NodeId, cycle: u64, packet: &Packet) -> FaultAction;
}

impl<T: FaultHook + ?Sized> FaultHook for Box<T> {
    fn any_faults_at(&mut self, cycle: u64) -> bool {
        (**self).any_faults_at(cycle)
    }

    fn link_down(&mut self, node: NodeId, dir: Direction, cycle: u64) -> bool {
        (**self).link_down(node, dir, cycle)
    }

    fn router_stalled(&mut self, node: NodeId, cycle: u64) -> bool {
        (**self).router_stalled(node, cycle)
    }

    fn packet_fault(&mut self, node: NodeId, cycle: u64, packet: &Packet) -> FaultAction {
        (**self).packet_fault(node, cycle, packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn action_constructors() {
        assert!(FaultAction::none().is_none());
        let f = FaultAction::flip(0b101);
        assert_eq!(f.flip_mask, 0b101);
        assert!(!f.drop);
        assert!(!f.is_none());
        let d = FaultAction::drop_packet();
        assert!(d.drop);
        assert!(!d.is_none());
    }

    #[test]
    fn boxed_hook_dispatches() {
        #[derive(Debug)]
        struct DropEverything;
        impl FaultHook for DropEverything {
            fn any_faults_at(&mut self, _cycle: u64) -> bool {
                true
            }
            fn link_down(&mut self, _node: NodeId, _dir: Direction, _cycle: u64) -> bool {
                false
            }
            fn router_stalled(&mut self, _node: NodeId, _cycle: u64) -> bool {
                false
            }
            fn packet_fault(&mut self, _node: NodeId, _cycle: u64, _p: &Packet) -> FaultAction {
                FaultAction::drop_packet()
            }
        }
        let mut hook: Box<dyn FaultHook> = Box::new(DropEverything);
        let p = Packet::new(NodeId(0), NodeId(1), PacketKind::Data, 9);
        assert!(hook.any_faults_at(0));
        assert!(hook.packet_fault(NodeId(0), 0, &p).drop);
    }
}
