use crate::topology::Direction;

/// Control state of one input virtual channel, at most 8 bytes.
///
/// Table I configures 4 virtual channels per port with 5-flit buffers. The
/// buffered flits themselves live in the mesh-wide ring slab of
/// [`crate::router::Routers`]; this record holds the per-VC pipeline
/// decisions plus the ring cursor into that slab. All of a router's records
/// are contiguous (`router * slots + port * vcs + vc`), so the 20 VCs of a
/// Table-I router span three cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VcState {
    /// Output port chosen by routing computation for the packet currently
    /// occupying this VC (`None` until RC runs on the head flit).
    pub route: Option<Direction>,
    /// Downstream VC granted by VC allocation (`None` until VA succeeds).
    pub out_vc: Option<u8>,
    /// Whether the packet's head flit has been inspected at this router
    /// (the Trojan hook fires once per hop).
    pub inspected: bool,
    /// Set when an inspector ordered the current packet dropped: arriving
    /// and buffered flits are sunk instead of forwarded, until the tail.
    pub dropping: bool,
    /// Ring offset (within this VC's fixed-capacity slice of the ring
    /// slab) of the front flit. `buffer_depth <= 255` keeps it in a byte.
    pub head: u8,
    /// Buffered flit count.
    pub len: u8,
}

impl VcState {
    pub(crate) const IDLE: VcState = VcState {
        route: None,
        out_vc: None,
        inspected: false,
        dropping: false,
        head: 0,
        len: 0,
    };

    /// Clears the per-packet pipeline decisions; called when the packet's
    /// tail flit leaves the buffer so the next resident packet re-runs
    /// inspection, RC and VA. The ring cursor is deliberately left where it
    /// is — the buffer keeps rotating.
    #[inline]
    pub(crate) fn clear_packet_state(&mut self) {
        self.route = None;
        self.out_vc = None;
        self.inspected = false;
        self.dropping = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_resets_decisions_but_not_cursor() {
        let mut st = VcState::IDLE;
        st.route = Some(Direction::East);
        st.out_vc = Some(2);
        st.inspected = true;
        st.dropping = true;
        st.head = 3;
        st.len = 1;
        st.clear_packet_state();
        assert_eq!(st.route, None);
        assert_eq!(st.out_vc, None);
        assert!(!st.inspected);
        assert!(!st.dropping);
        assert_eq!(st.head, 3, "ring cursor must survive packet turnover");
        assert_eq!(st.len, 1);
    }

    #[test]
    fn control_record_is_at_most_eight_bytes() {
        assert!(std::mem::size_of::<VcState>() <= 8);
    }
}
