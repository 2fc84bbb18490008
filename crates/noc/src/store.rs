//! Slab arena owning everything the network knows about an in-flight
//! packet.
//!
//! Each packet injected into a [`crate::Network`] owns one slot of a
//! [`PacketStore`] from [`crate::Network::inject`] until its tail flit is
//! ejected or sunk. The slot holds the packet **frame** (the one copy the
//! inspector and the fault plan rewrite and tail ejection delivers), the
//! simulator-assigned id, the injection cycle, the hop count and the tamper
//! flag. Flits inside the network are 8-byte handles naming the slot, so a
//! flit-hop moves a handle and never a frame. Slots recycle through an
//! intrusive free list: steady-state traffic performs zero heap
//! allocations — [`PacketStore::alloc`] only grows the slab when no freed
//! slot is available, which after warm-up never happens.
//!
//! The same `next` link that threads the free list also threads each
//! node's injection FIFO (a slot is in at most one of the two at a time:
//! it leaves the FIFO when its tail flit enters the router, long before it
//! is freed).

use crate::packet::Packet;

/// Sentinel slot index: end of a free list or injection FIFO.
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot {
    packet: Packet,
    packet_id: u64,
    injected_at: u64,
    hops: u32,
    /// Next slot in the free list (while not live) or in the source node's
    /// injection FIFO (while queued).
    next: u32,
    modified: bool,
    live: bool,
}

/// Recycling arena of per-packet slots.
///
/// Invariant, locked by a property test: [`PacketStore::alloc`] never hands
/// out a slot that is still live, so a slot index uniquely identifies one
/// in-flight packet for its whole lifetime, and a recycled slot never
/// shows its previous tenant's frame, hop count or tamper flag.
#[derive(Debug, Clone)]
pub struct PacketStore {
    slots: Vec<Slot>,
    free_head: u32,
    live: usize,
}

impl Default for PacketStore {
    fn default() -> Self {
        PacketStore::new()
    }
}

impl PacketStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PacketStore {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// Claims a slot for a newly injected packet and returns its index.
    ///
    /// The only operation that may heap-allocate (when the free list is
    /// empty and the slab must grow); once the slab has reached the
    /// campaign's peak in-flight population it never grows again.
    pub fn alloc(&mut self, packet: Packet, packet_id: u64, injected_at: u64) -> u32 {
        self.live += 1;
        let fresh = Slot {
            packet,
            packet_id,
            injected_at,
            hops: 0,
            next: NIL,
            modified: false,
            live: true,
        };
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            debug_assert!(!s.live, "free list points at a live slot");
            self.free_head = s.next;
            *s = fresh;
            return slot;
        }
        let slot = self.slots.len() as u32;
        assert!(slot != NIL, "packet store exhausted");
        self.slots.push(fresh);
        slot
    }

    /// Returns a slot to the free list (packet dropped or fully ejected).
    /// Never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live — freeing twice would alias two
    /// packets onto one slot.
    pub fn free(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        assert!(s.live, "double free of packet slot {slot}");
        s.live = false;
        s.next = self.free_head;
        self.free_head = slot;
        self.live -= 1;
    }

    /// Forgets every slot but keeps the slab's capacity: the next
    /// [`PacketStore::alloc`] hands out slot 0, as on a new store. Only
    /// called with no live packet ([`crate::Network::reset`]).
    pub(crate) fn clear(&mut self) {
        debug_assert_eq!(self.live, 0, "clearing a store with live packets");
        self.slots.clear();
        self.free_head = NIL;
    }

    /// Number of live (in-flight) packets.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether `slot` currently holds a live packet.
    #[must_use]
    pub fn is_live(&self, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(|s| s.live)
    }

    #[inline]
    fn get(&self, slot: u32) -> &Slot {
        let s = &self.slots[slot as usize];
        debug_assert!(s.live, "packet slot {slot} is not live");
        s
    }

    #[inline]
    fn get_mut(&mut self, slot: u32) -> &mut Slot {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.live, "packet slot {slot} is not live");
        s
    }

    /// The frame of the live packet in `slot`, as rewritten so far.
    #[must_use]
    pub fn packet(&self, slot: u32) -> &Packet {
        &self.get(slot).packet
    }

    /// Mutable frame of the live packet in `slot` — what the inspection
    /// hook and the fault plan rewrite.
    pub fn packet_mut(&mut self, slot: u32) -> &mut Packet {
        &mut self.get_mut(slot).packet
    }

    /// Packet id of the live packet in `slot`.
    #[must_use]
    pub fn packet_id(&self, slot: u32) -> u64 {
        self.get(slot).packet_id
    }

    /// Injection cycle of the live packet in `slot`.
    #[must_use]
    pub fn injected_at(&self, slot: u32) -> u64 {
        self.get(slot).injected_at
    }

    /// Router-to-router hops recorded so far for the packet in `slot`.
    #[must_use]
    pub fn hops(&self, slot: u32) -> u32 {
        self.get(slot).hops
    }

    /// Records one more hop for the packet in `slot`.
    pub fn bump_hops(&mut self, slot: u32) {
        self.get_mut(slot).hops += 1;
    }

    /// Whether an inspector reported modifying the packet in `slot`.
    #[must_use]
    pub fn modified(&self, slot: u32) -> bool {
        self.get(slot).modified
    }

    /// Marks the packet in `slot` as tampered with.
    pub fn set_modified(&mut self, slot: u32) {
        self.get_mut(slot).modified = true;
    }

    /// The slot queued behind `slot` in its injection FIFO ([`NIL`] at the
    /// back).
    #[inline]
    pub(crate) fn next_queued(&self, slot: u32) -> u32 {
        self.get(slot).next
    }

    /// Links `next` behind `slot` in an injection FIFO.
    #[inline]
    pub(crate) fn set_next_queued(&mut self, slot: u32, next: u32) {
        self.get_mut(slot).next = next;
    }

    /// Completes delivery of the packet in `slot`: reads the frame and the
    /// accumulated metadata, and frees the slot. Returns
    /// `(packet, packet_id, injected_at, hops, modified)`.
    pub fn finish(&mut self, slot: u32) -> (Packet, u64, u64, u32, bool) {
        let s = self.get(slot);
        let out = (s.packet, s.packet_id, s.injected_at, s.hops, s.modified);
        self.free(slot);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::topology::NodeId;

    fn frame(payload: u32) -> Packet {
        Packet::new(NodeId(0), NodeId(1), PacketKind::Data, payload)
    }

    #[test]
    fn alloc_free_recycles_lifo() {
        let mut st = PacketStore::new();
        let a = st.alloc(frame(1), 1, 10);
        let b = st.alloc(frame(2), 2, 11);
        assert_ne!(a, b);
        assert_eq!(st.live(), 2);
        st.bump_hops(a);
        st.set_modified(a);
        st.free(a);
        assert_eq!(st.live(), 1);
        let c = st.alloc(frame(3), 3, 12);
        assert_eq!(c, a, "freed slot is recycled");
        assert_eq!(st.packet_id(c), 3);
        assert_eq!(st.injected_at(c), 12);
        assert_eq!(st.packet(c).payload(), 3);
        assert_eq!(st.hops(c), 0);
        assert!(!st.modified(c));
    }

    #[test]
    fn finish_returns_meta_and_frees() {
        let mut st = PacketStore::new();
        let s = st.alloc(frame(42), 7, 100);
        st.bump_hops(s);
        st.bump_hops(s);
        st.set_modified(s);
        st.packet_mut(s).set_payload(41);
        let (packet, id, injected_at, hops, modified) = st.finish(s);
        assert_eq!(
            packet,
            frame(41),
            "the rewritten frame is what is delivered"
        );
        assert_eq!(id, 7);
        assert_eq!(injected_at, 100);
        assert_eq!(hops, 2);
        assert!(modified);
        assert_eq!(st.live(), 0);
        assert!(!st.is_live(s));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut st = PacketStore::new();
        let s = st.alloc(frame(0), 1, 0);
        st.free(s);
        st.free(s);
    }
}
