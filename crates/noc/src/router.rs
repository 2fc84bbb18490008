use crate::active::BitsIter;
use crate::flit::{FlitHandle, FlitKind};
use crate::store::{PacketStore, NIL};
use crate::topology::{Direction, NodeId};
use crate::vc::VcState;

/// Microarchitectural parameters of a router.
///
/// Defaults follow Table I of the paper: 4 virtual channels per input port
/// and 5-flit buffers ("NoC buffer 5 × 5 flits" — five ports with five-flit
/// buffers per VC).
///
/// Limits, asserted when a [`crate::Network`] is built: `1 <= vcs <= 12`
/// (all 5 × `vcs` input-VC slots of a router pack into one 64-bit mask) and
/// `1 <= buffer_depth <= 255` (ring cursors and credit counts are bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Flit buffer depth per virtual channel.
    pub buffer_depth: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vcs: 4,
            buffer_depth: 5,
        }
    }
}

/// Externally observable state of one input virtual channel at an instant.
///
/// The unit of comparison for differential debugging: `htpb-testkit`
/// localizes the first diverging (cycle, router, VC) between the optimized
/// stepper and its dense reference oracle by diffing these snapshots.
/// Equality covers everything the pipeline stages read — occupancy, the
/// resident packet, its RC/VA decisions and the drop flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcSnapshot {
    /// Buffered flit count.
    pub occupancy: usize,
    /// Packet id of the front flit, if any.
    pub front_packet: Option<u64>,
    /// Cycle the front flit entered this buffer.
    pub front_arrived_at: Option<u64>,
    /// Output port chosen by routing computation for the resident packet.
    pub route: Option<Direction>,
    /// Downstream VC granted by VC allocation.
    pub out_vc: Option<usize>,
    /// Whether the resident packet's head was inspected at this router.
    pub inspected: bool,
    /// Whether the resident packet is being sunk by a drop order.
    pub dropping: bool,
}

/// `Direction::Local.index()`, the last of the five ports.
const LOCAL: usize = 4;

/// The per-router words every pipeline stage starts from: the slot masks,
/// the round-robin pointers and the counters. At most 128 bytes, so the
/// whole decision state of a router is two cache lines; the per-VC records,
/// credits and rings it indexes live in the sibling slabs of [`Routers`].
#[derive(Debug, Clone)]
pub(crate) struct RouterCore {
    /// Input-VC slots (`port * vcs + vc`) holding at least one flit. The
    /// stages iterate this instead of scanning all 5 × `vcs` buffers; empty
    /// VCs can never be granted, routed or allocated.
    pub occupied: u64,
    /// Per-output-direction switch requests: bit `s` is set iff slot `s` is
    /// routed towards `dir`. Set by [`Routers::set_route`], cleared when
    /// the packet's tail leaves in [`Routers::pop_flit`].
    pub route_req: [u64; 5],
    /// Slots whose packet has a non-local route but no downstream VC yet —
    /// exactly the candidates VC allocation must consider, and exactly the
    /// routed slots switch allocation must *not*.
    pub va_pending: u64,
    /// Slots whose resident packet is past routing computation (route
    /// chosen, or being sunk by a drop order). Routing computation scans
    /// `occupied & !pipeline_done` — only freshly arrived heads.
    pub pipeline_done: u64,
    /// Downstream VCs (`out_port * vcs + vc`) currently allocated to a
    /// packet.
    pub out_allocated: u64,
    /// Flits this router pushed through its crossbar (all output ports).
    pub flits_forwarded: u64,
    /// Packet headers that ran routing computation here.
    pub packets_routed: u64,
    /// Total flits across all input VCs.
    pub buffered: u32,
    /// Round-robin pointers for switch allocation, one per output port.
    pub sa_rr: [u8; 5],
    /// Input VCs currently sinking a dropped packet; gates the switch
    /// stage's drop-sink scan.
    pub dropping_vcs: u8,
}

impl RouterCore {
    const IDLE: RouterCore = RouterCore {
        occupied: 0,
        route_req: [0; 5],
        va_pending: 0,
        pipeline_done: 0,
        out_allocated: 0,
        flits_forwarded: 0,
        packets_routed: 0,
        buffered: 0,
        sa_rr: [0; 5],
        dropping_vcs: 0,
    };
}

/// One buffered flit: its handle and the cycle it entered the buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingEntry {
    pub flit: FlitHandle,
    pub arrived_at: u64,
}

/// The state of every router of the mesh, one allocation per field.
///
/// # Data layout
///
/// With `slots = 5 * vcs` and `depth = buffer_depth` (both runtime values
/// from the [`RouterConfig`]), for router `r`, input port `p`, VC `v`,
/// slot `s = p * vcs + v`:
///
/// * `core[r]` — masks, RR pointers, counters ([`RouterCore`]);
/// * `vc[r * slots + s]` — the per-VC control record ([`VcState`]);
/// * `credits[r * slots + o * vcs + v]` — flit credits for VC `v` behind
///   output port `o` (starts at `depth`);
/// * `ring[(r * slots + s) * depth + i]` — slot `s`'s fixed-capacity ring,
///   front at `i = vc[..].head`.
///
/// Ports are in N/S/E/W/Local index order, so ascending slot order equals
/// the nested `(port, vc)` loops the pipeline historically ran, and
/// ascending router order is the mesh's node order: iteration order — and
/// with it RR arbitration, ejection and trace order — does not depend on
/// where the bytes live.
#[derive(Debug, Clone)]
pub(crate) struct Routers {
    config: RouterConfig,
    /// `5 * config.vcs`, the stride of the per-VC and credit slabs.
    slots: usize,
    pub core: Vec<RouterCore>,
    vc: Vec<VcState>,
    credits: Vec<u8>,
    ring: Vec<RingEntry>,
}

impl Routers {
    /// `nodes` idle routers with full credits.
    ///
    /// # Panics
    ///
    /// Panics if `config` is outside the limits documented on
    /// [`RouterConfig`].
    pub(crate) fn new(nodes: usize, config: RouterConfig) -> Self {
        assert!(
            (1..=12).contains(&config.vcs),
            "between 1 and 12 VCs per port supported (got {})",
            config.vcs
        );
        assert!(
            (1..=255).contains(&config.buffer_depth),
            "buffer depth must be between 1 and 255 flits (got {})",
            config.buffer_depth
        );
        let slots = 5 * config.vcs;
        // Placeholder entries fill the ring slab so indices are always in
        // bounds; a slot's live region is `head .. head + len` (mod depth).
        let placeholder = RingEntry {
            flit: FlitHandle {
                slot: NIL,
                kind: FlitKind::Body,
            },
            arrived_at: 0,
        };
        // The ring slab, by far the largest (819 KB at 512 nodes), is
        // allocated first, so that it takes the front of the region a
        // dropped network freed before the small slabs can split it.
        // Allocated after them, a network built right after another one
        // was dropped can miss that region and touch fresh pages, raising
        // peak RSS by one ring slab.
        Routers {
            ring: vec![placeholder; nodes * slots * config.buffer_depth],
            config,
            slots,
            core: vec![RouterCore::IDLE; nodes],
            vc: vec![VcState::IDLE; nodes * slots],
            credits: vec![config.buffer_depth as u8; nodes * slots],
        }
    }

    /// Returns idle routers to the state [`Routers::new`] builds: cores
    /// with zeroed masks, counters and round-robin pointers, VC records
    /// with their ring cursors at 0, full credits. The ring slab is left as
    /// it is — only a slot's live region (`head .. head + len`) is ever
    /// read, and every slot is empty.
    pub(crate) fn reset(&mut self) {
        debug_assert!(
            self.core.iter().all(|c| c.buffered == 0),
            "reset with buffered flits"
        );
        self.core.fill(RouterCore::IDLE);
        self.vc.fill(VcState::IDLE);
        self.credits.fill(self.config.buffer_depth as u8);
    }

    /// Virtual channels per port.
    #[inline]
    pub(crate) fn vcs(&self) -> usize {
        self.config.vcs
    }

    /// Input-VC slots per router (`5 * vcs`).
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Control record of slot `s` of router `r`.
    #[inline]
    pub(crate) fn vc(&self, r: usize, s: usize) -> &VcState {
        &self.vc[r * self.slots + s]
    }

    /// Whether slot `s` of router `r` has room for one more flit.
    #[inline]
    pub(crate) fn has_space(&self, r: usize, s: usize) -> bool {
        (self.vc(r, s).len as usize) < self.config.buffer_depth
    }

    /// The ring entry at the front of slot `s` of router `r`, if any.
    #[inline]
    pub(crate) fn front(&self, r: usize, s: usize) -> Option<&RingEntry> {
        let vi = r * self.slots + s;
        let st = &self.vc[vi];
        (st.len > 0).then(|| &self.ring[vi * self.config.buffer_depth + st.head as usize])
    }

    /// Index into the credit slab of downstream VC `vc` behind output port
    /// `od` of router `r` — what a deferred credit return carries.
    #[inline]
    pub(crate) fn credit_index(&self, r: usize, od: usize, vc: usize) -> u32 {
        (r * self.slots + od * self.config.vcs + vc) as u32
    }

    /// Returns one credit to the downstream VC named by
    /// [`Routers::credit_index`].
    #[inline]
    pub(crate) fn return_credit(&mut self, index: u32) {
        let c = &mut self.credits[index as usize];
        *c += 1;
        debug_assert!(*c as usize <= self.config.buffer_depth, "credit overflow");
    }

    /// Free credits router `r` holds for downstream VC `vc` behind `od`.
    /// Read only by the debug-build invariant check and by tests.
    #[cfg(any(test, debug_assertions))]
    #[inline]
    pub(crate) fn credit(&self, r: usize, od: usize, vc: usize) -> usize {
        usize::from(self.credits[r * self.slots + od * self.config.vcs + vc])
    }

    /// Pushes an arriving flit into slot `s` of router `r` and returns the
    /// slot's new occupancy. All buffer writes go through here (or the
    /// counter and the occupancy mask drift).
    #[inline]
    pub(crate) fn push_flit(&mut self, r: usize, s: usize, flit: FlitHandle, now: u64) -> usize {
        let vi = r * self.slots + s;
        let st = &mut self.vc[vi];
        debug_assert!(
            (st.len as usize) < self.config.buffer_depth,
            "credit protocol violated: VC overrun"
        );
        let mut at = st.head as usize + st.len as usize;
        if at >= self.config.buffer_depth {
            at -= self.config.buffer_depth;
        }
        st.len += 1;
        let occupancy = st.len as usize;
        self.ring[vi * self.config.buffer_depth + at] = RingEntry {
            flit,
            arrived_at: now,
        };
        let core = &mut self.core[r];
        core.buffered += 1;
        core.occupied |= 1 << s;
        occupancy
    }

    /// Pops the front flit of slot `s` of router `r`. A tail pop clears the
    /// VC's per-packet pipeline state (route, out VC, inspected, dropping)
    /// and retires the slot from every request mask.
    #[inline]
    pub(crate) fn pop_flit(&mut self, r: usize, s: usize) -> Option<FlitHandle> {
        let vi = r * self.slots + s;
        let st = &mut self.vc[vi];
        if st.len == 0 {
            return None;
        }
        let flit = self.ring[vi * self.config.buffer_depth + st.head as usize].flit;
        st.head = if st.head as usize + 1 == self.config.buffer_depth {
            0
        } else {
            st.head + 1
        };
        st.len -= 1;
        let core = &mut self.core[r];
        let bit = 1u64 << s;
        if st.len == 0 {
            core.occupied &= !bit;
        }
        if flit.kind.is_tail() {
            if let Some(dir) = st.route {
                core.route_req[dir.index()] &= !bit;
            }
            core.va_pending &= !bit;
            core.pipeline_done &= !bit;
            if st.dropping {
                core.dropping_vcs -= 1;
            }
            st.clear_packet_state();
        }
        core.buffered -= 1;
        Some(flit)
    }

    /// Marks slot `s` of router `r` as sinking a dropped packet (its head
    /// was inspected; no route is ever computed for it). Idempotent.
    #[inline]
    pub(crate) fn mark_dropping(&mut self, r: usize, s: usize) {
        let st = &mut self.vc[r * self.slots + s];
        st.inspected = true;
        let core = &mut self.core[r];
        if !st.dropping {
            st.dropping = true;
            core.dropping_vcs += 1;
        }
        core.pipeline_done |= 1 << s;
    }

    /// Records routing computation's decision for the (inspected) packet in
    /// slot `s` of router `r`, keeping the switch-request / VC-allocation
    /// masks in sync. All route assignments go through here.
    #[inline]
    pub(crate) fn set_route(&mut self, r: usize, s: usize, dir: Direction) {
        let st = &mut self.vc[r * self.slots + s];
        st.route = Some(dir);
        st.inspected = true;
        let core = &mut self.core[r];
        let bit = 1u64 << s;
        core.route_req[dir.index()] |= bit;
        core.pipeline_done |= bit;
        if dir != Direction::Local {
            core.va_pending |= bit;
        }
        core.packets_routed += 1;
    }

    /// Records VC allocation's grant of downstream VC `out_vc` to the packet
    /// in slot `s` of router `r`.
    #[inline]
    pub(crate) fn grant_out_vc(&mut self, r: usize, s: usize, out_vc: usize) {
        let st = &mut self.vc[r * self.slots + s];
        let od = st
            .route
            .expect("VA grant requires a computed route")
            .index();
        st.out_vc = Some(out_vc as u8);
        let core = &mut self.core[r];
        core.out_allocated |= 1 << (od * self.config.vcs + out_vc);
        core.va_pending &= !(1u64 << s);
    }

    /// Occupied slots of router `r` that may cross the switch towards
    /// output port `od`: routed there and, for a mesh port, already holding
    /// a downstream VC (a VA-pending slot can never be granted).
    #[inline]
    pub(crate) fn switch_requests(&self, r: usize, od: usize) -> u64 {
        let core = &self.core[r];
        core.occupied & core.route_req[od] & !core.va_pending
    }

    /// The output ports of router `r` with a switch request: bit `od` is set
    /// iff [`Routers::switch_requests`]`(r, od)` is non-empty. Granting at
    /// one port pops only a slot routed there, so the mask taken before the
    /// first grant stays exact for the rest of the router's visit.
    #[inline]
    pub(crate) fn requesting_ports(&self, r: usize) -> u64 {
        let core = &self.core[r];
        let ready = core.occupied & !core.va_pending;
        let mut ports = 0;
        for (od, &req) in core.route_req.iter().enumerate() {
            ports |= u64::from(req & ready != 0) << od;
        }
        ports
    }

    /// Occupied slots with a non-local route still awaiting a downstream
    /// VC — VC allocation's candidate set.
    #[inline]
    pub(crate) fn va_pending_slots(&self, r: usize) -> u64 {
        let core = &self.core[r];
        core.occupied & core.va_pending
    }

    /// Occupied slots whose front packet still needs routing computation
    /// (no route yet, not being sunk).
    #[inline]
    pub(crate) fn unrouted_slots(&self, r: usize) -> u64 {
        let core = &self.core[r];
        core.occupied & !core.pipeline_done
    }

    /// Switch allocation for output port `od` of router `r`: round-robin
    /// over the requesting slots `req` from `sa_rr[od]` (see
    /// [`round_robin`]), the same visit order as the dense
    /// `(start + off) % slots` scan minus the slots it could never have
    /// granted. A candidate is skipped while its downstream VC has no
    /// credit (checked first: one byte next to the masks) or its front flit
    /// arrived this very cycle (a flit spends at least one full cycle
    /// buffered — the two-cycle router floor).
    #[inline]
    pub(crate) fn arbitrate(&self, r: usize, od: usize, req: u64, now: u64) -> Option<usize> {
        let base = r * self.slots;
        round_robin(req, self.core[r].sa_rr[od]).find(|&s| {
            let st = &self.vc[base + s];
            debug_assert!(st.len > 0, "occupied slot holds no flit");
            debug_assert_eq!(
                st.route.map(Direction::index),
                Some(od),
                "request mask drifted"
            );
            if od != LOCAL {
                let ovc = st.out_vc.expect("switch requests exclude VA-pending slots");
                if self.credits[base + od * self.config.vcs + usize::from(ovc)] == 0 {
                    return false;
                }
            }
            self.ring[(base + s) * self.config.buffer_depth + st.head as usize].arrived_at != now
        })
    }

    /// Crosses the flit at the front of the granted slot `s` of router `r`
    /// over the switch to output port `od`: advances the RR pointer past
    /// `s` by `bump` (at most 2, so one wrap at `slots` suffices), pops the
    /// flit and, for a mesh port, spends one credit of the packet's
    /// downstream VC (released for reallocation when the tail leaves).
    /// Returns the flit and that downstream VC.
    #[inline]
    pub(crate) fn cross_switch(
        &mut self,
        r: usize,
        od: usize,
        s: usize,
        bump: usize,
    ) -> (FlitHandle, Option<u8>) {
        let out_vc = self.vc[r * self.slots + s].out_vc;
        let flit = self.pop_flit(r, s).expect("granted VC nonempty");
        debug_assert!(s < self.slots && bump <= 2, "RR bump out of range");
        let mut next = s + bump;
        if next >= self.slots {
            next -= self.slots;
        }
        let core = &mut self.core[r];
        core.sa_rr[od] = next as u8;
        core.flits_forwarded += 1;
        if od != LOCAL {
            let o = od * self.config.vcs
                + usize::from(out_vc.expect("non-local ST requires an allocated VC"));
            self.credits[r * self.slots + o] -= 1;
            if flit.kind.is_tail() {
                core.out_allocated &= !(1u64 << o);
            }
        }
        (flit, out_vc)
    }

    /// Lowest-index idle local-input VC of router `r` (empty, with no
    /// residual route) — the injection stage's VC selection for a new
    /// packet's head flit.
    #[inline]
    pub(crate) fn free_injection_vc(&self, r: usize) -> Option<usize> {
        let base = r * self.slots + LOCAL * self.config.vcs;
        self.vc[base..base + self.config.vcs]
            .iter()
            .position(|st| st.len == 0 && st.route.is_none())
    }

    /// Finds a free downstream VC on output port `od` of router `r`,
    /// preferring lower indices.
    #[inline]
    pub(crate) fn free_out_vc(&self, r: usize, od: usize) -> Option<usize> {
        let free = !(self.core[r].out_allocated >> (od * self.config.vcs))
            & ((1u64 << self.config.vcs) - 1);
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Free credit count on an output port of router `r`, summed over VCs.
    /// Adaptive routing uses this as its congestion estimate.
    #[inline]
    pub(crate) fn output_credits(&self, r: usize, dir: Direction) -> usize {
        let base = r * self.slots + dir.index() * self.config.vcs;
        self.credits[base..base + self.config.vcs]
            .iter()
            .map(|&c| usize::from(c))
            .sum()
    }

    /// Debug-build audit of router `r`: rebuilds every incrementally
    /// maintained mask and counter from the per-VC records and asserts they
    /// match.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_consistent(&self, r: usize) {
        let core = &self.core[r];
        let mut occupied = 0u64;
        let mut req = [0u64; 5];
        let mut va = 0u64;
        let mut done = 0u64;
        let mut buffered = 0u32;
        let mut dropping = 0u8;
        for s in 0..self.slots {
            let st = self.vc(r, s);
            buffered += u32::from(st.len);
            if st.len > 0 {
                occupied |= 1 << s;
            }
            if let Some(dir) = st.route {
                req[dir.index()] |= 1 << s;
                done |= 1 << s;
                if dir != Direction::Local && st.out_vc.is_none() {
                    va |= 1 << s;
                }
            }
            if st.dropping {
                done |= 1 << s;
                dropping += 1;
            }
        }
        assert_eq!(core.occupied, occupied, "occupancy mask drifted");
        assert_eq!(core.route_req, req, "switch-request masks drifted");
        assert_eq!(core.va_pending, va, "VA-pending mask drifted");
        assert_eq!(core.pipeline_done, done, "pipeline-done mask drifted");
        assert_eq!(core.buffered, buffered, "flit counter drifted");
        assert_eq!(core.dropping_vcs, dropping, "dropping-VC counter drifted");
    }
}

/// The slots of `req` in round-robin order from `start`: slots `>= start`
/// ascending, then the wrap-around below it. Rotating `req` right by `start`
/// lays them out in that order: slot `s` lands on bit `(s - start) mod 64`,
/// and every slot is below 64 (at most 60), so the wrapped slots sort after
/// the rest.
#[inline]
fn round_robin(req: u64, start: u8) -> impl Iterator<Item = usize> {
    let start = u32::from(start);
    BitsIter(req.rotate_right(start)).map(move |b| (b + start as usize) & 63)
}

/// Read-only view of one mesh router: five input ports (N/S/E/W/Local)
/// with per-port virtual channels, plus credit state for each output
/// port's downstream buffers.
///
/// A router is a passive state container; the cycle-by-cycle pipeline
/// (buffer write → routing computation → VC/switch allocation → switch
/// traversal) is driven by [`crate::Network::step`], which models a
/// two-cycle router and one-cycle links (Table I). The state itself lives
/// in mesh-wide slabs owned by the network; [`crate::Network::router`]
/// hands out this view for diagnostics and tests.
#[derive(Clone, Copy)]
pub struct Router<'a> {
    routers: &'a Routers,
    store: &'a PacketStore,
    index: usize,
}

impl<'a> Router<'a> {
    pub(crate) fn new(routers: &'a Routers, store: &'a PacketStore, index: usize) -> Self {
        assert!(
            index < routers.core.len(),
            "router {index} outside the mesh"
        );
        Router {
            routers,
            store,
            index,
        }
    }

    /// This router's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        NodeId(self.index as u16)
    }

    /// The router's configuration.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.routers.config
    }

    /// Whether an input VC has room for one more flit.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn can_accept(&self, dir: Direction, vc: usize) -> bool {
        assert!(vc < self.routers.config.vcs);
        self.routers
            .has_space(self.index, dir.index() * self.routers.config.vcs + vc)
    }

    /// Total buffered flits across all input VCs. O(1).
    #[must_use]
    pub(crate) fn buffered_flits(&self) -> usize {
        self.routers.core[self.index].buffered as usize
    }

    /// Whether the router holds no flits at all. O(1).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.buffered_flits() == 0
    }

    /// Snapshot of one input VC's observable state (diagnostics; see
    /// [`VcSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if `in_port >= 5` or `vc >= config.vcs`.
    #[must_use]
    pub fn vc_snapshot(&self, in_port: usize, vc: usize) -> VcSnapshot {
        assert!(in_port < 5 && vc < self.routers.config.vcs);
        let s = in_port * self.routers.config.vcs + vc;
        let st = self.routers.vc(self.index, s);
        let front = self.routers.front(self.index, s);
        VcSnapshot {
            occupancy: st.len as usize,
            front_packet: front.map(|e| self.store.packet_id(e.flit.slot)),
            front_arrived_at: front.map(|e| e.arrived_at),
            route: st.route,
            out_vc: st.out_vc.map(usize::from),
            inspected: st.inspected,
            dropping: st.dropping,
        }
    }

    /// Free credits this router holds for one downstream VC (diagnostics).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn output_credit(&self, dir: Direction, vc: usize) -> usize {
        assert!(vc < self.routers.config.vcs);
        self.routers.credit(self.index, dir.index(), vc)
    }

    /// Whether a downstream VC is currently allocated to a packet
    /// (diagnostics).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn output_allocated(&self, dir: Direction, vc: usize) -> bool {
        assert!(vc < self.routers.config.vcs);
        self.routers.core[self.index].out_allocated >> (dir.index() * self.routers.config.vcs + vc)
            & 1
            == 1
    }

    /// Flits this router has pushed through its crossbar so far — a
    /// utilization measure for congestion heatmaps.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn flits_forwarded(&self) -> u64 {
        self.routers.core[self.index].flits_forwarded
    }

    /// Packet headers that ran routing computation here (= packets that
    /// transited or terminated at this router).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn packets_routed(&self) -> u64 {
        self.routers.core[self.index].packets_routed
    }
}

impl std::fmt::Debug for Router<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("id", &self.id())
            .field("core", &self.routers.core[self.index])
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind};

    /// A one-router slab plus a store holding one 5-flit data packet.
    fn rig(config: RouterConfig) -> (Routers, PacketStore, Vec<FlitHandle>) {
        let mut store = PacketStore::new();
        let p = Packet::new(NodeId(0), NodeId(1), PacketKind::Data, 7);
        let slot = store.alloc(p, 1, 0);
        let n = p.flit_count();
        let flits = (0..n)
            .map(|i| FlitHandle {
                slot,
                kind: FlitKind::nth(i, n),
            })
            .collect();
        (Routers::new(1, config), store, flits)
    }

    fn slot(r: &Routers, dir: Direction, vc: usize) -> usize {
        dir.index() * r.vcs() + vc
    }

    #[test]
    fn flit_counter_tracks_push_and_pop() {
        let (mut r, store, flits) = rig(RouterConfig::default());
        let s = slot(&r, Direction::North, 2);
        let n = flits.len();
        for (i, f) in flits.into_iter().enumerate() {
            assert_eq!(r.push_flit(0, s, f, i as u64), i + 1);
            assert_eq!(Router::new(&r, &store, 0).buffered_flits(), i + 1);
        }
        assert!(!Router::new(&r, &store, 0).is_idle());
        for i in (0..n).rev() {
            assert!(r.pop_flit(0, s).is_some());
            assert_eq!(Router::new(&r, &store, 0).buffered_flits(), i);
            r.debug_consistent(0);
        }
        assert!(Router::new(&r, &store, 0).is_idle());
        assert!(r.pop_flit(0, s).is_none());
        assert_eq!(Router::new(&r, &store, 0).buffered_flits(), 0);
    }

    #[test]
    fn ring_preserves_fifo_order_and_arrival_stamps() {
        let (mut r, _store, flits) = rig(RouterConfig::default());
        let s = slot(&r, Direction::East, 1);
        // Fill, drain two, refill: the ring wraps across the slice edge.
        for (i, f) in flits.iter().enumerate() {
            assert!(r.has_space(0, s));
            r.push_flit(0, s, *f, 10 + i as u64);
        }
        assert!(!r.has_space(0, s));
        assert_eq!(r.front(0, s).map(|e| e.arrived_at), Some(10));
        assert_eq!(r.front(0, s).map(|e| e.flit.kind), Some(FlitKind::Head));
        assert!(r.pop_flit(0, s).is_some());
        assert_eq!(r.front(0, s).map(|e| e.arrived_at), Some(11));
        assert!(r.pop_flit(0, s).is_some());
        r.push_flit(0, s, flits[0], 20);
        r.push_flit(0, s, flits[1], 21);
        let kinds: Vec<FlitKind> = std::iter::from_fn(|| r.pop_flit(0, s))
            .map(|f| f.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail,
                FlitKind::Head,
                FlitKind::Body
            ]
        );
    }

    #[test]
    fn tail_pop_clears_route_state() {
        let (mut r, _store, flits) = rig(RouterConfig::default());
        let s = slot(&r, Direction::North, 0);
        for f in flits {
            r.push_flit(0, s, f, 0);
        }
        r.set_route(0, s, Direction::East);
        assert_eq!(r.va_pending_slots(0), 1 << s);
        assert_eq!(r.switch_requests(0, Direction::East.index()), 0);
        r.grant_out_vc(0, s, 2);
        assert_eq!(r.switch_requests(0, Direction::East.index()), 1 << s);
        for _ in 0..4 {
            r.pop_flit(0, s);
            assert_eq!(r.vc(0, s).route, Some(Direction::East));
        }
        let tail = r.pop_flit(0, s).unwrap();
        assert_eq!(tail.kind, FlitKind::Tail);
        assert_eq!(r.vc(0, s).route, None);
        assert_eq!(r.vc(0, s).out_vc, None);
        assert!(!r.vc(0, s).inspected);
        assert_eq!(r.core[0].route_req, [0; 5]);
        r.debug_consistent(0);
    }

    #[test]
    fn dropping_counter_clears_on_tail_pop() {
        let (mut r, store, flits) = rig(RouterConfig::default());
        let s = slot(&r, Direction::East, 0);
        let n = flits.len();
        for f in flits {
            r.push_flit(0, s, f, 0);
        }
        assert_eq!(r.core[0].dropping_vcs, 0);
        r.mark_dropping(0, s);
        r.mark_dropping(0, s); // idempotent
        assert_eq!(r.core[0].dropping_vcs, 1);
        assert_eq!(r.unrouted_slots(0), 0);
        for _ in 0..n - 1 {
            r.pop_flit(0, s);
            assert_eq!(r.core[0].dropping_vcs, 1);
        }
        r.pop_flit(0, s); // tail clears the flag
        assert_eq!(r.core[0].dropping_vcs, 0);
        assert!(Router::new(&r, &store, 0).is_idle());
    }

    #[test]
    fn output_port_free_vc_prefers_lowest() {
        let (mut r, store, flits) = rig(RouterConfig::default());
        let od = Direction::South.index();
        assert_eq!(r.free_out_vc(0, od), Some(0));
        // Four packets routed south, one per local VC, granted in turn.
        for vc in 0..4 {
            let s = slot(&r, Direction::Local, vc);
            r.push_flit(0, s, flits[0], 0);
            r.set_route(0, s, Direction::South);
            let free = r.free_out_vc(0, od);
            assert_eq!(free, Some(vc));
            r.grant_out_vc(0, s, vc);
            assert!(Router::new(&r, &store, 0).output_allocated(Direction::South, vc));
        }
        assert_eq!(r.free_out_vc(0, od), None);
        // Other ports are unaffected by this port's allocations.
        assert_eq!(r.free_out_vc(0, Direction::North.index()), Some(0));
        assert_eq!(r.free_out_vc(0, Direction::Local.index()), Some(0));
    }

    #[test]
    fn arbitration_is_round_robin_and_honours_credits_and_arrival() {
        let (mut r, _store, flits) = rig(RouterConfig::default());
        let od = Direction::East.index();
        let (a, b) = (slot(&r, Direction::North, 1), slot(&r, Direction::West, 3));
        for (s, ovc) in [(a, 0), (b, 1)] {
            r.push_flit(0, s, flits[0], 5);
            r.set_route(0, s, Direction::East);
            r.grant_out_vc(0, s, ovc);
        }
        let req = r.switch_requests(0, od);
        assert_eq!(req, (1 << a) | (1 << b));
        assert_eq!(r.arbitrate(0, od, req, 5), None, "arrived this cycle");
        assert_eq!(r.arbitrate(0, od, req, 6), Some(a));
        let (flit, out_vc) = r.cross_switch(0, od, a, 1);
        assert_eq!((flit.kind, out_vc), (FlitKind::Head, Some(0)));
        assert_eq!(r.credit(0, od, 0), 4);
        assert_eq!(r.core[0].sa_rr[od] as usize, a + 1);
        // Starve b's downstream VC of credits: it can no longer win.
        let req = r.switch_requests(0, od);
        for _ in 0..5 {
            r.credits[od * 4 + 1] -= 1;
        }
        assert_eq!(r.arbitrate(0, od, req, 6), None);
        r.return_credit(r.credit_index(0, od, 1));
        assert_eq!(r.arbitrate(0, od, req, 6), Some(b));
    }

    #[test]
    fn rotated_round_robin_matches_the_two_pass_walk() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a5a);
        for slots in [5u32, 10, 20, 60] {
            let all = (1u64 << slots) - 1;
            for start in 0..slots as u8 {
                // The walk `arbitrate` ran before the rotation, kept as the
                // model: slots `>= start`, then the wrap-around below it.
                let low = (1u64 << start) - 1;
                let mut masks = vec![0, all, 1 << start, low];
                masks.extend((0..1_000).map(|_| rng.next_u64() & all));
                for req in masks {
                    let model: Vec<usize> =
                        BitsIter(req & !low).chain(BitsIter(req & low)).collect();
                    let rotated: Vec<usize> = round_robin(req, start).collect();
                    assert_eq!(rotated, model, "slots {slots}, start {start}, req {req:#x}");
                }
            }
        }
    }

    #[test]
    fn requesting_ports_is_the_union_of_switch_requests() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa5a5);
        for _ in 0..500 {
            let config = RouterConfig {
                vcs: rng.gen_range(1..=12),
                buffer_depth: rng.gen_range(1..=5),
            };
            let (mut r, _store, flits) = rig(config);
            for s in 0..r.slots() {
                // Head and body flits only: a pop below never clears the
                // route, so routed slots can also be empty.
                let pushed = rng.gen_range(0..=config.buffer_depth);
                for i in 0..pushed {
                    r.push_flit(0, s, flits[i % 4], 0);
                }
                if rng.gen_bool(0.7) {
                    let dir = Direction::ALL[rng.gen_range(0..5)];
                    r.set_route(0, s, dir);
                    if dir != Direction::Local && rng.gen_bool(0.6) {
                        if let Some(ovc) = r.free_out_vc(0, dir.index()) {
                            r.grant_out_vc(0, s, ovc);
                        }
                    }
                }
                for _ in 0..rng.gen_range(0..=pushed) {
                    r.pop_flit(0, s);
                }
            }
            r.debug_consistent(0);
            let ports = r.requesting_ports(0);
            assert!(ports < 1 << 5);
            for od in 0..5 {
                assert_eq!(
                    ports >> od & 1 == 1,
                    r.switch_requests(0, od) != 0,
                    "port {od} of {:?}",
                    r.core[0]
                );
            }
        }
    }

    #[test]
    fn default_config_matches_table1() {
        let c = RouterConfig::default();
        assert_eq!(c.vcs, 4);
        assert_eq!(c.buffer_depth, 5);
    }

    #[test]
    fn new_router_is_idle_with_full_credits() {
        let (r, store, _) = rig(RouterConfig::default());
        let view = Router::new(&r, &store, 0);
        assert!(view.is_idle());
        assert_eq!(view.buffered_flits(), 0);
        assert_eq!(view.flits_forwarded(), 0);
        assert_eq!(view.packets_routed(), 0);
        for dir in Direction::ALL {
            assert_eq!(r.output_credits(0, dir), 4 * 5);
            for vc in 0..4 {
                assert!(view.can_accept(dir, vc));
                assert_eq!(view.output_credit(dir, vc), 5);
                assert!(!view.output_allocated(dir, vc));
            }
        }
    }

    #[test]
    fn hot_state_sizes_stay_within_budget() {
        assert!(std::mem::size_of::<RouterCore>() <= 128);
        assert!(std::mem::size_of::<RingEntry>() <= 16);
    }

    #[test]
    fn geometry_limits_are_asserted_at_construction() {
        let build = |vcs, buffer_depth| {
            std::panic::catch_unwind(|| Routers::new(1, RouterConfig { vcs, buffer_depth })).is_ok()
        };
        assert!(build(1, 1));
        assert!(build(12, 255));
        assert!(!build(13, 5));
        assert!(!build(0, 5));
        assert!(!build(4, 256));
        assert!(!build(4, 0));
    }
}
