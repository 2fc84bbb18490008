use crate::active::{ActiveSet, BitsIter};
use crate::error::NocError;
use crate::fault::{FaultAction, FaultHook};
use crate::flit::{FlitHandle, FlitKind};
use crate::inspect::{NullInspector, PacketInspector};
use crate::metrics::NocMetrics;
use crate::packet::{Packet, PacketKind};
use crate::router::{Router, RouterConfig, Routers};
use crate::routing::RoutingKind;
use crate::stats::NetworkStats;
use crate::store::{PacketStore, NIL};
use crate::topology::{Coord, Direction, Mesh2d, NodeId};
use crate::trace::{TraceBuffer, TraceEvent};

/// Maximum number of flits a node's injection queue may hold before
/// [`Network::inject`] reports back-pressure.
pub const INJECTION_QUEUE_CAPACITY: usize = 4096;

/// Construction parameters of a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Mesh topology.
    pub mesh: Mesh2d,
    /// Per-router microarchitecture (VC count, buffer depth).
    pub router: RouterConfig,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Packet-lifecycle tracing: `Some(capacity)` retains the newest
    /// `capacity` [`TraceEvent`]s in a ring buffer; `None` (default)
    /// disables tracing entirely.
    pub trace_capacity: Option<usize>,
}

impl NetworkConfig {
    /// Creates a configuration with Table-I defaults (4 VCs, 5-flit buffers,
    /// XY routing) on the given mesh.
    #[must_use]
    pub fn new(mesh: Mesh2d) -> Self {
        NetworkConfig {
            mesh,
            router: RouterConfig::default(),
            routing: RoutingKind::default(),
            trace_capacity: None,
        }
    }

    /// Enables packet-lifecycle tracing with the given ring-buffer
    /// capacity.
    #[must_use]
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Selects a routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Overrides the router microarchitecture.
    #[must_use]
    pub fn with_router(mut self, router: RouterConfig) -> Self {
        self.router = router;
        self
    }
}

/// A packet that reached its destination, with delivery metadata.
#[derive(Debug, Clone, Copy)]
pub struct DeliveredPacket {
    /// The packet as received — if a Trojan rewrote it en route, this is the
    /// tampered frame (the receiver cannot tell).
    pub packet: Packet,
    /// End-to-end latency in cycles, injection to tail ejection.
    pub latency: u64,
    /// Number of router-to-router hops traversed.
    pub hops: u32,
    /// Whether any inspector reported modifying this packet. This is ground
    /// truth available to the experimenter, not to the receiver.
    pub modified: bool,
}

/// A flit in flight on a link — its handle, flattened — with the downstream
/// VC it was allocated. Eight bytes; an empty link holds
/// [`LinkSlot::EMPTY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkSlot {
    slot: u32,
    kind: FlitKind,
    ovc: u8,
}

impl LinkSlot {
    const EMPTY: LinkSlot = LinkSlot {
        slot: NIL,
        kind: FlitKind::Body,
        ovc: 0,
    };

    fn is_empty(&self) -> bool {
        self.slot == NIL
    }
}

/// One node's injection queue: a FIFO of *packets* threaded through the
/// [`PacketStore`] (`head` → `next_queued` → … → `tail`). Flits are cut off
/// the head packet one per cycle as the local input port accepts them.
#[derive(Debug, Clone, Copy)]
struct InjectQueue {
    /// Store slot of the packet whose flits enter the router next.
    head: u32,
    /// Store slot of the most recently queued packet (meaningful while
    /// `head` is not `NIL`).
    tail: u32,
    /// Flits still waiting, summed over the queued packets.
    flits: u32,
    /// Flits of the head packet already inside the router.
    sent: u8,
    /// Local input VC receiving the head packet, once its head flit is in.
    vc: Option<u8>,
}

impl InjectQueue {
    const EMPTY: InjectQueue = InjectQueue {
        head: NIL,
        tail: NIL,
        flits: 0,
        sent: 0,
        vc: None,
    };
}

/// A cycle-accurate wormhole-switched 2D-mesh network.
///
/// The per-cycle pipeline models a two-cycle router plus one-cycle links
/// (Table I): within [`Network::step`] the stages run in the order
/// *link delivery* → *switch traversal* → *injection* → *VC allocation* →
/// *routing computation & inspection*, so a head flit arriving in cycle *t*
/// is routed in *t*, allocated in *t + 1*, traverses the crossbar in *t + 2*
/// and lands in the next router's buffer in *t + 3*. Flits stamped into a
/// buffer in cycle *t* are not switch-eligible until *t + 1*.
///
/// The inspector hook (the Trojan attachment point, Fig. 2b) runs once per
/// packet per router, immediately before routing computation.
///
/// # Active-set stepping
///
/// Per-cycle cost is proportional to *activity*, not mesh size: each stage
/// walks an incrementally-maintained worklist (`ActiveSet`) — routers
/// holding flits, occupied link slots, nodes with queued injections —
/// instead of scanning every router × port × VC. The worklists iterate in
/// ascending index order, which is exactly the order the original dense
/// scans used, so the optimisation is observably invisible (locked by the
/// golden-digest tests in `tests/determinism_golden.rs`). Invariants,
/// restored at the end of every [`Network::step`]:
///
/// * `active` = set of routers with `buffered_flits() > 0`;
/// * `links_occupied` = set of link indices carrying a flit;
/// * `inject_busy` = set of nodes with a non-empty injection queue, and
///   `queued_flits` = total flits across all injection queues.
///
/// # Where the state lives
///
/// A flit inside the network is an 8-byte handle (packet-store slot, flit
/// kind). The packet frame, id, injection cycle, hop count and tamper flag
/// live once per packet in the [`PacketStore`]; all router state lives in
/// the mesh-wide slabs of `router::Routers`, sized once from the
/// [`RouterConfig`]. See `docs/PERF.md`, *Data layout & arenas*.
pub struct Network<I: PacketInspector = NullInspector> {
    mesh: Mesh2d,
    routing: RoutingKind,
    routers: Routers,
    /// `links[node * 4 + dir]`: flit in flight from `node` towards `dir`.
    links: Vec<LinkSlot>,
    inject_q: Vec<InjectQueue>,
    /// Slab owning every in-flight packet: frame, id, injection cycle,
    /// hops, tamper flag. Flits carry only the slot index.
    store: PacketStore,
    ejected: Vec<DeliveredPacket>,
    inspector: I,
    /// Optional deterministic fault layer ([`FaultHook`]). `None` (the
    /// default) costs one branch per [`Network::step`]; a hook whose
    /// [`FaultHook::any_faults_at`] returns `false` costs one virtual call.
    faults: Option<Box<dyn FaultHook>>,
    /// Optional live metrics ([`NocMetrics`]). `None` (the default) costs
    /// one branch per [`Network::step`] and one per flit push; the pipeline
    /// only ever *writes* these tallies, so enabling them cannot perturb
    /// behaviour (locked by the metrics-on golden digests and the
    /// conformance oracle).
    metrics: Option<Box<NocMetrics>>,
    stats: NetworkStats,
    trace: Option<TraceBuffer>,
    cycle: u64,
    next_packet_id: u64,
    /// Routers currently holding at least one buffered flit.
    active: ActiveSet,
    /// Link slots (`node * 4 + dir`) currently carrying a flit.
    links_occupied: ActiveSet,
    /// Nodes whose injection queue is non-empty.
    inject_busy: ActiveSet,
    /// Total flits waiting across all injection queues.
    queued_flits: usize,
    /// `neighbor_tbl[node * 4 + dir]`: the node across that link, flattened
    /// once at construction so the hot loops never recompute coordinates.
    neighbor_tbl: Vec<Option<NodeId>>,
    /// `coords[node]`: the node's mesh coordinate, flattened once so
    /// routing computation never divides a node id by the mesh width.
    coords: Vec<Coord>,
    /// Reusable buffer for deferred credit returns in switch traversal:
    /// indices into the routers' credit slab.
    credit_scratch: Vec<u32>,
    /// Test-only seeded bug ([`Network::set_rr_skew`]): advance the switch
    /// round-robin pointer by 2 instead of 1 after each grant.
    rr_skew: bool,
}

impl Network<NullInspector> {
    /// Creates a clean (Trojan-free) network.
    #[must_use]
    pub fn new(config: NetworkConfig) -> Self {
        Network::with_inspector(config, NullInspector)
    }
}

impl<I: PacketInspector> Network<I> {
    /// Creates a network whose routers pass every packet header through
    /// `inspector` ahead of routing computation.
    ///
    /// # Panics
    ///
    /// Panics if `config.router` is outside the limits documented on
    /// [`RouterConfig`] (`vcs` in 1..=12, `buffer_depth` in 1..=255).
    #[must_use]
    pub fn with_inspector(config: NetworkConfig, inspector: I) -> Self {
        let nodes = config.mesh.nodes() as usize;
        Network {
            mesh: config.mesh,
            routing: config.routing,
            routers: Routers::new(nodes, config.router),
            links: vec![LinkSlot::EMPTY; nodes * 4],
            inject_q: vec![InjectQueue::EMPTY; nodes],
            store: PacketStore::new(),
            ejected: Vec::new(),
            inspector,
            faults: None,
            metrics: None,
            stats: NetworkStats::default(),
            trace: config.trace_capacity.map(TraceBuffer::new),
            cycle: 0,
            next_packet_id: 0,
            active: ActiveSet::new(nodes),
            links_occupied: ActiveSet::new(nodes * 4),
            inject_busy: ActiveSet::new(nodes),
            queued_flits: 0,
            neighbor_tbl: config.mesh.neighbor_table(),
            coords: config
                .mesh
                .iter_nodes()
                .map(|n| config.mesh.coord(n))
                .collect(),
            credit_scratch: Vec::new(),
            rr_skew: false,
        }
    }

    /// Returns an idle network to exactly the state
    /// [`Network::with_inspector`] builds from the same configuration, with
    /// `inspector` installed: cycle 0, packet ids from 0, empty statistics
    /// and trace, idle routers with full credits and round-robin pointers
    /// at 0, and no fault hook or metrics. Reusing one network across
    /// back-to-back runs skips rebuilding its slabs; what the runs observe
    /// is the same as with a new network each time.
    ///
    /// # Panics
    ///
    /// Panics if the network is not [`Network::is_idle`].
    pub fn reset(&mut self, inspector: I) {
        assert!(self.is_idle(), "reset called on a busy network");
        // Idle means no flit is buffered, queued or on a link, so every
        // worklist is already empty and every link slot already EMPTY.
        self.routers.reset();
        self.inject_q.fill(InjectQueue::EMPTY);
        self.store.clear();
        self.ejected.clear();
        self.inspector = inspector;
        self.faults = None;
        self.metrics = None;
        self.stats = NetworkStats::default();
        if let Some(trace) = self.trace.as_mut() {
            trace.clear();
        }
        self.cycle = 0;
        self.next_packet_id = 0;
        self.rr_skew = false;
    }

    /// Seeds a deliberate arbitration bug: after every switch grant the
    /// round-robin pointer advances by 2 slots instead of 1, perturbing
    /// fairness under contention. Exists solely so the differential oracle
    /// in `htpb-testkit` can demonstrate that it catches (and shrinks) a
    /// real pipeline mutation; never enable it outside that test rig.
    #[doc(hidden)]
    pub fn set_rr_skew(&mut self, on: bool) {
        self.rr_skew = on;
    }

    /// The mesh topology.
    #[must_use]
    pub fn mesh(&self) -> Mesh2d {
        self.mesh
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read access to the inspector.
    #[must_use]
    pub fn inspector(&self) -> &I {
        &self.inspector
    }

    /// Mutable access to the inspector (e.g. to re-arm Trojans mid-run).
    pub fn inspector_mut(&mut self) -> &mut I {
        &mut self.inspector
    }

    /// Installs a fault-injection hook (replacing any previous one). See
    /// [`FaultHook`] for where the pipeline consults it.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Removes and returns the installed fault hook, if any — the way to
    /// read back a fault plan's counters after a run.
    pub fn take_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.faults.take()
    }

    /// Whether a fault hook is currently installed.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn has_fault_hook(&self) -> bool {
        self.faults.is_some()
    }

    /// Enables live metric collection ([`NocMetrics`]). Idempotent; the
    /// single `Box` allocation happens here, before steady state, keeping
    /// [`Network::step`] allocation-free with metrics on (locked by
    /// `tests/alloc_regression.rs`).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::default());
        }
    }

    /// The live metrics, when enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&NocMetrics> {
        self.metrics.as_deref()
    }

    /// Aggregate network statistics.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// The packet-lifecycle trace, when tracing was enabled at
    /// construction.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Read-only view of a router (diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    #[must_use]
    pub fn router(&self, node: NodeId) -> Router<'_> {
        Router::new(&self.routers, &self.store, node.0 as usize)
    }

    /// Per-node crossbar utilization: flits forwarded by each router, in
    /// node order — the raw material for congestion heatmaps.
    #[must_use]
    pub fn utilization_map(&self) -> Vec<u64> {
        self.routers
            .core
            .iter()
            .map(|c| c.flits_forwarded)
            .collect()
    }

    /// Enqueues `packet` at its source node's injection queue and returns the
    /// simulator-assigned packet id.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NodeOutOfRange`] for addresses outside the mesh
    /// and [`NocError::InjectionQueueFull`] under back-pressure.
    pub fn inject(&mut self, packet: Packet) -> Result<u64, NocError> {
        for node in [packet.src(), packet.dst()] {
            if !self.mesh.contains(node) {
                return Err(NocError::NodeOutOfRange {
                    node,
                    nodes: self.mesh.nodes(),
                });
            }
        }
        let src = packet.src().0 as usize;
        let n = packet.flit_count();
        let queue = &mut self.inject_q[src];
        if queue.flits as usize + n > INJECTION_QUEUE_CAPACITY {
            return Err(NocError::InjectionQueueFull { node: packet.src() });
        }
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let slot = self.store.alloc(packet, id, self.cycle);
        if queue.head == NIL {
            queue.head = slot;
        } else {
            self.store.set_next_queued(queue.tail, slot);
        }
        queue.tail = slot;
        queue.flits += n as u32;
        self.queued_flits += n;
        self.inject_busy.insert(src);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::Injected {
                packet: id,
                kind: packet.kind(),
                src: packet.src(),
                dst: packet.dst(),
                cycle: self.cycle,
            });
        }
        self.stats.on_inject();
        Ok(id)
    }

    /// Takes all packets delivered since the previous call.
    pub fn drain_ejected(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.ejected)
    }

    /// Moves all packets delivered since the previous call into `out`
    /// (cleared first), swapping buffers so both sides recycle their
    /// capacity — the allocation-free variant of [`Self::drain_ejected`]
    /// for callers that drain every few cycles.
    pub fn drain_ejected_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        out.clear();
        std::mem::swap(&mut self.ejected, out);
    }

    /// Whether no flit is buffered, queued, or in flight anywhere. O(1) —
    /// both counters are maintained incrementally.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.store.live() == 0 && self.queued_flits == 0
    }

    /// Whether every pipeline stage would be a no-op this cycle: no router
    /// buffers a flit, no link carries one, no injection queue waits. O(1).
    ///
    /// Equivalent to [`Self::is_idle`] (every in-flight packet keeps at
    /// least its tail flit somewhere), but phrased in terms of the per-stage
    /// worklists so [`Self::step`] and [`Self::skip_idle_cycles`] can rely
    /// on it directly.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.active.is_empty() && self.links_occupied.is_empty() && self.queued_flits == 0
    }

    /// Advances the network by one cycle.
    // htpb-lint: hot
    pub fn step(&mut self) {
        if self.is_quiescent() {
            // Every stage is a no-op on a quiet network (faults included:
            // with no flit anywhere, a downed link, stalled router or
            // corrupted packet can have no effect); only time passes.
            self.cycle += 1;
            return;
        }
        // One gate call per cycle; when it reports no faults the stages
        // make zero further hook calls, keeping the empty-plan path
        // bit-identical to a build with no hook installed.
        let faults_engaged = match self.faults.as_mut() {
            Some(hook) => hook.any_faults_at(self.cycle),
            None => false,
        };
        if let Some(m) = self.metrics.as_deref_mut() {
            m.on_cycle(
                self.active.len(),
                self.links_occupied.len(),
                self.queued_flits,
            );
        }
        self.stage_link_delivery();
        self.stage_switch_traversal(faults_engaged);
        self.stage_injection();
        self.stage_allocation_and_routing(faults_engaged);
        self.cycle += 1;
        #[cfg(debug_assertions)]
        self.debug_check_invariants();
    }
    // htpb-lint: end-hot

    /// Always-on (debug builds) end-of-cycle invariant audit: packet
    /// conservation every cycle, plus — every 64th cycle, because they
    /// rescan the whole mesh — flit-presence bounds, per-VC credit
    /// conservation against downstream occupancy, and worklist consistency.
    /// Read-only, so release behaviour is bit-identical with the checks
    /// compiled out.
    #[cfg(debug_assertions)]
    fn debug_check_invariants(&self) {
        // Flit conservation, packet granularity: every injected packet is
        // delivered, dropped, or still tracked in flight — even under
        // fault-induced drops.
        assert_eq!(
            self.store.live() as u64,
            self.stats.injected_packets()
                - self.stats.delivered_packets()
                - self.stats.dropped_packets(),
            "packet conservation violated at cycle {}",
            self.cycle
        );
        if !self.cycle.is_multiple_of(64) {
            return;
        }
        let nodes = self.routers.core.len();
        // Flit presence: every in-flight packet keeps between 1 and
        // flit_count() flits somewhere (queued, buffered, or on a link).
        let buffered: usize = (0..nodes)
            .map(|r| self.routers.core[r].buffered as usize)
            .sum();
        let on_links = self.links.iter().filter(|l| !l.is_empty()).count();
        let queued: usize = self.inject_q.iter().map(|q| q.flits as usize).sum();
        assert_eq!(queued, self.queued_flits, "queued-flit counter drifted");
        let present = buffered + on_links + queued;
        assert!(
            present >= self.store.live(),
            "cycle {}: {} in-flight packets but only {} flits present",
            self.cycle,
            self.store.live(),
            present
        );
        assert!(
            present <= self.store.live() * crate::flit::FLITS_PER_DATA_PACKET,
            "cycle {}: {} flits present exceed {} in-flight packets x max flits",
            self.cycle,
            present,
            self.store.live()
        );
        // Per-VC credit conservation: for every link, the upstream port's
        // credit count plus the downstream buffer occupancy plus any flit
        // in transit allocated to that VC must equal the buffer depth.
        let vcs = self.routers.vcs();
        let depth = self.router(NodeId(0)).config().buffer_depth;
        for ri in 0..nodes {
            for dir in Direction::MESH {
                let li = ri * 4 + dir.index();
                let Some(down) = self.neighbor_tbl[li] else {
                    continue;
                };
                let in_port = Direction::OPPOSITE_INDEX[dir.index()];
                let link = self.links[li];
                for vc in 0..vcs {
                    let credits = self.routers.credit(ri, dir.index(), vc);
                    let downstream =
                        self.routers.vc(down.0 as usize, in_port * vcs + vc).len as usize;
                    let in_transit = usize::from(!link.is_empty() && usize::from(link.ovc) == vc);
                    assert_eq!(
                        credits + downstream + in_transit,
                        depth,
                        "credit conservation violated at cycle {} on node {ri} dir {dir:?} vc {vc}",
                        self.cycle
                    );
                }
            }
        }
        // The incrementally maintained masks and counters must agree with
        // a rebuild from the per-VC records.
        for r in 0..nodes {
            self.routers.debug_consistent(r);
        }
        // Worklist consistency: the active set is exactly the routers
        // holding flits, the link set exactly the occupied slots, the
        // injection set exactly the non-empty queues.
        let mut snap = Vec::new();
        self.active.snapshot_into(&mut snap);
        let expect: Vec<u32> = (0..nodes as u32)
            .filter(|&i| self.routers.core[i as usize].buffered > 0)
            .collect();
        assert_eq!(snap, expect, "active set drifted at cycle {}", self.cycle);
        self.links_occupied.snapshot_into(&mut snap);
        let expect: Vec<u32> = (0..self.links.len() as u32)
            .filter(|&i| !self.links[i as usize].is_empty())
            .collect();
        assert_eq!(snap, expect, "link set drifted at cycle {}", self.cycle);
        self.inject_busy.snapshot_into(&mut snap);
        let expect: Vec<u32> = (0..nodes as u32)
            .filter(|&i| self.inject_q[i as usize].head != NIL)
            .collect();
        assert_eq!(snap, expect, "inject set drifted at cycle {}", self.cycle);
    }

    /// Advances the network `n` cycles.
    // htpb-lint: hot
    pub fn step_n(&mut self, n: u64) {
        if self.is_quiescent() {
            self.cycle += n;
            return;
        }
        for _ in 0..n {
            self.step();
        }
    }

    /// Advances the cycle counter by `n` without touching the pipeline.
    ///
    /// Only legal while [`Self::is_quiescent`] holds — each skipped cycle
    /// is then observably identical to a real [`Self::step`], which would
    /// no-op anyway. Lets callers that know the next injection time (e.g.
    /// an epoch-driven power manager) fast-forward across dead time.
    pub fn skip_idle_cycles(&mut self, n: u64) {
        debug_assert!(
            self.is_quiescent(),
            "skip_idle_cycles called on a busy network"
        );
        self.cycle += n;
    }

    /// Steps until the network drains completely or `max_cycles` elapse.
    /// Returns `true` if the network went idle.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return true;
            }
            self.step();
        }
        self.is_idle()
    }
    // end of the step_n/run_until_idle driver region; the per-stage region
    // below re-opens because debug audits between them allocate freely.
    // htpb-lint: end-hot

    // htpb-lint: hot
    /// Stage 1: switch allocation + traversal. Each output port of each
    /// router forwards at most one flit per cycle, picked round-robin over
    /// the eligible (input port, VC) pairs. Virtual channels whose packet an
    /// inspector ordered dropped are drained into a sink instead (one flit
    /// per cycle, credits still returned upstream).
    ///
    /// When `faults_engaged`, the installed [`FaultHook`] may stall whole
    /// routers (skipped before the drop sink; their flits stay buffered and
    /// the router stays in the active set) and take links down (the output
    /// port skips arbitration this cycle).
    fn stage_switch_traversal(&mut self, faults_engaged: bool) {
        /// All five output ports, N/S/E/W/Local, as a port mask.
        const ALL_PORTS: u64 = (1 << Direction::ALL.len()) - 1;
        // Credit returns are deferred to the end of the stage: a credit
        // freed by router r this cycle must not be spendable by a router
        // visited after r in the same cycle.
        let mut credit_returns = std::mem::take(&mut self.credit_scratch);
        credit_returns.clear();
        let now = self.cycle;
        let vcs = self.routers.vcs();
        let slots = self.routers.slots();
        let bump = 1 + usize::from(self.rr_skew);
        // Within this stage routers only *lose* flits (pushes happen in link
        // delivery and injection) and only the router being visited leaves
        // the active set, so walking word copies visits exactly the routers
        // the dense scan's `buffered > 0` filter would have, in the same
        // ascending order.
        for w in 0..self.active.words() {
            for b in BitsIter(self.active.word(w)) {
                let ri = w * 64 + b;
                // Only output ports with a switch request can grant. Faulted
                // cycles still visit every port of every active router, so
                // the hook is asked about the same routers and links in the
                // same order.
                let ports = if faults_engaged {
                    ALL_PORTS
                } else {
                    self.routers.requesting_ports(ri)
                };
                // Nothing to grant and nothing to sink.
                if ports == 0 && self.routers.core[ri].dropping_vcs == 0 {
                    continue;
                }
                let node = NodeId(ri as u16);
                // A stalled router forwards (and sinks) nothing this cycle.
                // Its flits stay buffered, so it is still a legitimate
                // active-set member and the removal below is skipped.
                if faults_engaged {
                    if let Some(hook) = self.faults.as_mut() {
                        if hook.router_stalled(node, now) {
                            if let Some(m) = self.metrics.as_deref_mut() {
                                m.on_router_stalled();
                            }
                            continue;
                        }
                    }
                }
                // Sink stage for dropped packets — gated on the O(1)
                // dropping counter; routers with nothing to sink skip the
                // scan. Ascending slot order == the historical (port, vc)
                // nesting.
                if self.routers.core[ri].dropping_vcs > 0 {
                    for slot in 0..slots {
                        if !self.routers.vc(ri, slot).dropping {
                            continue;
                        }
                        let Some(flit) = self.routers.pop_flit(ri, slot) else {
                            continue;
                        };
                        if let Some(credit) = self.upstream_credit(ri, slot / vcs, slot % vcs) {
                            credit_returns.push(credit);
                        }
                        if flit.kind.is_tail() {
                            self.store.free(flit.slot);
                            self.stats.on_packet_dropped();
                        }
                    }
                }
                for od in BitsIter(ports) {
                    let out_dir = Direction::ALL[od];
                    if out_dir != Direction::Local {
                        // No busy-link test: link delivery ran first this
                        // cycle and took every occupied link, and a link is
                        // written at most once per cycle, by its own router,
                        // below — after this point.
                        debug_assert!(
                            self.links[ri * 4 + od].is_empty(),
                            "link {ri}/{out_dir:?} still occupied after link delivery"
                        );
                        // A downed link simply skips arbitration this cycle.
                        if faults_engaged {
                            if let Some(hook) = self.faults.as_mut() {
                                if hook.link_down(node, out_dir, now) {
                                    continue;
                                }
                            }
                        }
                    }
                    let req = self.routers.switch_requests(ri, od);
                    if req == 0 {
                        continue;
                    }
                    let Some(slot) = self.routers.arbitrate(ri, od, req, now) else {
                        continue;
                    };
                    let (flit, out_vc) = self.routers.cross_switch(ri, od, slot, bump);
                    // Return a credit upstream for the buffer slot just freed.
                    if let Some(credit) = self.upstream_credit(ri, slot / vcs, slot % vcs) {
                        credit_returns.push(credit);
                    }
                    if out_dir == Direction::Local {
                        self.eject(flit);
                    } else {
                        if flit.kind.is_head() {
                            self.store.bump_hops(flit.slot);
                        }
                        let li = ri * 4 + od;
                        self.links[li] = LinkSlot {
                            slot: flit.slot,
                            kind: flit.kind,
                            ovc: out_vc.expect("non-local ST requires an allocated VC"),
                        };
                        self.links_occupied.insert(li);
                    }
                }
                if self.routers.core[ri].buffered == 0 {
                    self.active.remove(ri);
                }
            }
        }
        for &credit in &credit_returns {
            self.routers.return_credit(credit);
        }
        self.credit_scratch = credit_returns;
    }

    /// Credit-slab index to return a credit to when a flit leaves input
    /// `(in_port, vc)` of router `ri`: the same VC behind the upstream
    /// neighbour's facing output port. `None` for the local port, which has
    /// no upstream router.
    #[inline]
    fn upstream_credit(&self, ri: usize, in_port: usize, vc: usize) -> Option<u32> {
        if in_port == Direction::Local.index() {
            return None;
        }
        let up = self.neighbor_tbl[ri * 4 + in_port]?;
        Some(
            self.routers
                .credit_index(up.0 as usize, Direction::OPPOSITE_INDEX[in_port], vc),
        )
    }

    /// Stage 2a: flits on links land in downstream input buffers.
    fn stage_link_delivery(&mut self) {
        if self.links_occupied.is_empty() {
            return;
        }
        let now = self.cycle;
        let vcs = self.routers.vcs();
        // Ascending link index == (node ascending, direction in N/S/E/W
        // index order) — the exact order of the dense double loop. Every
        // occupied link is delivered, so each word is taken whole.
        for w in 0..self.links_occupied.words() {
            for b in BitsIter(self.links_occupied.take_word(w)) {
                let li = w * 64 + b;
                let LinkSlot { slot, kind, ovc } =
                    std::mem::replace(&mut self.links[li], LinkSlot::EMPTY);
                let flit = FlitHandle { slot, kind };
                let dst = self.neighbor_tbl[li].expect("link endpoints are mesh neighbours");
                let di = dst.0 as usize;
                let in_port = Direction::OPPOSITE_INDEX[li % 4];
                let occupancy =
                    self.routers
                        .push_flit(di, in_port * vcs + usize::from(ovc), flit, now);
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.on_flit_buffered(occupancy);
                }
                self.active.insert(di);
            }
        }
    }

    /// Stage 2b: injection — at most one flit per node per cycle is cut off
    /// the packet at the head of the node's injection FIFO and moves into a
    /// free local-input VC.
    fn stage_injection(&mut self) {
        if self.inject_busy.is_empty() {
            return;
        }
        let now = self.cycle;
        let local = Direction::Local.index() * self.routers.vcs();
        for w in 0..self.inject_busy.words() {
            for b in BitsIter(self.inject_busy.word(w)) {
                let ri = w * 64 + b;
                let q = self.inject_q[ri];
                let n = self.store.packet(q.head).flit_count();
                let kind = FlitKind::nth(usize::from(q.sent), n);
                let target_vc = if kind.is_head() {
                    // A new packet needs an idle local VC.
                    match self.routers.free_injection_vc(ri) {
                        Some(v) => v,
                        None => continue,
                    }
                } else {
                    match q.vc {
                        Some(v) => usize::from(v),
                        None => continue,
                    }
                };
                let slot = local + target_vc;
                if !self.routers.has_space(ri, slot) {
                    continue;
                }
                let flit = FlitHandle { slot: q.head, kind };
                let q = &mut self.inject_q[ri];
                q.flits -= 1;
                self.queued_flits -= 1;
                if kind.is_tail() {
                    q.head = self.store.next_queued(q.head);
                    q.sent = 0;
                    q.vc = None;
                    if q.head == NIL {
                        self.inject_busy.remove(ri);
                    }
                } else {
                    q.sent += 1;
                    q.vc = Some(target_vc as u8);
                }
                let occupancy = self.routers.push_flit(ri, slot, flit, now);
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.on_flit_buffered(occupancy);
                }
                self.active.insert(ri);
            }
        }
    }

    /// Stages 3 and 4 in one ascending pass over the active routers:
    /// VC allocation, then routing computation & inspection, per router.
    ///
    /// `VA(r); RC(r)` for each `r` is order-identical to all-VA-then-all-RC:
    /// VA reads and writes only its own router's state and calls no hook,
    /// so the inspector, the fault hook and the trace still see routers —
    /// and slots within a router — in the same ascending order. The VA
    /// candidates are fixed before RC runs, so a route computed this cycle
    /// is allocated next cycle, as before. Neither stage moves a flit, so
    /// the active set is constant throughout; routers with nothing to
    /// allocate or route are skipped after one look at their masks.
    fn stage_allocation_and_routing(&mut self, faults_engaged: bool) {
        for w in 0..self.active.words() {
            for b in BitsIter(self.active.word(w)) {
                let ri = w * 64 + b;
                let va = self.routers.va_pending_slots(ri);
                let rc = self.routers.unrouted_slots(ri);
                // VC allocation: input VCs that know their output port
                // acquire a free downstream VC. Ascending slot order == the
                // dense (port, vc) double loop.
                for slot in BitsIter(va) {
                    let st = self.routers.vc(ri, slot);
                    debug_assert!(
                        st.out_vc.is_none() && st.route.is_some_and(|r| r != Direction::Local),
                        "VA-pending mask drifted"
                    );
                    let od = st.route.expect("VA-pending slot has a route").index();
                    if let Some(free) = self.routers.free_out_vc(ri, od) {
                        self.routers.grant_out_vc(ri, slot, free);
                    }
                }
                for slot in BitsIter(rc) {
                    self.route_head(ri, slot, faults_engaged);
                }
            }
        }
    }

    /// Routing computation for the fresh head at the front of `slot` of
    /// router `ri`, preceded by the inspection hook — the point where an
    /// implanted Trojan reads and possibly rewrites the packet (Fig. 2b).
    /// The frame it rewrites is the packet store's, the one copy there is.
    ///
    /// When `faults_engaged`, the installed [`FaultHook`] runs immediately
    /// after the inspector on the same once-per-packet-per-router
    /// discipline: payload bit flips reuse the tamper bookkeeping,
    /// whole-packet drops reuse the inspector's drop-sink machinery.
    #[inline]
    fn route_head(&mut self, ri: usize, slot: usize, faults_engaged: bool) {
        let node = NodeId(ri as u16);
        let st = self.routers.vc(ri, slot);
        debug_assert!(st.route.is_none() && !st.dropping, "unrouted mask drifted");
        let needs_inspection = !st.inspected;
        let Some(front) = self.routers.front(ri, slot) else {
            return;
        };
        if !front.flit.kind.is_head() {
            return;
        }
        let meta = front.flit.slot;
        if needs_inspection {
            let packet = self.store.packet_mut(meta);
            let payload_before = packet.payload();
            let outcome = self.inspector.inspect(node, self.cycle, packet);
            if outcome.dropped {
                // The whole packet will be sunk here; no route is ever
                // computed for it.
                self.routers.mark_dropping(ri, slot);
                return;
            }
            if outcome.modified {
                let payload_after = packet.payload();
                self.store.set_modified(meta);
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(TraceEvent::Tampered {
                        packet: self.store.packet_id(meta),
                        node,
                        payload_before,
                        payload_after,
                        cycle: self.cycle,
                    });
                }
            }
            let action = match self.faults.as_mut() {
                Some(hook) if faults_engaged => {
                    hook.packet_fault(node, self.cycle, self.store.packet(meta))
                }
                _ => FaultAction::none(),
            };
            if action.drop {
                self.routers.mark_dropping(ri, slot);
                return;
            }
            if action.flip_mask != 0 {
                let packet = self.store.packet_mut(meta);
                let payload_before = packet.payload();
                let payload_after = payload_before ^ action.flip_mask;
                packet.set_payload(payload_after);
                self.store.set_modified(meta);
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(TraceEvent::Tampered {
                        packet: self.store.packet_id(meta),
                        node,
                        payload_before,
                        payload_after,
                        cycle: self.cycle,
                    });
                }
            }
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::Routed {
                packet: self.store.packet_id(meta),
                node,
                cycle: self.cycle,
            });
        }
        let dst = self.store.packet(meta).dst();
        let candidates = self
            .routing
            .route(self.coords[ri], self.coords[usize::from(dst.0)]);
        debug_assert!(!candidates.is_empty());
        let chosen = if candidates.len() == 1 {
            candidates[0]
        } else {
            // Adaptive: prefer the candidate with the most free
            // downstream credits.
            *candidates
                .iter()
                .max_by_key(|d| self.routers.output_credits(ri, **d))
                .expect("nonempty candidates")
        };
        self.routers.set_route(ri, slot, chosen);
    }

    /// A flit left through the local port. Only the tail matters: it reads
    /// the frame (as rewritten en route) and the metadata out of the packet
    /// store, frees the slot and delivers the packet.
    fn eject(&mut self, flit: FlitHandle) {
        self.stats.on_flit_delivered();
        if flit.kind.is_tail() {
            let (packet, id, injected_at, hops, modified) = self.store.finish(flit.slot);
            let latency = self.cycle - injected_at;
            self.stats.on_packet_delivered(
                latency,
                u64::from(hops),
                modified,
                matches!(packet.kind(), PacketKind::PowerReq),
            );
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::Ejected {
                    packet: id,
                    node: packet.dst(),
                    cycle: self.cycle,
                });
            }
            self.ejected.push(DeliveredPacket {
                packet,
                latency,
                hops,
                modified,
            });
        }
    }
    // htpb-lint: end-hot
}

impl<I: PacketInspector + std::fmt::Debug> std::fmt::Debug for Network<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("cycle", &self.cycle)
            .field("in_flight", &self.store.live())
            .field("inspector", &self.inspector)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(w: u16, h: u16) -> Network {
        Network::new(NetworkConfig::new(Mesh2d::new(w, h).unwrap()))
    }

    #[test]
    fn link_slot_is_eight_bytes() {
        assert!(std::mem::size_of::<LinkSlot>() <= 8);
        assert!(std::mem::size_of::<InjectQueue>() <= 16);
    }

    #[test]
    fn single_packet_delivered_with_expected_latency() {
        let mut n = net(4, 4);
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 42))
            .unwrap();
        assert!(n.run_until_idle(200));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 42);
        assert_eq!(out[0].hops, 3);
        // 3 hops * (2-cycle router + 1-cycle link) + source router + ejection
        // overhead: latency is small but nonzero.
        assert!(out[0].latency >= 9, "latency {}", out[0].latency);
        assert!(out[0].latency <= 20, "latency {}", out[0].latency);
        assert!(!out[0].modified);
    }

    #[test]
    fn self_addressed_packet_is_delivered() {
        let mut n = net(4, 4);
        n.inject(Packet::power_request(NodeId(5), NodeId(5), 7))
            .unwrap();
        assert!(n.run_until_idle(100));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].hops, 0);
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut n = net(8, 8);
        let mut expected = 0u64;
        for s in 0..64u16 {
            for d in [0u16, 63, 27] {
                n.inject(Packet::power_request(NodeId(s), NodeId(d), s as u32))
                    .unwrap();
                expected += 1;
            }
        }
        assert!(n.run_until_idle(100_000));
        assert_eq!(n.stats().delivered_packets(), expected);
        assert_eq!(n.stats().delivered_power_requests(), expected);
        assert_eq!(n.stats().infection_rate(), 0.0);
    }

    #[test]
    fn data_packets_reassembled() {
        let mut n = net(4, 4);
        n.inject(Packet::new(NodeId(0), NodeId(15), PacketKind::Data, 99))
            .unwrap();
        assert!(n.run_until_idle(500));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 99);
        assert_eq!(n.stats().delivered_flits(), 5);
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut n = net(4, 4);
        let err = n
            .inject(Packet::power_request(NodeId(0), NodeId(16), 1))
            .unwrap_err();
        assert!(matches!(err, NocError::NodeOutOfRange { .. }));
    }

    #[test]
    fn inspector_tampering_is_observed() {
        #[derive(Debug)]
        struct HalveAtNode(NodeId);
        impl PacketInspector for HalveAtNode {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 && matches!(packet.kind(), PacketKind::PowerReq) {
                    packet.set_payload(packet.payload() / 2);
                    crate::InspectOutcome::tampered()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 4).unwrap();
        // XY route 0 -> 3 passes nodes 0,1,2,3. Trojan at node 2.
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), HalveAtNode(NodeId(2)));
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 100))
            .unwrap();
        // A packet that avoids node 2 stays clean.
        n.inject(Packet::power_request(NodeId(4), NodeId(7), 100))
            .unwrap();
        assert!(n.run_until_idle(500));
        let out = n.drain_ejected();
        let tampered: Vec<_> = out.iter().filter(|d| d.modified).collect();
        assert_eq!(tampered.len(), 1);
        assert_eq!(tampered[0].packet.payload(), 50);
        assert_eq!(tampered[0].packet.dst(), NodeId(3));
        assert!((n.stats().infection_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inspection_happens_once_per_hop() {
        #[derive(Debug, Default)]
        struct Counter(std::collections::HashMap<NodeId, u32>);
        impl PacketInspector for Counter {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                _packet: &mut Packet,
            ) -> crate::InspectOutcome {
                *self.0.entry(router).or_default() += 1;
                crate::InspectOutcome::untouched()
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), Counter::default());
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 1))
            .unwrap();
        assert!(n.run_until_idle(200));
        let counts = &n.inspector().0;
        // Every router on the path saw the header exactly once.
        for node in [0u16, 1, 2, 3] {
            assert_eq!(counts.get(&NodeId(node)), Some(&1), "node {node}");
        }
    }

    #[test]
    fn heavy_hotspot_traffic_drains() {
        // Everyone sends to the center: worst-case contention for VCs and
        // credits; the network must not deadlock or drop flits.
        let mesh = Mesh2d::new(8, 8).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh));
        let center = mesh.center();
        for round in 0..4 {
            for s in mesh.iter_nodes() {
                if s != center {
                    n.inject(Packet::power_request(s, center, round * 100 + s.0 as u32))
                        .unwrap();
                }
            }
        }
        assert!(n.run_until_idle(200_000), "hotspot traffic deadlocked");
        assert_eq!(n.stats().delivered_packets(), 4 * 63);
    }

    #[test]
    fn adaptive_routing_delivers_hotspot() {
        let mesh = Mesh2d::new(8, 8).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh).with_routing(RoutingKind::OddEven));
        let center = mesh.center();
        for s in mesh.iter_nodes() {
            if s != center {
                n.inject(Packet::power_request(s, center, 1)).unwrap();
            }
        }
        assert!(n.run_until_idle(100_000), "odd-even deadlocked");
        assert_eq!(n.stats().delivered_packets(), 63);
    }

    #[test]
    fn mixed_data_and_meta_traffic_drains() {
        let mesh = Mesh2d::new(6, 6).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh));
        for s in mesh.iter_nodes() {
            let d = NodeId((s.0 as u32 * 7 % 36) as u16);
            if s == d {
                continue;
            }
            n.inject(Packet::new(s, d, PacketKind::Data, s.0 as u32))
                .unwrap();
            n.inject(Packet::new(s, d, PacketKind::Meta, s.0 as u32))
                .unwrap();
        }
        assert!(n.run_until_idle(100_000));
        assert!(n.stats().delivered_packets() >= 60);
    }

    #[test]
    fn router_counters_track_activity() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh));
        n.inject(Packet::power_request(NodeId(3), NodeId(0), 1))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        // Every router on the path routed the header once and forwarded the
        // single flit once.
        for node in [3u16, 2, 1, 0] {
            let r = n.router(NodeId(node));
            assert_eq!(r.packets_routed(), 1, "node {node}");
            assert_eq!(r.flits_forwarded(), 1, "node {node}");
        }
        let map = n.utilization_map();
        assert_eq!(map, vec![1, 1, 1, 1]);
    }

    #[test]
    fn tracing_reconstructs_packet_life() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh).with_tracing(256));
        let id = n
            .inject(Packet::power_request(NodeId(3), NodeId(0), 1))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let trace = n.trace().expect("tracing enabled");
        let hist = trace.packet_history(id);
        assert!(matches!(
            hist.first(),
            Some(crate::TraceEvent::Injected { .. })
        ));
        assert!(matches!(
            hist.last(),
            Some(crate::TraceEvent::Ejected { .. })
        ));
        assert_eq!(
            trace.packet_route(id),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
        assert!(trace.tamper_hotspots().is_empty());
    }

    #[test]
    fn tracing_disabled_by_default() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let n = Network::new(NetworkConfig::new(mesh));
        assert!(n.trace().is_none());
    }

    #[test]
    fn tracing_records_tamper_events() {
        #[derive(Debug)]
        struct ZeroAt(NodeId);
        impl PacketInspector for ZeroAt {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 && packet.payload() != 0 {
                    packet.set_payload(0);
                    return crate::InspectOutcome::tampered();
                }
                crate::InspectOutcome::untouched()
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(
            NetworkConfig::new(mesh).with_tracing(256),
            ZeroAt(NodeId(1)),
        );
        let id = n
            .inject(Packet::power_request(NodeId(3), NodeId(0), 777))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let trace = n.trace().unwrap();
        let tampered: Vec<_> = trace
            .packet_history(id)
            .into_iter()
            .filter(|e| matches!(e, crate::TraceEvent::Tampered { .. }))
            .collect();
        assert_eq!(tampered.len(), 1);
        if let crate::TraceEvent::Tampered {
            node,
            payload_before,
            payload_after,
            ..
        } = tampered[0]
        {
            assert_eq!(node, NodeId(1));
            assert_eq!(payload_before, 777);
            assert_eq!(payload_after, 0);
        }
        assert_eq!(trace.tamper_hotspots(), vec![(NodeId(1), 1)]);
    }

    #[test]
    fn dropping_inspector_sinks_packets_cleanly() {
        #[derive(Debug)]
        struct DropAt(NodeId);
        impl PacketInspector for DropAt {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == self.0 && matches!(packet.kind(), PacketKind::PowerReq) {
                    crate::InspectOutcome::dropped()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), DropAt(NodeId(2)));
        // Crosses node 2: dropped. Does not: delivered.
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 1))
            .unwrap();
        n.inject(Packet::power_request(NodeId(4), NodeId(7), 2))
            .unwrap();
        // A 5-flit data packet through the drop point passes (only PowerReq
        // is matched by this inspector).
        n.inject(Packet::new(NodeId(0), NodeId(3), PacketKind::Data, 3))
            .unwrap();
        assert!(n.run_until_idle(10_000), "drop left the network busy");
        let out = n.drain_ejected();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.packet.payload() != 1));
        assert_eq!(n.stats().dropped_packets(), 1);
        assert_eq!(n.stats().delivered_packets(), 2);
    }

    #[test]
    fn dropping_multiflit_packets_releases_all_resources() {
        #[derive(Debug)]
        struct DropAll;
        impl PacketInspector for DropAll {
            fn inspect(
                &mut self,
                router: NodeId,
                _cycle: u64,
                _packet: &mut Packet,
            ) -> crate::InspectOutcome {
                if router == NodeId(1) {
                    crate::InspectOutcome::dropped()
                } else {
                    crate::InspectOutcome::untouched()
                }
            }
        }
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::with_inspector(NetworkConfig::new(mesh), DropAll);
        // Several 5-flit packets through the sink, back to back: buffers and
        // credits must fully recover.
        for i in 0..8 {
            n.inject(Packet::new(NodeId(3), NodeId(0), PacketKind::Data, i))
                .unwrap();
        }
        assert!(n.run_until_idle(50_000), "sink leaked resources");
        assert_eq!(n.stats().dropped_packets(), 8);
        assert_eq!(n.stats().delivered_packets(), 0);
        assert!(n.router(NodeId(1)).is_idle());
        // The sink router's buffers drained; credits fully restored on its
        // upstream neighbour.
        for vcid in 0..4 {
            assert!(n.router(NodeId(2)).can_accept(Direction::West, vcid));
        }
    }

    #[test]
    fn stats_latency_increases_with_distance() {
        let mesh = Mesh2d::new(16, 1).unwrap();
        let mut near = Network::new(NetworkConfig::new(mesh));
        near.inject(Packet::power_request(NodeId(0), NodeId(1), 1))
            .unwrap();
        near.run_until_idle(100);
        let near_lat = near.drain_ejected()[0].latency;

        let mut far = Network::new(NetworkConfig::new(mesh));
        far.inject(Packet::power_request(NodeId(0), NodeId(15), 1))
            .unwrap();
        far.run_until_idle(200);
        let far_lat = far.drain_ejected()[0].latency;
        assert!(far_lat > near_lat, "{far_lat} vs {near_lat}");
        // Each extra hop costs ~3 cycles (2-cycle router + 1-cycle link).
        assert!(far_lat - near_lat >= 14 * 2);
    }

    /// A scriptable hook for the fault-path tests below.
    #[derive(Debug, Default)]
    struct ScriptedFaults {
        stall_node: Option<(NodeId, u64)>,
        down_link: Option<(NodeId, Direction, u64)>,
        flip_mask: u32,
        drop_at: Option<NodeId>,
    }

    impl crate::FaultHook for ScriptedFaults {
        fn any_faults_at(&mut self, _cycle: u64) -> bool {
            true
        }
        fn link_down(&mut self, node: NodeId, dir: Direction, cycle: u64) -> bool {
            matches!(self.down_link, Some((n, d, until)) if n == node && d == dir && cycle < until)
        }
        fn router_stalled(&mut self, node: NodeId, cycle: u64) -> bool {
            matches!(self.stall_node, Some((n, until)) if n == node && cycle < until)
        }
        fn packet_fault(&mut self, node: NodeId, _cycle: u64, _p: &Packet) -> crate::FaultAction {
            if self.drop_at == Some(node) {
                crate::FaultAction::drop_packet()
            } else {
                crate::FaultAction::flip(self.flip_mask)
            }
        }
    }

    fn faulty_net(w: u16, h: u16, faults: ScriptedFaults) -> Network {
        let mut n = net(w, h);
        n.set_fault_hook(Box::new(faults));
        n
    }

    #[test]
    fn stalled_router_delays_but_delivers() {
        let baseline = {
            let mut n = net(4, 1);
            n.inject(Packet::power_request(NodeId(0), NodeId(3), 7))
                .unwrap();
            assert!(n.run_until_idle(1_000));
            n.drain_ejected()[0].latency
        };
        let mut n = faulty_net(
            4,
            1,
            ScriptedFaults {
                stall_node: Some((NodeId(1), 50)),
                ..ScriptedFaults::default()
            },
        );
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 7))
            .unwrap();
        assert!(n.run_until_idle(1_000), "stall must end, not deadlock");
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 7);
        assert!(!out[0].modified);
        assert!(
            out[0].latency > baseline + 20,
            "stall did not delay: {} vs {}",
            out[0].latency,
            baseline
        );
    }

    #[test]
    fn downed_link_delays_but_delivers() {
        let mut n = faulty_net(
            4,
            1,
            ScriptedFaults {
                down_link: Some((NodeId(1), Direction::East, 60)),
                ..ScriptedFaults::default()
            },
        );
        n.inject(Packet::power_request(NodeId(0), NodeId(3), 9))
            .unwrap();
        assert!(
            n.run_until_idle(1_000),
            "link outage must end, not deadlock"
        );
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.payload(), 9);
        assert!(out[0].latency > 60, "latency {}", out[0].latency);
    }

    #[test]
    fn payload_flip_fault_marks_packet_modified() {
        let mut n = faulty_net(
            2,
            1,
            ScriptedFaults {
                flip_mask: 0b1,
                ..ScriptedFaults::default()
            },
        );
        n.inject(Packet::power_request(NodeId(0), NodeId(1), 0b100))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        let out = n.drain_ejected();
        assert_eq!(out.len(), 1);
        // Flipped once per router on the two-node path: 0b100 ^ 1 ^ 1 at the
        // source and destination routers.
        assert_eq!(out[0].packet.payload(), 0b100);
        assert!(out[0].modified, "fault corruption must be observable");
    }

    #[test]
    fn packet_drop_fault_sinks_cleanly() {
        let mut n = faulty_net(
            4,
            1,
            ScriptedFaults {
                drop_at: Some(NodeId(2)),
                ..ScriptedFaults::default()
            },
        );
        for i in 0..4 {
            n.inject(Packet::new(NodeId(3), NodeId(0), PacketKind::Data, i))
                .unwrap();
        }
        assert!(n.run_until_idle(50_000), "fault sink leaked resources");
        assert_eq!(n.stats().dropped_packets(), 4);
        assert_eq!(n.stats().delivered_packets(), 0);
        assert!(n.router(NodeId(2)).is_idle());
    }

    #[test]
    #[should_panic(expected = "reset called on a busy network")]
    fn reset_on_a_busy_network_panics() {
        let mut n = net(4, 4);
        n.inject(Packet::power_request(NodeId(0), NodeId(15), 1))
            .unwrap();
        n.step();
        n.reset(NullInspector);
    }

    #[test]
    fn reset_drops_fault_hook_metrics_trace_and_undrained_deliveries() {
        let mesh = Mesh2d::new(4, 1).unwrap();
        let mut n = Network::new(NetworkConfig::new(mesh).with_tracing(64));
        n.set_fault_hook(Box::new(ScriptedFaults::default()));
        n.enable_metrics();
        n.inject(Packet::power_request(NodeId(3), NodeId(0), 1))
            .unwrap();
        assert!(n.run_until_idle(1_000));
        n.reset(NullInspector);
        assert!(!n.has_fault_hook());
        assert!(n.metrics().is_none());
        assert_eq!(n.cycle(), 0);
        assert_eq!(
            n.stats().fingerprint(),
            NetworkStats::default().fingerprint()
        );
        assert_eq!(n.trace().map(|t| t.events().count()), Some(0));
        assert!(n.drain_ejected().is_empty());
        assert_eq!(n.utilization_map(), vec![0; 4]);
        assert_eq!(
            n.inject(Packet::power_request(NodeId(3), NodeId(0), 1)),
            Ok(0),
            "packet ids restart at 0"
        );
    }

    #[test]
    fn fault_hook_can_be_taken_back() {
        let mut n = faulty_net(2, 1, ScriptedFaults::default());
        assert!(n.has_fault_hook());
        assert!(n.take_fault_hook().is_some());
        assert!(!n.has_fault_hook());
        assert!(n.take_fault_hook().is_none());
    }
}
