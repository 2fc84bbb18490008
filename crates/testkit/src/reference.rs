//! The dense reference stepper: a deliberately simple, all-routers ×
//! ports × VCs re-implementation of the wormhole pipeline, kept permanently
//! as the oracle the optimized active-set [`htpb_noc::Network`] is diffed
//! against.
//!
//! Everything here favours obviousness over speed: every stage scans every
//! router in ascending index order, round-robin arbitration walks all
//! `5 × vcs` slots with a modulo, and bookkeeping is recomputed rather than
//! maintained incrementally. The semantics mirror `Network::step` stage by
//! stage — link delivery → switch traversal → injection → VC allocation →
//! routing computation & inspection — including the fault-plan call points
//! threaded through the pipeline: the `is_empty` gate once per
//! non-quiescent cycle, `router_stalled` per flit-holding router at the
//! head of switch traversal, `link_down` after the link-busy check, and
//! `packet_fault` immediately after the inspector.
//!
//! The reference keeps its own statistics mirror ([`RefStats`]) whose
//! [`RefStats::fingerprint`] folds the same fields in the same order as
//! `NetworkStats::fingerprint`, and records into a real
//! [`htpb_noc::TraceBuffer`], so per-cycle fingerprint equality is the
//! equivalence criterion.

use std::collections::{HashMap, VecDeque};

use htpb_noc::{
    DeliveredPacket, Digest, FaultAction, FaultPlan, Flit, Mesh2d, NetworkConfig, NocError, NodeId,
    Packet, PacketInspector, PacketKind, RoutingKind, TraceBuffer, TraceEvent, VcSnapshot,
    INJECTION_QUEUE_CAPACITY,
};

use htpb_noc::Direction;

/// Statistics mirror of `NetworkStats`, updated by the reference pipeline.
///
/// [`RefStats::fingerprint`] reproduces `NetworkStats::fingerprint` exactly
/// (same fields, same order, same FNV digest), so the two implementations
/// fingerprint equal iff every observable counter — including the full
/// latency histogram — is equal.
#[derive(Debug, Clone, Default)]
pub struct RefStats {
    injected_packets: u64,
    delivered_packets: u64,
    delivered_flits: u64,
    total_hops: u64,
    modified_packets: u64,
    dropped_packets: u64,
    delivered_power_requests: u64,
    modified_power_requests: u64,
    lat_buckets: [u64; 32],
    lat_count: u64,
    lat_sum: u64,
    lat_max: u64,
}

impl RefStats {
    fn record_latency(&mut self, latency: u64) {
        let idx = (64 - latency.max(1).leading_zeros() as usize - 1).min(31);
        self.lat_buckets[idx] += 1;
        self.lat_count += 1;
        self.lat_sum += latency;
        self.lat_max = self.lat_max.max(latency);
    }

    /// Packets fully delivered so far.
    #[must_use]
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Packets injected so far.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Packets sunk by an inspector or fault drop order.
    #[must_use]
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Field-for-field mirror of `NetworkStats::fingerprint`.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(self.injected_packets)
            .u64(self.delivered_packets)
            .u64(self.delivered_flits)
            .u64(self.total_hops)
            .u64(self.modified_packets)
            .u64(self.dropped_packets)
            .u64(self.delivered_power_requests)
            .u64(self.modified_power_requests)
            .u64(self.lat_count)
            .u64(self.lat_sum)
            .u64(self.lat_max);
        for &bucket in &self.lat_buckets {
            d.u64(bucket);
        }
        d.finish()
    }
}

/// One input virtual channel of the reference router.
#[derive(Debug, Clone)]
struct RefVc {
    buffer: VecDeque<(Flit, u64)>,
    capacity: usize,
    route: Option<Direction>,
    out_vc: Option<usize>,
    inspected: bool,
    dropping: bool,
}

impl RefVc {
    fn new(capacity: usize) -> Self {
        RefVc {
            buffer: VecDeque::new(),
            capacity,
            route: None,
            out_vc: None,
            inspected: false,
            dropping: false,
        }
    }

    fn has_space(&self) -> bool {
        self.buffer.len() < self.capacity
    }

    fn push(&mut self, flit: Flit, now: u64) {
        assert!(self.has_space(), "reference: credit protocol violated");
        self.buffer.push_back((flit, now));
    }

    fn pop(&mut self) -> Option<Flit> {
        let (flit, _) = self.buffer.pop_front()?;
        if flit.kind.is_tail() {
            self.route = None;
            self.out_vc = None;
            self.inspected = false;
            self.dropping = false;
        }
        Some(flit)
    }
}

/// Credit/allocation state for one downstream port.
#[derive(Debug, Clone)]
struct RefOutput {
    credits: Vec<usize>,
    allocated: Vec<bool>,
}

/// One dense reference router: raw state, no incremental counters.
#[derive(Debug, Clone)]
struct RefRouter {
    inputs: Vec<Vec<RefVc>>,
    outputs: Vec<RefOutput>,
    sa_rr: Vec<usize>,
}

impl RefRouter {
    fn new(vcs: usize, depth: usize) -> Self {
        RefRouter {
            inputs: (0..5)
                .map(|_| (0..vcs).map(|_| RefVc::new(depth)).collect())
                .collect(),
            outputs: (0..5)
                .map(|_| RefOutput {
                    credits: vec![depth; vcs],
                    allocated: vec![false; vcs],
                })
                .collect(),
            sa_rr: vec![0; 5],
        }
    }

    fn buffered(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|p| p.iter())
            .map(|vc| vc.buffer.len())
            .sum()
    }

    fn output_credits(&self, dir: Direction) -> usize {
        self.outputs[dir.index()].credits.iter().sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct RefMeta {
    injected_at: u64,
    hops: u32,
    modified: bool,
}

/// The dense reference network: same observable contract as
/// [`htpb_noc::Network`], evolved by exhaustive scans.
pub struct ReferenceNet {
    mesh: Mesh2d,
    vcs: usize,
    routing: RoutingKind,
    routers: Vec<RefRouter>,
    /// `links[node * 4 + dir]`, flit plus its allocated downstream VC.
    links: Vec<Option<(Flit, usize)>>,
    queues: Vec<VecDeque<Flit>>,
    injection_vc: Vec<Option<usize>>,
    neighbor_tbl: Vec<Option<NodeId>>,
    in_flight: HashMap<u64, RefMeta>,
    pending_heads: HashMap<u64, Packet>,
    ejected: Vec<DeliveredPacket>,
    inspector: Box<dyn PacketInspector>,
    faults: Option<FaultPlan>,
    stats: RefStats,
    trace: Option<TraceBuffer>,
    cycle: u64,
    next_packet_id: u64,
}

impl ReferenceNet {
    /// Builds a reference network from the same configuration the optimized
    /// `Network` was built from, with the given inspector (the Trojan
    /// attachment point).
    #[must_use]
    pub fn new(config: &NetworkConfig, inspector: Box<dyn PacketInspector>) -> Self {
        let nodes = config.mesh.nodes() as usize;
        ReferenceNet {
            mesh: config.mesh,
            vcs: config.router.vcs,
            routing: config.routing,
            routers: (0..nodes)
                .map(|_| RefRouter::new(config.router.vcs, config.router.buffer_depth))
                .collect(),
            links: vec![None; nodes * 4],
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            injection_vc: vec![None; nodes],
            neighbor_tbl: config.mesh.neighbor_table(),
            in_flight: HashMap::new(),
            pending_heads: HashMap::new(),
            ejected: Vec::new(),
            inspector,
            faults: None,
            stats: RefStats::default(),
            trace: config.trace_capacity.map(TraceBuffer::new),
            cycle: 0,
            next_packet_id: 0,
        }
    }

    /// Installs a fault plan, consulted at the same pipeline points as the
    /// optimized network's.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The statistics mirror.
    #[must_use]
    pub fn stats(&self) -> &RefStats {
        &self.stats
    }

    /// The trace buffer, when tracing was configured.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Takes all packets delivered since the previous call.
    pub fn drain_ejected(&mut self) -> Vec<DeliveredPacket> {
        std::mem::take(&mut self.ejected)
    }

    /// Whether no flit is queued, buffered, or in flight anywhere.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.queues.iter().all(VecDeque::is_empty)
    }

    fn is_quiescent(&self) -> bool {
        self.routers.iter().all(|r| r.buffered() == 0)
            && self.links.iter().all(Option::is_none)
            && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Snapshot of one input VC, field-compatible with
    /// `Router::vc_snapshot` on the optimized network — the divergence
    /// localizer diffs the two.
    #[must_use]
    pub fn vc_snapshot(&self, node: NodeId, in_port: usize, vc: usize) -> VcSnapshot {
        let ch = &self.routers[node.0 as usize].inputs[in_port][vc];
        VcSnapshot {
            occupancy: ch.buffer.len(),
            front_packet: ch.buffer.front().map(|(f, _)| f.packet_id),
            front_arrived_at: ch.buffer.front().map(|(_, at)| *at),
            route: ch.route,
            out_vc: ch.out_vc,
            inspected: ch.inspected,
            dropping: ch.dropping,
        }
    }

    /// Mirror of `Network::inject`: same validation, same packetization,
    /// same id assignment, same trace/stats effects.
    pub fn inject(&mut self, packet: Packet) -> Result<u64, NocError> {
        for node in [packet.src(), packet.dst()] {
            if !self.mesh.contains(node) {
                return Err(NocError::NodeOutOfRange {
                    node,
                    nodes: self.mesh.nodes(),
                });
            }
        }
        let queue = &mut self.queues[packet.src().0 as usize];
        if queue.len() + packet.flit_count() > INJECTION_QUEUE_CAPACITY {
            return Err(NocError::InjectionQueueFull { node: packet.src() });
        }
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        for flit in Flit::packetize(packet, id, self.cycle) {
            queue.push_back(flit);
        }
        self.in_flight.insert(
            id,
            RefMeta {
                injected_at: self.cycle,
                hops: 0,
                modified: false,
            },
        );
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::Injected {
                packet: id,
                kind: packet.kind(),
                src: packet.src(),
                dst: packet.dst(),
                cycle: self.cycle,
            });
        }
        self.stats.injected_packets += 1;
        Ok(id)
    }

    /// Advances the reference by one cycle, running the stages in the same
    /// order as `Network::step`.
    pub fn step(&mut self) {
        if self.is_quiescent() {
            self.cycle += 1;
            return;
        }
        let faults_engaged = match &self.faults {
            Some(plan) => !plan.is_empty(),
            None => false,
        };
        self.stage_link_delivery();
        self.stage_switch_traversal(faults_engaged);
        self.stage_injection();
        self.stage_vc_allocation();
        self.stage_routing_and_inspection(faults_engaged);
        self.cycle += 1;
    }

    /// Steps until the network drains completely or `max_cycles` elapse.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return true;
            }
            self.step();
        }
        self.is_idle()
    }

    fn stage_link_delivery(&mut self) {
        let now = self.cycle;
        for li in 0..self.links.len() {
            let Some((flit, ovc)) = self.links[li].take() else {
                continue;
            };
            let dst = self.neighbor_tbl[li].expect("link endpoints are mesh neighbours");
            let in_port = Direction::OPPOSITE_INDEX[li % 4];
            self.routers[dst.0 as usize].inputs[in_port][ovc].push(flit, now);
        }
    }

    fn stage_switch_traversal(&mut self, faults_engaged: bool) {
        // Deferred credit returns: (upstream node, upstream out dir, vc).
        let mut credit_returns: Vec<(NodeId, Direction, usize)> = Vec::new();
        for ri in 0..self.routers.len() {
            if self.routers[ri].buffered() == 0 {
                continue;
            }
            let node = NodeId(ri as u16);
            // A stalled router forwards (and sinks) nothing this cycle.
            if faults_engaged {
                if let Some(plan) = self.faults.as_mut() {
                    if plan.router_stalled(node, self.cycle) {
                        continue;
                    }
                }
            }
            // Drop sink: one flit per dropping VC per cycle, credits still
            // returned upstream.
            for in_port in 0..5 {
                for vc in 0..self.vcs {
                    if !self.routers[ri].inputs[in_port][vc].dropping {
                        continue;
                    }
                    let Some(flit) = self.routers[ri].inputs[in_port][vc].pop() else {
                        continue;
                    };
                    if let Some(up_out) = Direction::ALL[in_port].opposite() {
                        if let Some(up) = self.neighbor_tbl[ri * 4 + in_port] {
                            credit_returns.push((up, up_out, vc));
                        }
                    }
                    if flit.kind.is_tail() {
                        self.in_flight.remove(&flit.packet_id);
                        self.stats.dropped_packets += 1;
                    }
                }
            }
            for out_dir in Direction::ALL {
                let od = out_dir.index();
                if out_dir != Direction::Local && self.links[ri * 4 + od].is_some() {
                    continue;
                }
                // A downed link is indistinguishable from a busy one.
                if faults_engaged && out_dir != Direction::Local {
                    if let Some(plan) = self.faults.as_mut() {
                        if plan.link_down(node, out_dir, self.cycle) {
                            continue;
                        }
                    }
                }
                let slots = 5 * self.vcs;
                let start = self.routers[ri].sa_rr[od];
                let mut granted = None;
                // Plain dense round-robin: every slot, starting at the
                // pointer, wrapping with a modulo.
                for off in 0..slots {
                    let slot = (start + off) % slots;
                    let (in_port, vc) = (slot / self.vcs, slot % self.vcs);
                    let ivc = &self.routers[ri].inputs[in_port][vc];
                    let Some((_, arrived)) = ivc.buffer.front() else {
                        continue;
                    };
                    if ivc.route != Some(out_dir) {
                        continue;
                    }
                    // A flit spends at least one full cycle buffered.
                    if *arrived == self.cycle {
                        continue;
                    }
                    if out_dir != Direction::Local {
                        let Some(ovc) = ivc.out_vc else { continue };
                        if self.routers[ri].outputs[od].credits[ovc] == 0 {
                            continue;
                        }
                    }
                    granted = Some((in_port, vc));
                    break;
                }
                let Some((in_port, vc)) = granted else {
                    continue;
                };
                self.routers[ri].sa_rr[od] = (in_port * self.vcs + vc + 1) % slots;
                let out_vc = self.routers[ri].inputs[in_port][vc].out_vc;
                let flit = self.routers[ri].inputs[in_port][vc]
                    .pop()
                    .expect("granted VC nonempty");
                if let Some(up_out) = Direction::ALL[in_port].opposite() {
                    if let Some(up) = self.neighbor_tbl[ri * 4 + in_port] {
                        credit_returns.push((up, up_out, vc));
                    }
                }
                if out_dir == Direction::Local {
                    self.eject(flit);
                } else {
                    let ovc = out_vc.expect("non-local ST requires an allocated VC");
                    self.routers[ri].outputs[od].credits[ovc] -= 1;
                    if flit.kind.is_tail() {
                        self.routers[ri].outputs[od].allocated[ovc] = false;
                    }
                    if flit.kind.is_head() {
                        if let Some(meta) = self.in_flight.get_mut(&flit.packet_id) {
                            meta.hops += 1;
                        }
                    }
                    assert!(self.links[ri * 4 + od].is_none());
                    self.links[ri * 4 + od] = Some((flit, ovc));
                }
            }
        }
        for (up, up_out, vc) in credit_returns {
            self.routers[up.0 as usize].outputs[up_out.index()].credits[vc] += 1;
        }
    }

    fn stage_injection(&mut self) {
        let now = self.cycle;
        for ri in 0..self.queues.len() {
            let Some(front) = self.queues[ri].front() else {
                continue;
            };
            let local = Direction::Local.index();
            let target_vc = if front.kind.is_head() {
                let free = self.routers[ri].inputs[local]
                    .iter()
                    .position(|vc| vc.buffer.is_empty() && vc.route.is_none());
                match free {
                    Some(v) => v,
                    None => continue,
                }
            } else {
                match self.injection_vc[ri] {
                    Some(v) => v,
                    None => continue,
                }
            };
            if !self.routers[ri].inputs[local][target_vc].has_space() {
                continue;
            }
            let flit = self.queues[ri].pop_front().expect("front checked");
            self.injection_vc[ri] = if flit.kind.is_tail() {
                None
            } else {
                Some(target_vc)
            };
            self.routers[ri].inputs[local][target_vc].push(flit, now);
        }
    }

    fn stage_vc_allocation(&mut self) {
        for ri in 0..self.routers.len() {
            if self.routers[ri].buffered() == 0 {
                continue;
            }
            for in_port in 0..5 {
                for vc in 0..self.vcs {
                    let ivc = &self.routers[ri].inputs[in_port][vc];
                    let Some(route) = ivc.route else { continue };
                    if route == Direction::Local || ivc.out_vc.is_some() {
                        continue;
                    }
                    let od = route.index();
                    let free = self.routers[ri].outputs[od]
                        .allocated
                        .iter()
                        .position(|a| !a);
                    if let Some(free) = free {
                        self.routers[ri].outputs[od].allocated[free] = true;
                        self.routers[ri].inputs[in_port][vc].out_vc = Some(free);
                    }
                }
            }
        }
    }

    fn stage_routing_and_inspection(&mut self, faults_engaged: bool) {
        for ri in 0..self.routers.len() {
            if self.routers[ri].buffered() == 0 {
                continue;
            }
            let node = NodeId(ri as u16);
            for in_port in 0..5 {
                for vc in 0..self.vcs {
                    let ivc = &mut self.routers[ri].inputs[in_port][vc];
                    if ivc.route.is_some() || ivc.dropping {
                        continue;
                    }
                    let needs_inspection = !ivc.inspected;
                    let Some((front, _)) = ivc.buffer.front_mut() else {
                        continue;
                    };
                    if !front.kind.is_head() {
                        continue;
                    }
                    let packet_id = front.packet_id;
                    let packet = front.packet.as_mut().expect("head flit carries packet");
                    if needs_inspection {
                        let payload_before = packet.payload();
                        let outcome = self.inspector.inspect(node, self.cycle, packet);
                        if outcome.dropped {
                            let ivc = &mut self.routers[ri].inputs[in_port][vc];
                            ivc.dropping = true;
                            ivc.inspected = true;
                            continue;
                        }
                        if outcome.modified {
                            if let Some(meta) = self.in_flight.get_mut(&packet_id) {
                                meta.modified = true;
                            }
                            if let Some(trace) = self.trace.as_mut() {
                                trace.record(TraceEvent::Tampered {
                                    packet: packet_id,
                                    node,
                                    payload_before,
                                    payload_after: packet.payload(),
                                    cycle: self.cycle,
                                });
                            }
                        }
                        let action = match self.faults.as_mut() {
                            Some(plan) if faults_engaged => {
                                plan.packet_fault(node, self.cycle, packet)
                            }
                            _ => FaultAction::default(),
                        };
                        if action.drop {
                            let ivc = &mut self.routers[ri].inputs[in_port][vc];
                            ivc.dropping = true;
                            ivc.inspected = true;
                            continue;
                        }
                        if action.flip_mask != 0 {
                            let before = packet.payload();
                            packet.set_payload(before ^ action.flip_mask);
                            if let Some(meta) = self.in_flight.get_mut(&packet_id) {
                                meta.modified = true;
                            }
                            if let Some(trace) = self.trace.as_mut() {
                                trace.record(TraceEvent::Tampered {
                                    packet: packet_id,
                                    node,
                                    payload_before: before,
                                    payload_after: packet.payload(),
                                    cycle: self.cycle,
                                });
                            }
                        }
                    }
                    if let Some(trace) = self.trace.as_mut() {
                        trace.record(TraceEvent::Routed {
                            packet: packet_id,
                            node,
                            cycle: self.cycle,
                        });
                    }
                    let dst = self.routers[ri].inputs[in_port][vc]
                        .buffer
                        .front()
                        .map(|(f, _)| f.packet.as_ref().expect("head").dst())
                        .expect("front checked");
                    let candidates = self
                        .routing
                        .route(self.mesh.coord(node), self.mesh.coord(dst));
                    assert!(!candidates.is_empty());
                    let chosen = if candidates.len() == 1 {
                        candidates[0]
                    } else {
                        *candidates
                            .iter()
                            .max_by_key(|d| self.routers[ri].output_credits(**d))
                            .expect("nonempty candidates")
                    };
                    let ivc = &mut self.routers[ri].inputs[in_port][vc];
                    ivc.route = Some(chosen);
                    ivc.inspected = true;
                }
            }
        }
    }

    fn eject(&mut self, flit: Flit) {
        self.stats.delivered_flits += 1;
        if flit.kind.is_head() {
            let packet = flit.packet.expect("head flit carries packet");
            self.pending_heads.insert(flit.packet_id, packet);
        }
        if flit.kind.is_tail() {
            let packet = self
                .pending_heads
                .remove(&flit.packet_id)
                .expect("tail after head");
            let meta = self
                .in_flight
                .remove(&flit.packet_id)
                .expect("meta tracked from injection");
            let latency = self.cycle - meta.injected_at;
            self.stats.delivered_packets += 1;
            self.stats.total_hops += u64::from(meta.hops);
            self.stats.record_latency(latency);
            if meta.modified {
                self.stats.modified_packets += 1;
            }
            if matches!(packet.kind(), PacketKind::PowerReq) {
                self.stats.delivered_power_requests += 1;
                if meta.modified {
                    self.stats.modified_power_requests += 1;
                }
            }
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::Ejected {
                    packet: flit.packet_id,
                    node: packet.dst(),
                    cycle: self.cycle,
                });
            }
            self.ejected.push(DeliveredPacket {
                packet,
                latency,
                hops: meta.hops,
                modified: meta.modified,
            });
        }
    }
}

impl std::fmt::Debug for ReferenceNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceNet")
            .field("mesh", &self.mesh)
            .field("cycle", &self.cycle)
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}
