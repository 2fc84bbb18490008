use htpb_noc::{InspectOutcome, NodeId, Packet, PacketInspector, PacketKind};

/// What the Trojan's functional module writes into a matched `POWER_REQ`
/// payload (Section III-C: "the power request is changed to a smaller
/// value"; Fig. 2a shows the modified payload as `0…0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TamperRule {
    /// Overwrite the payload with zero — the all-zeros value of Fig. 2a and
    /// the most damaging rule.
    Zero,
    /// Scale the payload down to `percent`% of its value (values above 100
    /// are clamped to 100 at construction sites; the functional module only
    /// shrinks requests).
    ScalePercent(u8),
    /// Clamp the payload to at most `max` milliwatts.
    ClampTo(u32),
}

impl TamperRule {
    /// Applies the rule to a payload value.
    #[must_use]
    pub fn apply(self, payload: u32) -> u32 {
        match self {
            TamperRule::Zero => 0,
            TamperRule::ScalePercent(pct) => {
                let pct = u64::from(pct.min(100));
                (u64::from(payload) * pct / 100) as u32
            }
            TamperRule::ClampTo(max) => payload.min(max),
        }
    }
}

/// The optional attacker-side rule of the functional module: the paper's
/// introduction notes that "power requests from the malicious applications
/// … will be increased … to higher value than what were actually
/// requested". This is the dual of [`TamperRule`]: it applies to packets
/// whose source *is* a registered attacker agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoostRule {
    /// Payload multiplier in percent (≥ 100; values below are clamped to
    /// 100 at application time — the boost module only grows requests).
    pub percent: u16,
}

impl BoostRule {
    /// Creates a boost rule.
    #[must_use]
    pub fn new(percent: u16) -> Self {
        BoostRule { percent }
    }

    /// Applies the boost to a payload value (saturating).
    #[must_use]
    pub fn apply(self, payload: u32) -> u32 {
        let pct = u64::from(self.percent.max(100));
        (u64::from(payload) * pct / 100).min(u64::from(u32::MAX)) as u32
    }
}

/// Which DoS class the Trojan's functional module implements.
///
/// The paper's Section II-B taxonomy lists false-data *and* packet-drop
/// attacks; its contribution is the false-data variant (stealthier: the
/// manager still sees a plausible request stream). The drop variant is
/// provided as the comparison baseline — it is strictly easier to detect,
/// since the manager notices requesters going silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrojanMode {
    /// Rewrite matched payloads (the paper's attack).
    #[default]
    FalseData,
    /// Silently sink matched packets (Section II-B class 2 baseline).
    PacketDrop,
}

/// The configuration registers plus activation latch of one Trojan
/// (Fig. 2a). All start empty: an unconfigured Trojan is electrically inert.
///
/// Deviation from the figure, documented in DESIGN.md §4: Fig. 2a draws a
/// single attacker-agent id register, but the paper's evaluation runs
/// attacker *applications* with 64 threads whose requests must all pass
/// untampered (Fig. 6 shows attacker performance improving). We therefore
/// model the agent register as a small content-addressable set, filled by
/// one `CONFIG_CMD` broadcast per agent core — in silicon, a k-entry CAM of
/// 16-bit ids, still negligibly small next to a router.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrojanState {
    /// Global-manager id register (first `CONFIG_CMD` wins, per
    /// Section III-B "the HT stores [the ids] … if it has not done so").
    pub manager: Option<NodeId>,
    /// Attacker-agent id CAM, loaded from `CONFIG_CMD` source fields.
    pub attackers: std::collections::BTreeSet<NodeId>,
    /// Activation latch, rewritten by every `CONFIG_CMD`'s activation signal.
    pub active: bool,
}

impl TrojanState {
    /// Whether `node` is registered as an attacker agent.
    #[must_use]
    pub fn is_attacker(&self, node: NodeId) -> bool {
        self.attackers.contains(&node)
    }
}

/// One hardware Trojan implanted in one router.
///
/// The triggering module is three comparators (Fig. 2a):
/// 1. packet type == `CONFIG_CMD` → (re)configure;
/// 2. destination == stored global-manager id;
/// 3. source != stored attacker id;
///
/// and the functional module rewrites the payload when 2 ∧ 3 hold while the
/// activation latch is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareTrojan {
    node: NodeId,
    state: TrojanState,
    rule: TamperRule,
    boost: Option<BoostRule>,
    mode: TrojanMode,
    packets_seen: u64,
    packets_modified: u64,
    configs_received: u64,
}

impl HardwareTrojan {
    /// Creates an unconfigured Trojan implanted at `node`.
    #[must_use]
    pub fn new(node: NodeId, rule: TamperRule) -> Self {
        HardwareTrojan {
            node,
            state: TrojanState::default(),
            rule,
            boost: None,
            mode: TrojanMode::FalseData,
            packets_seen: 0,
            packets_modified: 0,
            configs_received: 0,
        }
    }

    /// Adds the attacker-side boost extension (see [`BoostRule`]).
    #[must_use]
    pub fn with_boost(mut self, boost: BoostRule) -> Self {
        self.boost = Some(boost);
        self
    }

    /// Selects the DoS class (see [`TrojanMode`]).
    #[must_use]
    pub fn with_mode(mut self, mode: TrojanMode) -> Self {
        self.mode = mode;
        self
    }

    /// The Trojan's DoS class.
    #[must_use]
    pub fn mode(&self) -> TrojanMode {
        self.mode
    }

    /// The router this Trojan is implanted in.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current register/latch contents.
    #[must_use]
    pub fn state(&self) -> &TrojanState {
        &self.state
    }

    /// The functional module's tamper rule.
    #[must_use]
    pub fn rule(&self) -> TamperRule {
        self.rule
    }

    /// Packet headers scanned by the triggering module.
    #[must_use]
    pub(crate) fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Payloads rewritten by the functional module.
    #[must_use]
    pub fn packets_modified(&self) -> u64 {
        self.packets_modified
    }

    /// `CONFIG_CMD` packets absorbed into the registers.
    #[must_use]
    pub(crate) fn configs_received(&self) -> u64 {
        self.configs_received
    }

    /// Processes one packet header, optionally rewriting it; `gated_active`
    /// lets a fleet-level [`crate::ActivationSchedule`] overlay duty-cycled
    /// operation (equivalent to the attacker alternating ON/OFF config
    /// packets, Section III-B).
    pub fn scan(&mut self, packet: &mut Packet, gated_active: bool) -> InspectOutcome {
        self.packets_seen += 1;
        match packet.kind() {
            PacketKind::ConfigCmd(cmd) => {
                // Comparator 1 matched: latch configuration. Ids are
                // first-write-wins; the activation latch follows every
                // command.
                self.configs_received += 1;
                if self.state.manager.is_none() {
                    self.state.manager = Some(cmd.manager);
                }
                self.state.attackers.insert(packet.src());
                self.state.active = cmd.activation == htpb_noc::ActivationSignal::On;
                InspectOutcome::untouched()
            }
            PacketKind::PowerReq => {
                if !self.state.active || !gated_active {
                    return InspectOutcome::untouched();
                }
                let Some(manager) = self.state.manager else {
                    return InspectOutcome::untouched();
                };
                if packet.dst() != manager {
                    return InspectOutcome::untouched();
                }
                // Comparator 3 splits the functional module: suppression
                // (or dropping) for everyone else, optional boost for the
                // attacker's own requests.
                if self.state.is_attacker(packet.src()) {
                    let new = match self.boost {
                        Some(b) => b.apply(packet.payload()),
                        None => packet.payload(),
                    };
                    if new != packet.payload() {
                        packet.set_payload(new);
                        self.packets_modified += 1;
                        return InspectOutcome::tampered();
                    }
                    return InspectOutcome::untouched();
                }
                match self.mode {
                    TrojanMode::FalseData => {
                        let new = self.rule.apply(packet.payload());
                        if new != packet.payload() {
                            packet.set_payload(new);
                            self.packets_modified += 1;
                            return InspectOutcome::tampered();
                        }
                        InspectOutcome::untouched()
                    }
                    TrojanMode::PacketDrop => {
                        self.packets_modified += 1;
                        InspectOutcome::dropped()
                    }
                }
            }
            _ => InspectOutcome::untouched(),
        }
    }
}

impl PacketInspector for HardwareTrojan {
    fn inspect(&mut self, router: NodeId, _cycle: u64, packet: &mut Packet) -> InspectOutcome {
        if router != self.node {
            return InspectOutcome::untouched();
        }
        self.scan(packet, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_noc::ActivationSignal;

    const MANAGER: NodeId = NodeId(0);
    const ATTACKER: NodeId = NodeId(9);
    const VICTIM: NodeId = NodeId(3);
    const HT_NODE: NodeId = NodeId(5);

    fn configured(rule: TamperRule) -> HardwareTrojan {
        let mut ht = HardwareTrojan::new(HT_NODE, rule);
        let mut cfg = Packet::config_command(ATTACKER, HT_NODE, MANAGER, ActivationSignal::On);
        ht.inspect(HT_NODE, 0, &mut cfg);
        ht
    }

    #[test]
    fn unconfigured_trojan_is_inert() {
        let mut ht = HardwareTrojan::new(HT_NODE, TamperRule::Zero);
        let mut req = Packet::power_request(VICTIM, MANAGER, 1_000);
        let out = ht.inspect(HT_NODE, 0, &mut req);
        assert!(!out.modified);
        assert_eq!(req.payload(), 1_000);
        assert_eq!(ht.state(), &TrojanState::default());
    }

    #[test]
    fn config_packet_loads_registers() {
        let ht = configured(TamperRule::Zero);
        assert_eq!(ht.state().manager, Some(MANAGER));
        assert!(ht.state().is_attacker(ATTACKER));
        assert!(ht.state().active);
        assert_eq!(ht.configs_received(), 1);
    }

    #[test]
    fn victim_request_to_manager_is_zeroed() {
        let mut ht = configured(TamperRule::Zero);
        let mut req = Packet::power_request(VICTIM, MANAGER, 2_345);
        let out = ht.inspect(HT_NODE, 1, &mut req);
        assert!(out.modified);
        assert_eq!(req.payload(), 0);
        assert_eq!(ht.packets_modified(), 1);
    }

    #[test]
    fn attacker_request_passes_untouched() {
        let mut ht = configured(TamperRule::Zero);
        let mut req = Packet::power_request(ATTACKER, MANAGER, 2_345);
        let out = ht.inspect(HT_NODE, 1, &mut req);
        assert!(!out.modified);
        assert_eq!(req.payload(), 2_345);
    }

    #[test]
    fn request_to_non_manager_passes_untouched() {
        let mut ht = configured(TamperRule::Zero);
        let mut req = Packet::power_request(VICTIM, NodeId(12), 2_345);
        assert!(!ht.inspect(HT_NODE, 1, &mut req).modified);
        assert_eq!(req.payload(), 2_345);
    }

    #[test]
    fn other_routers_packets_not_scanned() {
        let mut ht = configured(TamperRule::Zero);
        let mut req = Packet::power_request(VICTIM, MANAGER, 2_345);
        assert!(!ht.inspect(NodeId(6), 1, &mut req).modified);
        assert_eq!(req.payload(), 2_345);
    }

    #[test]
    fn off_signal_deactivates() {
        let mut ht = configured(TamperRule::Zero);
        let mut off = Packet::config_command(ATTACKER, HT_NODE, MANAGER, ActivationSignal::Off);
        ht.inspect(HT_NODE, 2, &mut off);
        assert!(!ht.state().active);
        let mut req = Packet::power_request(VICTIM, MANAGER, 777);
        assert!(!ht.inspect(HT_NODE, 3, &mut req).modified);
        // Re-activating resumes the attack.
        let mut on = Packet::config_command(ATTACKER, HT_NODE, MANAGER, ActivationSignal::On);
        ht.inspect(HT_NODE, 4, &mut on);
        assert!(ht.inspect(HT_NODE, 5, &mut req).modified);
    }

    #[test]
    fn manager_register_is_first_write_wins_agents_accumulate() {
        let mut ht = configured(TamperRule::Zero);
        let mut second =
            Packet::config_command(NodeId(50), HT_NODE, NodeId(60), ActivationSignal::On);
        ht.inspect(HT_NODE, 2, &mut second);
        assert_eq!(
            ht.state().manager,
            Some(MANAGER),
            "manager first-write-wins"
        );
        assert!(ht.state().is_attacker(ATTACKER));
        assert!(
            ht.state().is_attacker(NodeId(50)),
            "second agent registered"
        );
        // Both agents' requests now pass untouched.
        let mut req = Packet::power_request(NodeId(50), MANAGER, 100);
        assert!(!ht.inspect(HT_NODE, 3, &mut req).modified);
    }

    #[test]
    fn scale_rule_shrinks_payload() {
        let mut ht = configured(TamperRule::ScalePercent(25));
        let mut req = Packet::power_request(VICTIM, MANAGER, 2_000);
        assert!(ht.inspect(HT_NODE, 1, &mut req).modified);
        assert_eq!(req.payload(), 500);
    }

    #[test]
    fn clamp_rule_only_modifies_above_threshold() {
        let mut ht = configured(TamperRule::ClampTo(1_000));
        let mut small = Packet::power_request(VICTIM, MANAGER, 800);
        assert!(!ht.inspect(HT_NODE, 1, &mut small).modified);
        assert_eq!(small.payload(), 800);
        let mut big = Packet::power_request(VICTIM, MANAGER, 3_000);
        assert!(ht.inspect(HT_NODE, 2, &mut big).modified);
        assert_eq!(big.payload(), 1_000);
    }

    #[test]
    fn tamper_rule_arithmetic() {
        assert_eq!(TamperRule::Zero.apply(u32::MAX), 0);
        assert_eq!(TamperRule::ScalePercent(50).apply(u32::MAX), u32::MAX / 2);
        assert_eq!(TamperRule::ScalePercent(100).apply(123), 123);
        assert_eq!(TamperRule::ScalePercent(200).apply(123), 123, "clamped");
        assert_eq!(TamperRule::ClampTo(10).apply(5), 5);
        assert_eq!(TamperRule::ClampTo(10).apply(15), 10);
    }

    #[test]
    fn gated_inactive_suppresses_tampering() {
        let mut ht = configured(TamperRule::Zero);
        let mut req = Packet::power_request(VICTIM, MANAGER, 999);
        let out = ht.scan(&mut req, false);
        assert!(!out.modified);
        assert_eq!(req.payload(), 999);
    }

    #[test]
    fn boost_rule_arithmetic() {
        assert_eq!(BoostRule::new(150).apply(1_000), 1_500);
        assert_eq!(BoostRule::new(100).apply(1_000), 1_000);
        assert_eq!(BoostRule::new(50).apply(1_000), 1_000, "clamped up to 100%");
        assert_eq!(BoostRule::new(200).apply(u32::MAX), u32::MAX, "saturates");
    }

    #[test]
    fn boost_inflates_attacker_requests_only() {
        let mut ht = HardwareTrojan::new(HT_NODE, TamperRule::Zero).with_boost(BoostRule::new(200));
        let mut cfg = Packet::config_command(ATTACKER, HT_NODE, MANAGER, ActivationSignal::On);
        ht.inspect(HT_NODE, 0, &mut cfg);
        // Attacker's request doubled.
        let mut mine = Packet::power_request(ATTACKER, MANAGER, 1_000);
        assert!(ht.inspect(HT_NODE, 1, &mut mine).modified);
        assert_eq!(mine.payload(), 2_000);
        // Victim's request still zeroed.
        let mut theirs = Packet::power_request(VICTIM, MANAGER, 1_000);
        assert!(ht.inspect(HT_NODE, 2, &mut theirs).modified);
        assert_eq!(theirs.payload(), 0);
    }

    #[test]
    fn without_boost_attacker_requests_untouched() {
        let mut ht = configured(TamperRule::Zero);
        let mut mine = Packet::power_request(ATTACKER, MANAGER, 1_000);
        assert!(!ht.inspect(HT_NODE, 1, &mut mine).modified);
        assert_eq!(mine.payload(), 1_000);
    }

    #[test]
    fn drop_mode_sinks_victim_requests_only() {
        let mut ht =
            HardwareTrojan::new(HT_NODE, TamperRule::Zero).with_mode(TrojanMode::PacketDrop);
        let mut cfg = Packet::config_command(ATTACKER, HT_NODE, MANAGER, ActivationSignal::On);
        ht.inspect(HT_NODE, 0, &mut cfg);
        let mut victim = Packet::power_request(VICTIM, MANAGER, 1_000);
        let out = ht.inspect(HT_NODE, 1, &mut victim);
        assert!(out.dropped);
        assert_eq!(victim.payload(), 1_000, "drop does not rewrite");
        // Attacker requests pass.
        let mut own = Packet::power_request(ATTACKER, MANAGER, 1_000);
        let out = ht.inspect(HT_NODE, 2, &mut own);
        assert!(!out.dropped && !out.modified);
        // Grants are never dropped.
        let mut grant = Packet::power_grant(MANAGER, VICTIM, 500);
        assert!(!ht.inspect(HT_NODE, 3, &mut grant).dropped);
    }

    #[test]
    fn data_and_grant_packets_ignored() {
        let mut ht = configured(TamperRule::Zero);
        let mut grant = Packet::power_grant(MANAGER, VICTIM, 555);
        assert!(!ht.inspect(HT_NODE, 1, &mut grant).modified);
        assert_eq!(grant.payload(), 555);
        let mut data = Packet::new(VICTIM, MANAGER, PacketKind::Data, 555);
        assert!(!ht.inspect(HT_NODE, 1, &mut data).modified);
        assert_eq!(data.payload(), 555);
    }
}
