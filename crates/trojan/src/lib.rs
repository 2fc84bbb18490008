//! Behavioural model of the power-budget hardware Trojan of the SOCC 2018
//! paper (Section III).
//!
//! The Trojan is a tiny circuit — three comparators and two registers —
//! implanted between a router's input buffer and its routing-computation
//! stage (Fig. 2). It is configured in-band by `CONFIG_CMD` packets
//! broadcast by the attacker (Fig. 1b), which load the global manager's id
//! and the attacker's id into the Trojan's registers and set its activation
//! state. Once armed, the Trojan rewrites the payload of every `POWER_REQ`
//! packet that (a) is addressed to the global manager and (b) does not
//! originate from the attacker — starving every other application of power.
//!
//! The crate provides:
//! - [`HardwareTrojan`]: one register/comparator-accurate Trojan instance,
//!   with optional extensions — the intro's attacker-request [`BoostRule`]
//!   and a [`TrojanMode::PacketDrop`] baseline for the Section II-B
//!   attack-class comparison;
//! - [`TrojanFleet`]: a set of Trojans implanted across the mesh, usable as
//!   a [`htpb_noc::PacketInspector`];
//! - [`ActivationSchedule`]: duty-cycled activation, equivalent to the
//!   paper's stream of alternating ON/OFF configuration packets
//!   (Section III-B);
//! - [`AreaReport`]: the silicon area / power accounting of Section III-D.
//!
//! ```
//! use htpb_noc::{ActivationSignal, NodeId, Packet, PacketInspector};
//! use htpb_trojan::{HardwareTrojan, TamperRule};
//!
//! let mut ht = HardwareTrojan::new(NodeId(5), TamperRule::Zero);
//! // The attacker (node 9) broadcasts a CONFIG_CMD naming manager node 0.
//! let mut cfg = Packet::config_command(NodeId(9), NodeId(5), NodeId(0), ActivationSignal::On);
//! ht.inspect(NodeId(5), 0, &mut cfg);
//! // A victim's power request through node 5 is zeroed.
//! let mut req = Packet::power_request(NodeId(3), NodeId(0), 2_500);
//! let out = ht.inspect(NodeId(5), 1, &mut req);
//! assert!(out.modified);
//! assert_eq!(req.payload(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod circuit;
mod fleet;
mod schedule;

pub use area::AreaReport;
pub use circuit::{BoostRule, HardwareTrojan, TamperRule, TrojanMode, TrojanState};
pub use fleet::{FleetStats, TrojanFleet};
pub use schedule::ActivationSchedule;
