//! Flit-level 2D-mesh network-on-chip (NoC) simulator.
//!
//! This crate implements the on-chip interconnect substrate used by the
//! SOCC 2018 paper *"On a New Hardware Trojan Attack on Power Budgeting of
//! Many Core Systems"*: a wormhole-switched 2D mesh with per-input-port
//! virtual channels, credit-based flow control, a two-cycle router pipeline
//! plus one-cycle links, and both deterministic XY and minimal-adaptive
//! odd-even routing (Table I of the paper).
//!
//! The crate is intentionally independent of the power-budgeting and
//! hardware-Trojan layers: routers expose a [`PacketInspector`] hook placed
//! *between the input buffer and the routing-computation stage* — exactly
//! where Fig. 2(b) of the paper locates the Trojan — so higher layers can
//! observe and tamper with in-flight packets without the network knowing.
//!
//! # Quick example
//!
//! ```
//! use htpb_noc::{Mesh2d, Network, NetworkConfig, Packet, PacketKind, NodeId};
//!
//! let mesh = Mesh2d::new(4, 4).unwrap();
//! let mut net = Network::new(NetworkConfig::new(mesh));
//! let pkt = Packet::power_request(NodeId(0), NodeId(15), 1500);
//! net.inject(pkt).unwrap();
//! while net.stats().delivered_packets() == 0 {
//!     net.step();
//! }
//! let delivered = net.drain_ejected();
//! assert_eq!(delivered[0].packet.payload(), 1500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
mod error;
mod flit;
mod fnv;
mod inspect;
mod metrics;
mod network;
mod packet;
mod plan;
mod router;
mod routing;
mod spec;
mod stats;
mod store;
mod topology;
mod trace;
mod traffic;
mod vc;

pub use error::NocError;
pub use flit::{Flit, FlitKind, FLITS_PER_META_PACKET};
pub use fnv::{Digest, FnvHashMap, FnvHashSet, FnvHasher};
pub use inspect::{InspectOutcome, NullInspector, PacketInspector};
pub use metrics::NocMetrics;
pub use network::{DeliveredPacket, Network, NetworkConfig, INJECTION_QUEUE_CAPACITY};
pub use packet::{ActivationSignal, ConfigCommand, Packet, PacketKind};
pub use plan::{FaultAction, FaultCounters, FaultPlan};
pub use router::{Router, RouterConfig, VcSnapshot};
pub use routing::{RouteCandidates, RoutingKind};
pub use spec::{spec_fields, spec_rate, spec_u64};
pub use stats::{LatencyHistogram, NetworkStats};
pub use store::PacketStore;
pub use topology::{Coord, Direction, Mesh2d, NodeId};
pub use trace::{TraceBuffer, TraceEvent};
pub use traffic::{HotspotTraffic, TrafficPattern, UniformTraffic};
