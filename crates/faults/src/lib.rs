//! Deterministic fault injection for the power-budgeting pipeline.
//!
//! The paper's attack model assumes a *perfect* NoC: every `POWER_REQ`
//! either arrives intact or was tampered with by a Trojan. Real silicon is
//! noisier — links go down, routers stall under voltage droop, buffers flip
//! bits, packets are lost — and any claim about detecting the Trojan is only
//! credible against that noisy baseline. This crate provides the noise:
//!
//! * [`FaultPlan`] — a seeded, serializable description of *which* faults
//!   occur *when*, implementing [`htpb_noc::FaultHook`]. Every decision is a
//!   pure hash of `(seed, entity, time)`, so the same plan replays the same
//!   faults bit for bit, independently of call order or platform.
//! * [`FaultCounters`] — ground-truth tallies of the faults actually applied
//!   during a run, read back with [`FaultPlan::counters`] (via
//!   [`htpb_noc::Network::take_fault_hook`]).
//!
//! Fault windows are gated by a [`htpb_trojan::ActivationSchedule`], the
//! same scheduling vocabulary used for Trojan activation, so experiments can
//! align or de-align fault bursts with attack windows.
//!
//! An **empty** plan (all rates zero — [`FaultPlan::new`]) reports "no
//! faults" from its per-cycle gate, which keeps the simulator's fault path
//! to a single branch and the network bit-identical to a build with no hook
//! installed. That equivalence is locked by this crate's proptest suite and
//! the NoC golden digests.
//!
//! ```
//! use htpb_faults::FaultPlan;
//! use htpb_noc::{Mesh2d, Network, NetworkConfig, NodeId, Packet};
//!
//! let plan = FaultPlan::new(0xFA_017).with_drops(10_000); // 1% of packets
//! let mesh = Mesh2d::new(4, 4).unwrap();
//! let mut net = Network::new(NetworkConfig::new(mesh));
//! net.set_fault_hook(Box::new(plan));
//! net.inject(Packet::power_request(NodeId(0), NodeId(15), 1500)).unwrap();
//! net.run_until_idle(10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;

pub use plan::{FaultCounterHandle, FaultCounters, FaultPlan, FaultSpecError, PPM_SCALE};
