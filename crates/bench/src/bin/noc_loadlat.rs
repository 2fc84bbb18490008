//! NoC substrate validation: the classic load–latency curve under
//! uniform-random traffic, for each routing algorithm.
//!
//! A healthy wormhole network shows flat low-load latency (close to the
//! zero-load bound: hops × per-hop pipeline delay), then a knee as offered
//! load approaches saturation. This binary sweeps injection rates and
//! prints the curve — evidence the interconnect the attack rides on behaves
//! like a real one.
//!
//! Usage: `cargo run --release -p htpb-bench --bin noc_loadlat [-- nodes]`

#![forbid(unsafe_code)]

use htpb_core::{Mesh2d, Network, NetworkConfig, PacketKind, RoutingKind};
use htpb_noc::{TrafficPattern, UniformTraffic};

/// Runs uniform traffic at `rate` flits/node/cycle and returns
/// (mean latency, delivered fraction).
fn measure(mesh: Mesh2d, routing: RoutingKind, rate: f64, cycles: u64) -> (f64, f64) {
    let mut net = Network::new(NetworkConfig::new(mesh).with_routing(routing));
    let mut traffic = UniformTraffic::new(mesh, rate, PacketKind::Meta, 99);
    for cycle in 0..cycles {
        for packet in traffic.generate(cycle) {
            // Saturated injection queues shed load (counted via stats).
            let _ = net.inject(packet);
        }
        net.step();
    }
    // Drain what is in flight.
    net.run_until_idle(1_000_000);
    let stats = net.stats();
    let delivered_fraction = if stats.injected_packets() == 0 {
        0.0
    } else {
        stats.delivered_packets() as f64 / stats.injected_packets() as f64
    };
    (stats.latency().mean(), delivered_fraction)
}

fn main() {
    let nodes: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    println!("==========================================================");
    println!("  NoC validation — load vs. latency under uniform traffic");
    println!("  (reproduction; expect paper-like shapes, not numbers)");
    println!("==========================================================");
    let mesh = Mesh2d::with_nodes(nodes).expect("valid node count");
    println!(
        "mesh {}x{}, 4 VCs x 5-flit buffers, 1-flit packets, 3000 warm cycles\n",
        mesh.width(),
        mesh.height()
    );
    for routing in RoutingKind::ALL {
        println!("# {routing:?}");
        println!("rate\tmean_latency\tdelivered");
        let mut zero_load = None;
        for &rate in &[0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40] {
            let (lat, done) = measure(mesh, routing, rate, 3_000);
            zero_load.get_or_insert(lat);
            println!("{rate:.3}\t{lat:.1}\t{done:.3}");
        }
        let zl = zero_load.unwrap_or(0.0);
        println!("zero-load latency ≈ {zl:.1} cycles (bound: mean hops x 3 + serialization)\n");
    }
}
