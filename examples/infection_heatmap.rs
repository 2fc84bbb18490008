//! Visualises *where* the attack happens: ASCII heatmaps of (a) router
//! crossbar utilization under the power-request traffic, (b) per-Trojan
//! tamper counts, and (c) which sources' requests arrive infected.
//!
//! Usage: `cargo run --release --example infection_heatmap -- [nodes] [m]`

use htpb_attack::PlacementStrategy;
use htpb_noc::{Coord, Mesh2d, Network, NetworkConfig, Packet};
use htpb_trojan::{TamperRule, TrojanFleet};

fn shade(v: f64) -> char {
    match (v * 5.0) as u32 {
        0 => '.',
        1 => ':',
        2 => '+',
        3 => '*',
        _ => '#',
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let m: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);

    let mesh = Mesh2d::with_nodes(nodes).expect("valid node count");
    let manager = mesh.center();
    let placement = htpb_attack::Placement::generate(
        mesh,
        m,
        &PlacementStrategy::Random { seed: 7 },
        &[manager],
    );
    let mut fleet = TrojanFleet::new(placement.nodes(), TamperRule::Zero);
    fleet.configure_all(&[], manager, true);
    let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);

    // A few epochs of request traffic.
    let mut infected_src = vec![false; mesh.nodes() as usize];
    for round in 0..4u32 {
        for src in mesh.iter_nodes() {
            if src != manager {
                net.inject(Packet::power_request(src, manager, 1_000 + round))
                    .unwrap();
            }
        }
        assert!(net.run_until_idle(1_000_000));
        for d in net.drain_ejected() {
            if d.modified {
                infected_src[d.packet.src().0 as usize] = true;
            }
        }
    }

    println!(
        "chip {}x{}, manager (M) at {manager}, {m} random Trojans (T)\n",
        mesh.width(),
        mesh.height()
    );

    let util = net.utilization_map();
    let max = *util.iter().max().unwrap_or(&1) as f64;
    println!("router crossbar utilization (darker = busier; requests funnel into M):");
    for y in 0..mesh.height() {
        let mut row = String::new();
        for x in 0..mesh.width() {
            let n = mesh.node(Coord::new(x, y));
            row.push(if n == manager {
                'M'
            } else {
                shade(util[n.0 as usize] as f64 / max)
            });
            row.push(' ');
        }
        println!("  {row}");
    }

    println!("\ntampering activity (digits = log2 of per-Trojan modified packets):");
    for y in 0..mesh.height() {
        let mut row = String::new();
        for x in 0..mesh.width() {
            let n = mesh.node(Coord::new(x, y));
            let c = if n == manager {
                'M'
            } else if let Some(ht) = net.inspector().trojan(n) {
                let hits = ht.packets_modified();
                if hits == 0 {
                    'T'
                } else {
                    char::from_digit((64 - hits.leading_zeros()).min(9), 10).unwrap()
                }
            } else {
                '.'
            };
            row.push(c);
            row.push(' ');
        }
        println!("  {row}");
    }

    println!("\ninfected sources (x = this node's requests arrive tampered):");
    let mut infected_count = 0;
    for y in 0..mesh.height() {
        let mut row = String::new();
        for x in 0..mesh.width() {
            let n = mesh.node(Coord::new(x, y));
            let c = if n == manager {
                'M'
            } else if infected_src[n.0 as usize] {
                infected_count += 1;
                'x'
            } else {
                '.'
            };
            row.push(c);
            row.push(' ');
        }
        println!("  {row}");
    }
    println!(
        "\ninfection rate: {:.3} ({} of {} sources)",
        net.stats().infection_rate(),
        infected_count,
        mesh.nodes() - 1
    );
}
