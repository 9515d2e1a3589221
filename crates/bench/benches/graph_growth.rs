//! B5 (timing face): reachable-state-graph construction and full analysis
//! cost as the number of sites grows — the "grows exponentially with the
//! number of sites" observation as wall-clock.

use nbc_bench::BenchGroup;
use nonblocking_commit::model::protocols::{
    central_2pc, central_3pc, decentralized_2pc, decentralized_3pc,
};
use nonblocking_commit::model::{theorem, Analysis, ReachGraph};
use std::hint::black_box;

fn bench_graph_build() {
    let mut g = BenchGroup::new("reach_graph_build");
    g.sample_size(20);
    for n in [2usize, 3, 4, 5] {
        for (label, p) in [
            ("central_2pc", central_2pc(n)),
            ("central_3pc", central_3pc(n)),
            ("decentralized_2pc", decentralized_2pc(n)),
            ("decentralized_3pc", decentralized_3pc(n)),
        ] {
            g.bench(&format!("{label}/{n}"), || {
                ReachGraph::build(black_box(&p)).unwrap().node_count()
            });
        }
    }
}

fn bench_full_analysis() {
    let mut g = BenchGroup::new("full_analysis");
    g.sample_size(20);
    for n in [3usize, 5] {
        let p = central_3pc(n);
        g.bench(&format!("central_3pc/{n}"), || {
            let a = Analysis::build(black_box(&p)).unwrap();
            theorem::check_with(&p, &a).nonblocking()
        });
    }
}

fn main() {
    bench_graph_build();
    bench_full_analysis();
}
