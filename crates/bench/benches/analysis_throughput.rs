//! B5 (analysis face): throughput of the bitset-based analysis by its two
//! routes, plus the streaming mode's memory proxy (retained node count vs
//! peak resident states).
//!
//! Two contenders per protocol/size, both `Analysis::build_with`:
//! * `retained` — build the graph, then fold its nodes in one pass
//!   (`Analysis::from_graph`);
//! * `streamed` — fold the facts level by level, retiring node payloads,
//!   one representative per orbit of the site symmetry.

use std::hint::black_box;
use std::time::Instant;

use nbc_bench::BenchGroup;
use nonblocking_commit::model::protocols::{central_2pc, central_3pc};
use nonblocking_commit::model::{Analysis, ReachOptions};

fn bench_retained_vs_streamed() {
    let mut g = BenchGroup::new("analysis_throughput");
    g.sample_size(10);
    for (label, p) in [("central_2pc/7", central_2pc(7)), ("central_3pc/5", central_3pc(5))] {
        g.bench(&format!("{label}/retained"), || Analysis::build(black_box(&p)).unwrap().n_sites());
        g.bench(&format!("{label}/streamed"), || {
            Analysis::build_with(black_box(&p), ReachOptions::default().with_streaming(true))
                .unwrap()
                .n_sites()
        });
    }
}

/// Single-shot throughput and memory-proxy table: nodes/sec of the retained
/// build, and the streaming peak-resident count against the retained node
/// vector — the figure of merit for the extra-sites headroom.
fn throughput_and_memory_table() {
    println!("\n== analysis_memory (retained nodes vs streaming peak resident) ==");
    for (label, p) in [
        ("central_2pc/7", central_2pc(7)),
        ("central_2pc/8", central_2pc(8)),
        ("central_3pc/5", central_3pc(5)),
    ] {
        let t = Instant::now();
        let retained = Analysis::build(&p).unwrap();
        let t_retained = t.elapsed();
        let nodes = retained.graph().unwrap().node_count();

        let t = Instant::now();
        let streamed =
            Analysis::build_with(&p, ReachOptions::default().with_streaming(true)).unwrap();
        let t_stream = t.elapsed();
        let st = streamed.stream_stats().unwrap();

        println!(
            "{label:<16} nodes {nodes:>8}  retained {:>9.2?} ({:>10.0} nodes/s)  \
             stream {:>9.2?}  peak resident {:>7} ({:.1}% of retained)",
            t_retained,
            nodes as f64 / t_retained.as_secs_f64(),
            t_stream,
            st.peak_resident,
            100.0 * st.peak_resident as f64 / nodes as f64,
        );
    }
}

fn main() {
    bench_retained_vs_streamed();
    throughput_and_memory_table();
}
