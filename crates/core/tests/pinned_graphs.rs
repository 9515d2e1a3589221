//! The reachable state graphs themselves, pinned.
//!
//! `graph_properties.rs` and `fused_analysis_props.rs` compare the
//! builders with each other, so two paths that drift together stay green.
//! The golden holds what they build: captured at commit 6201d20, when the
//! serial builder interned whole states under `RandomState`, the parallel
//! one sharded by `DefaultHasher`, and the streaming fold carried owned
//! successor states to the level barrier.

mod pin;

use std::fmt::Write;

use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::catalog;
use nbc_core::{Analysis, ReachGraph, ReachOptions};

#[test]
fn catalog_graphs_match_the_parent_commit() {
    let mut got = String::new();
    for n in 2..=5 {
        for p in catalog(n) {
            got.push_str(&pin::render(&p.name, &p));
        }
    }
    let kpc = k_phase_central(3, 4).unwrap();
    got.push_str(&pin::render(&kpc.name, &kpc));
    pin::assert_golden(&got, include_str!("golden/pinned_graphs.txt"));
}

/// The catalog one size up, as the text a user reads: what `nbc graph`
/// prints and what `--progress` reports, from the retained builder, and
/// the streaming fold's counts, alone and spilling at every level (a
/// 1-byte budget), at threads 1, 2 and 4 with the workers forced on.
/// Captured at commit 1322a52, when a state was a heap `GlobalState` and
/// the frontier a variable-length bit stream.
#[test]
fn catalog_at_six_sites_reads_as_at_the_parent_commit() {
    let mut got = String::new();
    for p in catalog(6) {
        let serial =
            ReachGraph::build_with(&p, ReachOptions::default().with_progress(pin::hook)).unwrap();
        let levels = pin::take_levels();
        writeln!(got, "== {} ==\n{}", p.name, serial.stats()).unwrap();
        writeln!(got, "nodes={} edges={}", serial.node_count(), serial.edge_count()).unwrap();
        for threads in [1usize, 2, 4] {
            let opts =
                ReachOptions { threads, parallel_frontier_min: 1, ..ReachOptions::default() }
                    .with_progress(pin::hook);
            for budget in [0usize, 1] {
                let opts = opts.with_streaming(true).with_mem_budget(budget);
                let a = Analysis::build_with(&p, opts).unwrap();
                let st = a.stream_stats().expect("streamed analyses carry their stats");
                assert_eq!(
                    pin::take_levels(),
                    levels,
                    "{}: streaming, threads={threads} budget={budget}",
                    p.name
                );
                assert_eq!(st.spill.runs_written > 0, budget > 0, "{}: spilling", p.name);
                assert_eq!(st.graph, serial.stats(), "{}: streamed counts", p.name);
                writeln!(got, "stream t{threads} budget={budget}: {st}").unwrap();
            }
        }
        got.push_str(&levels);
    }
    pin::assert_golden(&got, include_str!("golden/pinned_six_sites.txt"));
}
