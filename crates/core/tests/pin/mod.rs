//! Everything the two `core::reach` walks decide about one protocol,
//! rendered as text for `pinned_graphs.rs` (here and in `crates/paxos`,
//! which includes this file by path because core cannot depend on it).
//!
//! The block holds an `Fp128` over every node's `(locals, msgs)` and every
//! edge's `(to, site, transition, any_choice)` in id order, the graph's
//! classification counts, the streaming fold's counts, and the per-level
//! progress sequence. Rendering also asserts that the streaming fold, at
//! threads 1, 2 and 4 with the workers forced on and under a 4 KiB spill
//! budget, reproduces the retained build's counts and progress — so one
//! golden block pins both.

use std::cell::RefCell;
use std::fmt::Write;

use nbc_core::{
    Analysis, Fp128, LevelProgress, Protocol, ReachGraph, ReachOptions, SpillStats, StreamStats,
};

thread_local! {
    /// Progress snapshots of the build running on this thread (the hook is
    /// a plain `fn`, and is called from the thread that called the builder).
    static LEVELS: RefCell<Vec<LevelProgress>> = const { RefCell::new(Vec::new()) };
}

/// The progress hook every pinned build installs.
pub fn hook(p: &LevelProgress) {
    LEVELS.with(|l| l.borrow_mut().push(*p));
}

/// The level lines recorded on this thread since the last call.
pub fn take_levels() -> String {
    let mut out = String::new();
    for p in LEVELS.with(|l| std::mem::take(&mut *l.borrow_mut())) {
        writeln!(
            out,
            "level {}: frontier={} new={} dedup={} total={}",
            p.level, p.frontier, p.new_states, p.dedup_hits, p.total
        )
        .unwrap();
    }
    out
}

fn graph_fp(g: &ReachGraph) -> u128 {
    let mut h = Fp128::new();
    h.write_usize(g.node_count());
    for id in 0..g.node_count() as u32 {
        let node = g.node(id);
        h.write_usize(node.locals.len());
        for s in node.locals.iter() {
            h.write_u32(s.0);
        }
        h.write_usize(node.msgs.distinct_addrs());
        for (a, count) in node.msgs.iter() {
            h.write_u32(a.src.0);
            h.write_u32(a.dst.0);
            h.write_u32(u32::from(a.kind.0));
            h.write_u32(u32::from(count));
        }
        h.write_usize(g.edges(id).len());
        for e in g.edges(id) {
            h.write_u32(e.to);
            h.write_u32(e.site.0);
            h.write_u32(e.transition);
            h.write_u64(e.any_choice.map_or(0, |s| 1 + u64::from(s.0)));
        }
    }
    h.finish()
}

fn graph_line(g: &ReachGraph) -> String {
    let st = g.stats();
    format!(
        "graph fp={:#034x} nodes={} edges={} final={} terminal={} deadlocked={} inconsistent={}",
        graph_fp(g),
        st.nodes,
        st.edges,
        st.final_states,
        st.terminal_states,
        st.deadlocked_states,
        st.inconsistent_states
    )
}

/// The pinned block for `protocol`, headed by `label`.
pub fn render(label: &str, protocol: &Protocol) -> String {
    let serial =
        ReachGraph::build_with(protocol, ReachOptions::default().with_progress(hook)).unwrap();
    let graph = graph_line(&serial);
    let levels = take_levels();
    assert_eq!(
        serial.edge_count(),
        (0..serial.node_count() as u32).map(|id| serial.edges(id).len()).sum()
    );

    let mut peaks = String::new();
    let mut stream: Option<StreamStats> = None;
    for threads in [1usize, 2, 4] {
        let opts = ReachOptions { threads, parallel_frontier_min: 1, ..ReachOptions::default() }
            .with_progress(hook);
        let streamed = |opts: ReachOptions| {
            let a = Analysis::build_with(protocol, opts.with_streaming(true)).unwrap();
            *a.stream_stats().expect("streamed analyses carry their stats")
        };
        let unlimited = streamed(opts);
        assert_eq!(take_levels(), levels, "{label}: streaming progress, threads={threads}");
        assert_eq!(unlimited.graph, serial.stats(), "{label}: streamed counts, threads={threads}");
        let budgeted = streamed(opts.with_mem_budget(4096));
        assert_eq!(take_levels(), levels, "{label}: spilling progress, threads={threads}");
        assert_eq!(
            StreamStats { spill: SpillStats::default(), ..budgeted },
            unlimited,
            "{label}: a spill budget moved the streaming counts, threads={threads}"
        );
        // `peak_resident` counts cross-chunk duplicates before the merge,
        // so it alone may depend on the chunking.
        write!(peaks, " t{threads}={}", unlimited.peak_resident).unwrap();
        let counts = StreamStats { peak_resident: 0, ..unlimited };
        assert_eq!(
            *stream.get_or_insert(counts),
            counts,
            "{label}: stream counts, threads={threads}"
        );
    }
    let stream = stream.expect("three thread counts ran");
    format!(
        "== {label} ==\n{graph}\nstream distinct={} levels={} peak_resident{peaks}\n{levels}",
        stream.distinct_states, stream.levels
    )
}

/// Compare a rendering with its golden, naming the first line that moved
/// (the whole text is thousands of lines).
pub fn assert_golden(got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden length");
}
