//! The allocation budget of a reachable-graph build, so it cannot regress
//! silently between benchmark runs: a state is a few words copied onto the
//! end of an arena, so a build allocates as its tables and arenas grow and
//! once or twice a level — not per state. At commit 1322a52 the retained
//! build allocated twice per state (a locals box and a message vector).
//!
//! This file is its own test binary with a single test, so nothing else
//! allocates while it counts.

#[path = "../../pipeline/tests/counting/mod.rs"]
mod counting;

use nbc_core::protocols::central_3pc;
use nbc_core::{Analysis, ReachOptions};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Allocation calls per reachable state measured for each build of
/// central 3PC n=6 (2 612 states, 14 levels) at one thread, the layout,
/// the compiled transitions and the analysis' own tables included. The
/// streaming fold pays some dozen calls a level (a scratch state, the
/// chunk's dedup set, its stream and the next frontier, and what they grow
/// by) where the retained build pays only for growth. The test allows a
/// fifth more.
const MEASURED_STREAMING: f64 = 0.100;
const MEASURED_RETAINED: f64 = 0.051;

#[test]
fn a_graph_build_allocates_per_level_not_per_state() {
    let p = central_3pc(6);
    let opts = ReachOptions::default().with_threads(1);
    let per_state = |stream: bool| {
        let before = counting::calls();
        let a = Analysis::build_with(&p, opts.with_streaming(stream)).unwrap();
        let calls = counting::calls() - before;
        let states = a.graph().map_or_else(
            || a.stream_stats().expect("streamed").distinct_states,
            |g| g.node_count(),
        );
        assert_eq!(states, 2612);
        (a, calls as f64 / states as f64)
    };

    let (_, streaming) = per_state(true);
    assert!(
        streaming <= MEASURED_STREAMING * 1.2,
        "{streaming:.3} allocations per state streaming, budget {:.3}",
        MEASURED_STREAMING * 1.2
    );

    // Retained, and nobody reads a node: the theorem, resilience and the
    // graph's own statistics work on the packed words.
    let (analysis, retained) = per_state(false);
    assert!(
        retained <= MEASURED_RETAINED * 1.2,
        "{retained:.3} allocations per state retained, budget {:.3}",
        MEASURED_RETAINED * 1.2
    );
    let graph = analysis.graph().expect("retained");
    let before = counting::calls();
    assert_eq!(graph.stats().nodes, 2612);
    assert_eq!(counting::calls() - before, 0, "classification allocates nothing");

    // The first read decodes every node: the vector that holds them, a
    // locals box each, and a message vector for each that holds messages.
    let before = counting::calls();
    let nodes = graph.nodes();
    let decoding = counting::calls() - before;
    let holding = nodes.iter().filter(|s| !s.msgs.is_empty()).count();
    assert_eq!(decoding as usize, 1 + nodes.len() + holding);
    let before = counting::calls();
    let _ = (graph.nodes(), graph.node(7));
    assert_eq!(counting::calls() - before, 0, "decoded once");
}
