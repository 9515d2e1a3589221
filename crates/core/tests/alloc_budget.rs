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
use nbc_core::verify::verify_termination_with;
use nbc_core::{Analysis, ReachOptions};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Allocation calls measured for each build of central 3PC n=6 (2 612
/// states, 19 levels) at one thread, the layout, the compiled transitions
/// and the analysis' own tables included. The retained build pays per
/// reachable state, and only for growth. The streaming fold holds one
/// representative per orbit of the five interchangeable slaves (125 of
/// them) and pays per level — a scratch state and its canonical copy, the
/// key buffer, the chunk's dedup set, its stream, the next frontier and
/// its orbit sizes, and what they grow by — plus finding the group once;
/// closing the facts under it allocates nothing. Its figure is calls per
/// representative, and so is termination verification's, a second walk
/// of the same representatives. The test allows a fifth more.
const MEASURED_STREAMING: f64 = 4.816;
const MEASURED_RETAINED: f64 = 0.051;
const MEASURED_VERIFYING: f64 = 4.560;

#[test]
fn a_graph_build_allocates_per_level_not_per_state() {
    let p = central_3pc(6);
    let opts = ReachOptions::default().with_threads(1);

    let before = counting::calls();
    let a = Analysis::build_with(&p, opts.with_streaming(true)).unwrap();
    let calls = counting::calls() - before;
    let st = *a.stream_stats().expect("streamed");
    assert_eq!((st.distinct_states, st.representatives), (2612, 125));
    let streaming = calls as f64 / st.representatives as f64;
    assert!(
        streaming <= MEASURED_STREAMING * 1.2,
        "{streaming:.3} allocations per representative streaming, budget {:.3}",
        MEASURED_STREAMING * 1.2
    );

    // Retained, and nobody reads a node: the theorem, resilience and the
    // graph's own statistics work on the packed words.
    let before = counting::calls();
    let analysis = Analysis::build_with(&p, opts).unwrap();
    let retained = (counting::calls() - before) as f64 / 2612.0;
    assert!(
        retained <= MEASURED_RETAINED * 1.2,
        "{retained:.3} allocations per state retained, budget {:.3}",
        MEASURED_RETAINED * 1.2
    );
    let graph = analysis.graph().expect("retained");
    let before = counting::calls();
    assert_eq!(graph.stats().nodes, 2612);
    assert_eq!(counting::calls() - before, 0, "classification allocates nothing");

    // Termination verification walks the 125 representatives again,
    // streamed, and decodes no node of the retained graph (the first read
    // below still decodes every one): it allocates per level as the
    // streaming fold does, plus the class decisions. Its 63 survivor
    // subsets a state are judged as five site
    // bitmasks, and a survivor list is built only for a witness (3PC has
    // none). Built one per subset on the decoded graph it was ≈ 65 calls
    // a state; over the retained graph's words, 0.008.
    let before = counting::calls();
    let v = verify_termination_with(&p, &analysis);
    let verifying = (counting::calls() - before) as f64 / st.representatives as f64;
    assert_eq!((v.cases, v.nonblocking()), (2612 * 63, true));
    assert!(
        verifying <= MEASURED_VERIFYING * 1.2,
        "{verifying:.3} allocations per representative verifying, budget {:.3}",
        MEASURED_VERIFYING * 1.2
    );

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
