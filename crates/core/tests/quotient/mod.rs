//! What the streaming fold owes its callers, whatever it walks to get
//! there: the facts, the counts — the graph's classification counts
//! included — and the progress lines of the retained build, and a
//! termination verification that no thread count or spill budget can
//! move. `quotient_contract.rs` holds the catalog to it here, and
//! `crates/paxos` and `crates/spec` include this file by path for the
//! protocols core cannot name.
//!
//! `peak_resident` is deliberately absent: it describes the fold, not the
//! graph.

#[allow(dead_code)]
#[path = "../pin/mod.rs"]
mod pin;

use nbc_core::verify::verify_termination_with;
use nbc_core::{
    resilience, synthesis, theorem, Analysis, Paradigm, Protocol, ReachOptions, StateId,
};

/// Every per-state fact and derived table of `got` equals `want`'s.
fn assert_same_facts(p: &Protocol, want: &Analysis, got: &Analysis, ctx: &str) {
    for site in p.sites() {
        for idx in 0..p.fsa(site).state_count() {
            let s = StateId(idx as u32);
            assert_eq!(
                got.occupied(site, s),
                want.occupied(site, s),
                "{ctx}: occupied {site} {idx}"
            );
            assert_eq!(
                got.yes_voted(site, s),
                want.yes_voted(site, s),
                "{ctx}: yes_voted {site} {idx}"
            );
            assert_eq!(
                got.committable(site, s),
                want.committable(site, s),
                "{ctx}: committable {site} {idx}"
            );
            assert_eq!(
                got.concurrency_set(site, s),
                want.concurrency_set(site, s),
                "{ctx}: concurrency set {site} {idx}"
            );
            assert_eq!(
                got.cs_witnesses(site, s),
                want.cs_witnesses(site, s),
                "{ctx}: witnesses {site} {idx}"
            );
        }
    }
    assert_eq!(got.class_decisions(), want.class_decisions(), "{ctx}: class decisions");
    assert_eq!(got.recovery_classes(), want.recovery_classes(), "{ctx}: recovery classes");
    let (want_report, got_report) = (theorem::check_with(p, want), theorem::check_with(p, got));
    assert_eq!(format!("{got_report:?}"), format!("{want_report:?}"), "{ctx}: theorem");
    assert_eq!(
        format!("{:?}", resilience::resilience_with(p, &got_report)),
        format!("{:?}", resilience::resilience_with(p, &want_report)),
        "{ctx}: resilience"
    );
}

/// The streamed analysis of `p` — at threads 1, 2 and 4 with the workers
/// forced on, unlimited, under a 4 KiB budget and spilling at every level
/// — against the serial retained build. Termination verification walks
/// the states again with each analysis's options, so its whole result is
/// held to the serial one's too.
pub(crate) fn assert_streamed_equals_retained(label: &str, p: &Protocol) {
    let retained =
        Analysis::build_with(p, ReachOptions::default().with_threads(1).with_progress(pin::hook))
            .unwrap();
    let levels = pin::take_levels();
    let verified = verify_termination_with(p, &retained);
    let graph = retained.graph().expect("retained");
    let (nodes, stats) = (graph.node_count(), graph.stats());
    for threads in [1usize, 2, 4] {
        for budget in [0usize, 4096, 1] {
            let ctx = format!("{label}: threads={threads} budget={budget}");
            let opts = ReachOptions {
                threads,
                parallel_frontier_min: 1,
                stream: true,
                mem_budget: budget,
                ..ReachOptions::default()
            }
            .with_progress(pin::hook);
            let streamed = Analysis::build_with(p, opts).unwrap();
            assert_eq!(pin::take_levels(), levels, "{ctx}: progress lines");
            let st = streamed.stream_stats().expect("streamed analyses carry their stats");
            // As text: the count's type is the fold's business.
            assert_eq!(st.distinct_states.to_string(), nodes.to_string(), "{ctx}: distinct");
            assert_eq!(st.levels, levels.lines().count(), "{ctx}: levels");
            assert_eq!(st.graph, stats, "{ctx}: graph stats");
            assert_same_facts(p, &retained, &streamed, &ctx);
            if budget != 4096 {
                assert_eq!(verify_termination_with(p, &streamed), verified, "{ctx}: verify");
            }
        }
    }

    // What synthesis makes of it goes through the same fold.
    if p.paradigm != Paradigm::Custom {
        if let Ok(fixed) = synthesis::make_nonblocking(p) {
            let want = Analysis::build(&fixed).unwrap();
            let got =
                Analysis::build_with(&fixed, ReachOptions::default().with_streaming(true)).unwrap();
            assert_same_facts(&fixed, &want, &got, &format!("{label}: synthesized"));
        }
    }
}
