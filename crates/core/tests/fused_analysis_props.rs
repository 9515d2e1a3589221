//! Property test: the bitset-based analysis (facts folded over the
//! retained graph, or over the stream at any thread count) is exactly
//! equal to an independently computed naive reference over the retained
//! reachable graph — occupancy, yes-votedness, committability, full
//! concurrency sets, class projections, and theorem witnesses.
//!
//! The naive reference below deliberately re-derives everything from first
//! principles (nested loops and `BTreeSet` inserts over the retained node
//! vector, its own yes-free reachability), sharing no code with the
//! production accumulator, so a bug in the bitset machinery cannot cancel
//! itself out.

use std::collections::BTreeSet;

use nbc_core::protocols::catalog;
use nbc_core::{Analysis, ReachGraph, ReachOptions, SiteId, StateClass, StateId, Vote};

/// Naive per-(site, state) facts computed straight from the definitions.
struct Reference {
    cs: Vec<Vec<BTreeSet<(SiteId, StateId)>>>,
    occupied: Vec<Vec<bool>>,
    yes_voted: Vec<Vec<bool>>,
    committable: Vec<Vec<bool>>,
}

fn naive_reference(p: &nbc_core::Protocol, g: &ReachGraph) -> Reference {
    // Yes-voted: state t is yes-voted iff unreachable without a yes vote.
    let yes_voted: Vec<Vec<bool>> = p
        .fsas()
        .iter()
        .map(|fsa| {
            let mut no_yes = vec![false; fsa.state_count()];
            no_yes[fsa.initial().index()] = true;
            let mut changed = true;
            while changed {
                changed = false;
                for t in fsa.transitions() {
                    if no_yes[t.from.index()] && t.vote != Some(Vote::Yes) && !no_yes[t.to.index()]
                    {
                        no_yes[t.to.index()] = true;
                        changed = true;
                    }
                }
            }
            no_yes.iter().map(|&r| !r).collect()
        })
        .collect();

    let counts: Vec<usize> = p.fsas().iter().map(|f| f.state_count()).collect();
    let mut cs: Vec<Vec<BTreeSet<(SiteId, StateId)>>> =
        counts.iter().map(|&c| vec![BTreeSet::new(); c]).collect();
    let mut occupied: Vec<Vec<bool>> = counts.iter().map(|&c| vec![false; c]).collect();
    let mut committable: Vec<Vec<bool>> = counts.iter().map(|&c| vec![true; c]).collect();

    for node in g.nodes() {
        let all_yes = node.locals.iter().enumerate().all(|(j, &t)| yes_voted[j][t.index()]);
        for (i, &s) in node.locals.iter().enumerate() {
            occupied[i][s.index()] = true;
            if !all_yes {
                committable[i][s.index()] = false;
            }
            for (j, &t) in node.locals.iter().enumerate() {
                if i != j {
                    cs[i][s.index()].insert((SiteId(j as u32), t));
                }
            }
        }
    }

    Reference { cs, occupied, yes_voted, committable }
}

fn assert_analysis_matches(p: &nbc_core::Protocol, r: &Reference, a: &Analysis, ctx: &str) {
    assert_eq!(a.n_sites(), p.n_sites(), "{ctx}: n_sites");
    for site in p.sites() {
        let i = site.index();
        for idx in 0..p.fsa(site).state_count() {
            let s = StateId(idx as u32);
            assert_eq!(a.occupied(site, s), r.occupied[i][idx], "{ctx}: occupied {site} {idx}");
            assert_eq!(a.yes_voted(site, s), r.yes_voted[i][idx], "{ctx}: yes_voted {site} {idx}");
            assert_eq!(
                a.committable(site, s),
                r.committable[i][idx],
                "{ctx}: committable {site} {idx}"
            );
            // Full concurrency set, through both the lazy BTreeSet view and
            // the non-materializing slot iterator.
            assert_eq!(*a.concurrency_set(site, s), r.cs[i][idx], "{ctx}: cs {site} {idx}");
            let slots: BTreeSet<_> = a.concurrency_slots(site, s).collect();
            assert_eq!(slots, r.cs[i][idx], "{ctx}: cs slots {site} {idx}");
            // Class projection and commit/abort queries + witnesses.
            let classes: BTreeSet<StateClass> =
                r.cs[i][idx].iter().map(|&(j, t)| a.class_of(j, t)).collect();
            assert_eq!(a.concurrency_classes(site, s), classes, "{ctx}: classes {site} {idx}");
            let want_commit = r.cs[i][idx]
                .iter()
                .find(|&&(j, t)| a.class_of(j, t) == StateClass::Committed)
                .copied();
            let want_abort = r.cs[i][idx]
                .iter()
                .find(|&&(j, t)| a.class_of(j, t) == StateClass::Aborted)
                .copied();
            assert_eq!(a.cs_has_commit(site, s), want_commit.is_some(), "{ctx}: has_commit");
            assert_eq!(a.cs_has_abort(site, s), want_abort.is_some(), "{ctx}: has_abort");
            assert_eq!(a.cs_witnesses(site, s), (want_commit, want_abort), "{ctx}: witnesses");
        }
    }
}

#[test]
fn fused_analysis_equals_naive_reference_across_catalog() {
    // n=5 and a four-phase protocol are where the forced workers cut a
    // level into chunks more than a state or two wide.
    let mut inputs: Vec<_> = [2usize, 3, 4, 5].map(|n| (n, catalog(n))).into();
    inputs.push((3, vec![nbc_core::kpc::k_phase_central(3, 4).unwrap()]));
    for (n, protocols) in inputs {
        for p in protocols {
            let serial = ReachGraph::build(&p).unwrap();
            let reference = naive_reference(&p, &serial);

            // The retained post-hoc path (`from_graph`) over the serial graph.
            let posthoc = Analysis::from_graph(&p, serial);
            assert_analysis_matches(&p, &reference, &posthoc, &format!("{} n={n} posthoc", p.name));

            // The streamed path at threads 1/2/4, with the inline
            // threshold forced down so the workers and their OR-merges
            // actually run on these small graphs.
            for threads in [1usize, 2, 4] {
                let opts = ReachOptions {
                    threads,
                    parallel_frontier_min: 1,
                    stream: true,
                    ..ReachOptions::default()
                };
                let streamed = Analysis::build_with(&p, opts).unwrap();
                assert!(streamed.graph().is_none());
                assert_analysis_matches(
                    &p,
                    &reference,
                    &streamed,
                    &format!("{} n={n} threads={threads} streamed", p.name),
                );
            }
        }
    }
}
