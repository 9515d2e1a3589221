//! Reachable-state-graph experiments: the 2-site 2PC figure and the
//! exponential-growth observation.

use nonblocking_commit::model::protocols::{catalog, central_2pc, central_3pc};
use nonblocking_commit::model::{dot, Analysis, Count, ReachGraph, ReachOptions, SiteId};

use crate::table::Table;

/// E2 — "Reachable state graph for the 2-site 2PC protocol": build the
/// graph, list every global state with its classification, and emit DOT.
pub fn e2_two_site_2pc_graph() -> String {
    let p = central_2pc(2);
    let g = ReachGraph::build(&p).expect("tiny graph");
    let mut out = String::new();
    out.push_str(&format!("{}\n{}\n\n", p.name, g.stats()));

    let mut t = Table::new(["node", "coordinator", "slave", "outstanding", "class"]);
    for id in 0..g.node_count() as u32 {
        let node = g.node(id);
        let names: Vec<String> = node
            .locals
            .iter()
            .enumerate()
            .map(|(i, &s)| p.fsa(SiteId(i as u32)).state(s).name.clone())
            .collect();
        let msgs: Vec<String> = node
            .msgs
            .iter()
            .map(|(a, c)| {
                format!(
                    "{}→{}:{}{}",
                    a.src,
                    a.dst,
                    p.msg_name(a.kind),
                    if c > 1 { format!("×{c}") } else { String::new() }
                )
            })
            .collect();
        let class = if g.is_inconsistent(id) {
            "INCONSISTENT"
        } else if g.is_deadlocked(id) {
            "deadlocked"
        } else if g.is_final(id) {
            "final"
        } else if g.is_terminal(id) {
            "terminal"
        } else {
            ""
        };
        t.row([
            format!("g{id}"),
            names[0].clone(),
            names[1].clone(),
            msgs.join(", "),
            class.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper property: the graph is acyclic, every terminal state is \
         final, and no state is inconsistent.\n\nDOT:\n",
    );
    out.push_str(&dot::reach_graph_to_dot(&g, &p, true));
    out
}

/// B5 — graph growth: "the reachable state graph grows exponentially with
/// the number of sites", plus the two routes to the analysis on the large
/// central 2PC instances the growth unlocks.
pub fn b5_graph_growth() -> String {
    b5_impl(6, &[6, 7, 8, 9], &[7, 10, 16, 24, 32, 48, 64])
}

fn b5_impl(max_n: usize, timing_ns: &[usize], quotient_ns: &[usize]) -> String {
    let mut t = Table::new(["protocol", "n", "global states", "edges", ""]);
    for n in 2..=max_n {
        for p in catalog(n) {
            let g = ReachGraph::build(&p).expect("bounded");
            t.row([
                p.name.clone(),
                n.to_string(),
                g.node_count().to_string(),
                g.edge_count().to_string(),
                String::new(),
            ]);
        }
    }
    // Per-protocol growth factors (nodes(n)/nodes(n-1)).
    let mut header = vec!["protocol".to_string()];
    header.extend((3..=max_n).map(|n| format!("n={n}/{}", n - 1)));
    let mut growth = Table::new(header);
    for idx in 0..4usize {
        let sizes: Vec<usize> = (2..=max_n)
            .map(|n| {
                let p = &catalog(n)[idx];
                ReachGraph::build(p).expect("bounded").node_count()
            })
            .collect();
        let name = catalog(2)[idx].name.replace(" (n=2)", "");
        let mut row = vec![name];
        row.extend(sizes.windows(2).map(|w| format!("{:.1}", w[1] as f64 / w[0] as f64)));
        growth.row(row);
    }

    // The two routes to the analysis, end to end at the auto thread
    // count, and the streaming memory proxy: peak resident states against
    // the retained node vector.
    let mut analysis = Table::new([
        "central 2PC n",
        "global states",
        "retained (graph + bitset pass)",
        "streamed",
        "peak resident",
    ]);
    let auto = ReachOptions::default();
    for &n in timing_ns {
        let p = central_2pc(n);
        let t0 = std::time::Instant::now();
        let retained = Analysis::build_with(&p, auto).expect("bounded");
        let retained_t = t0.elapsed();
        let nodes = retained.graph().expect("retained").node_count();
        drop(retained);
        let t1 = std::time::Instant::now();
        let streamed = Analysis::build_with(&p, auto.with_streaming(true)).expect("bounded");
        let stream_t = t1.elapsed();
        let peak = streamed.stream_stats().expect("streamed").peak_resident;
        analysis.row([
            n.to_string(),
            nodes.to_string(),
            format!("{:.1} ms", retained_t.as_secs_f64() * 1e3),
            format!("{:.1} ms", stream_t.as_secs_f64() * 1e3),
            format!("{} ({:.1}%)", peak, 100.0 * peak as f64 / nodes as f64),
        ]);
    }
    // The streaming fold walks the graph modulo site symmetry: one
    // representative per orbit of the interchangeable slaves, the counts
    // exact sums over the orbits.
    let mut quotient = Table::new([
        "protocol",
        "n",
        "representatives",
        "global states (orbit sum)",
        "levels",
        "peak resident",
        "fold",
    ]);
    for &n in quotient_ns {
        for p in [central_2pc(n), central_3pc(n)] {
            let t0 = std::time::Instant::now();
            let streamed = Analysis::build_with(&p, auto.with_streaming(true)).expect("bounded");
            let fold = t0.elapsed();
            let st = streamed.stream_stats().expect("streamed");
            quotient.row([
                p.name.replace(&format!(" (n={n})"), ""),
                n.to_string(),
                st.representatives.to_string(),
                Count(st.distinct_states).to_string(),
                st.levels.to_string(),
                st.peak_resident.to_string(),
                format!("{:.1} ms", fold.as_secs_f64() * 1e3),
            ]);
        }
    }
    format!(
        "{}\nGrowth factor per added site (≈ constant ⇒ exponential growth, \
         as the paper observes):\n{}\nConcurrency-set analysis end to end: \
         the graph built and then folded in one bitset pass over its \
         nodes, and the fold over a stream (streaming retires node \
         payloads per level; peak resident = frontier + deduplicated \
         successor stream, both of orbit representatives):\n{}\nThe streaming fold \
         alone, modulo site symmetry — states explored against states \
         counted (a sum past 2^128 - 1 prints as \"at least\"):\n{}",
        t.render(),
        growth.render(),
        analysis.render(),
        quotient.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_reports_clean_graph() {
        let s = e2_two_site_2pc_graph();
        assert!(s.contains("0 deadlocked"));
        assert!(s.contains("0 inconsistent"));
        assert!(!s.contains("INCONSISTENT"));
        assert!(s.contains("digraph"));
    }

    #[test]
    fn b5_shows_growth() {
        // Small instances only — the full n<=9 sweep is for release runs.
        let s = b5_impl(3, &[3], &[4]);
        assert!(s.contains("Growth factor"));
        assert!(s.contains("central-site 2PC"));
        assert!(s.contains("retained (graph + bitset pass)  streamed  peak resident"), "{s}");
        assert!(s.contains("peak resident"));
        // 156 states of central 3PC n=4 from 49 representatives.
        assert!(s.contains("representatives"));
        assert!(s.contains("central-site 3PC  4  49 "), "{s}");
    }
}
