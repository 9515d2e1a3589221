//! `reach-analysis`: `nbc-core` only. A fresh `Analysis` per segment per
//! pass; no random input, so the seed changes nothing here.

use nbc_core::protocols::{central_2pc, central_3pc, decentralized_3pc};
use nbc_core::verify::verify_termination_with;
use nbc_core::{synthesis, theorem, Analysis, Protocol, ReachOptions};

use super::{add, raise, verdict, PassRun, SegmentRun, SinkRef, Workload};
use crate::spans::Spans;

struct Build {
    name: &'static str,
    protocol: Protocol,
    stream: bool,
    /// The paper's reachable-state count for this protocol and n.
    nodes: u64,
    nonblocking: bool,
}

/// The reach workload: three graph builds and a small-n tail.
pub struct ReachWorkload {
    builds: Vec<Build>,
    small_3pc: Protocol,
    small_2pc: Protocol,
}

/// Site count of the verify/synthesis tail.
const SMALL_N: usize = 5;

impl ReachWorkload {
    /// Build the protocols (the analyses are the units' own work).
    pub fn new() -> Self {
        let build = |name, protocol, stream, nodes, nonblocking| Build {
            name,
            protocol,
            stream,
            nodes,
            nonblocking,
        };
        Self {
            builds: vec![
                build("c2pc-7", central_2pc(7), false, 11_034, false),
                build("c3pc-7-stream", central_3pc(7), true, 11_098, true),
                build("d3pc-5", decentralized_3pc(5), false, 1_420, true),
            ],
            small_3pc: central_3pc(SMALL_N),
            small_2pc: central_2pc(SMALL_N),
        }
    }
}

/// Reachable states an analysis folded, retained or streamed.
pub fn node_count(a: &Analysis) -> u64 {
    match (a.graph(), a.stream_stats()) {
        (Some(g), _) => g.node_count() as u64,
        (None, Some(s)) => s.distinct_states as u64,
        (None, None) => 0,
    }
}

/// The per-unit gate of one build: the paper's node count and the
/// theorem's verdict.
pub fn gate(
    nodes: u64,
    expect_nodes: u64,
    nonblocking: bool,
    expect_nonblocking: bool,
) -> Result<(), String> {
    if nodes != expect_nodes {
        return Err(format!("{nodes} reachable states, the paper's graph has {expect_nodes}"));
    }
    if nonblocking != expect_nonblocking {
        return Err(format!(
            "theorem says {}, expected {}",
            verdict(nonblocking),
            verdict(expect_nonblocking),
        ));
    }
    Ok(())
}

impl Workload for ReachWorkload {
    fn pass(&mut self, spans: &mut Spans, _sink: Option<&SinkRef>) -> PassRun {
        let mut run = PassRun::default();
        for b in &self.builds {
            let opts = ReachOptions::default().with_threads(1).with_streaming(b.stream);
            let (analysis, build_ns) = spans.span("core.analysis.build", b.name, |_| {
                Analysis::build_with(&b.protocol, opts).expect("catalog protocols analyse")
            });
            let (report, theorem_ns) = spans.span("core.theorem.check_with", b.name, |_| {
                theorem::check_with(&b.protocol, &analysis)
            });
            let nodes = node_count(&analysis);
            if let Some(g) = analysis.graph() {
                add(&mut run.counts, "core.retained_nodes", g.node_count() as u64);
                add(&mut run.counts, "core.retained_edges", g.edge_count() as u64);
            }
            if let Some(s) = analysis.stream_stats() {
                add(&mut run.counts, "core.stream_states", s.distinct_states as u64);
                raise(&mut run.counts, "core.stream_peak_resident", s.peak_resident as u64);
            }
            let gate = gate(nodes, b.nodes, report.nonblocking(), b.nonblocking);
            let ((), drop_ns) = spans.span("core.analysis.drop", b.name, |_| drop(analysis));
            run.segments.push(SegmentRun {
                name: b.name,
                ns: build_ns + theorem_ns + drop_ns,
                ops: nodes,
                gate,
            });
        }

        // The small-n tail: exhaustive termination verification of 3PC
        // and buffer-state synthesis from 2PC.
        let opts = ReachOptions::default().with_threads(1);
        let (analysis, build_ns) = spans.span("core.analysis.build", "c3pc-5", |_| {
            Analysis::build_with(&self.small_3pc, opts).expect("catalog protocols analyse")
        });
        let (verified, verify_ns) =
            spans.span("core.verify.verify_termination_with", "c3pc-5", |_| {
                verify_termination_with(&self.small_3pc, &analysis)
            });
        let (made, synth_ns) = spans.span("core.synthesis.make_nonblocking", "c2pc-5", |_| {
            synthesis::make_nonblocking(&self.small_2pc)
        });
        let nodes = node_count(&analysis);
        let gate = if !verified.nonblocking() {
            Err(format!("3PC termination not verified: {} stuck", verified.stuck_witnesses.len()))
        } else {
            match &made {
                Ok(p) if p.phase_count() == 3 => Ok(()),
                Ok(p) => {
                    Err(format!("synthesis gave {} phases, 2PC + buffer is 3", p.phase_count()))
                }
                Err(e) => Err(format!("synthesis failed: {e}")),
            }
        };
        run.segments.push(SegmentRun {
            name: "verify-synth-5",
            ns: build_ns + verify_ns + synth_ns,
            ops: nodes,
            gate,
        });
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_on_a_wrong_count_or_verdict() {
        assert_eq!(gate(11_034, 11_034, false, false), Ok(()));
        let e = gate(11_033, 11_034, false, false).expect_err("count");
        assert!(e.contains("11033 reachable states"), "{e}");
        let e = gate(11_034, 11_034, true, false).expect_err("verdict");
        assert!(e.contains("says NONBLOCKING, expected BLOCKING"), "{e}");
    }

    #[test]
    fn node_count_reads_retained_and_streamed_analyses() {
        let p = central_3pc(3);
        let retained = Analysis::build_with(&p, ReachOptions::default().with_threads(1)).unwrap();
        let streamed =
            Analysis::build_with(&p, ReachOptions::default().with_threads(1).with_streaming(true))
                .unwrap();
        assert!(node_count(&retained) > 0);
        assert_eq!(node_count(&retained), node_count(&streamed));
    }
}
