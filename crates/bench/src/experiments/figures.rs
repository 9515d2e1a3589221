//! Protocol-figure experiments: render each FSA figure of the paper as a
//! transition table and as Graphviz DOT.

use nonblocking_commit::model::protocols::{
    central_2pc, central_3pc, decentralized_2pc, decentralized_3pc,
};
use nonblocking_commit::model::{dot, theorem, Protocol, SiteId};

fn render_protocol_figure(p: &Protocol, note: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{p}\n"));
    out.push_str(note);
    out.push_str("\nDOT (render with `dot -Tsvg`):\n");
    out.push_str(&dot::protocol_to_dot(p));
    out
}

/// E1 — "The FSAs for the 2PC protocol": coordinator + slave automata.
pub fn e1_central_2pc_fsas() -> String {
    let p = central_2pc(3);
    let mut out = render_protocol_figure(
        &p,
        "Paper shape: coordinator q1-w1-{a1,c1}; slave q-{w,a}, w-{a,c}. \
         The coordinator's own votes are the parenthesized (yes_1)/(no_1).",
    );
    // Also render the single coordinator FSA standalone, matching the
    // figure's left half.
    out.push_str("\nCoordinator automaton standalone:\n");
    out.push_str(&dot::fsa_to_dot(p.fsa(SiteId(0)), "central-2pc-coordinator"));
    out
}

/// E3 — "The decentralized 2PC protocol": the single peer automaton all
/// sites run.
pub fn e3_decentralized_2pc_fsa() -> String {
    render_protocol_figure(
        &decentralized_2pc(3),
        "Paper shape: every site runs q-{w,a}, w-{a,c}; each round is a \
         full message interchange (votes go to every site, including the \
         sender itself).",
    )
}

/// E7 — "A nonblocking central site 3PC protocol".
pub fn e7_central_3pc_fsas() -> String {
    let p = central_3pc(3);
    let report = theorem::check(&p).expect("analyzable");
    let mut out = render_protocol_figure(
        &p,
        "Paper shape: 2PC plus the buffer state p between w and c \
         (prepare/ack round).",
    );
    out.push_str(&format!("\nTheorem verdict: {report}"));
    out
}

/// E8 — "A nonblocking decentralized 3PC protocol".
pub fn e8_decentralized_3pc_fsa() -> String {
    let p = decentralized_3pc(3);
    let report = theorem::check(&p).expect("analyzable");
    let mut out = render_protocol_figure(
        &p,
        "Paper shape: decentralized 2PC plus a full prepare interchange \
         before commit.",
    );
    out.push_str(&format!("\nTheorem verdict: {report}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_render_nonempty_dot() {
        for f in [
            e1_central_2pc_fsas,
            e3_decentralized_2pc_fsa,
            e7_central_3pc_fsas,
            e8_decentralized_3pc_fsa,
        ] {
            let s = f();
            assert!(s.contains("digraph"), "missing DOT output");
            assert!(s.contains("->"));
        }
    }

    #[test]
    fn three_pc_figures_claim_nonblocking() {
        assert!(e7_central_3pc_fsas().contains("NONBLOCKING"));
        assert!(e8_decentralized_3pc_fsa().contains("NONBLOCKING"));
    }
}
