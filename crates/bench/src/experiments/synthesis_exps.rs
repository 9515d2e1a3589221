//! E6 — the paper's design method: buffer-state insertion turns blocking
//! protocols into nonblocking ones.

use nonblocking_commit::model::canonical::{canonical_2pc, insert_buffer_states};
use nonblocking_commit::model::protocols::{central_2pc, decentralized_2pc};
use nonblocking_commit::model::{synthesis, theorem};

/// E6 — run the synthesis at all three levels: the canonical automaton
/// (figure "Making the canonical 2PC protocol nonblocking") and both
/// instantiated 2PC protocols, re-verifying each result with the theorem
/// checker.
pub fn e6_synthesis() -> String {
    let mut out = String::new();

    let can2 = canonical_2pc();
    out.push_str("Before (canonical 2PC):\n");
    out.push_str(&format!("{can2}"));
    out.push_str(&format!("  lemma violations: {}\n\n", can2.lemma_violations().len()));
    let can3 = insert_buffer_states(&can2);
    out.push_str("After buffer-state insertion:\n");
    out.push_str(&format!("{can3}"));
    out.push_str(&format!(
        "  lemma violations: {} (nonblocking: {})\n\n",
        can3.lemma_violations().len(),
        can3.is_nonblocking()
    ));

    for p in [central_2pc(3), decentralized_2pc(3)] {
        let before = theorem::check(&p).expect("analyzable");
        let synth = synthesis::make_nonblocking(&p).expect("catalog paradigms supported");
        let after = theorem::check(&synth).expect("analyzable");
        out.push_str(&format!(
            "{}: {} violations, {} phases  →  {}: {} violations, {} phases\n",
            p.name,
            before.violations.len(),
            p.phase_count(),
            synth.name,
            after.violations.len(),
            synth.phase_count(),
        ));
    }
    out.push_str(
        "\nShape: the synthesized protocols are structurally the hand-written \
         3PC protocols (one buffer state per automaton, one extra phase).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_shows_violations_going_to_zero() {
        let s = e6_synthesis();
        assert!(s.contains("nonblocking: true"));
        assert!(s.contains("0 violations, 3 phases"));
    }
}
