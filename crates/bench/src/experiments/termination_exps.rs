//! E9/E10 — termination decision tables, exhaustive termination sweeps,
//! and the k-resiliency corollary.

use nonblocking_commit::engine::{enumerate_crash_specs, sweep, RunConfig, TerminationRule};
use nonblocking_commit::model::canonical::canonical_3pc;
use nonblocking_commit::model::protocols::{catalog, central_2pc, central_3pc, decentralized_3pc};
use nonblocking_commit::model::{resilience, termination, Analysis};

use crate::table::Table;

/// E9 — "Termination protocol for the canonical 3PC": the decision table
/// (commit iff s ∈ {p, c}), then an exhaustive crash sweep in the engine
/// showing every run terminates consistently.
pub fn e9_termination() -> String {
    let mut out = String::new();

    // Canonical decision table.
    let can = canonical_3pc();
    let mut t = Table::new(["backup state s", "decision"]);
    for (i, st) in can.states().iter().enumerate() {
        t.row([st.name.clone(), can.backup_decision(i as u32).to_string()]);
    }
    out.push_str("Canonical 3PC backup decision table:\n");
    out.push_str(&t.render());
    out.push_str("Paper: commit if s ∈ {p, c}; abort if s ∈ {q, w, a}.\n\n");

    // Per-protocol decision tables (exact analysis).
    for p in [central_3pc(3), decentralized_3pc(3)] {
        let a = Analysis::build(&p).expect("analyzable");
        let mut t = Table::new(["site", "state", "class", "backup rule", "cautious rule"]);
        for row in termination::decision_table(&p, &a) {
            t.row([
                row.site.to_string(),
                row.state_name,
                row.class.letter().to_string(),
                row.backup.to_string(),
                row.cautious.to_string(),
            ]);
        }
        out.push_str(&format!("{}:\n{}\n", p.name, t.render()));
    }
    out.push_str(
        "Note: the per-state tables apply the rule verbatim to each exact \
         state. The one divergence\nfrom the canonical table is the central \
         coordinator's p1 (abort): CS(p1) contains no commit\nstate because \
         slaves cannot commit before the coordinator does — and aborting \
         there is safe\nfor the same reason. The engine applies the rule per \
         state *class* (the canonical form),\nwhich commits from p1; both \
         choices are correct, and the class form is what keeps cascaded\n\
         backup handoffs deciding identically.\n\n",
    );

    // Exhaustive engine sweeps.
    let mut t =
        Table::new(["protocol", "rule", "crash points", "consistent", "blocked", "all decided"]);
    for p in [central_3pc(3), decentralized_3pc(3), central_2pc(3)] {
        let a = Analysis::build(&p).expect("analyzable");
        let specs = enumerate_crash_specs(&p, None);
        for rule in [TerminationRule::Skeen, TerminationRule::Cooperative] {
            let base = RunConfig::happy(3).with_rule(rule);
            let s = sweep(&p, &a, &base, &specs);
            t.row([
                p.name.clone(),
                format!("{rule:?}"),
                s.total.to_string(),
                format!("{}/{}", s.consistent, s.total),
                s.blocked.to_string(),
                s.fully_decided.to_string(),
            ]);
        }
    }
    out.push_str("Exhaustive single-crash termination sweeps:\n");
    out.push_str(&t.render());
    out.push_str(
        "\nShape: 3PC terminates every run (0 blocked) under the paper's \
         rule; 2PC stays consistent but exhibits its blocking window.\n",
    );
    out
}

/// E10 — the corollary: resiliency to k−1 failures needs a clean subset of
/// k sites.
pub fn e10_resilience() -> String {
    let mut t =
        Table::new(["protocol", "n", "clean sites", "max tolerated failures", "tolerates n-1?"]);
    for n in [3usize, 5] {
        for p in catalog(n) {
            let r = resilience::resilience(&p).expect("analyzable");
            t.row([
                p.name.clone(),
                n.to_string(),
                r.clean_count().to_string(),
                r.max_tolerated_failures.to_string(),
                if r.tolerates(n - 1) { "yes".into() } else { "no".to_string() },
            ]);
        }
    }
    format!(
        "{}\nShape: 2PC tolerates zero failures without risking blocking \
         (central 2PC's single clean site is the coordinator itself); 3PC \
         tolerates n−1.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_decision_table_matches_paper() {
        let s = e9_termination();
        assert!(s.contains("commit if s ∈ {p, c}"));
        assert!(s.contains("0")); // zero blocked for 3PC
    }

    #[test]
    fn e10_shapes() {
        let s = e10_resilience();
        assert!(s.contains("yes"));
        assert!(s.contains("no"));
    }
}
