//! Extension experiments beyond the paper's figures.
//!
//! * **X1** — the k-phase ablation: is one buffer state really enough?
//! * **X2** — independent recovery: which durable states let a restarted
//!   site decide without asking anyone?

use nonblocking_commit::engine::{enumerate_crash_specs, run_with, sweep, RunConfig, RunReport};
use nonblocking_commit::model::kpc::{k_phase_central, k_phase_decentralized};
use nonblocking_commit::model::protocols::{central_3pc, decentralized_3pc};
use nonblocking_commit::model::recovery_analysis::classify;
use nonblocking_commit::model::{resilience, theorem, Analysis};

use crate::table::Table;

/// X1 — generate 2PC…5PC by repeated buffer insertion and measure what
/// each extra phase buys: nothing past k = 3. This ablates the paper's
/// design choice of a *single* buffer state.
pub fn x1_kpc_ablation() -> String {
    let n = 3usize;
    let mut t = Table::new([
        "protocol",
        "phases",
        "nonblocking?",
        "tolerated failures",
        "blocking rate (sweep)",
        "msgs/commit",
    ]);
    for k in 2..=5u32 {
        for p in [
            k_phase_central(n, k).expect("central paradigm supported"),
            k_phase_decentralized(n, k).expect("decentralized paradigm supported"),
        ] {
            let a = Analysis::build(&p).expect("analyzable");
            let verdict = theorem::check_with(&p, &a);
            let res = resilience::resilience_with(&p, &verdict);
            let specs = enumerate_crash_specs(&p, None);
            let s = sweep(&p, &a, &RunConfig::happy(n), &specs);
            assert!(s.all_consistent(), "{}: {:?}", p.name, s.inconsistent_runs);
            let happy = run_with(&p, &a, RunConfig::happy(n));
            t.row([
                p.name.clone(),
                p.phase_count().to_string(),
                if verdict.nonblocking() { "yes".into() } else { "NO".to_string() },
                res.max_tolerated_failures.to_string(),
                format!("{:.3}", s.blocking_rate()),
                happy.msgs_sent.to_string(),
            ]);
        }
    }
    format!(
        "{}\nAblation verdict: the paper's single buffer state is exactly \
         right. k = 3 already\ntolerates n−1 failures with zero blocking; \
         k = 4, 5 tolerate the same while paying\nanother message round per \
         phase. More phases buy cost, not resilience.\n",
        t.render()
    )
}

/// X2 — independent recovery classification for the catalog: where the
/// paper's "abort immediately upon recovering" rule applies, where a
/// restarted site must ask, and why.
pub fn x2_independent_recovery() -> String {
    let mut out = String::new();
    for p in [central_3pc(3), decentralized_3pc(3)] {
        let a = Analysis::build(&p).expect("analyzable");
        let mut t =
            Table::new(["site", "durable state", "recovery", "survivor decisions reachable"]);
        for row in classify(&p, &a) {
            let reach: Vec<String> =
                row.reachable_decisions.iter().map(|d| d.to_string()).collect();
            t.row([row.site.to_string(), row.state_name, row.class.to_string(), reach.join("/")]);
        }
        out.push_str(&format!("{}:\n{}\n", p.name, t.render()));
    }
    out.push_str(
        "Reading: a site that provably never cast its yes vote (initial \
         states — and the central\ncoordinator's w1, whose own vote is \
         internal and not yet cast) may abort unilaterally on\nrecovery; \
         a site that voted must ask, because the survivors' termination \
         protocol can reach\neither decision from the concurrently \
         occupiable classes.\n",
    );
    out
}

/// X3 — what the paper's network assumption buys: under a partition that
/// masquerades as site failures, 3PC's termination protocol splits the
/// decision. Reproduces the famous caveat.
pub fn x3_partition_unsafety() -> String {
    use nonblocking_commit::engine::{run_with, PartitionSpec, RunConfig};
    use nonblocking_commit::net::LatencyModel;

    let p = central_3pc(3);
    let a = Analysis::build(&p).expect("analyzable");
    let mut t = Table::new(["partition at", "coordinator", "slave 1", "slave 2", "consistent?"]);
    for at in 0..12u64 {
        let mut cfg = RunConfig::happy(3);
        cfg.latency = LatencyModel::constant(2);
        cfg.detect_delay = 2;
        cfg.partition = Some(PartitionSpec { at, groups: vec![0, 1, 1] });
        let r = run_with(&p, &a, cfg);
        t.row([
            format!("t={at}"),
            r.outcomes[0].to_string(),
            r.outcomes[1].to_string(),
            r.outcomes[2].to_string(),
            if r.consistent { "yes".into() } else { "SPLIT".to_string() },
        ]);
    }
    format!(
        "Isolating the coordinator from its slaves at time t (latency 2, detection delay 2):\n\n{}\n\
         The SPLIT rows are the window where one side has entered committable territory\n\
         (the coordinator in p1) while the other has not: each side, believing the other\n\
         crashed, terminates per the backup rule — commit on one side, abort on the other.\n\
         This violates no theorem: the paper assumes the network never fails and that\n\
         failure detection is reliable. The experiment shows that assumption is load-bearing\n\
         (and why later work — quorum-based commit — was needed for partition tolerance).\n",
        t.render()
    )
}

/// X4 — the fix the paper's reference list points at: Skeen's quorum-based
/// commit. Gating the termination decision on a strict majority closes the
/// X3 split window — the minority side blocks instead of deciding.
pub fn x4_quorum_termination() -> String {
    use nonblocking_commit::engine::{run_with, PartitionSpec, RunConfig, TerminationRule};
    use nonblocking_commit::net::LatencyModel;

    let p = central_3pc(3);
    let a = Analysis::build(&p).expect("analyzable");
    let mut t = Table::new(["partition at", "plain Skeen rule", "quorum-gated rule"]);
    for at in 0..12u64 {
        let mut base = RunConfig::happy(3);
        base.latency = LatencyModel::constant(2);
        base.detect_delay = 2;
        base.partition = Some(PartitionSpec { at, groups: vec![0, 1, 1] });

        let plain = run_with(&p, &a, base.clone());
        let mut qcfg = base.clone();
        qcfg.rule = TerminationRule::QuorumSkeen;
        let quorum = run_with(&p, &a, qcfg);

        let show = |r: &RunReport| {
            if !r.consistent {
                "SPLIT".to_string()
            } else if r.any_blocked {
                format!("consistent (minority blocked, decision {:?})", r.decision())
            } else {
                format!("consistent ({:?})", r.decision())
            }
        };
        t.row([format!("t={at}"), show(&plain), show(&quorum)]);
    }
    format!(
        "{}\nShape: the quorum gate turns every SPLIT into \"minority blocks, majority\n\
         decides\" — safety under partitions bought with minority availability. The same\n\
         gate makes a lone survivor of two *real* crashes block too: the survivor cannot\n\
         distinguish a dead majority from an unreachable one. That trade is fundamental,\n\
         and it is why the paper's perfect-failure-detector assumption mattered.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x1_shows_flat_resilience_past_three_phases() {
        let s = x1_kpc_ablation();
        assert!(s.contains("buy cost, not resilience"));
        // Every k>=3 row must be nonblocking with 2 tolerated failures.
        for line in s.lines().filter(|l| l.contains("PC (n=3)") && !l.contains("2PC")) {
            assert!(line.contains("yes"), "{line}");
        }
    }

    #[test]
    fn x3_finds_the_split_window() {
        let s = x3_partition_unsafety();
        assert!(s.contains("SPLIT"));
        assert!(s.contains("yes"));
    }

    #[test]
    fn x4_quorum_closes_split() {
        let s = x4_quorum_termination();
        assert!(s.contains("SPLIT"), "{s}");
        assert!(s.contains("minority blocked"), "{s}");
        // The quorum column must never split.
        for line in s.lines().filter(|l| l.starts_with("t=")) {
            let quorum_col = line.rsplit("  ").find(|c| !c.trim().is_empty()).unwrap();
            assert!(!quorum_col.contains("SPLIT"), "{line}");
        }
    }

    #[test]
    fn x2_lists_both_rules() {
        let s = x2_independent_recovery();
        assert!(s.contains("independent abort"));
        assert!(s.contains("must ask"));
        assert!(s.contains("independent commit"));
    }
}
