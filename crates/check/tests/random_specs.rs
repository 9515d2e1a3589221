//! Proptest-style randomized cross-validation, hand-rolled on the
//! deterministic `SimRng` (the workspace has no proptest dependency).
//!
//! A seeded generator emits random-but-valid central-site commit protocol
//! *specs* (the `nbc_core::spec` text grammar): a coordinator collects votes,
//! then drives `k` broadcast/ack rounds before the final commit, with the
//! site count, the round count and the message vocabulary all drawn from
//! the rng. `k = 1` is 2PC, `k = 2` is 3PC, `k = 3` is a 4PC; the paper's
//! theorem says exactly the `k = 1` family blocks (its wait state sees
//! both a commit and an abort in its concurrency set; the buffer rounds
//! of `k >= 2` separate them).
//!
//! For every generated spec the checker must *agree with the theorem* —
//! `report.ok()` carries that agreement (the nonblocking oracle fails on
//! any mismatch in either direction), and prediction completeness pins
//! the operational engine to the analytic state graph.

use nbc_check::{run_check, CheckOptions};
use nbc_simnet::SimRng;

/// Emit the spec text for a `k`-round central commit protocol. The site
/// count binds later, at parse time (`fsa slave sites 1..` is a template
/// over slaves). Message names are drawn from `rng` so the parser sees
/// fresh vocabulary every time; structure stays valid by construction.
fn gen_spec(rng: &mut SimRng, k: usize) -> String {
    let tag = |rng: &mut SimRng| -> String {
        let letters = b"abcdefghijklmnopqrstuvwxyz";
        (0..4).map(|_| letters[rng.gen_range(0..letters.len())] as char).collect()
    };
    let xact = format!("x{}", tag(rng));
    let yes = format!("y{}", tag(rng));
    let no = format!("n{}", tag(rng));
    let abort = format!("a{}", tag(rng));
    let commit = format!("c{}", tag(rng));
    let rounds: Vec<(String, String)> =
        (1..k).map(|j| (format!("p{j}{}", tag(rng)), format!("k{j}{}", tag(rng)))).collect();
    let class = |j: usize| if j == 1 { "prepared".to_string() } else { format!("custom {j}") };

    let mut out = String::new();
    out.push_str(&format!("protocol rand-{k}round-{}\n", tag(rng)));
    out.push_str("paradigm central\n\ninit request to site 0\n\n");

    // Coordinator: q -> w (broadcast vote request), then the round chain
    // w -> b1 -> ... -> b_{k-1} -> c, plus its own spontaneous no-vote
    // and an abort path on any slave's no.
    out.push_str("fsa coordinator site 0\n");
    out.push_str("  state q initial\n  state w wait\n");
    for j in 1..k {
        out.push_str(&format!("  state b{j} {}\n", class(j)));
    }
    out.push_str("  state a aborted\n  state c committed\n");
    out.push_str(&format!("  q -> w : recv request from client ; send {xact} to slaves\n"));
    let mut from = "w".to_string();
    for (j, (pre, _ack)) in rounds.iter().enumerate() {
        let consume = if j == 0 { &yes } else { &rounds[j - 1].1 };
        let vote = if j == 0 { " ; vote yes" } else { "" };
        out.push_str(&format!(
            "  {from} -> b{} : recv {consume} from all slaves ; send {pre} to slaves{vote}\n",
            j + 1
        ));
        from = format!("b{}", j + 1);
    }
    let last_consume = if k == 1 { &yes } else { &rounds[k - 2].1 };
    let last_vote = if k == 1 { " ; vote yes" } else { "" };
    out.push_str(&format!(
        "  {from} -> c : recv {last_consume} from all slaves ; send {commit} to slaves{last_vote}\n"
    ));
    out.push_str(&format!("  w -> a : spontaneous ; send {abort} to slaves ; vote no\n"));
    out.push_str(&format!("  w -> a : recv {no} from any slave ; send {abort} to slaves\n"));

    // Slaves: vote yes or no on the request, then mirror the round chain.
    out.push_str("\nfsa slave sites 1..\n");
    out.push_str("  state q initial\n  state w wait\n");
    for j in 1..k {
        out.push_str(&format!("  state b{j} {}\n", class(j)));
    }
    out.push_str("  state a aborted\n  state c committed\n");
    out.push_str(&format!(
        "  q -> w : recv {xact} from site 0 ; send {yes} to site 0 ; vote yes\n"
    ));
    out.push_str(&format!("  q -> a : recv {xact} from site 0 ; send {no} to site 0 ; vote no\n"));
    let mut from = "w".to_string();
    for (j, (pre, ack)) in rounds.iter().enumerate() {
        out.push_str(&format!(
            "  {from} -> b{} : recv {pre} from site 0 ; send {ack} to site 0\n",
            j + 1
        ));
        from = format!("b{}", j + 1);
    }
    out.push_str(&format!("  {from} -> c : recv {commit} from site 0\n"));
    out.push_str(&format!("  w -> a : recv {abort} from site 0\n"));
    out
}

#[test]
fn random_specs_agree_with_the_theorem() {
    let mut rng = SimRng::seed_from_u64(0x5eed_cafe);
    for draw in 0..6 {
        let n = rng.gen_range(2..=3usize);
        let k = rng.gen_range(1..=3usize);
        let text = gen_spec(&mut rng, k);
        let protocol = nbc_core::spec::parse(&text, n)
            .unwrap_or_else(|e| panic!("draw {draw}: generated spec invalid: {e}\n{text}"));

        let report = run_check(&protocol, CheckOptions::default())
            .unwrap_or_else(|e| panic!("draw {draw}: analysis failed: {e}"));
        assert!(
            report.ok(),
            "draw {draw} (n={n}, k={k}): checker disagrees with itself or the theorem:\n{}",
            report.render()
        );
        assert_eq!(
            report.certified_nonblocking,
            k >= 2,
            "draw {draw}: a {k}-round central protocol must be {} per the paper",
            if k >= 2 { "nonblocking" } else { "blocking" }
        );
        assert!(!report.stats.truncated, "draw {draw}: exploration must be exhaustive");
        assert!(report.prediction_complete, "draw {draw}:\n{}", report.render());
        assert_eq!(
            report.blocking_witness.is_some(),
            k == 1,
            "draw {draw}: witness existence must match the theorem"
        );
    }
}
