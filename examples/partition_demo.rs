//! What the paper's network assumption buys: 3PC under a partition.
//!
//! Skeen assumes a network that *never fails* and a failure detector that
//! *reliably* reports site crashes. Violate that — cut the coordinator off
//! from its slaves so each side believes the other crashed — and the
//! termination protocol runs on both sides at once. There is a window
//! where the two sides decide differently. This is the famous caveat of
//! 3PC, and this example reproduces it on demand.
//!
//! ```text
//! cargo run --example partition_demo
//! ```

use nonblocking_commit::engine::{run_with, PartitionSpec, RunConfig};
use nonblocking_commit::model::protocols::central_3pc;
use nonblocking_commit::model::Analysis;
use nonblocking_commit::net::LatencyModel;

fn main() {
    let protocol = central_3pc(3);
    let analysis = Analysis::build(&protocol).unwrap();

    println!(
        "Cutting the coordinator (site0) away from its slaves at time t.\n\
         Message latency 2, failure detection delay 2.\n"
    );
    println!("{:<6} {:<18} {:<18} {:<18} outcome", "t", "site0", "site1", "site2");

    let mut splits = Vec::new();
    for at in 0..12u64 {
        let mut cfg = RunConfig::happy(3);
        cfg.latency = LatencyModel::constant(2);
        cfg.detect_delay = 2;
        cfg.partition = Some(PartitionSpec { at, groups: vec![0, 1, 1] });
        let r = run_with(&protocol, &analysis, cfg);
        let verdict = if r.consistent { "consistent" } else { "SPLIT BRAIN" };
        println!(
            "t={at:<4} {:<18} {:<18} {:<18} {verdict}",
            r.outcomes[0].to_string(),
            r.outcomes[1].to_string(),
            r.outcomes[2].to_string(),
        );
        if !r.consistent {
            splits.push(at);
        }
    }

    println!(
        "\nThe split window {splits:?} is exactly the interval where the \
         coordinator has entered its\nprepared state p1 (committable — its \
         concurrency set contains a commit state) while the\nslaves are \
         still waiting in w (whose class decides abort). Each side, told by \
         its failure\ndetector that the other side crashed, applies the \
         backup decision rule — and they\ndisagree. The theorem is not \
         violated: the paper explicitly assumes this cannot happen.\n\
         Partition-tolerant atomic commit needed quorum-based protocols \
         (Skeen's later work)."
    );
    assert!(!splits.is_empty());
}
