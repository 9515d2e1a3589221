//! Design your own commit protocol and let the paper's machinery judge it.
//!
//! We build a custom "2.5PC" protocol with the public FSA API — a 2PC
//! whose *coordinator* gets a buffer state but whose slaves do not — check
//! it with the fundamental nonblocking theorem (it still blocks!), then
//! run the paper's synthesis on plain 2PC to obtain a correct 3PC, print
//! its termination decision table, and emit DOT for every figure.
//!
//! ```text
//! cargo run --example protocol_designer
//! ```

use nonblocking_commit::model::protocols::central_2pc;
use nonblocking_commit::model::{
    dot, synthesis, termination, theorem, Analysis, Consume, Envelope, FsaBuilder, InitialMsg,
    MsgKind, Paradigm, Protocol, SiteId, StateClass, Vote,
};

/// A half-measure: buffer the coordinator's commit, leave slaves as 2PC.
fn half_buffered_2pc(n: usize) -> Protocol {
    let slaves: Vec<SiteId> = (1..n as u32).map(SiteId).collect();

    let mut cb = FsaBuilder::new("coordinator");
    let q1 = cb.state("q1", StateClass::Initial);
    let w1 = cb.state("w1", StateClass::Wait);
    let a1 = cb.state("a1", StateClass::Aborted);
    let p1 = cb.state("p1", StateClass::Prepared);
    let c1 = cb.state("c1", StateClass::Committed);
    cb.transition(
        q1,
        w1,
        Consume::one(SiteId::CLIENT, MsgKind::REQUEST),
        slaves.iter().map(|&s| Envelope::new(s, MsgKind::XACT)).collect(),
        None,
        "request / xact*",
    );
    // The coordinator pauses in p1... but tells the slaves nothing new.
    cb.transition(
        w1,
        p1,
        Consume::All(slaves.iter().map(|&s| (s, MsgKind::YES)).collect()),
        vec![],
        Some(Vote::Yes),
        "yes* / (silence)",
    );
    cb.transition(
        p1,
        c1,
        Consume::Spontaneous,
        slaves.iter().map(|&s| Envelope::new(s, MsgKind::COMMIT)).collect(),
        None,
        "/ commit*",
    );
    cb.transition(
        w1,
        a1,
        Consume::Any(slaves.iter().map(|&s| (s, MsgKind::NO)).collect()),
        slaves.iter().map(|&s| Envelope::new(s, MsgKind::ABORT)).collect(),
        None,
        "no / abort*",
    );

    let mut fsas = vec![cb.build()];
    let coord = SiteId(0);
    for _ in &slaves {
        let mut sb = FsaBuilder::new("slave");
        let q = sb.state("q", StateClass::Initial);
        let w = sb.state("w", StateClass::Wait);
        let a = sb.state("a", StateClass::Aborted);
        let c = sb.state("c", StateClass::Committed);
        sb.transition(
            q,
            w,
            Consume::one(coord, MsgKind::XACT),
            vec![Envelope::new(coord, MsgKind::YES)],
            Some(Vote::Yes),
            "xact / yes",
        );
        sb.transition(
            q,
            a,
            Consume::one(coord, MsgKind::XACT),
            vec![Envelope::new(coord, MsgKind::NO)],
            Some(Vote::No),
            "xact / no",
        );
        sb.transition(w, c, Consume::one(coord, MsgKind::COMMIT), vec![], None, "commit /");
        sb.transition(w, a, Consume::one(coord, MsgKind::ABORT), vec![], None, "abort /");
        fsas.push(sb.build());
    }

    Protocol::new(
        format!("half-buffered 2PC (n={n})"),
        Paradigm::CentralSite,
        fsas,
        vec![InitialMsg { src: SiteId::CLIENT, dst: coord, kind: MsgKind::REQUEST }],
    )
}

fn main() {
    // ---------------------------------------------------------------
    // 1. A plausible-looking custom protocol that still blocks.
    // ---------------------------------------------------------------
    let custom = half_buffered_2pc(3);
    custom.validate_strict().expect("structurally fine");
    println!("== Judging a custom protocol ==\n");
    let verdict = theorem::check(&custom).unwrap();
    println!("{verdict}");
    println!(
        "Buffering only the coordinator is not enough: the *slaves'* wait \
         states still see both\noutcomes in their concurrency sets. The buffer \
         state must be announced (prepare/ack),\nnot silently occupied.\n"
    );
    assert!(!verdict.nonblocking());

    // ---------------------------------------------------------------
    // 2. The paper's synthesis does it right.
    // ---------------------------------------------------------------
    println!("== Synthesizing the fix from plain 2PC ==\n");
    let blocking = central_2pc(3);
    let fixed = synthesis::make_nonblocking(&blocking).unwrap();
    let verdict = theorem::check(&fixed).unwrap();
    println!("{verdict}");
    assert!(verdict.nonblocking());

    // ---------------------------------------------------------------
    // 3. Its termination decision table, as the paper tabulates it.
    // ---------------------------------------------------------------
    println!("== Termination decision table of the synthesized protocol ==\n");
    let analysis = Analysis::build(&fixed).unwrap();
    for row in termination::decision_table(&fixed, &analysis) {
        println!(
            "  {} in {:<3} ({}) -> backup rule: {}",
            row.site,
            row.state_name,
            row.class.letter(),
            row.backup
        );
    }

    // ---------------------------------------------------------------
    // 4. Figures.
    // ---------------------------------------------------------------
    println!("\n== DOT for the synthesized protocol (render with graphviz) ==\n");
    println!("{}", dot::protocol_to_dot(&fixed));
}
