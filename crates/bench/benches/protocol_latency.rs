//! B2/B3 (timing face): cost of one commit round per protocol and
//! paradigm — the engine's wall-clock reflection of message counts and
//! phase counts.

use nbc_bench::BenchGroup;
use nonblocking_commit::engine::{run_with, RunConfig};
use nonblocking_commit::model::protocols::{
    central_2pc, central_3pc, decentralized_2pc, decentralized_3pc,
};
use nonblocking_commit::model::Analysis;
use std::hint::black_box;

fn bench_commit_round() {
    let mut g = BenchGroup::new("commit_round");
    g.sample_size(50);
    for n in [3usize, 5, 8] {
        for (label, p) in [("central_2pc", central_2pc(n)), ("central_3pc", central_3pc(n))] {
            let a = Analysis::build(&p).unwrap();
            g.bench(&format!("{label}/{n}"), || {
                run_with(black_box(&p), &a, RunConfig::happy(p.n_sites())).msgs_sent
            });
        }
    }
    for n in [3usize, 5] {
        for (label, p) in [
            ("decentralized_2pc", decentralized_2pc(n)),
            ("decentralized_3pc", decentralized_3pc(n)),
        ] {
            let a = Analysis::build(&p).unwrap();
            g.bench(&format!("{label}/{n}"), || {
                run_with(black_box(&p), &a, RunConfig::happy(p.n_sites())).msgs_sent
            });
        }
    }
}

fn bench_termination_round() {
    // A commit round that goes through the full termination protocol:
    // coordinator dies after a partial prepare broadcast.
    use nonblocking_commit::engine::{CrashPoint, CrashSpec, TransitionProgress};
    let mut g = BenchGroup::new("termination_round");
    g.sample_size(50);
    for n in [3usize, 5] {
        let p = central_3pc(n);
        let a = Analysis::build(&p).unwrap();
        let cfg = RunConfig::happy(n).with_crash(CrashSpec {
            site: 0,
            point: CrashPoint::OnTransition {
                ordinal: 2,
                progress: TransitionProgress::AfterMsgs(1),
            },
            recover_at: None,
        });
        g.bench(&format!("central_3pc/{n}"), || {
            let r = run_with(black_box(&p), &a, cfg.clone());
            assert!(r.consistent);
            r.msgs_sent
        });
    }
}

fn bench_tracing_overhead() {
    // The observability tax: the same commit round with tracing disabled
    // (the default — one `None` branch per emission point), with events
    // collected into a memory sink, with a bounded flight-recorder ring,
    // and with the full JSONL render on top. `off` is the baseline the
    // flight recorder must stay close to when no failure ever dumps it.
    use nonblocking_commit::engine::run_traced;
    use nonblocking_commit::obs::export::to_jsonl;
    use nonblocking_commit::obs::{FlightRecorder, MemorySink, SharedSink, Tracer};
    let mut g = BenchGroup::new("tracing_overhead");
    g.sample_size(50);
    for n in [3usize, 5] {
        let p = central_3pc(n);
        let a = Analysis::build(&p).unwrap();
        g.bench(&format!("off/{n}"), || run_with(black_box(&p), &a, RunConfig::happy(n)).msgs_sent);
        g.bench(&format!("memory_sink/{n}"), || {
            let sink = SharedSink::new(MemorySink::default());
            let r =
                run_traced(black_box(&p), &a, RunConfig::happy(n), Tracer::to_sink(sink.clone()));
            r.msgs_sent + sink.with(|s| s.events.len() as u64)
        });
        g.bench(&format!("flight_recorder/{n}"), || {
            let rec = SharedSink::new(FlightRecorder::new(256));
            let r =
                run_traced(black_box(&p), &a, RunConfig::happy(n), Tracer::to_sink(rec.clone()));
            r.msgs_sent + rec.with(|s| s.total_seen())
        });
        g.bench(&format!("jsonl/{n}"), || {
            let sink = SharedSink::new(MemorySink::default());
            run_traced(black_box(&p), &a, RunConfig::happy(n), Tracer::to_sink(sink.clone()));
            sink.with(|s| to_jsonl(&s.events).len() as u64)
        });
    }
}

fn main() {
    bench_commit_round();
    bench_termination_round();
    bench_tracing_overhead();
}
