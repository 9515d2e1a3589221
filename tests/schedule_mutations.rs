//! Hostile schedule files never panic the reader or the replayer.
//!
//! A schedule file is outside input: `nbc simulate --schedule` reads
//! whatever path it is given. Every corpus file is mutated a few thousand
//! seeded ways — a flipped bit, a dropped or duplicated line, a number
//! swapped for `-1`, `99` or `2^64`, a truncation — and each mutant must
//! either be rejected by `Schedule::from_jsonl` with an error or, if it
//! still parses, replay leniently on a fresh lockstep engine. Returning
//! is the assertion; a panic anywhere fails the test.

use nbc_check::explore::plan_config;
use nbc_check::{replay_lenient, rule_from_name, Schedule, Step};
use nbc_core::{Analysis, Protocol};
use nbc_engine::Runner;
use nbc_simnet::SimRng;

const MUTANTS_PER_FILE: u64 = 2_000;

fn protocol_of(schedule: &Schedule) -> Protocol {
    if schedule.protocol.starts_with("linear-2pc") {
        let path = format!("{}/specs/linear-2pc.nbc", env!("CARGO_MANIFEST_DIR"));
        nbc_spec::parse(&std::fs::read_to_string(path).unwrap(), schedule.n).unwrap()
    } else {
        let catalog = nbc_core::protocols::catalog(schedule.n);
        catalog.into_iter().find(|p| p.name == schedule.protocol).expect("catalog protocol")
    }
}

/// One seeded mutation of `text` (which an earlier truncation may have
/// left with nothing to mutate).
fn mutate(rng: &mut SimRng, text: &str) -> String {
    if !text.bytes().any(|b| b.is_ascii_digit()) {
        return text.to_string();
    }
    let mut bytes = text.as_bytes().to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        }
        1 => {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = rng.gen_range(0..lines.len());
            if rng.gen_bool(0.5) {
                lines.remove(at);
            } else {
                lines.insert(at, lines[at]);
            }
            bytes = lines.join("\n").into_bytes();
        }
        2 => {
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .collect();
            let start = digits[rng.gen_range(0..digits.len())];
            let end =
                (start..bytes.len()).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(bytes.len());
            let with = ["-1", "99", "18446744073709551616"][rng.gen_range(0..3usize)];
            bytes.splice(start..end, with.bytes());
        }
        _ => bytes.truncate(rng.gen_range(0..bytes.len())),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_corpus_schedules_never_panic() {
    let dir = format!("{}/tests/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus under {dir}");
    for (file_ix, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).unwrap();
        let original = Schedule::from_jsonl(&text).unwrap();
        let protocol = protocol_of(&original);
        let analysis = Analysis::build(&protocol).unwrap();
        let (mut parsed, mut rejected) = (0, 0);
        for seed in 0..MUTANTS_PER_FILE {
            let mut rng = SimRng::seed_from_u64(seed << 8 | file_ix as u64);
            let mut mutant = mutate(&mut rng, &text);
            if rng.gen_bool(0.3) {
                mutant = mutate(&mut rng, &mutant);
            }
            let Ok(schedule) = Schedule::from_jsonl(&mutant) else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            // The CLI refuses a schedule whose rule or site count does not
            // fit the protocol before it builds an engine.
            let Some(rule) = rule_from_name(&schedule.rule) else { continue };
            if schedule.n != protocol.n_sites() {
                continue;
            }
            let config = plan_config(schedule.n, &schedule.votes, rule);
            let mut runner = Runner::new(&protocol, &analysis, config);
            replay_lenient(&mut runner, &schedule.steps);
        }
        assert!(parsed > 0 && rejected > 0, "{path:?}: {parsed} parsed, {rejected} rejected");
    }
}

#[test]
fn out_of_range_steps_are_skipped_not_indexed() {
    // `apply_step` is public and the shrinker feeds it candidates, so it
    // checks indices itself rather than trusting the reader to have.
    let protocol = nbc_core::protocols::central_2pc(3);
    let analysis = Analysis::build(&protocol).unwrap();
    let rule = rule_from_name("skeen").unwrap();
    let mut runner = Runner::new(&protocol, &analysis, plan_config(3, &[true; 3], rule));
    let hostile = [
        Step::Crash { site: 99 },
        Step::Recover { site: 3 },
        Step::Suspect { observer: 0, peer: usize::MAX },
        Step::Unsuspect { observer: 7, peer: 0 },
        Step::Deliver { src: 3, dst: 0 },
        Step::FailNotice { observer: 3, crashed: 0 },
        Step::Partition { groups: vec![0, 1] },
        Step::Partition { groups: vec![0, 1, 5] },
    ];
    assert_eq!(replay_lenient(&mut runner, &hostile), Vec::<Step>::new());
}
