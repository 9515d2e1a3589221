//! Hostile inputs never panic what reads them.
//!
//! Schedule files, `.nbc` spec files, JSONL traces and the command line
//! are all outside input. The first three are mutated a few thousand
//! seeded ways — a flipped bit, a dropped or duplicated line, a number
//! swapped for `-1`, `99` or `2^64`, a truncation — and each mutant must
//! either be rejected by its reader with an error or, if it still parses,
//! go through what consumes it (a lenient replay on a fresh lockstep
//! engine; `trace verify` and `trace stats`). Command lines are generated
//! from the CLI's own flag table. Returning is the assertion; a panic
//! anywhere fails the test.

use nbc_check::explore::plan_config;
use nbc_check::{replay_lenient, rule_from_name, Schedule, Step};
use nbc_cli::args::{self, Command, Flag, Kind, COMMANDS, FLAGS};
use nbc_core::{Analysis, Protocol};
use nbc_engine::{run_traced, CrashPoint, CrashSpec, RunConfig, Runner, TransitionProgress};
use nbc_obs::{analyze, export::to_jsonl, MemorySink, SharedSink, Tracer};
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
        sweep_mutants(&format!("{path:?}"), &text, file_ix as u64, MUTANTS_PER_FILE, |mutant| {
            let Ok(schedule) = Schedule::from_jsonl(mutant) else { return false };
            // The CLI refuses a schedule whose rule or site count does not
            // fit the protocol before it builds an engine.
            if let Some(rule) = rule_from_name(&schedule.rule) {
                if schedule.n == protocol.n_sites() {
                    let config = plan_config(schedule.n, &schedule.votes, rule);
                    let mut runner = Runner::new(&protocol, &analysis, config);
                    replay_lenient(&mut runner, &schedule.steps);
                }
            }
            true
        });
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

/// `mutants` seeded mutants of `text` (a second mutation on three in ten),
/// each handed to `read`, which says whether its reader accepted it.
fn sweep_mutants(what: &str, text: &str, salt: u64, mutants: u64, read: impl Fn(&str) -> bool) {
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..mutants {
        let mut rng = SimRng::seed_from_u64(seed << 8 | salt);
        let mut mutant = mutate(&mut rng, text);
        if rng.gen_bool(0.3) {
            mutant = mutate(&mut rng, &mutant);
        }
        if read(&mutant) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 0 && rejected > 0, "{what}: {accepted} accepted, {rejected} rejected");
}

#[test]
fn mutated_spec_files_never_panic() {
    let dir = format!("{}/specs", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    assert!(!files.is_empty(), "no specs under {dir}");
    for (file_ix, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path).unwrap();
        // A spec written for exactly three sites is refused at the other
        // counts, mutated or not: the sweep runs at the counts it parses at.
        let sizes: Vec<usize> = (2..=5).filter(|&n| nbc_spec::parse(&text, n).is_ok()).collect();
        assert!(!sizes.is_empty(), "{path:?} parses at no n in 2..=5");
        for n in sizes {
            let salt = (file_ix * 8 + n) as u64;
            sweep_mutants(&format!("{path:?} n={n}"), &text, salt, 500, |mutant| {
                nbc_spec::parse(mutant, n).is_ok()
            });
        }
    }
}

#[test]
fn mutated_traces_never_panic() {
    // A crashed coordinator and a recovery: every event kind a single run
    // emits is in the trace.
    let protocol = nbc_core::protocols::central_3pc(3);
    let analysis = Analysis::build(&protocol).unwrap();
    let mut config = RunConfig::happy(3);
    config.crashes.push(CrashSpec {
        site: 0,
        point: CrashPoint::OnTransition { ordinal: 2, progress: TransitionProgress::AfterMsgs(1) },
        recover_at: Some(300),
    });
    let events = SharedSink::new(MemorySink::default());
    run_traced(&protocol, &analysis, config, Tracer::to_sink(events.clone()));
    let text = events.with(|sink| to_jsonl(&sink.events));
    assert!(analyze::verify(&analyze::parse_jsonl(&text).unwrap()).ok());
    sweep_mutants("trace", &text, 0, 3_000, |mutant| match analyze::parse_jsonl(mutant) {
        Ok(events) => {
            let _ = analyze::verify(&events).render();
            let _ = analyze::stats(&events).render();
            true
        }
        Err(_) => false,
    });
}

/// Values for a flag of `kind`: ones its row accepts, then ones it refuses.
fn values(kind: Kind) -> (Vec<String>, Vec<String>) {
    let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut junk = own(&["", "x", "-1", "1.5", "１", "0x10", "18446744073709551616", "--", "1 "]);
    let good = match kind {
        Kind::Num(lo, hi, _) => {
            junk.extend(
                lo.checked_sub(1).into_iter().chain(hi.checked_add(1)).map(|v| v.to_string()),
            );
            vec![lo.to_string(), hi.to_string(), (lo + (hi - lo) / 2).to_string()]
        }
        Kind::Sites => {
            junk.extend(own(&["0", "1", "65", "100000"]));
            own(&["2", "3", "64"])
        }
        Kind::Bytes => {
            junk.extend(own(&["K", "12Q", "999999999999999999G"]));
            own(&["0", "4096", "64k", "16M", "1G"])
        }
        // Any string is a path.
        Kind::Path => return (junk.into_iter().chain(own(&["out.jsonl"])).collect(), Vec::new()),
        Kind::Span => {
            junk.extend(own(&["5..1", "1..", "..", "1...2", "0..1099511627777"]));
            own(&["0..0", "1..12", "0..1099511627776"])
        }
        Kind::Crash => {
            junk.extend(own(&["1:2", "1:2:3:4", "a:1:1", "0:1:logs", "0:-1:1", "::"]));
            own(&["0:1:1", "2:1:log", "80:4294967295:4294967295"])
        }
        Kind::Rule => own(&["skeen", "cooperative", "naive", "quorum"]),
        Kind::Format => own(&["jsonl", "chrome"]),
        Kind::Votes => {
            junk.retain(|v| !v.is_empty());
            own(&["", "y", "yyn", "1010"])
        }
    };
    (good, junk)
}

/// `nbc CMD OPERANDS`, the start of every generated line.
fn stem(command: &Command) -> Vec<String> {
    let mut words = vec![command.names[0].to_string()];
    words.extend(command.operands.split_whitespace().map(str::to_string));
    words
}

/// Does `command` read a flag spelled `name`, and through which row?
fn row_of(command: &Command, name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.read_by(command.cmd) && f.names.contains(&name))
}

/// The flag `flag` qualifies on `command`, with a value its row accepts.
fn subject_of(command: &Command, flag: &Flag) -> Vec<String> {
    let Some((subject, _)) = flag.requires.filter(|(_, on)| on & command.cmd as u16 != 0) else {
        return Vec::new();
    };
    let row = row_of(command, subject).expect("a flag qualifies one its commands read");
    let value = row.value.map(|(_, kind)| values(kind).0.swap_remove(0));
    std::iter::once(subject.to_string()).chain(value).collect()
}

#[test]
fn generated_command_lines_are_parsed_or_refused_never_panic() {
    let cases = std::cell::Cell::new(0u32);
    let refuse = |words: &[String], name: &str| {
        cases.set(cases.get() + 1);
        let err = args::parse(words).expect_err(&format!("{words:?} was accepted")).0;
        assert!(err.contains(name), "{words:?}: the refusal does not name {name}: {err}");
    };
    // Each spelling of each flag on each command: with every value its row
    // accepts and refuses, with none, and twice.
    for command in COMMANDS {
        let spellings = FLAGS.iter().flat_map(|f| f.names.iter().map(move |name| (f, *name)));
        for (flag, name) in spellings {
            let values_of = |f: &Flag| f.value.map_or((vec![], vec![]), |(_, kind)| values(kind));
            let with = |value: Option<&String>| -> Vec<String> {
                let mut words = stem(command);
                words.push(name.to_string());
                words.extend(value.cloned());
                words
            };
            let Some(row) = row_of(command, name) else {
                // The table marks the pair unread: refused whatever the value.
                let (good, junk) = values_of(flag);
                for value in good.iter().chain(&junk).map(Some).chain([None]) {
                    refuse(&with(value), name);
                }
                continue;
            };
            let (good, junk) = values_of(row);
            let subject = subject_of(command, row);
            let accepted: Vec<Vec<String>> = match row.value {
                None => vec![with(None)],
                Some(_) => good.iter().map(|v| with(Some(v))).collect(),
            };
            for words in &accepted {
                cases.set(cases.get() + 1);
                let line: Vec<String> = words.iter().chain(&subject).cloned().collect();
                args::parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
                if !row.repeat {
                    let twice: Vec<String> =
                        line.iter().chain(&words[stem(command).len()..]).cloned().collect();
                    refuse(&twice, name);
                }
            }
            if row.value.is_some() {
                refuse(&with(None), name);
                for value in &junk {
                    let line: Vec<String> =
                        with(Some(value)).into_iter().chain(subject.clone()).collect();
                    refuse(&line, name);
                }
            }
            if !subject.is_empty() {
                refuse(&accepted[0], name);
            }
        }
    }
    // Seeded lines of up to five flags drawn from the whole table: a line
    // with a flag its command does not read is refused, and every refusal
    // names a flag that is on the line.
    let spellings: Vec<(&Flag, &str)> =
        FLAGS.iter().flat_map(|f| f.names.iter().map(move |name| (f, *name))).collect();
    for seed in 0..6_000u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let command = &COMMANDS[rng.gen_range(0..COMMANDS.len())];
        let mut words = stem(command);
        let mut names = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let (flag, name) = spellings[rng.gen_range(0..spellings.len())];
            names.push(name);
            words.push(name.to_string());
            // The value follows the row the command reads the name through.
            if let Some((_, kind)) = row_of(command, name).unwrap_or(flag).value {
                let (good, junk) = values(kind);
                let pool = if junk.is_empty() || rng.gen_bool(0.7) { good } else { junk };
                words.push(pool[rng.gen_range(0..pool.len())].clone());
            }
        }
        cases.set(cases.get() + 1);
        match args::parse(&words) {
            Ok(_) => assert!(names.iter().all(|n| row_of(command, n).is_some()), "{words:?}"),
            Err(e) => assert!(names.iter().any(|n| e.0.contains(n)), "{words:?}: {e}"),
        }
    }
    assert!(cases.get() >= 10_000, "only {} command lines were generated", cases.get());
}

#[test]
fn accepted_command_lines_run() {
    // A fixed few of the lines the table accepts, through the same entry
    // point as the binary: small protocols, small budgets.
    let dir = std::env::temp_dir().join(format!("nbc-hostile-inputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl").to_string_lossy().into_owned();
    for (line, code) in [
        ("list", 0),
        ("help", 0),
        ("analyze 2pc -n 2 --stream --mem-budget 0 --threads 64", 0),
        ("graph d3pc -n 2 --dot --threads 0", 0),
        ("simulate 3pc --crash 2:4294967295:4294967295 --recover 0 --no-voter 0 --no-voter 0", 0),
        ("simulate 3pc --latency 0..0 --seed 18446744073709551615 --detector-timeout 1", 0),
        ("sweep 2pc -n 2 --recover 1099511627776 --rule quorum --json", 0),
        ("check 3pc -n 2 --depth 0 --faults 4294967295 --max-states 0 --votes yy", 0),
        ("check 3pc -n 3 --max-states 50 --suspicions 1 --drops 1 --threads 2 --seed 0", 0),
        ("pipeline paxos:0 -n 2 --txns 0 --in-flight 16777216 --window 0 --reap 0", 0),
        ("pipeline 2pc --txns 8 --crash-pct 100 --series-every 1 --trace TRACE", 0),
        ("trace verify TRACE --json", 0),
        ("paxos --sites 2 --faults 0 --json", 0),
    ] {
        let words: Vec<String> = line.split(' ').map(|w| w.replace("TRACE", &trace)).collect();
        let outcome = nbc_cli::run_argv(&words);
        assert_eq!(outcome.code, code, "{line}: {}", outcome.stderr);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
