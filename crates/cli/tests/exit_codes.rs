//! `nbc check` exit-status contract, tested against the real binary:
//! 0 = every oracle passed, 1 = an oracle reported a violation, 2 = usage
//! or protocol error. CI gates on these codes, so they are part of the
//! tool's interface, not a rendering detail.

use std::process::Command;

fn nbc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nbc")).args(args).output().expect("run nbc binary")
}

#[test]
fn check_pass_exits_zero() {
    let out = nbc(&["check", "central-3pc", "-n", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict: OK"), "{stdout}");
}

#[test]
fn check_blocking_confirmation_is_a_pass() {
    // A blocking protocol whose exploration *confirms* the theorem's
    // BLOCKING classification passes all oracles — the witness is the
    // expected answer, not a failure.
    let out = nbc(&["check", "central-2pc", "-n", "2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("blocking confirmed"), "{stdout}");
}

#[test]
fn check_oracle_violation_exits_one() {
    // The deliberately unsafe naive concurrency-set rule loses atomicity
    // under two crashes: a known-FAIL spec.
    let out = nbc(&["check", "central-3pc", "-n", "3", "--rule", "naive", "--faults", "2"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
    assert!(stdout.contains("FAILURE [consistency]"), "{stdout}");
}

#[test]
fn check_json_failure_also_exits_one() {
    let out =
        nbc(&["check", "central-3pc", "-n", "3", "--rule", "naive", "--faults", "2", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ok\":false"), "{stdout}");
}

#[test]
fn check_usage_error_exits_two() {
    for args in [
        &["check", "no-such-protocol"][..],
        &["check", "central-2pc", "--bogus-flag"][..],
        &["check"][..],
    ] {
        let out = nbc(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn a_flag_naming_a_site_the_protocol_lacks_exits_two() {
    // `--crash 9:2:1` used to index out of bounds (exit 101) and
    // `--no-voter 9` used to be ignored in silence.
    for (args, flag) in [
        (&["simulate", "central-3pc", "--crash", "9:2:1"][..], "--crash"),
        (&["simulate", "central-3pc", "--no-voter", "9"][..], "--no-voter"),
        (&["simulate", "central-3pc", "-n", "4", "--no-voter", "4"][..], "--no-voter"),
        (&["sweep", "central-3pc", "--no-voter", "3"][..], "--no-voter"),
    ] {
        let out = nbc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        let n = if args.contains(&"-n") { 4 } else { 3 };
        let site = args.last().unwrap().split(':').next().unwrap();
        let expected = format!("error: {flag} names site {site}, but the protocol has {n} sites");
        assert!(stderr.starts_with(&expected), "args {args:?}: {stderr}");
    }
    // The last site is still a site.
    let out = nbc(&["simulate", "central-3pc", "--crash", "2:1:log", "--no-voter", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_thread_count_over_the_limit_exits_two() {
    // `--threads 100000` used to spawn every worker up front and abort the
    // process (exit 134) when the stack guard pages ran out.
    for threads in ["65", "100000"] {
        let out = nbc(&["check", "central-3pc", "-n", "2", "--threads", threads]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {stderr}");
        let expected = format!("error: --threads {threads} is over the limit of 64 worker threads");
        assert!(stderr.starts_with(&expected), "--threads {threads}: {stderr}");
    }
    // The limit itself is a count that runs, and says what every count says.
    let out = nbc(&["check", "central-3pc", "-n", "2", "--threads", "64"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, nbc(&["check", "central-3pc", "-n", "2"]).stdout);
}

#[test]
fn a_reach_thread_count_over_the_limit_exits_two() {
    // The graph builders cut a frontier into `--threads` parts and spawn a
    // worker per part: `analyze central-3pc -n 9 --threads 1000000` used to
    // abort (exit 134, "failed to spawn thread").
    let commands = [
        "graph",
        "analyze",
        "verify",
        "synthesize",
        "simulate",
        "sweep",
        "termination",
        "recovery",
    ];
    for cmd in commands {
        for threads in ["65", "1000000"] {
            let out = nbc(&[cmd, "central-3pc", "-n", "4", "--threads", threads]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{cmd} --threads {threads}: {stderr}");
            let expected =
                format!("error: --threads {threads} is over the limit of 64 worker threads");
            assert!(stderr.starts_with(&expected), "{cmd} --threads {threads}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd}: a refused build prints nothing");
        }
        // The limit itself runs, and says what one thread says.
        let out = nbc(&[cmd, "central-3pc", "-n", "4", "--threads", "64"]);
        assert_eq!(out.status.code(), Some(0), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, nbc(&[cmd, "central-3pc", "-n", "4", "--threads", "1"]).stdout);
    }
}

#[test]
fn flags_a_command_would_ignore_exit_two() {
    // Each of these used to exit 0 having dropped the flag: `graph` built
    // the retained graph with no budget, `analyze` without `--stream` held
    // every state whatever `--mem-budget` said.
    for (args, flag) in [
        (&["graph", "central-3pc", "--stream"][..], "--stream"),
        (&["graph", "central-3pc", "--stream", "--mem-budget", "1K"][..], "--stream"),
        (&["graph", "central-3pc", "--mem-budget", "1K"][..], "--mem-budget"),
        (&["analyze", "central-3pc", "--mem-budget", "1K"][..], "--mem-budget"),
        (&["synthesize", "central-2pc", "--mem-budget", "64K"][..], "--mem-budget"),
        // The flag loop every analysis command shared parsed all of these
        // and handed each command only what it reads: text where JSON was
        // asked for, sites 9 and 77 never checked, the perfect detector
        // where jitter was given, n=4 where `-n 3 -n 4` was.
        (
            &["analyze", "3pc", "--crash", "9:1:1", "--no-voter", "77", "--story", "--json"][..],
            "--crash",
        ),
        (
            &[
                "verify",
                "3pc",
                "--flight",
                "/nonexistent/x",
                "--detector-timeout",
                "3",
                "--seed",
                "5",
            ][..],
            "--flight",
        ),
        (&["graph", "3pc", "--metrics", "--rule", "naive"][..], "--metrics"),
        (&["termination", "3pc", "--json", "--recover", "3"][..], "--json"),
        (&["sweep", "3pc", "--dot"][..], "--dot"),
        (&["sweep", "3pc", "--crash", "0:2:1"][..], "--crash"),
        (&["simulate", "3pc", "-n", "3", "-n", "4"][..], "-n"),
        // A qualifier without the flag it qualifies.
        (&["simulate", "3pc", "--detector-jitter", "1..5"][..], "--detector-jitter"),
        (&["simulate", "3pc", "--trace-format", "chrome"][..], "--trace-format"),
        (&["pipeline", "3pc", "--flight-cap", "8"][..], "--flight-cap"),
        (&["simulate", "3pc", "--recover", "300"][..], "--recover"),
    ] {
        let out = nbc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("error: ") && first.contains(flag), "{args:?}: {first}");
        assert!(first.contains(args[0]), "{args:?}: the refusal names the command: {first}");
        assert!(out.stdout.is_empty(), "{args:?}: a refused command prints nothing");
    }
    // With the fold it caps, the budget runs and changes nothing on stdout.
    let budgeted = nbc(&["analyze", "central-3pc", "--stream", "--mem-budget", "1K"]);
    assert_eq!(budgeted.status.code(), Some(0), "{}", String::from_utf8_lossy(&budgeted.stderr));
    assert!(String::from_utf8_lossy(&budgeted.stderr).starts_with("reach spill: "));
    assert_eq!(budgeted.stdout, nbc(&["analyze", "central-3pc", "--stream"]).stdout);
    // `--recover` is its own subject where the command supplies the crashes.
    for cmd in ["sweep", "termination", "recovery"] {
        let out = nbc(&[cmd, "central-3pc", "--recover", "300"]);
        assert_eq!(out.status.code(), Some(0), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn a_flag_the_schedule_overrides_exits_two_beside_it() {
    // `simulate --schedule FILE` replays the file's votes, rule and faults
    // in lockstep and reads `--story` and `--json` only; each of these was
    // parsed, range-checked and dropped. The refusal comes from the flag
    // table, before the schedule (here a file that does not exist) is
    // opened, and a qualifier is told to go, not to bring its subject.
    let replay = ["simulate", "central-2pc", "-n", "3", "--schedule", "/nonexistent/w"];
    for (flag, value) in [
        ("--crash", Some("0:2:1")),
        ("--recover", Some("300")),
        ("--no-voter", Some("1")),
        ("--rule", Some("quorum")),
        ("--latency", Some("1..5")),
        ("--detector-timeout", Some("3")),
        ("--detector-jitter", Some("1..5")),
        ("--seed", Some("7")),
        ("--trace", Some("t.jsonl")),
        ("--trace-format", Some("chrome")),
        ("--metrics", None),
        ("--flight", Some("f.jsonl")),
        ("--flight-cap", Some("8")),
    ] {
        let mut args = replay.to_vec();
        args.push(flag);
        args.extend(value);
        let out = nbc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            format!("error: {flag} does nothing on `nbc simulate` beside --schedule; drop it"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: a refused command prints nothing");
    }
    // What the replay does read still reaches it: the missing file is the error.
    for extra in [&[][..], &["--story"][..], &["--json"][..], &["--threads", "1"][..]] {
        let mut args = replay.to_vec();
        args.extend(extra);
        let out = nbc(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: cannot read /nonexistent/w"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_number_past_its_ceiling_exits_two() {
    // None of these had a ceiling: the site counts and the batch size
    // aborted on a multi-gigabyte allocation (exit 134), the times
    // overflowed the simulated clock (a panic in a debug build), and
    // `--flight-cap 0` quietly became 1.
    let max = "18446744073709551615";
    for (args, flag, limit) in [
        (&["analyze", "central-2pc", "-n", "100000"][..], "-n", "64"),
        (&["simulate", "central-2pc", "-n", "100000"][..], "-n", "64"),
        (&["check", "central-2pc", "-n", "65"][..], "-n", "64"),
        (&["paxos", "--sites", "100000"][..], "--sites", "64"),
        (&["paxos", "--faults", "9"][..], "--faults", "8"),
        (&["pipeline", "central-3pc", "-n", "100000", "--txns", "1"][..], "-n", "64"),
        (&["pipeline", "central-3pc", "--txns", "99999999999999"][..], "--txns", "16777216"),
        (&["pipeline", "central-3pc", "--in-flight", max][..], "--in-flight", "16777216"),
        (&["pipeline", "central-3pc", "--crash-pct", "101"][..], "--crash-pct", "100"),
        (&["pipeline", "central-3pc", "--window", max][..], "--window", "1099511627776"),
        (
            &["simulate", "central-3pc", "--crash", "0:2:1", "--recover", max][..],
            "--recover",
            "1099511627776",
        ),
        (&["sweep", "central-2pc", "--recover", max][..], "--recover", "1099511627776"),
        (
            &["simulate", "central-3pc", "--latency", "0..18446744073709551615"][..],
            "--latency",
            "1099511627776",
        ),
        (&["simulate", "central-3pc", "--detector-timeout", "0"][..], "--detector-timeout", "1"),
        (&["simulate", "central-3pc", "--no-voter", "99"][..], "--no-voter", "80"),
        (
            &["simulate", "central-3pc", "--flight", "f.jsonl", "--flight-cap", "0"][..],
            "--flight-cap",
            "1",
        ),
        (&["check", "central-3pc", "--depth", "4294967296"][..], "--depth", "4294967295"),
    ] {
        let out = nbc(args);
        assert_typed_error(&out, &format!("{args:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag) && first.contains(limit), "{args:?}: {first}");
        assert!(out.stdout.is_empty(), "{args:?}: a refused command prints nothing");
    }
    // The ceilings themselves are values that run.
    let out = nbc(&["simulate", "central-3pc", "--crash", "0:2:1", "--recover", "1099511627776"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = nbc(&["pipeline", "central-3pc", "--txns", "8", "--in-flight", "16777216"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn an_in_flight_limit_of_zero_exits_two() {
    // `--in-flight 0` used to print "in-flight 0" and run at 1.
    let out = nbc(&["pipeline", "central-3pc", "--in-flight", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --in-flight 0 "), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused batch prints no report");
    // One round at a time is a limit that runs.
    let out = nbc(&["pipeline", "central-3pc", "--txns", "8", "--in-flight", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_site_count_below_two_exits_two() {
    // `-n 0` and `-n 1` used to reach the catalog constructors' asserts
    // (exit 101) on every command that resolves a protocol.
    let commands = [
        "analyze",
        "verify",
        "graph",
        "synthesize",
        "simulate",
        "sweep",
        "termination",
        "recovery",
        "check",
    ];
    let protocols =
        ["central-2pc", "central-3pc", "decentralized-2pc", "decentralized-3pc", "1pc", "kpc:3"];
    for cmd in commands {
        for proto in protocols {
            for n in ["0", "1"] {
                let out = nbc(&[cmd, proto, "-n", n]);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{cmd} {proto} -n {n}: {stderr}");
                assert!(stderr.starts_with(&format!("error: -n {n}: ")), "{cmd} {proto}: {stderr}");
                assert!(stderr.contains("-n >= 2"), "{cmd} {proto}: {stderr}");
            }
        }
    }
}

#[test]
fn pipeline_keeps_the_paxos_bound_of_the_other_commands() {
    // `pipeline` has its own protocol-name table; it used to skip the
    // bound and build 201 acceptors.
    let simulate = nbc(&["simulate", "paxos:100"]);
    let pipeline = nbc(&["pipeline", "paxos:100"]);
    for out in [&simulate, &pipeline] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.starts_with("error: paxos:F needs F <= 8 "), "{stderr}");
    }
    assert!(pipeline.stdout.is_empty(), "a refused batch prints no report");
    let out = nbc(&["pipeline", "paxos:8", "--txns", "4"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_reap_delay_the_clock_cannot_carry_exits_two() {
    // `done_at + reap_after` used to overflow: a panic in a debug build,
    // deadlines in the past in a release one.
    let out =
        nbc(&["pipeline", "central-2pc", "--reap", "18446744073709551615", "--crash-pct", "50"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --reap 18446744073709551615 "), "{stderr}");
    assert!(stderr.contains("1099511627776"), "the message names the limit: {stderr}");
    assert!(out.stdout.is_empty(), "a refused batch prints no report");
    // The limit itself runs, and means "after the batch".
    let out = nbc(&["pipeline", "central-2pc", "--reap", "1099511627776", "--crash-pct", "50"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("conservation: ok"));
}

#[test]
fn non_check_commands_keep_their_exit_codes() {
    assert_eq!(nbc(&["list"]).status.code(), Some(0));
    assert_eq!(nbc(&["frobnicate"]).status.code(), Some(2));
}

#[test]
fn trace_verify_passes_on_every_catalog_protocol() {
    // Record a crashy simulation trace per catalog protocol and re-check
    // it offline: the trace oracles must agree with the live run.
    let dir = std::env::temp_dir();
    for (proto, extra) in [
        ("central-2pc", &["--crash", "0:2:1", "--recover", "300"][..]),
        ("central-3pc", &["--crash", "0:2:1"][..]),
        ("decentralized-2pc", &[][..]),
        ("decentralized-3pc", &["--crash", "1:1:log"][..]),
        ("1pc", &[][..]),
        ("kpc:4", &[][..]),
        ("paxos:1", &["--crash", "1:1:1"][..]),
    ] {
        let path = dir.join(format!("nbc-exit-trace-{}.jsonl", proto.replace(':', "-")));
        let mut args = vec!["simulate", proto, "--trace", path.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = nbc(&args);
        assert_eq!(out.status.code(), Some(0), "{proto} simulate failed");
        let out = nbc(&["trace", "verify", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{proto}: {}", String::from_utf8_lossy(&out.stdout));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("result: PASS"), "{proto}: {stdout}");
        // Determinism: a second pass renders byte-identically.
        let again = nbc(&["trace", "verify", path.to_str().unwrap()]);
        assert_eq!(out.stdout, again.stdout, "{proto}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn trace_verify_corrupted_trace_exits_one() {
    let dir = std::env::temp_dir();
    let path = dir.join("nbc-exit-trace-corrupt.jsonl");
    let out = nbc(&["simulate", "central-3pc", "--trace", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    // Remove one delivery line: conservation must flag the orphan send.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut removed = false;
    let corrupted: String = text
        .lines()
        .filter(|l| {
            if !removed && l.contains("\"kind\":\"msg-deliver\"") {
                removed = true;
                false
            } else {
                true
            }
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(removed, "no delivery line found");
    std::fs::write(&path, corrupted).unwrap();
    let out = nbc(&["trace", "verify", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conservation"), "{stdout}");
    assert!(stdout.contains("result: FAIL"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_usage_errors_exit_two() {
    for args in [
        &["trace"][..],
        &["trace", "frob", "x.jsonl"][..],
        &["trace", "verify"][..],
        &["trace", "verify", "/does/not/exist.jsonl"][..],
        &["trace", "stats", "--bogus"][..],
    ] {
        let out = nbc(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

/// Exit 2 with a one-line `error:` first — not a panic message, not an
/// abort.
fn assert_typed_error(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.starts_with("error: "), "{what}: {stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("overflowed"), "{what}: {stderr}");
}

#[test]
fn hostile_schedule_files_exit_two() {
    // Each of these used to index the engine's site table (or trip its
    // vote-count assertion) with a number the file supplied.
    let header = |votes: &str| {
        format!(
            "{{\"schedule\":\"nbc-check/v1\",\"protocol\":\"central-site 2PC (n=3)\",\
             \"n\":3,\"votes\":{votes},\"rule\":\"skeen\"}}\n"
        )
    };
    let dir = std::env::temp_dir();
    for (name, text) in [
        ("site-99", header("[true,true,true]") + "{\"step\":\"crash\",\"site\":99}\n"),
        ("short-votes", header("[true]")),
        (
            "peer-minus-1",
            header("[true,true,true]") + "{\"step\":\"suspect\",\"observer\":0,\"peer\":-1}\n",
        ),
    ] {
        let path = dir.join(format!("nbc-exit-hostile-{name}.jsonl"));
        std::fs::write(&path, text).unwrap();
        let out =
            nbc(&["simulate", "central-2pc", "-n", "3", "--schedule", path.to_str().unwrap()]);
        assert_typed_error(&out, name);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn deeply_nested_trace_exits_two() {
    // 200 000 open brackets: the recursive JSON reader used to run out of
    // stack (SIGABRT, status 134).
    let path = std::env::temp_dir().join("nbc-exit-deep.jsonl");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    assert_typed_error(&nbc(&["trace", "verify", path.to_str().unwrap()]), "deep trace");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_stats_reads_pipeline_series() {
    let dir = std::env::temp_dir();
    let path = dir.join("nbc-exit-trace-series.jsonl");
    let out = nbc(&[
        "pipeline",
        "central-3pc",
        "--txns",
        "24",
        "--seed",
        "9",
        "--series-every",
        "64",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = nbc(&["trace", "stats", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("decision latency: n="), "{stdout}");
    assert!(stdout.contains("time series ("), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn simulate_flight_dump_written_on_blocked_run() {
    let dir = std::env::temp_dir();
    let path = dir.join("nbc-exit-flight.jsonl");
    let _ = std::fs::remove_file(&path);
    // 2PC coordinator crash under the cooperative rule blocks: the run
    // exits 0 (simulate reports, it does not gate) but the flight
    // recorder must leave its tail behind.
    let out = nbc(&[
        "simulate",
        "central-2pc",
        "--crash",
        "0:2:0",
        "--rule",
        "cooperative",
        "--flight",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flight recorder: dumped"), "{stderr}");
    assert!(path.exists(), "flight dump missing");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_counterexample_writes_flight_dump() {
    let dir = std::env::temp_dir().join("nbc-exit-cx");
    let cx = dir.join("cx.jsonl");
    let out = nbc(&[
        "check",
        "central-3pc",
        "-n",
        "3",
        "--rule",
        "naive",
        "--faults",
        "2",
        "--counterexample",
        cx.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(cx.exists(), "counterexample schedule missing");
    let flight = dir.join("cx.jsonl.flight.jsonl");
    let data = std::fs::read_to_string(&flight).expect("flight dump next to counterexample");
    assert!(data.lines().next().unwrap().contains("flight recorder"), "{data}");
    // The dump must parse as a trace and re-verify offline: the replayed
    // failure shows up as a decision-consistency violation.
    let out = nbc(&["trace", "verify", flight.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("result: FAIL"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_command_that_parsed_and_failed_prints_its_error_and_no_synopsis() {
    // A missing spec file and a spec that does not parse used to be
    // followed by the whole usage text, as if the flags had been wrong.
    let dir = std::env::temp_dir().join(format!("nbc-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.nbc");
    std::fs::write(&garbage, "garbage\n").unwrap();
    let missing = dir.join("nosuch.nbc");
    for (path, says) in [(&missing, "cannot read"), (&garbage, "garbage.nbc:")] {
        let out = nbc(&["analyze", path.to_str().unwrap()]);
        assert_typed_error(&out, says);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(says), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line, no synopsis: {stderr}");
        assert!(!stderr.contains("USAGE:"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // A command line the flag table refuses still gets the synopsis.
    let out = nbc(&["analyze", "central-3pc", "--bogus"]);
    assert_typed_error(&out, "--bogus");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.lines().next().unwrap().contains("--bogus"), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn the_streamed_analysis_runs_past_the_retained_state_limit() {
    // 15 909 884 global states, four times the retained builders' limit,
    // stood for by a few hundred orbit representatives: this exited 2 with
    // `GraphTooLarge` after expanding 4.2 M states.
    let out = nbc(&["analyze", "central-3pc", "-n", "12", "--stream"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("streamed analysis: 15909884 global states across 37 levels"));
    assert!(stdout.contains("NONBLOCKING (both theorem conditions hold)"), "{stdout}");
}
