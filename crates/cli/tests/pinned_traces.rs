//! `nbc trace verify` and `nbc trace stats`, text and `--json`, pinned on
//! three recorded traces and on mutations of each: exit code, `Fp128` of
//! stdout and `Fp128` of stderr's first line.
//!
//! The binary under test records the traces in a scratch directory: a
//! simulated run with a crash and a recovery, a crash-heavy pipeline batch
//! with time-series snapshots, and a sweep. Each mutation is a pure function
//! of a trace's lines. Between them they trip every line the four oracles
//! print (checked by name below, so a mutation that stops tripping one
//! fails here, not silently).
//!
//! A mismatch prints the whole table as the binary produces it now.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use nonblocking_commit::model::Fp128;

/// The traces: file name and the command line that writes it (with
/// `--trace FILE` appended).
const RECORD: &[(&str, &str)] = &[
    ("sim", "simulate central-3pc --crash 0:2:1 --recover 300"),
    (
        "pipe",
        "pipeline central-2pc --txns 48 --in-flight 8 --crash-pct 40 --seed 3 --series-every 8",
    ),
    ("sweep", "sweep central-3pc"),
];

type Mutation = fn(Vec<&str>) -> Vec<&str>;

fn without(kind: &'static str) -> impl Fn(Vec<&str>) -> Vec<&str> {
    move |lines| lines.into_iter().filter(|l| !l.contains(kind)).collect()
}

/// The mutations, by the suffix their files carry.
const MUTATIONS: &[(&str, Mutation)] = &[
    ("same", |lines| lines),
    // Global and channel imbalance, sends never delivered.
    ("no-deliver", |lines| without("\"kind\":\"msg-deliver\"")(lines)),
    // Deliveries with no matching send.
    ("no-send", |lines| without("\"kind\":\"msg-send\"")(lines)),
    // Sends before any WAL append, decisions without a decision record.
    ("no-wal", |lines| without("\"kind\":\"wal-append\"")(lines)),
    // Every delivery before its send: label-level FIFO orphans alone.
    ("reversed", |lines| lines.into_iter().rev().collect()),
    // Messages in flight when the trace ends.
    ("cut", |lines| {
        let half = lines.len() / 2;
        lines.into_iter().take(half).collect()
    }),
    ("fifth", |lines| {
        lines.into_iter().enumerate().filter(|(i, _)| i % 5 != 4).map(|(_, l)| l).collect()
    }),
];

/// Every second decision line with its verdict flipped: mixed decisions.
fn mixed(text: &str) -> String {
    let mut seen = 0;
    let mut out = String::new();
    for line in text.lines() {
        let mut line = line.to_string();
        if line.contains("\"kind\":\"decision\"") {
            seen += 1;
            if seen % 2 == 0 {
                line = if line.contains("\"commit\":true") {
                    line.replace("\"commit\":true", "\"commit\":false")
                } else {
                    line.replace("\"commit\":false", "\"commit\":true")
                };
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Lines every oracle prints when it trips; each must appear in some row.
const FINDINGS: &[&str] = &[
    "global: ",
    "channel site",
    "deliveries/drops with no matching send (label-level FIFO)",
    "sends never delivered or dropped",
    "before any WAL append",
    "without a durable decision record",
    "both commit and abort observed",
    "... and ",
    "time series (",
];

/// `exit stdout stderr-line-1 $ command line`.
const PINNED: &str = "\
0 8138dd1c42db939ef0b870804fc4f401 - $ trace verify sim.same.jsonl
0 80ec207d0d19ffe74441d616e0f38ed4 - $ trace verify --json sim.same.jsonl
0 6191eced172d046e0100fc3105136aac - $ trace stats sim.same.jsonl
0 728c600d46bda81c6f7552973064b04f - $ trace stats --json sim.same.jsonl
1 f59d0ac5165d04455a485c1c799a53e0 - $ trace verify sim.no-deliver.jsonl
1 f251561e8ce2869228e32fa156c58cc4 - $ trace verify --json sim.no-deliver.jsonl
0 ee3133078098f3f1cf6270dd46c42447 - $ trace stats sim.no-deliver.jsonl
0 8154eb9189ba22225d415dd696987037 - $ trace stats --json sim.no-deliver.jsonl
1 f2ae29d7d1671b080e1ba24a4b528842 - $ trace verify sim.no-send.jsonl
1 fc54a5f815ba90def90517aa84f8c637 - $ trace verify --json sim.no-send.jsonl
0 ee3133078098f3f1cf6270dd46c42447 - $ trace stats sim.no-send.jsonl
0 8154eb9189ba22225d415dd696987037 - $ trace stats --json sim.no-send.jsonl
1 c125b084cba70adb19f0e8620f5935d1 - $ trace verify sim.no-wal.jsonl
1 751cbbf104026ec27ca1dce150869678 - $ trace verify --json sim.no-wal.jsonl
0 5c4415904e33ee67d6bae1a5a826479b - $ trace stats sim.no-wal.jsonl
0 f64997cad74d8eac174f641214fb9243 - $ trace stats --json sim.no-wal.jsonl
1 ad0c47ebc2a0899bb85753b142e9caa2 - $ trace verify sim.reversed.jsonl
1 878a88e9a180ee7b67b07e6aeaaac733 - $ trace verify --json sim.reversed.jsonl
0 e6b4e8b47d305ab04347dc7e3e8e594c - $ trace stats sim.reversed.jsonl
0 a3b0e12b85ad29fdc9a7925fecbe7030 - $ trace stats --json sim.reversed.jsonl
0 ff6306894b19401e2057796bad699664 - $ trace verify sim.cut.jsonl
0 300952940c08ce6254393c83b71490da - $ trace verify --json sim.cut.jsonl
0 d46c4020694f5688ae14a8744d343dbc - $ trace stats sim.cut.jsonl
0 e2dc53dae882c28836ede5333ef52b52 - $ trace stats --json sim.cut.jsonl
1 bea7a9d7020b6cf209c5b5108f4ff6ab - $ trace verify sim.fifth.jsonl
1 0d0df5d55b2f1815a3c4652871f40b8f - $ trace verify --json sim.fifth.jsonl
0 b165600c63bda0e17be9741c9d2e7f86 - $ trace stats sim.fifth.jsonl
0 b7143f151565e781d01fce7f0bae5378 - $ trace stats --json sim.fifth.jsonl
1 783f289ddc3d8cb1b0c6b5556ca615d6 - $ trace verify sim.mixed.jsonl
1 1478163e0898ecce767b9a2e4de1e978 - $ trace verify --json sim.mixed.jsonl
0 6191eced172d046e0100fc3105136aac - $ trace stats sim.mixed.jsonl
0 728c600d46bda81c6f7552973064b04f - $ trace stats --json sim.mixed.jsonl
0 e6c61ff709dc0cf80f1da5baacee169f - $ trace verify pipe.same.jsonl
0 cfaf99de0fa46881e04a11e25eda4124 - $ trace verify --json pipe.same.jsonl
0 264dbc35dd68244ea60e02498e922540 - $ trace stats pipe.same.jsonl
0 5e31a6e25f8274da95aa62245028fdc0 - $ trace stats --json pipe.same.jsonl
1 29980fa3480195b3a685cdf1525b553e - $ trace verify pipe.no-deliver.jsonl
1 063ee5515dcd1a6aa0ba890a3cd0aebb - $ trace verify --json pipe.no-deliver.jsonl
0 535db635a570f6e0d18225fd7b88dab0 - $ trace stats pipe.no-deliver.jsonl
0 0a6857205a48c38c55ec174dbee8aa2b - $ trace stats --json pipe.no-deliver.jsonl
1 741ed25bc0a15708fd2988fe121432a7 - $ trace verify pipe.no-send.jsonl
1 5b274aad94621cd32768aa8d3a7e095c - $ trace verify --json pipe.no-send.jsonl
0 535db635a570f6e0d18225fd7b88dab0 - $ trace stats pipe.no-send.jsonl
0 0a6857205a48c38c55ec174dbee8aa2b - $ trace stats --json pipe.no-send.jsonl
1 ee40fe4e03cb685e52c870771eba29b1 - $ trace verify pipe.no-wal.jsonl
1 c46348740e30d845388f95db3cae0df9 - $ trace verify --json pipe.no-wal.jsonl
0 82524652f8fe4c359748a5d103d95b9c - $ trace stats pipe.no-wal.jsonl
0 d076d2236750d4b6fbb245f7ead71905 - $ trace stats --json pipe.no-wal.jsonl
1 dd274973a7d0aa25837c7c46bc3f3492 - $ trace verify pipe.reversed.jsonl
1 122f1bc5e0c8d9cb3c8fef6652724008 - $ trace verify --json pipe.reversed.jsonl
0 8b2d737b845f4760f5fde654f77008d5 - $ trace stats pipe.reversed.jsonl
0 d94979a3fdf84fcb147191342ac36656 - $ trace stats --json pipe.reversed.jsonl
1 16f2aa918c572f1b24d0ba9fb7a99d6e - $ trace verify pipe.cut.jsonl
1 2320bdd5e11d739bbf579420d01125d0 - $ trace verify --json pipe.cut.jsonl
0 dd8568ceb45f459a69388bd6666bc90e - $ trace stats pipe.cut.jsonl
0 297916e83d029c970542c4b75388f433 - $ trace stats --json pipe.cut.jsonl
1 54dfd1479136f6b6b873d95f57570f2d - $ trace verify pipe.fifth.jsonl
1 25aff9015aac18dddfbfb8141700f363 - $ trace verify --json pipe.fifth.jsonl
0 b1f29e4e515d68f0817c9e6edd88f7e0 - $ trace stats pipe.fifth.jsonl
0 30b3c3e21d0a71dfa177dc711e045e43 - $ trace stats --json pipe.fifth.jsonl
1 04249d885ea9c902ff38046b6b1ce4ec - $ trace verify pipe.mixed.jsonl
1 b41293db9af639a48be989240cef690b - $ trace verify --json pipe.mixed.jsonl
0 264dbc35dd68244ea60e02498e922540 - $ trace stats pipe.mixed.jsonl
0 5e31a6e25f8274da95aa62245028fdc0 - $ trace stats --json pipe.mixed.jsonl
0 96050830985ba6d58c8aa3b49eb8edfe - $ trace verify sweep.same.jsonl
0 f8024bcbaacad476e7e9eca4be214b93 - $ trace verify --json sweep.same.jsonl
0 5e5155335a84e8fbc41b6821925cbddd - $ trace stats sweep.same.jsonl
0 6e6f2991c5905c2da140db81a0f0253d - $ trace stats --json sweep.same.jsonl
1 09108be909ce54e3227bc711471b5b83 - $ trace verify sweep.no-deliver.jsonl
1 19a51bd35a9a274cea1b95f626136f03 - $ trace verify --json sweep.no-deliver.jsonl
0 31588a72de0db24a3b33da59e8bfeeb7 - $ trace stats sweep.no-deliver.jsonl
0 8f34dc0c72551501a8279892c9ad8cc6 - $ trace stats --json sweep.no-deliver.jsonl
1 d8f0caa03e36c2eb46e69345084ef696 - $ trace verify sweep.no-send.jsonl
1 7ab0f1edb97aa1a326824d10d6d44b7f - $ trace verify --json sweep.no-send.jsonl
0 31588a72de0db24a3b33da59e8bfeeb7 - $ trace stats sweep.no-send.jsonl
0 8f34dc0c72551501a8279892c9ad8cc6 - $ trace stats --json sweep.no-send.jsonl
1 5fab6c5f9ec3c38daf014fbade8f96dd - $ trace verify sweep.no-wal.jsonl
1 f808e0df86691349fc123f22b6a5dcf0 - $ trace verify --json sweep.no-wal.jsonl
0 c7bbc86f047cb11334fc16d14c7cdfc8 - $ trace stats sweep.no-wal.jsonl
0 793d0a57307ff83fd31dadc918832ee6 - $ trace stats --json sweep.no-wal.jsonl
1 903c029e748f89568f57b435bdb5345d - $ trace verify sweep.reversed.jsonl
1 6f69495b68b517abbc59744274d47ea9 - $ trace verify --json sweep.reversed.jsonl
0 0ee20affe73709cef41844620387fad3 - $ trace stats sweep.reversed.jsonl
0 c4ab576a62122f190757eaf2da1b348b - $ trace stats --json sweep.reversed.jsonl
1 8ab0071bd0133ddca1af59ff20771534 - $ trace verify sweep.cut.jsonl
1 bb116c1aa77ad927372bda4ae3da3328 - $ trace verify --json sweep.cut.jsonl
0 44fba869747a26b8bb19f578d6a0ff44 - $ trace stats sweep.cut.jsonl
0 f649030022c0ccece49b7781f97d92fe - $ trace stats --json sweep.cut.jsonl
1 d28e75e843e20d434e91d788e0245b94 - $ trace verify sweep.fifth.jsonl
1 cf7bdc1f0e07bd50cb3212db8ea7232b - $ trace verify --json sweep.fifth.jsonl
0 43b69f5128e5231a7a040f312620905d - $ trace stats sweep.fifth.jsonl
0 dbb7602f20ba303bf51d3b3521b22c5d - $ trace stats --json sweep.fifth.jsonl
1 01c0bc77f794c27342bd48f4d6f7e499 - $ trace verify sweep.mixed.jsonl
1 d663435f32dedf2422d1bd02427982d3 - $ trace verify --json sweep.mixed.jsonl
0 5e5155335a84e8fbc41b6821925cbddd - $ trace stats sweep.mixed.jsonl
0 6e6f2991c5905c2da140db81a0f0253d - $ trace stats --json sweep.mixed.jsonl
1 7d6ec5bfd56572973be2b82c7a629c2e - $ trace verify sim.same.jsonl pipe.same.jsonl sweep.no-wal.jsonl
1 75f9ef85d9622ef66e9b58186663b1b7 - $ trace verify --json sim.same.jsonl pipe.cut.jsonl
2 7d8795253d270d3cbc80efa97dca1234 f8b9e262e8308f203428ea3b64c2bcbf $ trace verify sim.same.jsonl broken.jsonl
0 50b99e73bb5c8ddab9baa488a184633c - $ trace stats sim.same.jsonl pipe.same.jsonl sweep.no-wal.jsonl
0 5ff70da355e770776599f2efff64bcb9 - $ trace stats --json sim.same.jsonl pipe.cut.jsonl
2 7d8795253d270d3cbc80efa97dca1234 f8b9e262e8308f203428ea3b64c2bcbf $ trace stats sim.same.jsonl broken.jsonl
";

fn fp(bytes: &[u8]) -> String {
    let mut h = Fp128::new();
    h.write_bytes(bytes);
    format!("{:032x}", h.finish())
}

fn nbc(dir: &Path, line: &str) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nbc"))
        .args(line.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("run nbc binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stdout, stderr)
}

#[test]
fn trace_verify_and_stats_print_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("nbc-pinned-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut files = Vec::new();
    for (stem, line) in RECORD {
        let (code, _, stderr) = nbc(&dir, &format!("{line} --trace {stem}.jsonl"));
        assert_eq!(code, 0, "`{line}`: {stderr}");
        let text = std::fs::read_to_string(dir.join(format!("{stem}.jsonl"))).unwrap();
        for (name, mutate) in MUTATIONS {
            let lines = mutate(text.lines().collect());
            let mutant: String = lines.iter().map(|l| format!("{l}\n")).collect();
            assert!(*name == "same" || mutant != text, "{stem}.{name} changed nothing");
            let file = format!("{stem}.{name}.jsonl");
            std::fs::write(dir.join(&file), mutant).unwrap();
            files.push(file);
        }
        let file = format!("{stem}.mixed.jsonl");
        std::fs::write(dir.join(&file), mixed(&text)).unwrap();
        files.push(file);
    }
    // A run over several files that ends in a line no reader parses.
    std::fs::write(dir.join("broken.jsonl"), "{\"t\":1,\"kind\":\"crash\"}\nbroken\n").unwrap();
    let mut lines: Vec<String> = Vec::new();
    for file in &files {
        for cmd in ["verify", "stats"] {
            lines.push(format!("trace {cmd} {file}"));
            lines.push(format!("trace {cmd} --json {file}"));
        }
    }
    for cmd in ["verify", "stats"] {
        lines.push(format!("trace {cmd} sim.same.jsonl pipe.same.jsonl sweep.no-wal.jsonl"));
        lines.push(format!("trace {cmd} --json sim.same.jsonl pipe.cut.jsonl"));
        lines.push(format!("trace {cmd} sim.same.jsonl broken.jsonl"));
    }
    let mut now = String::new();
    let mut outputs = String::new();
    for line in &lines {
        let (code, stdout, stderr) = nbc(&dir, line);
        let first = stderr.lines().next().map_or_else(|| "-".to_string(), |l| fp(l.as_bytes()));
        let _ = writeln!(now, "{code} {} {first} $ {line}", fp(stdout.as_bytes()));
        outputs.push_str(&stdout);
    }
    let _ = std::fs::remove_dir_all(&dir);
    for finding in FINDINGS {
        assert!(outputs.contains(finding), "no row prints {finding:?}");
    }
    let moved: Vec<&str> =
        now.lines().zip(PINNED.lines()).filter(|(n, p)| n != p).map(|(n, _)| n).collect();
    assert!(
        now == PINNED,
        "nbc trace no longer prints the pinned bytes; {} line(s) moved:\n{}\nthe whole table now:\n{now}",
        moved.len(),
        moved.join("\n")
    );
}
