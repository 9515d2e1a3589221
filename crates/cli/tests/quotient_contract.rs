//! The text side of `crates/core/tests/quotient_contract.rs`: what `nbc
//! analyze --stream` prints for the catalog at n=7 is what `nbc analyze`
//! prints, but for the one line that says which of the two ran.

use std::process::Command;

fn analyze(protocol: &str, stream: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nbc"));
    cmd.args(["analyze", protocol, "-n", "7"]);
    if stream {
        cmd.arg("--stream");
    }
    let out = cmd.output().expect("run nbc binary");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8")
}

#[test]
fn streamed_and_retained_reports_differ_in_one_line() {
    for protocol in ["central-2pc", "decentralized-2pc", "central-3pc", "decentralized-3pc"] {
        let without = |text: &str, prefix: &str| -> Vec<String> {
            let kept: Vec<String> =
                text.lines().filter(|l| !l.starts_with(prefix)).map(str::to_string).collect();
            assert_eq!(kept.len() + 1, text.lines().count(), "{protocol}: one {prefix:?} line");
            kept
        };
        let retained = without(&analyze(protocol, false), "reachable state graph:");
        let streamed = without(&analyze(protocol, true), "streamed analysis:");
        assert_eq!(streamed, retained, "{protocol}");
    }
}
