//! The text side of `crates/core/tests/quotient_contract.rs`: what `nbc
//! analyze` prints for the catalog at n=7, from the streaming fold, is
//! what `cmd_analyze` prints over the retained build, byte for byte.

use std::process::Command;

use nbc_cli::{cmd_analyze, resolve_protocol};
use nonblocking_commit::model::Analysis;

#[test]
fn the_streamed_report_is_the_retained_report() {
    for protocol in ["central-2pc", "decentralized-2pc", "central-3pc", "decentralized-3pc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_nbc"))
            .args(["analyze", protocol, "-n", "7"])
            .output()
            .expect("run nbc binary");
        assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let p = resolve_protocol(protocol, 7).unwrap();
        let retained = cmd_analyze(&p, &Analysis::build(&p).unwrap()).unwrap();
        assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), retained, "{protocol}");
    }
}
