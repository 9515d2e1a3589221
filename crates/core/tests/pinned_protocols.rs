//! The five catalog constructors, pinned by what they build.
//!
//! `Protocol` derives `Debug` over its name, paradigm, automata (each
//! state's name and class; each transition's endpoints, consume, emit,
//! vote and label), initial messages, message names and quorum, so one
//! fingerprint of that text per (constructor, n) pins all of them.
//! Captured from the hand-written `FsaBuilder` constructors; a catalog
//! built any other way must reproduce them exactly.

use std::fmt::Write;

use nbc_core::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc, one_pc};
use nbc_core::{Fp128, Protocol};

/// `(constructor, [fingerprint at n = 2, 3, ..., 8])`.
const PINNED: [(&str, [u128; 7]); 5] = [
    (
        "one_pc",
        [
            0x492dda7e4ed0ba8aab9b920c7a847133,
            0xb412bdf1751dc277f2af35fe2bd7bfe0,
            0x14da481a0d5633d7a78f92b506f195d4,
            0x29eca79b36b4102c39539a9ca7f6c307,
            0x6bd550cb59455bd63b64ecaf2eb0e985,
            0x9a13cf0a2d2055d625716c7cc8789cdc,
            0x461263906c3bdd752aa995bd643cd767,
        ],
    ),
    (
        "central_2pc",
        [
            0x3ea12ba985b9c2d516985c2f1550aac1,
            0x3e14489b7e051ac23d801e70fc212f3e,
            0xc75642f108b3e38382602c1a6f1574aa,
            0x9bf062933150c50a76452d6b2522fd1f,
            0x3db22582f0acb163c9fbba1b754402a5,
            0x1cc115a89c0235213ebe50708ebe2cb5,
            0xe02d1feda2cab8c11abe50ee4953aa66,
        ],
    ),
    (
        "central_3pc",
        [
            0xddbf8cda4481bcb60d612eb8ac391e77,
            0x3ea581379f505e452b5873cfdc090879,
            0xb2b42d63ee142f99491001baebed9152,
            0x29b307d999726dbe47b0c729f25716ae,
            0x76ade4f338d7962d1bf6cedc3b87a105,
            0xab3f5b0345735b9a09b94f459d23c949,
            0x4d8524e437b7f8ac0f254abc8597e6a2,
        ],
    ),
    (
        "decentralized_2pc",
        [
            0x7c95b20425c653ce8bae98593fa74d65,
            0x59420925e39fb246feb6786fc97870fb,
            0xfeb2ceee24fed363e06d2f118aa06431,
            0x7b13b9c661b1f3d9040c6c4cfd797229,
            0xbb4b24e25a50e82d45f1c01a26744066,
            0x2ebae3fcbee67edd735bd37c43b6742b,
            0x64127f8e520de589ac2bc93f0bcba506,
        ],
    ),
    (
        "decentralized_3pc",
        [
            0xee1ef0a8baf8ae4a699b9006f748fb1a,
            0xf1bca5c48e443732c18af270cceee271,
            0x7227d8d9c7f65c134eb89cefb3c3d6bd,
            0xd4081f7dd9d4754eeaa955ea0eed2b1f,
            0xd7fb5bfe408104af809fda49fd482351,
            0x3399b669b336529f445a74377e4dc796,
            0xc424059675b01f7012f04ba02b0d22d5,
        ],
    ),
];

fn fingerprint(p: &Protocol) -> u128 {
    let mut h = Fp128::new();
    h.write_bytes(format!("{p:?}").as_bytes());
    h.finish()
}

#[test]
fn catalog_constructors_build_the_pinned_protocols() {
    let constructors: [fn(usize) -> Protocol; 5] =
        [one_pc, central_2pc, central_3pc, decentralized_2pc, decentralized_3pc];
    let mut table = String::new();
    let mut differ = 0;
    for ((name, want), build) in PINNED.iter().zip(constructors) {
        writeln!(table, "    (\n        \"{name}\",\n        [").unwrap();
        for (n, &want) in (2..=8).zip(want) {
            let got = fingerprint(&build(n));
            differ += usize::from(got != want);
            writeln!(table, "            0x{got:032x},").unwrap();
        }
        writeln!(table, "        ],\n    ),").unwrap();
    }
    assert_eq!(differ, 0, "{differ} of 35 protocols differ; the table they build:\n{table}");
}
