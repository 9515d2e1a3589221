//! The reachable state graphs themselves, pinned.
//!
//! `graph_properties.rs` and `fused_analysis_props.rs` compare the
//! builders with each other, so two paths that drift together stay green.
//! The golden holds what they build: captured at commit 6201d20, when the
//! serial builder interned whole states under `RandomState`, the parallel
//! one sharded by `DefaultHasher`, and the streaming fold carried owned
//! successor states to the level barrier.

mod pin;

use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::catalog;

#[test]
fn catalog_graphs_match_the_parent_commit() {
    let mut got = String::new();
    for n in 2..=5 {
        for p in catalog(n) {
            got.push_str(&pin::render(&p.name, &p));
        }
    }
    let kpc = k_phase_central(3, 4).unwrap();
    got.push_str(&pin::render(&kpc.name, &kpc));
    pin::assert_golden(&got, include_str!("golden/pinned_graphs.txt"));
}
