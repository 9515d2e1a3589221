//! The streaming fold's equivalence gate: for the catalog at n = 2..7 and
//! the k-phase family, a streamed analysis carries the retained build's
//! facts, counts and progress lines at every thread count and spill
//! budget. Written, and green, before the fold walked anything but the
//! full graph; a fold that explores fewer states has to keep it green
//! unedited.

mod quotient;

use nbc_core::kpc::k_phase_central;
use nbc_core::protocols::catalog;

#[test]
fn catalog_streams_to_the_retained_facts_and_counts() {
    for n in 2..=7 {
        for p in catalog(n) {
            quotient::assert_streamed_equals_retained(&p.name, &p);
        }
    }
}

#[test]
fn k_phase_protocols_stream_to_the_retained_facts_and_counts() {
    for k in [4, 5] {
        let p = k_phase_central(3, k).unwrap();
        quotient::assert_streamed_equals_retained(&p.name, &p);
    }
}
