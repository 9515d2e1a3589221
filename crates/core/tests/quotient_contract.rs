//! The streaming fold's equivalence gate: for the catalog at n = 2..7 and
//! the k-phase family, a streamed analysis carries the retained build's
//! facts, counts, graph statistics and progress lines at every thread
//! count and spill budget. Written, and green, before the fold walked anything but the
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
    for (n, k) in [(3, 4), (4, 4), (3, 5)] {
        let p = k_phase_central(n, k).unwrap();
        quotient::assert_streamed_equals_retained(&p.name, &p);
    }
}

/// The shipped spec files: a spec gets whatever site symmetry its text
/// has, and the streamed analysis must not show it.
#[test]
fn shipped_specs_stream_to_the_retained_facts_and_counts() {
    let dir = format!("{}/../../specs", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    let mut checked = 0;
    for path in files.iter().filter(|p| p.extension().is_some_and(|e| e == "nbc")) {
        let text = std::fs::read_to_string(path).unwrap();
        // The linear specs name their three sites; the others take any n.
        for n in 2..=5 {
            if let Ok(p) = nbc_core::spec::parse(&text, n) {
                quotient::assert_streamed_equals_retained(&format!("{} n={n}", path.display()), &p);
                checked += 1;
            }
        }
    }
    assert!(checked >= 14, "only {checked} (spec, n) pairs parsed under {dir}");
}
