//! The shipped spec files' side of
//! `crates/core/tests/quotient_contract.rs`: a spec gets whatever site
//! symmetry its text has, and the streamed analysis must not show it.

#[path = "../../core/tests/quotient/mod.rs"]
mod quotient;

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
            if let Ok(p) = nbc_spec::parse(&text, n) {
                quotient::assert_streamed_equals_retained(&format!("{} n={n}", path.display()), &p);
                checked += 1;
            }
        }
    }
    assert!(checked >= 14, "only {checked} (spec, n) pairs parsed under {dir}");
}
