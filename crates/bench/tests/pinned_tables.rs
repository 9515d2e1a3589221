//! The E12, B4, B6 and B8 tables are pinned to the text committed in
//! `docs/experiments_output.txt`: every cell, the shape sentences and
//! B8's cost table (not the wall-clock `(… finished in …)` lines).

use nbc_bench::experiments;

const COMMITTED: &str = include_str!("../../../docs/experiments_output.txt");

/// Lines `first..=last` (1-based) of the committed output.
fn committed_lines(first: usize, last: usize) -> String {
    COMMITTED.lines().skip(first - 1).take(last + 1 - first).collect::<Vec<_>>().join("\n")
}

fn assert_pinned(id: &str, first: usize, last: usize) {
    let report = (experiments::by_id(id).expect("registered").run)();
    assert_eq!(
        report.trim_end_matches('\n'),
        committed_lines(first, last),
        "{id} no longer prints docs/experiments_output.txt lines {first}-{last}"
    );
}

#[test]
fn e12_prints_the_committed_table() {
    assert_pinned("e12", 582, 589);
}

#[test]
fn b4_prints_the_committed_table() {
    assert_pinned("b4", 658, 669);
}

#[test]
fn b6_prints_the_committed_table() {
    assert_pinned("b6", 738, 753);
}

#[test]
fn b8_prints_the_committed_tables() {
    assert_pinned("b8", 760, 781);
}
