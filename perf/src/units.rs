//! The unit loop: whole passes until the time is up, never a partial one.

use std::collections::BTreeMap;

use crate::calib::RefClock;
use crate::stats::median;
use crate::workloads::{Counts, PassRun};

/// Fewest units a run of `seconds` may hold: 100 in the 30 s the driver
/// runs (a median over fewer identical units is not steady enough).
pub fn min_units(seconds: u64) -> usize {
    (seconds * 10 / 3) as usize
}

/// One measured unit: the pass and the reference pair timed just before
/// it.
pub struct Unit {
    /// What the pass measured.
    pub pass: PassRun,
    /// Index of the unit's sample in the run's [`RefClock`].
    pub ref_ix: usize,
}

/// Everything the measured units of one run produced.
#[derive(Debug, Default)]
pub struct UnitLog {
    /// Raw time of each unit inside the system under test, nanoseconds.
    pub unit_ns: Vec<u64>,
    /// Index of each unit's reference sample in the run's [`RefClock`].
    pub unit_ref: Vec<usize>,
    /// Raw time of each segment of each unit.
    pub segment_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Operations per segment per unit (from the first unit).
    pub segment_ops: BTreeMap<&'static str, u64>,
    /// Exact counts of one unit (from the first unit).
    pub counts: Counts,
    /// Operations in measured units.
    pub attempted: u64,
    /// Operations of units (or segments) that failed a gate.
    pub failed: u64,
    /// The first gate failure, for the error message.
    pub first_failure: Option<String>,
    /// Nanoseconds past the budget at which the last pass ended.
    pub late_ns: u64,
    /// Wall-clock nanoseconds from the first unit's start to the last
    /// unit's end, harness work between units included.
    pub wall_ns: u64,
}

impl UnitLog {
    /// Units measured.
    pub fn units(&self) -> usize {
        self.unit_ns.len()
    }

    /// Operations in one unit.
    pub fn ops_per_unit(&self) -> u64 {
        self.segment_ops.values().sum()
    }

    /// Each unit's calibration factor on `clock`.
    pub fn factors(&self, clock: &RefClock) -> Vec<f64> {
        self.unit_ref.iter().map(|&ix| clock.factor(ix)).collect()
    }

    /// Each unit's time divided by its own calibration factor, in
    /// nanoseconds.
    pub fn calibrated_ns(&self, clock: &RefClock) -> Vec<f64> {
        self.unit_ns.iter().zip(self.factors(clock)).map(|(&ns, cal)| ns as f64 / cal).collect()
    }

    /// The median calibrated unit time: the number every end-to-end time
    /// is built on.
    pub fn calibrated_p50_ns(&self, clock: &RefClock) -> f64 {
        median(&self.calibrated_ns(clock))
    }

    fn record(&mut self, unit: Unit) {
        let Unit { pass, ref_ix } = unit;
        let mut failed = pass.failed_ops();
        let mut why = pass.first_failure();
        if self.unit_ns.is_empty() {
            self.counts = pass.counts.clone();
            self.segment_ops = pass.segments.iter().map(|s| (s.name, s.ops)).collect();
        } else if pass.counts != self.counts {
            // Identical units are the premise of every median reported.
            failed = pass.ops();
            why.get_or_insert_with(|| "counts differ from the first unit".to_string());
        }
        self.attempted += pass.ops();
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure = why;
        }
        self.unit_ns.push(pass.ns());
        self.unit_ref.push(ref_ix);
        for s in &pass.segments {
            self.segment_ns.entry(s.name).or_default().push(s.ns);
        }
    }
}

/// Run whole passes until `budget_ns` has elapsed on `now`'s clock. A pass
/// that has started always runs to its end and counts whole — time never
/// interrupts or prorates one — so the last pass ends late, by
/// [`UnitLog::late_ns`]. No pass starts once the budget is spent, so a run
/// is as long on a slow machine as on a fast one; the caller fails a run
/// that held too few units. `step` gets the unit's 1-based number and the
/// nanoseconds elapsed; whatever it does besides the pass (the reference
/// pair, an interleaved set-up) spends budget but is part of no unit.
pub fn run_units(
    now: &dyn Fn() -> u64,
    budget_ns: u64,
    mut step: impl FnMut(u64, u64) -> Unit,
) -> UnitLog {
    let mut log = UnitLog::default();
    let start = now();
    loop {
        let elapsed = now() - start;
        if elapsed >= budget_ns {
            break;
        }
        log.record(step(log.units() as u64 + 1, elapsed));
    }
    log.wall_ns = now() - start;
    log.late_ns = log.wall_ns.saturating_sub(budget_ns);
    log
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::workloads::SegmentRun;

    fn unit_of(ns: u64, ops: u64, gate: Result<(), String>) -> Unit {
        Unit {
            pass: PassRun {
                segments: vec![SegmentRun { name: "seg", ns, ops, gate }],
                counts: [("ops", ops)].into_iter().collect(),
            },
            ref_ix: 0,
        }
    }

    #[test]
    fn whole_pass_truncation_never_counts_a_partial_pass() {
        // 300 ms passes against a 1000 ms budget: passes start at 0, 300,
        // 600 and 900; the fourth ends at 1200 and still counts whole.
        let clock = Cell::new(0u64);
        let log = run_units(&|| clock.get(), 1_000, |_, _| {
            clock.set(clock.get() + 300);
            unit_of(300, 50, Ok(()))
        });
        assert_eq!(log.units(), 4);
        assert_eq!(log.attempted, 4 * 50, "ops come in whole passes only");
        assert_eq!(log.unit_ns, vec![300; 4]);
        assert_eq!(log.late_ns, 200);
        assert_eq!(log.wall_ns, 1_200);
        assert_eq!(log.ops_per_unit(), 50);
    }

    #[test]
    fn harness_time_between_units_spends_budget_but_is_in_no_unit() {
        let clock = Cell::new(0u64);
        let seen = Cell::new(0u64);
        let log = run_units(&|| clock.get(), 1_000, |unit, elapsed| {
            seen.set(elapsed);
            clock.set(clock.get() + 200 + 300); // reference pair, then the pass
            assert_eq!(elapsed, (unit - 1) * 500);
            unit_of(300, 1, Ok(()))
        });
        assert_eq!(log.units(), 2);
        assert_eq!(log.unit_ns, vec![300, 300]);
        assert_eq!(seen.get(), 500);
    }

    #[test]
    fn each_unit_is_calibrated_by_its_own_factor_before_the_median() {
        // The machine runs four units at nominal speed, then four 25 %
        // slow: raw times are bimodal, calibrated times are not.
        let refs = RefClock::of_factors(vec![1.0, 1.0, 1.0, 1.0, 1.25, 1.25, 1.25, 1.25]);
        let clock = Cell::new(0u64);
        let log = run_units(&|| clock.get(), 800, |unit, _| {
            clock.set(clock.get() + 100);
            let ns = if unit > 4 { 125 } else { 100 };
            Unit { ref_ix: unit as usize - 1, ..unit_of(ns, 1, Ok(())) }
        });
        assert_eq!(log.unit_ns, vec![100, 100, 100, 100, 125, 125, 125, 125]);
        assert_eq!(log.factors(&refs), vec![1.0, 1.0, 1.0, 1.0, 1.25, 1.25, 1.25, 1.25]);
        assert_eq!(log.calibrated_ns(&refs), vec![100.0; 8]);
        assert_eq!(log.calibrated_p50_ns(&refs), 100.0);
    }

    #[test]
    fn failed_gates_and_drifting_counts_fail_their_ops() {
        let clock = Cell::new(0u64);
        let log = run_units(&|| clock.get(), 900, |i, _| {
            clock.set(clock.get() + 300);
            match i {
                1 => unit_of(300, 10, Ok(())),
                2 => unit_of(300, 10, Err("money not conserved".to_string())),
                _ => unit_of(300, 11, Ok(())), // one op more than the first unit
            }
        });
        assert_eq!(log.attempted, 31);
        assert_eq!(log.failed, 10 + 11);
        assert_eq!(log.first_failure.as_deref(), Some("seg: money not conserved"));
    }

    #[test]
    fn the_driver_run_needs_a_hundred_units() {
        assert_eq!(min_units(30), 100);
        assert_eq!(min_units(10), 33);
    }
}
