//! One run: set up, warm up, run units for `--seconds` with further
//! set-ups spread among them, and print the result line.

use std::time::Instant;

use crate::alloc::uncounted;
use crate::calib::RefClock;
use crate::manifest::WORKLOADS;
use crate::report::{result_line, Metrics};
use crate::results::header_line;
use crate::spans::Spans;
use crate::stats::{median, median_ns, percentile};
use crate::units::{min_units, run_units, Unit, UnitLog};
use crate::workloads::{set_up, SinkRef, Workload};
use crate::{layers, proc};

/// Set-ups per run, each from scratch; `setup_s` is their calibrated
/// median. The first precedes the warm-up; the others are spread evenly
/// over `--seconds`, so they sample the machine's moods like the units do
/// instead of all landing in the run's first second.
const SETUPS: usize = 24;
/// Untimed passes before the first unit.
const WARM_UPS: usize = 2;
/// Shortest run the runner accepts.
const MIN_SECONDS: u64 = 5;

/// Parsed `--workload --seed --seconds --trace`.
pub struct RunArgs {
    /// Workload name (one of the manifest's).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or end-to-end run.
    pub trace: bool,
}

/// Parse the driver's flags.
pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} {value:?} is not a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {}", names.join(", ")));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds < MIN_SECONDS {
        return Err(format!(
            "--seconds {seconds} is under {MIN_SECONDS}: too few units for a median worth reporting"
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One timed set-up.
pub struct SetUp {
    /// Raw nanoseconds.
    pub ns: u64,
    /// Index, in the session's clock, of the reference pair timed just
    /// before it.
    pub ref_ix: usize,
}

/// A workload being measured: the calibrated clock, the current (most
/// recently set up) instance, and every set-up's timing.
pub struct Session {
    name: String,
    seed: u64,
    /// The reference-pair samples of the whole session.
    pub clock: RefClock,
    workload: Option<Box<dyn Workload>>,
    /// Every set-up so far.
    pub setups: Vec<SetUp>,
}

impl Session {
    /// Set the workload up for the first time.
    pub fn start(name: &str, seed: u64) -> Self {
        let mut s = Self {
            name: name.to_string(),
            seed,
            clock: RefClock::default(),
            workload: None,
            setups: Vec::new(),
        };
        s.set_up_again();
        s
    }

    /// Drop the current instance and set the workload up from scratch,
    /// timed like a unit: reference pair first, then the set-up.
    fn set_up_again(&mut self) {
        uncounted(|| {
            drop(self.workload.take()); // from scratch: the previous instance is gone
            let ref_ix = self.clock.sample();
            let t = Instant::now();
            self.workload = set_up(&self.name, self.seed);
            self.setups.push(SetUp { ns: t.elapsed().as_nanos() as u64, ref_ix });
        });
    }

    /// The calibrated median set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        let calibrated: Vec<f64> =
            self.setups.iter().map(|s| s.ns as f64 / self.clock.factor(s.ref_ix)).collect();
        median(&calibrated) / 1e9
    }

    /// The raw median set-up time, in seconds.
    pub fn raw_setup_s(&self) -> f64 {
        median(&self.setups.iter().map(|s| s.ns as f64).collect::<Vec<_>>()) / 1e9
    }

    /// Warm up, then run units for `seconds`. Before each unit the
    /// reference pair is timed; `setups - 1` further set-ups happen at
    /// even intervals, each replacing the instance the units run on.
    /// `sink_for` decides, per unit, whether the event sinks are attached.
    pub fn measure(
        &mut self,
        seconds: f64,
        setups: usize,
        spans: &mut Spans,
        mut sink_for: impl FnMut(u64) -> Option<SinkRef>,
    ) -> UnitLog {
        for _ in 0..WARM_UPS {
            let workload = self.workload.as_mut().expect("set up");
            let warm = workload.pass(&mut Spans::new(false), None);
            if let Some(why) = warm.first_failure() {
                // A broken warm-up is a broken run; the first unit will say so.
                eprintln!("perf: warm-up failed a gate: {why}");
            }
        }
        let origin = Instant::now();
        let now = || origin.elapsed().as_nanos() as u64;
        let budget_ns = (seconds * 1e9) as u64;
        let first_setups = self.setups.len();
        run_units(&now, budget_ns, |unit, elapsed_ns| {
            let due = first_setups + (elapsed_ns * setups as u64 / budget_ns) as usize;
            if self.setups.len() < due.min(first_setups + setups - 1) {
                self.set_up_again();
            }
            let ref_ix = uncounted(|| self.clock.sample());
            spans.set_op(unit);
            let sink = sink_for(unit);
            let workload = self.workload.as_mut().expect("set up");
            let (pass, _) = spans.span("unit", "", |spans| workload.pass(spans, sink.as_ref()));
            Unit { pass, ref_ix }
        })
    }
}

/// Run the benchmark once as the driver does.
pub fn main(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    if args.trace {
        return layers::traced_run(&args);
    }
    let mut session = Session::start(&args.workload, args.seed);
    let log = session.measure(args.seconds as f64, SETUPS, &mut Spans::new(false), |_| None);
    session.workload = None;

    let (alu, mem) = session.clock.medians();
    let raw_unit_ns = median_ns(&log.unit_ns);
    let unit_ns = log.calibrated_p50_ns(&session.clock);
    let rss = proc::peak_rss_mib().ok_or("no /proc/self/status: cannot read VmHWM")?;
    eprintln!(
        "perf: {} seed {}: {} units of {} ops and {} set-ups in {:.1} s (last pass ended {:.0} ms past --seconds {})",
        args.workload,
        args.seed,
        log.units(),
        log.ops_per_unit(),
        session.setups.len(),
        log.wall_ns as f64 / 1e9,
        log.late_ns as f64 / 1e6,
        args.seconds,
    );
    eprintln!(
        "perf: unit_ms p50 raw {:.3} calibrated {:.3} (p90 {:.3}) | setup_s raw {:.4} calibrated {:.4} | \
         cal_factor p50 {:.4} (ref_alu {:.3} ms, ref_mem {:.3} ms over {} pairs)",
        raw_unit_ns / 1e6,
        unit_ns / 1e6,
        percentile(&log.calibrated_ns(&session.clock), 90) / 1e6,
        session.raw_setup_s(),
        session.setup_s(),
        median(&log.factors(&session.clock)),
        alu / 1e6,
        mem / 1e6,
        session.clock.len(),
    );
    if log.units() < min_units(args.seconds) {
        return Err(format!(
            "only {} units in {} s; {} are needed",
            log.units(),
            args.seconds,
            min_units(args.seconds)
        ));
    }
    if let Some(why) = &log.first_failure {
        eprintln!("perf: a unit failed a gate: {why}");
    }

    let mut m = Metrics::end_to_end();
    m.set("setup_s", session.setup_s());
    m.set("ops_per_s", log.ops_per_unit() as f64 / (unit_ns / 1e9));
    m.set("unit_ms_p50", unit_ns / 1e6);
    m.set("peak_rss_mb", rss);
    println!("{}", header_line(&args.workload, args.seed, args.seconds, false));
    println!("{}", result_line(log.failed == 0, log.attempted, log.failed, &m));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_flags_in_any_order() {
        let a =
            parse_args(&args("--seed 7 --trace 1 --workload reach-analysis --seconds 30")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("reach-analysis", 7, 30, true)
        );
    }

    #[test]
    fn refuses_short_runs_and_bad_flags() {
        let err = |s: &str| parse_args(&args(s)).err().expect("must be refused");
        assert!(err("--workload reach-analysis --seed 1 --seconds 4 --trace 0").contains("under 5"));
        assert!(err("--workload nope --seed 1 --seconds 30 --trace 0").contains("unknown workload"));
        assert!(err("--workload reach-analysis --seed x --seconds 30 --trace 0")
            .contains("whole number"));
        assert!(err("--workload reach-analysis --seed 1 --seconds 30 --trace 2").contains("0 or 1"));
        assert!(
            err("--workload reach-analysis --seed 1 --seconds 30").contains("--trace is required")
        );
        assert!(err("--workload reach-analysis --seed 1 --seconds 30 --trace")
            .contains("needs a value"));
        assert!(err("--bogus 1").contains("unknown flag"));
    }

    #[test]
    fn set_ups_are_spread_over_the_run_and_each_is_calibrated() {
        let _switch = crate::alloc::switch_lock();
        let mut s = Session::start("reach-analysis", 1);
        assert_eq!(s.setups.len(), 1);
        let log = s.measure(1.0, 4, &mut Spans::new(false), |_| None);
        assert_eq!(s.setups.len(), 4, "one at the start, three at the quarter marks");
        assert!(log.units() >= 2);
        assert_eq!(log.failed, 0, "{:?}", log.first_failure);
        assert!(s.setups.iter().all(|x| x.ns > 0 && s.clock.factor(x.ref_ix) > 0.0));
        assert!(s.setup_s() > 0.0 && s.raw_setup_s() > 0.0);
    }
}
