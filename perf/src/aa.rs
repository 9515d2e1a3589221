//! `perf aa`: run the same build as several interleaved sets and ask the
//! question the driver asks — do two sets of runs of the same code agree,
//! and does each set repeat?

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::manifest::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::results::parse_runs;
use crate::stats::{iqr_share, py_median, range_share};

/// Largest run-to-run range/median an end-to-end metric may show.
pub const MAX_RANGE_SHARE: f64 = 0.10;

struct AaArgs {
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<AaArgs, String> {
    let mut a = AaArgs { sets: 2, runs: 5 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let n: u64 =
            value.parse().map_err(|_| format!("{flag} {value:?} is not a whole number"))?;
        match flag.as_str() {
            "--sets" if n >= 2 => a.sets = n as usize,
            "--runs" if n >= 2 => a.runs = n as usize,
            "--sets" | "--runs" => return Err(format!("{flag} needs at least 2")),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// One workload × metric row of the table.
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The metric's bound.
    pub bound: f64,
    /// Per set: the values of its runs.
    pub sets: Vec<Vec<f64>>,
}

impl Row {
    /// How much worse the worst set's median is than the best set's, as a
    /// share of the best.
    pub fn median_gap(&self) -> f64 {
        let medians: Vec<f64> = self.sets.iter().map(|s| py_median(s)).collect();
        let lo = medians.iter().cloned().fold(f64::MAX, f64::min);
        let hi = medians.iter().cloned().fold(f64::MIN, f64::max);
        (hi - lo) / lo
    }

    /// The widest range/median over the sets.
    pub fn worst_range(&self) -> f64 {
        self.sets.iter().map(|s| range_share(s)).fold(0.0, f64::max)
    }

    /// Does the row meet the benchmark's own claim?
    pub fn ok(&self) -> bool {
        self.median_gap() <= self.bound && self.worst_range() <= MAX_RANGE_SHARE
    }
}

/// The table, as GitHub-flavoured markdown.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | medians per set | gap | range/median per set | IQR/median per set | bound | ok |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let join = |f: &dyn Fn(&[f64]) -> String| {
            r.sets.iter().map(|s| f(s)).collect::<Vec<_>>().join(" / ")
        };
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {} | {} | {:.0}% | {} |\n",
            r.workload,
            r.metric,
            join(&|s| format!("{:.4}", py_median(s))),
            r.median_gap() * 100.0,
            join(&|s| format!("{:.1}%", range_share(s) * 100.0)),
            join(&|s| format!("{:.1}%", iqr_share(s) * 100.0)),
            r.bound * 100.0,
            if r.ok() { "yes" } else { "NO" },
        ));
    }
    out
}

/// Run the sets and print the table. `Ok(false)` when a row fails.
pub fn main(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    // Interleaved: run r of every set before run r+1 of any, so slow
    // drift of the machine lands on all sets alike.
    for run in 0..a.runs {
        for set in 0..a.sets {
            for w in WORKLOADS {
                // Another seed per run, the same seeds in every set.
                let seed = run as u64 + 1;
                // The run's own log (units, raw medians, kernel times) goes
                // straight to this process's standard error.
                let out = Command::new(&exe)
                    .args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start a run: {e}"))?;
                if !out.status.success() {
                    return Err(format!("{} seed {seed} failed", w.name));
                }
                let runs = parse_runs(&String::from_utf8_lossy(&out.stdout))?;
                let record = runs.last().ok_or("a run printed no result")?;
                if !record.correct {
                    return Err(format!("{} seed {seed} reported incorrect output", w.name));
                }
                eprintln!("perf aa: run {} set {} {} done", run + 1, set + 1, w.name);
                for m in END_TO_END {
                    let sets =
                        values.entry((w.name, m.name)).or_insert_with(|| vec![Vec::new(); a.sets]);
                    sets[set].push(record.metrics[m.name]);
                }
            }
        }
    }
    let rows: Vec<Row> = WORKLOADS
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| (w, m)))
        .map(|(w, m)| Row {
            workload: w.name,
            metric: m.name,
            bound: m.bound,
            sets: values.remove(&(w.name, m.name)).unwrap_or_default(),
        })
        .collect();
    println!(
        "{} sets of {} runs of {RUN_SECONDS} s, interleaved, seeds 1..{}:\n",
        a.sets, a.runs, a.runs
    );
    print!("{}", render(&rows));
    Ok(rows.iter().all(Row::ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(sets: Vec<Vec<f64>>) -> Row {
        Row { workload: "w", metric: "ops_per_s", bound: 0.08, sets }
    }

    #[test]
    fn a_row_passes_when_sets_agree_and_repeat() {
        let r = row(vec![vec![100.0, 101.0, 102.0], vec![101.0, 103.0, 104.0]]);
        assert!((r.median_gap() - 0.0198).abs() < 1e-3);
        assert!(r.worst_range() < 0.03);
        assert!(r.ok());
        let text = render(&[r]);
        assert!(text.contains("| w | ops_per_s | 101.0000 / 103.0000 | 2.0% |"), "{text}");
        assert!(text.contains("| 8% | yes |"), "{text}");
    }

    #[test]
    fn a_row_fails_on_a_median_gap_or_a_wide_range() {
        assert!(
            !row(vec![vec![100.0, 100.0, 100.0], vec![110.0, 110.0, 110.0]]).ok(),
            "gap 10 % > 8 %"
        );
        assert!(!row(vec![vec![95.0, 100.0, 106.0], vec![100.0, 100.0, 100.0]]).ok(), "range 11 %");
    }

    #[test]
    fn flags_parse_and_reject_nonsense() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--sets 3 --runs 4")).unwrap();
        assert_eq!((a.sets, a.runs), (3, 4));
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.sets, d.runs), (2, 5));
        assert!(parse_args(&args("--seconds 10")).is_err(), "runs are always RUN_SECONDS long");
        assert!(parse_args(&args("--sets 1")).is_err());
        assert!(parse_args(&args("--runs x")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
    }
}
