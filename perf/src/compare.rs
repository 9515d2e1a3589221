//! `perf compare BASE.json[,..] CHANGE.json[,..]`: the rule a later PR's
//! claim is judged by (choosing-metrics §8, simplicity-review
//! "Benchmark workloads"). The i-th base run of a workload pairs with the
//! i-th change run of it.
//!
//! * **better** — the change wins at least nine tenths of the pairs (ties
//!   count for neither) *and* the medians differ by more than the
//!   parent's interquartile distance;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved** — either side's IQR/median exceeds the bound, unless
//!   every run of one side beats every run of the other;
//! * **same** — none of the above: no worse than the bound.

use crate::manifest::{E2eDef, END_TO_END, WORKLOADS};
use crate::results::{parse_runs, RunRecord};
use crate::stats::{iqr_share, py_median, py_quartiles};

/// Fewest pairs a gain may be claimed from.
const MIN_PAIRS: usize = 10;

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule.
    Better,
    /// A regression beyond the bound.
    Worse,
    /// No worse than the bound.
    Same,
    /// Too noisy (or too few pairs) to say.
    Unresolved,
}

/// Judge one metric from paired values (`base[i]` ran next to `change[i]`).
pub fn judge(metric: &E2eDef, base: &[f64], change: &[f64]) -> Verdict {
    let higher = metric.better == "higher";
    let beats = |a: f64, b: f64| if higher { a > b } else { a < b };
    let pairs = base.len().min(change.len());
    if pairs < 2 {
        return Verdict::Unresolved;
    }
    let (base, change) = (&base[..pairs], &change[..pairs]);
    let all_beat = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    let (mb, mc) = (py_median(base), py_median(change));
    let noisy = iqr_share(base).max(iqr_share(change)) > metric.bound;
    if noisy && !all_beat(change, base) && !all_beat(base, change) {
        return Verdict::Unresolved;
    }
    let wins = base.iter().zip(change).filter(|(&b, &c)| beats(c, b)).count();
    let (q1, q3) = py_quartiles(base);
    if wins * 10 >= pairs * 9 && beats(mc, mb) && (mc - mb).abs() > q3 - q1 {
        return if pairs >= MIN_PAIRS { Verdict::Better } else { Verdict::Unresolved };
    }
    let worsening = if higher { (mb - mc) / mb } else { (mc - mb) / mb };
    if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn read_side(list: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        runs.extend(parse_runs(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(runs)
}

/// One metric's values over a side's runs of one workload, in run order.
fn values(runs: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Print one row per workload × end-to-end metric. `Ok(false)` when some
/// row is worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err("compare takes two comma-separated lists of result files".to_string());
    };
    let (base, change) = (read_side(base)?, read_side(change)?);
    if let Some(bad) = base.iter().chain(&change).find(|r| !r.correct) {
        return Err(format!("{} seed {} reported incorrect output", bad.workload, bad.seed));
    }
    println!("| workload | metric | pairs | base median | change median | change | base IQR/median | change IQR/median | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (b, c) = (values(&base, w.name, m.name), values(&change, w.name, m.name));
            let pairs = b.len().min(c.len());
            if pairs == 0 {
                continue;
            }
            if pairs < 2 {
                println!(
                    "| {} | {} | {pairs} | | | | | | | unresolved (fewer than 2 pairs) |",
                    w.name, m.name
                );
                continue;
            }
            let verdict = judge(m, &b, &c);
            any_worse |= verdict == Verdict::Worse;
            let (mb, mc) = (py_median(&b[..pairs]), py_median(&c[..pairs]));
            println!(
                "| {} | {} | {pairs} | {mb:.4} | {mc:.4} | {:+.1}% | {:.1}% | {:.1}% | {:.0}% | {} |",
                w.name,
                m.name,
                (mc - mb) / mb * 100.0,
                iqr_share(&b[..pairs]) * 100.0,
                iqr_share(&c[..pairs]) * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Worse => "WORSE",
                    Verdict::Same => "same",
                    Verdict::Unresolved if pairs < MIN_PAIRS => "unresolved (fewer than 10 pairs)",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The rule, not the manifest's bounds, is under test: fix them at 8 %.
    const OPS: &E2eDef = &E2eDef { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.08 };
    const UNIT: &E2eDef = &E2eDef { name: "unit_ms_p50", unit: "ms", better: "lower", bound: 0.08 };

    fn around(center: f64) -> Vec<f64> {
        // Ten values within ±1 % of the center.
        (0..10).map(|i| center * (0.99 + 0.002 * f64::from(i))).collect()
    }

    #[test]
    fn a_clear_gain_is_better_in_either_direction() {
        assert_eq!(judge(OPS, &around(100.0), &around(120.0)), Verdict::Better);
        assert_eq!(judge(UNIT, &around(100.0), &around(80.0)), Verdict::Better);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse_and_within_it_is_same() {
        assert_eq!(judge(OPS, &around(100.0), &around(90.0)), Verdict::Worse);
        assert_eq!(judge(UNIT, &around(100.0), &around(110.0)), Verdict::Worse);
        assert_eq!(judge(OPS, &around(100.0), &around(97.0)), Verdict::Same);
        assert_eq!(judge(OPS, &around(100.0), &around(100.0)), Verdict::Same);
    }

    #[test]
    fn a_gain_smaller_than_the_parents_quartile_distance_is_not_claimed() {
        // Change wins every pair by 0.5 %, but the parent's own runs
        // spread over 2 %: same, not better.
        let base = around(100.0);
        let change: Vec<f64> = base.iter().map(|b| b * 1.005).collect();
        assert_eq!(judge(OPS, &base, &change), Verdict::Same);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_one_side_dominates() {
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + 5.0 * f64::from(i)).collect(); // 80..125
        assert_eq!(judge(OPS, &noisy, &around(100.0)), Verdict::Unresolved);
        assert_eq!(
            judge(OPS, &noisy, &around(200.0)),
            Verdict::Better,
            "every run beats every run"
        );
        assert_eq!(judge(OPS, &noisy, &around(50.0)), Verdict::Worse);
    }

    #[test]
    fn fewer_than_ten_pairs_claim_no_gain() {
        assert_eq!(judge(OPS, &around(100.0)[..5], &around(120.0)[..5]), Verdict::Unresolved);
        assert_eq!(judge(OPS, &around(100.0)[..5], &around(90.0)[..5]), Verdict::Worse);
        assert_eq!(judge(OPS, &[100.0], &[120.0]), Verdict::Unresolved);
    }
}
