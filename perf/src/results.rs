//! A run's standard output, written and read back: a header line naming
//! the run, then the result line. `perf aa` and `perf compare` read what
//! the runner writes through this one module.

use std::collections::BTreeMap;

use nbc_obs::json::{self, Value};

/// One run, as read back from its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Did every unit pass its gates?
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The header line the runner prints before the result line (the driver
/// reads only the last line; tools need to know which run it was).
pub fn header_line(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    json::Obj::new()
        .str("workload", workload)
        .num("seed", seed)
        .num("seconds", seconds)
        .num("trace", u64::from(trace))
        .build()
}

/// Read every run out of `text`: each header line is paired with the next
/// result line. Lines that are neither are ignored.
pub fn parse_runs(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut runs = Vec::new();
    let mut header: Option<(String, u64)> = None;
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let v = json::parse(line).map_err(|e| format!("bad JSON line: {e}"))?;
        if let Some(w) = v.get("workload").and_then(Value::as_str) {
            let seed = v.get("seed").and_then(Value::as_u64).ok_or("header without a seed")?;
            header = Some((w.to_string(), seed));
        } else if let Some(Value::Obj(fields)) = v.get("metrics") {
            let (workload, seed) = header.take().ok_or("a result line without its header line")?;
            let mut metrics = BTreeMap::new();
            for (name, m) in fields {
                let value = match m.get("value") {
                    Some(Value::Num(text)) => text.parse::<f64>().ok(),
                    _ => None,
                };
                metrics.insert(
                    name.clone(),
                    value.ok_or_else(|| format!("{name}: no numeric value"))?,
                );
            }
            let correct =
                v.get("correct").and_then(Value::as_bool).ok_or("result without `correct`")?;
            runs.push(RunRecord { workload, seed, correct, metrics });
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, Metrics};

    #[test]
    fn what_the_runner_writes_reads_back() {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", 0.125);
        m.set("ops_per_s", 38_000.5);
        m.set("unit_ms_p50", 105.25);
        m.set("peak_rss_mb", 15.5);
        let text = format!(
            "perf: a stderr line that got mixed in\n{}\n{}\n",
            header_line("pipeline-steady", 3, 30, false),
            result_line(true, 4000, 0, &m)
        );
        let runs = parse_runs(&text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            (runs[0].workload.as_str(), runs[0].seed, runs[0].correct),
            ("pipeline-steady", 3, true)
        );
        assert_eq!(runs[0].metrics["ops_per_s"], 38_000.5);
        assert_eq!(runs[0].metrics.len(), 4);
        // Two runs in one file read back as two.
        assert_eq!(parse_runs(&format!("{text}{text}")).unwrap().len(), 2);
    }

    #[test]
    fn a_result_without_a_header_is_an_error() {
        let m = Metrics::end_to_end();
        let err = parse_runs(&result_line(true, 1, 0, &m)).unwrap_err();
        assert!(err.contains("without its header"), "{err}");
    }
}
