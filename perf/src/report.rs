//! The result line and the metric set behind it. A [`Metrics`] is bound to
//! one of the manifest's tables: it takes no name the table lacks and is
//! complete only when every name of the table has a value.

use nbc_obs::json;

use crate::manifest::{END_TO_END, PER_LAYER};

/// Values for one table of the manifest, in table order.
pub struct Metrics {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// The end-to-end set (`--trace 0`).
    pub fn end_to_end() -> Self {
        Self::over(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    /// The per-layer set (`--trace 1`).
    pub fn per_layer() -> Self {
        Self::over(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn over(table: Vec<(&'static str, &'static str)>) -> Self {
        let values = vec![None; table.len()];
        Self { table, values }
    }

    /// Set a metric.
    ///
    /// # Panics
    /// Panics on a name the table lacks or a value that is not finite:
    /// both are bugs in the benchmark, not conditions of the run.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the manifest"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values[i] = Some(value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.table.iter().position(|(n, _)| *n == name).and_then(|i| self.values[i])
    }

    /// Names of the table that have no value yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table.iter().zip(&self.values).filter(|(_, v)| v.is_none()).map(|(t, _)| t.0).collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    fn to_json(&self) -> String {
        let mut obj = json::Obj::new();
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            if let Some(v) = value {
                obj = obj.raw(name, &json::Obj::new().float("value", *v).str("unit", unit).build());
            }
        }
        obj.build()
    }
}

/// The one JSON object a run prints as its last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    json::Obj::new()
        .bool("correct", correct)
        .num("attempted", attempted)
        .num("failed", failed)
        .raw("metrics", &metrics.to_json())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let mut m = Metrics::end_to_end();
        assert_eq!(m.missing().len(), 4);
        m.set("setup_s", 0.081_234_567_891);
        m.set("ops_per_s", 38_123.456_789_012);
        m.set("unit_ms_p50", 104.9);
        m.set("peak_rss_mb", 21.5);
        assert!(m.missing().is_empty());
        assert_eq!(m.get("unit_ms_p50"), Some(104.9));
        let line = result_line(true, 4000, 0, &m);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":4000,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.081234567891,\"unit\":\"s\"},\
             \"ops_per_s\":{\"value\":38123.456789012,\"unit\":\"1/s\"},\
             \"unit_ms_p50\":{\"value\":104.9,\"unit\":\"ms\"},\
             \"peak_rss_mb\":{\"value\":21.5,\"unit\":\"MiB\"}}}"
        );
        assert!(json::parse(&line).is_ok());
    }

    #[test]
    #[should_panic(expected = "not in the manifest")]
    fn a_name_outside_the_manifest_is_refused() {
        Metrics::per_layer().set("engine.made_up_ns", 1.0);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn a_nan_is_refused() {
        Metrics::end_to_end().set("setup_s", f64::NAN);
    }
}
