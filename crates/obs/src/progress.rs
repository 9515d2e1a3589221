//! Wall-clock rate estimation for stderr progress reporting.
//!
//! Progress hooks across the workspace (`nbc analyze --progress`, `nbc
//! check --progress`) print one stderr line per reporting interval and
//! want an events/second figure for it. The estimate is intrinsically
//! wall-clock — the one place the observability layer touches a real
//! clock — which is why it lives behind this explicit, stderr-only
//! helper: simulation results and exported traces must never depend on
//! it, and every consumer keeps it out of stdout.

use std::time::Instant;

/// Events-per-second estimator over successive reporting ticks.
///
/// `Copy`, so a hook with no state of its own can park one in a
/// thread-local `Cell`:
///
/// ```
/// use std::cell::Cell;
/// use nbc_obs::progress::Rate;
///
/// thread_local! {
///     static RATE: Cell<Rate> = const { Cell::new(Rate::new()) };
/// }
/// let rate = RATE.with(|c| {
///     let mut r = c.get();
///     let rate = r.tick(4096);
///     c.set(r);
///     rate
/// });
/// assert!(rate.is_none()); // first tick has no interval yet
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    last: Option<Instant>,
}

impl Rate {
    /// A fresh estimator; the first [`tick`](Rate::tick) establishes the
    /// baseline and yields `None`.
    pub const fn new() -> Self {
        Self { last: None }
    }

    /// Record that `events` events completed since the previous tick and
    /// return their rate per second. `None` on the first tick and
    /// whenever the clock did not advance measurably.
    pub fn tick(&mut self, events: u64) -> Option<f64> {
        let now = Instant::now();
        let prev = self.last.replace(now);
        let dt = now.duration_since(prev?).as_secs_f64();
        (dt > 0.0).then(|| events as f64 / dt)
    }
}

/// Render external-memory spill statistics as one stderr line:
/// `"<subject> spill: 3 runs, 1.5 MiB written, 1 merge pass"`. Shared by
/// every explorer front-end so budgeted runs report their disk activity
/// uniformly — and *only* on stderr, never inside a deterministic report.
pub fn spill_line(subject: &str, runs: u64, bytes: u64, merge_passes: u64) -> String {
    let mib = bytes as f64 / (1024.0 * 1024.0);
    format!(
        "{subject} spill: {runs} run{}, {mib:.1} MiB written, {merge_passes} merge pass{}",
        if runs == 1 { "" } else { "s" },
        if merge_passes == 1 { "" } else { "es" },
    )
}

/// Extract the peak-RSS value in bytes from the text of a Linux
/// `/proc/<pid>/status` file (`VmHWM:  1234 kB`). Pure parse — works on
/// every platform, so the non-Linux builds still compile and test it.
/// `None` when the line is missing or malformed.
pub(crate) fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), for benchmark envelopes. `None` when the
/// platform does not expose it (non-Linux, or `/proc` unreadable).
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_line_pluralizes() {
        assert_eq!(
            spill_line("check", 1, 1024 * 1024, 1),
            "check spill: 1 run, 1.0 MiB written, 1 merge pass"
        );
        assert_eq!(
            spill_line("reach", 3, 3 * 1024 * 1024 / 2, 0),
            "reach spill: 3 runs, 1.5 MiB written, 0 merge passes"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("VmHWM present on linux");
        assert!(rss > 0);
    }

    #[test]
    fn vm_hwm_parse_accepts_proc_format() {
        let status = "Name:\tnbc\nVmPeak:\t  999 kB\nVmHWM:\t   5124 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(5124 * 1024));
    }

    #[test]
    fn vm_hwm_parse_falls_back_to_none() {
        assert_eq!(parse_vm_hwm(""), None);
        assert_eq!(parse_vm_hwm("Name:\tnbc\nVmPeak:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
    }
}
