//! What the kernel knows about this process: peak resident set and CPU
//! time, read from `/proc/self`.

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Nanoseconds this process — every thread of it; `run_check` explores on
/// a worker thread even at `threads: 1` — has spent on a CPU: `utime` +
/// `stime` of `/proc/self/stat`. `None` where the file is missing.
pub fn cpu_ns() -> Option<u64> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?).map(|t| t * NS_PER_TICK)
}

/// `USER_HZ` is 100 on every Linux the kernel's ABI promises (and asking
/// `sysconf` would take a libc binding this package does not have).
const NS_PER_TICK: u64 = 10_000_000;

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses: split
    // after its closing one. `utime` and `stime` are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperf\nVmPeak:\t  100 kB\nVmHWM:\t   21504 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(21504));
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_an_awkward_command_name() {
        let stat = "4242 (perf) x (y) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 2 0";
        assert_eq!(parse_cpu_ticks(stat), Some(150));
        assert_eq!(parse_cpu_ticks("4242 (perf) S 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        // The sandbox is Linux; elsewhere both are None and the runner
        // refuses to report a made-up number.
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.5);
        }
        if let (Some(a), Some(b)) = (cpu_ns(), cpu_ns()) {
            assert!(b >= a);
        }
    }
}
