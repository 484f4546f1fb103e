//! On-CPU time and peak resident memory of the calling process, from
//! `/proc`. Both return `None` where the file is absent (non-Linux, or a
//! kernel without scheduler statistics); the result then carries `null` for
//! the metric and a note, and the run is reported as not correct rather
//! than with an invented number.

/// First field of `/proc/<pid>/schedstat`: nanoseconds spent on a CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set, kB) from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let rest = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// On-CPU nanoseconds of this (single-threaded) process so far.
pub fn cpu_ns() -> Option<u64> {
    parse_schedstat(&std::fs::read_to_string("/proc/self/schedstat").ok()?)
}

/// Peak resident set of this process so far, in kB.
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field() {
        assert_eq!(
            parse_schedstat("1903245718 42936 17\n"),
            Some(1_903_245_718)
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("abc 1 2"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status =
            "Name:\tppbench\nVmPeak:\t  300000 kB\nVmHWM:\t  286432 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(286_432));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn absent_file_is_none_not_a_panic() {
        // The readers go through the same `.ok()?` as this path.
        let missing = std::fs::read_to_string("/proc/self/no-such-file").ok();
        assert_eq!(missing.as_deref().and_then(parse_schedstat), None);
    }

    #[test]
    fn live_values_when_proc_exists() {
        if std::path::Path::new("/proc/self/schedstat").exists() {
            assert!(cpu_ns().is_some());
        }
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
        }
    }
}
