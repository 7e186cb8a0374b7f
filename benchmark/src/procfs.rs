//! What the kernel says the daemon process cost: CPU time and thread count
//! from `/proc/<pid>/stat`, resident memory from `/proc/<pid>/status`.

/// Clock ticks per second of the `utime`/`stime` fields. `USER_HZ` is 100
/// on every Linux ABI the repo builds for; there is no libc crate to ask
/// `sysconf(_SC_CLK_TCK)` with.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// User-mode CPU seconds so far, all threads (exited ones included).
    pub user_s: f64,
    /// Kernel-mode CPU seconds so far.
    pub sys_s: f64,
    /// Threads alive now.
    pub threads: u64,
    /// Page faults served without disk I/O so far.
    pub minor_faults: u64,
}

/// Parses the contents of a `stat` file. The command name sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuSample> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); minflt, utime, stime and
    // num_threads are fields 10, 14, 15 and 20.
    let fields: Vec<&str> = after.split_ascii_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuSample {
        user_s: field(14)? as f64 / TICKS_PER_SEC,
        sys_s: field(15)? as f64 / TICKS_PER_SEC,
        threads: field(20)?,
        minor_faults: field(10)?,
    })
}

/// One reading of `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSample {
    /// Resident set now (`VmRSS`), MiB.
    pub rss_mib: f64,
    /// Peak resident set so far (`VmHWM`), MiB.
    pub peak_mib: f64,
}

/// Parses the resident-set lines (kB) out of a `status` file.
pub fn parse_status(status: &str) -> Option<MemSample> {
    let mib = |key: &str| {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    Some(MemSample {
        rss_mib: mib("VmRSS:")?,
        peak_mib: mib("VmHWM:")?,
    })
}

/// Reads the CPU sample of process `pid`.
pub fn cpu(pid: u32) -> Result<CpuSample, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat(&stat).ok_or_else(|| format!("{path}: unexpected format"))
}

/// Reads the memory sample of process `pid`.
pub fn memory(pid: u32) -> Result<MemSample, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status(&status).ok_or_else(|| format!("{path}: no VmRSS/VmHWM lines"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parses_past_a_command_name_with_a_space_and_a_paren() {
        let stat = "4242 (net scatterd) x) S 1 4242 4242 0 -1 4194304 901 0 0 0 \
                    1234 567 0 0 20 0 5 0 88213 250000000 3100 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let s = parse_stat(stat).expect("parses");
        assert_eq!(s.user_s, 12.34);
        assert_eq!(s.sys_s, 5.67);
        assert_eq!(s.threads, 5);
        assert_eq!(s.minor_faults, 901);
        assert_eq!(parse_stat("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn resident_set_is_reported_in_mib() {
        let status =
            "Name:\tnetscatterd\nVmPeak:\t  300000 kB\nVmHWM:\t   43008 kB\nVmRSS:\t 2048 kB\n";
        assert_eq!(
            parse_status(status),
            Some(MemSample {
                rss_mib: 2.0,
                peak_mib: 42.0
            })
        );
        assert_eq!(parse_status("Name:\tx\nVmHWM:\t 1 kB\n"), None);
    }
}
