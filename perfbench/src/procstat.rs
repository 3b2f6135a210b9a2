//! Process accounting from `/proc`: CPU time, context switches and peak
//! resident memory of the load process and the serving process.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// One reading of a process's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU time of every thread, in microseconds.
    pub cpu_us: f64,
    /// Voluntary plus involuntary context switches, summed over the
    /// threads alive at the reading.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`), in kB.
    pub hwm_kb: u64,
}

impl ProcSample {
    /// Counter growth from `earlier` to `self`; the peak is kept as read.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            hwm_kb: self.hwm_kb,
        }
    }
}

/// CPU microseconds from the text of `/proc/<pid>/stat`: fields 14 and 15
/// (`utime`, `stime`), counted after the parenthesised command name, which
/// may itself hold spaces and parentheses.
pub fn parse_stat_cpu_us(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n is at index n - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 1e6 / USER_HZ)
}

/// The value of a `Key:   123 kB`-style line of a `status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches from one `status` file.
pub fn parse_status_ctx_switches(status: &str) -> u64 {
    parse_status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Reads the counters of process `pid`; `None` when it is gone.
pub fn sample(pid: u32) -> Option<ProcSample> {
    let cpu_us = parse_stat_cpu_us(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let hwm_kb = parse_status_field(&status, "VmHWM")?;
    let mut ctx_switches = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        // A thread may exit between listing and reading; it just stops
        // counting.
        if let Ok(s) = fs::read_to_string(task.path().join("status")) {
            ctx_switches += parse_status_ctx_switches(&s);
        }
    }
    Some(ProcSample {
        cpu_us,
        ctx_switches,
        hwm_kb,
    })
}

/// Counters of this process.
pub fn sample_self() -> ProcSample {
    sample(std::process::id()).expect("/proc/<own pid> is readable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_skips_tricky_command_names() {
        let stat = "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194304 80 0 0 0 \
                    250 150 3 4 20 0 7 0 215125 2703360 287";
        assert_eq!(parse_stat_cpu_us(stat), Some(4_000_000.0));
        assert_eq!(parse_stat_cpu_us("12 (x) R 1"), None);
        assert_eq!(parse_stat_cpu_us("no parens at all"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tperfbench\nVmHWM:\t    1636 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(1636));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert_eq!(parse_status_ctx_switches(status), 15);
        assert_eq!(parse_status_ctx_switches("Name:\tx\n"), 0);
    }

    #[test]
    fn reads_this_process() {
        let a = sample_self();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = sample_self();
        assert!(b.hwm_kb > 0);
        assert!(b.cpu_us >= a.cpu_us);
        assert!(b.since(&a).cpu_us >= 0.0);
        assert!(sample(u32::MAX).is_none());
    }
}
