//! Sample statistics and the two `/proc` readers.

/// Median of `values` (mean of the middle pair for even counts). Panics on
/// an empty slice: every caller holds at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Index of the median sample (the lower middle for even counts) — the rep
/// whose CPU time stands for the run.
pub fn median_index(values: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(values.len() - 1) / 2]
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, or the maximum when fewer than twenty
/// samples exist (no percentile then has ten on either side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually used, in percent (100 for the maximum).
    pub percentile: f64,
    pub n: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n < 20 {
        return Tail { value: sorted[n - 1], percentile: 100.0, n };
    }
    // Exactly ten samples rank above index n - 11.
    let index = n - 11;
    Tail { value: sorted[index], percentile: 100.0 * (index + 1) as f64 / n as f64, n }
}

/// User + system CPU seconds of this process from the text of
/// `/proc/self/stat`. The command name (field 2) may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_s(stat: &str, ticks_per_s: f64) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // After the command come state (3) … utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / ticks_per_s)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Linux reports process times in clock ticks of 1/100 s on every
/// architecture this repository builds for (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

/// CPU seconds this process has used so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_s(&stat, CLK_TCK).expect("/proc/self/stat has utime and stime")
}

/// Restart the kernel's peak-resident-set watermark from the current
/// resident set (`echo 5 > /proc/self/clear_refs`), so the next
/// [`process_peak_rss_mib`] reads the peak of one rep, not of every rep so
/// far. Where the kernel refuses, the watermark simply keeps rising and the
/// reps report the running peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last [`reset_peak_rss`], in
/// MiB.
pub fn process_peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_mib(&status).expect("/proc/self/status has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_maximum_below_twenty_samples() {
        for n in [6, 19] {
            let t = tail(&ramp(n));
            assert_eq!(t, Tail { value: n as f64, percentile: 100.0, n });
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // n = 20: the 10th value, p50. n = 1200: the 1190th, p99.17.
        let t = tail(&ramp(20));
        assert_eq!((t.value, t.n), (10.0, 20));
        assert!((t.percentile - 50.0).abs() < 1e-9);
        let t = tail(&ramp(1200));
        assert_eq!((t.value, t.n), (1190.0, 1200));
        assert!((t.percentile - 100.0 * 1190.0 / 1200.0).abs() < 1e-9);
        let beyond = ramp(1200).iter().filter(|v| **v > t.value).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled = ramp(40);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(40)));
    }

    #[test]
    fn median_and_its_index() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_index(&[3.0, 1.0, 2.0]), 2);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
    }

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        // utime = 250 ticks, stime = 50 ticks.
        let stat = "4242 (ac3 perf) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 2 0 \
                    12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat, 100.0), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage", 100.0), None);
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2", 100.0), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tac3-perf\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_return_sane_values() {
        assert!(process_cpu_s() >= 0.0);
        assert!(process_peak_rss_mib() > 0.0);
    }
}
