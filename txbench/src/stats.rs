//! Percentiles from exact samples, and the process CPU clock.

/// Nearest-rank percentile (`q` in 0..=1) of sorted samples. A failed
/// arrival is a sample of `f64::INFINITY`, so failures push the upper
/// percentiles out instead of vanishing from them. Empty input gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts samples for [`percentile`]; infinities sort last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Linux reports per-process CPU in `/proc` in units of `USER_HZ`,
/// which is 100 on every Linux architecture.
const USER_HZ: u64 = 100;

/// User + system CPU time in microseconds from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_proc_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name come state (field 3), ..., utime (14)
    // and stime (15).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / USER_HZ)
}

/// CPU time this process has used so far, all threads, in µs.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_proc_stat_cpu_us(&stat).expect("parse /proc/self/stat")
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs wanted to run, out of all CPU time.
pub fn parse_proc_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user and nice.
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// Cumulative `(steal, total)` jiffies of the machine; zeros where
/// `/proc/stat` is unreadable.
pub fn machine_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat_steal(&s))
        .unwrap_or((0, 0))
}

/// Summarises a figure taken per quiet window: its lower quartile
/// over the windows. Host contention that the steal share misses (a
/// busy disk, a busy neighbour on the same core) slows whole stretches
/// of a run; the lower quartile keeps the run's figure on its calmer
/// stretches without resting on one window.
pub fn over_windows(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.25)
}

/// The steal share, in percent, between two [`machine_steal`] readings.
pub fn steal_pct(from: (u64, u64), to: (u64, u64)) -> f64 {
    to.0.saturating_sub(from.0) as f64 * 100.0 / to.1.saturating_sub(from.1).max(1) as f64
}

/// A window whose steal share is at most this is quiet whatever the
/// other windows show.
pub const QUIET_STEAL_PCT: f64 = 2.0;

/// Which windows to take figures over: those whose steal share is at
/// most the larger of [`QUIET_STEAL_PCT`] and the median window's. A
/// quiet run keeps every window; a run the host contended in bursts
/// keeps its quieter half, whose figures then reflect the program
/// rather than the neighbours.
pub fn quiet_windows(steal_pct: &[f64]) -> Vec<bool> {
    let limit = median(steal_pct.to_vec()).max(QUIET_STEAL_PCT);
    steal_pct.iter().map(|&s| s <= limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_keep_all_or_the_quieter_half() {
        assert_eq!(quiet_windows(&[0.0, 1.5, 2.0, 0.5]), [true; 4]);
        assert_eq!(
            quiet_windows(&[1.0, 20.0, 9.0, 3.0, 15.0]),
            [true, false, true, true, false]
        );
        assert_eq!(quiet_windows(&[30.0]), [true]);
        assert_eq!(steal_pct((10, 1000), (30, 2000)), 2.0);
        assert_eq!(
            over_windows(vec![9.0, 1.0, 7.0, 3.0, 5.0, 8.0, 2.0, 4.0]),
            2.0
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted((1..=10).map(f64::from).rev().collect());
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 8 successes and 2 failures: p50 is a real sample, p90 is
        // already past every success.
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.push(f64::INFINITY);
        v.insert(0, f64::INFINITY);
        let v = sorted(v);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.8), 8.0);
        assert!(percentile(&v, 0.9).is_infinite());
    }

    #[test]
    fn proc_stat_cpu_parse() {
        // A command name with spaces and a parenthesis must not shift
        // the fields; utime = 250 ticks, stime = 50 ticks.
        let stat = "4242 (tx (bench) 1) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    250 50 0 0 20 0 9 0 100 12345678 900 18446744073709551615";
        assert_eq!(parse_proc_stat_cpu_us(stat), Some(3_000_000));
        assert_eq!(parse_proc_stat_cpu_us("4242 (x) S 1"), None);
        assert_eq!(parse_proc_stat_cpu_us("no parens"), None);
    }

    #[test]
    fn proc_stat_steal_parse() {
        let stat = "cpu  100 0 50 800 20 0 10 20 5 0\ncpu0 50 0 25 400 10 0 5 10 0 0\n";
        assert_eq!(parse_proc_stat_steal(stat), Some((20, 1000)));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn own_process_cpu_is_readable() {
        let a = process_cpu_us();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_us() >= a);
    }
}
