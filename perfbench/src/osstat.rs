//! Per-thread OS counters of the in-process server, read from
//! `/proc/self/task/*/{comm,stat,status}` with the standard library only.

use std::collections::BTreeMap;
use std::fs;

/// CPU time and voluntary context switches of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// utime + stime, in clock ticks.
    pub cpu_ticks: u64,
    pub voluntary_switches: u64,
}

/// Counters of every live thread whose name starts with `prefix`, by tid.
pub fn sample(prefix: &str) -> BTreeMap<u64, TaskCounters> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        let stat = fs::read_to_string(path.join("stat")).unwrap_or_default();
        let status = fs::read_to_string(path.join("status")).unwrap_or_default();
        if let (Some(cpu_ticks), Some(voluntary_switches)) =
            (cpu_ticks(&stat), voluntary_switches(&status))
        {
            out.insert(tid, TaskCounters { cpu_ticks, voluntary_switches });
        }
    }
    out
}

/// utime + stime from a `stat` line. The thread name in field 2 may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

pub fn voluntary_switches(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Summed growth from `before` to `after`; a thread born in between
/// counts from zero.
pub fn delta(
    before: &BTreeMap<u64, TaskCounters>,
    after: &BTreeMap<u64, TaskCounters>,
) -> TaskCounters {
    let mut d = TaskCounters::default();
    for (tid, a) in after {
        let b = before.get(tid).copied().unwrap_or_default();
        d.cpu_ticks += a.cpu_ticks.saturating_sub(b.cpu_ticks);
        d.voluntary_switches += a.voluntary_switches.saturating_sub(b.voluntary_switches);
    }
    d
}

/// Clock ticks per second (`AT_CLKTCK` from the aux vector; 100 if absent).
pub fn ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = fs::read("/proc/self/auxv") else { return 100 };
    auxv.chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&c[..8]), word(&c[8..]))
        })
        .find(|&(k, _)| k == AT_CLKTCK)
        .map_or(100, |(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_name() {
        let stat = "4242 (kv (conn) x) S 1 2 3 4 5 6 7 8 9 10 170 30 0 0 20 0 1 0";
        assert_eq!(cpu_ticks(stat), Some(200));
        assert_eq!(cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_status() {
        let status = "Name:\tkv-worker-0\nvoluntary_ctxt_switches:\t1234\n\
                      nonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(voluntary_switches(status), Some(1234));
    }

    #[test]
    fn delta_counts_new_threads_from_zero() {
        let c = |cpu, sw| TaskCounters { cpu_ticks: cpu, voluntary_switches: sw };
        let before = BTreeMap::from([(1, c(10, 100))]);
        let after = BTreeMap::from([(1, c(15, 160)), (2, c(3, 7))]);
        assert_eq!(delta(&before, &after), c(8, 67));
    }

    #[test]
    fn reads_own_threads() {
        let name = std::thread::current().name().unwrap_or("").to_string();
        let prefix: String = name.chars().take(15).collect();
        // The test thread's counters are readable when /proc is mounted.
        if std::path::Path::new("/proc/self/task").exists() && !prefix.is_empty() {
            assert!(!sample(&prefix).is_empty());
        }
        assert!(ticks_per_second() > 0);
    }
}
