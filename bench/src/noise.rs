//! What the host did to the run: CPU steal, a fixed pure-CPU calibration
//! loop, page faults, peak memory. Nothing here corrects a measurement; it
//! only explains one, and marks the result `noisy` when the host was.

use std::time::Instant;

/// Steal above this share of the window, or calibration loops spread wider
/// than this, mark the run noisy.
pub const STEAL_LIMIT_PCT: f64 = 2.0;
pub const CALIB_LIMIT_PCT: f64 = 10.0;

/// (steal, total) jiffies over all CPUs; zeros where /proc is not Linux's.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so only the first eight add up.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name may hold spaces; fields are counted after its ")".
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed amount of register-only work (about 2 ms here), timed. Its spread
/// over a run is the host's, since the work never changes.
pub fn calibration_ns() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..1_500_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as f64
}

pub fn calib_spread_pct(samples: &[f64]) -> f64 {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    if samples.is_empty() || min <= 0.0 {
        0.0
    } else {
        100.0 * (max - min) / min
    }
}
