//! Process and host readings: CPU time and peak RSS of this process,
//! host-wide steal and load from `/proc`, and the build's git revision.
//!
//! Wall-clock rates on a shared 2-core host move with hypervisor steal,
//! so every run records the steal share it ran under next to its
//! metrics; a run taken under heavy steal can then be recognised.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User+system CPU seconds this process has used so far, all threads
/// included (live and joined), at nanosecond resolution: `/proc`'s 10 ms
/// ticks are too coarse for the sub-second rounds this is read around.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // one the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host-wide CPU jiffies from the aggregate `cpu` line of `/proc/stat`:
/// `(steal, total)`.
fn host_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user/nice.
    let total: u64 = vals.iter().take(8).sum();
    (vals.get(7).copied().unwrap_or(0), total)
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> [f64; 3] {
    let s = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [0.0; 3];
    for (slot, v) in out.iter_mut().zip(s.split_whitespace()) {
        *slot = v.parse().unwrap_or(0.0);
    }
    out
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Readings taken when the run starts, closed by [`HostNoise::finish`].
pub struct HostNoise {
    started: Instant,
    jiffies: (u64, u64),
}

impl HostNoise {
    /// Starts measuring host noise over the run.
    pub fn start() -> HostNoise {
        HostNoise {
            started: Instant::now(),
            jiffies: host_jiffies(),
        }
    }

    /// Time since the run started (the process-start reference for
    /// `setup_s`).
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The host steal share over the run in percent, and one JSON object
    /// describing the host during the run: that share, the load averages,
    /// `nproc` and the git revision the benchmark was built from
    /// (`unknown` outside a git checkout).
    pub fn finish(&self) -> (f64, String) {
        let (steal1, total1) = host_jiffies();
        let (steal0, total0) = self.jiffies;
        let total = total1.saturating_sub(total0);
        let steal_pct = if total == 0 {
            0.0
        } else {
            100.0 * steal1.saturating_sub(steal0) as f64 / total as f64
        };
        let [l1, l5, l15] = loadavg();
        let json = format!(
            "{{\"steal_pct\": {steal_pct:.3}, \"loadavg\": [{l1}, {l5}, {l15}], \"nproc\": {}, \
             \"git_rev\": \"{}\", \"wall_s\": {:.3}}}",
            nproc(),
            mbssl_telemetry::git_rev().unwrap_or("unknown"),
            self.elapsed_s()
        );
        (steal_pct, json)
    }
}
