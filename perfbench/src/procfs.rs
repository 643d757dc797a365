//! Process and kernel counters read around a run (Linux `/proc`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time consumed by this process so far, from
/// `/proc/self/stat` (the same counters `getrusage(RUSAGE_SELF)`
/// reports, at clock-tick resolution).
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, `state` is field 0; utime and stime are fields
    // 11 and 12, in clock ticks (USER_HZ, 100 on Linux).
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 10))
}

/// The kernel's `TcpExt: ListenOverflows` counter: connection
/// handshakes dropped because a listen backlog was full. Any increase
/// during a run means some client silently waited out SYN retransmits.
pub fn listen_overflows() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/netstat").ok()?;
    let mut lines = text.lines();
    while let Some(header) = lines.next() {
        let values = lines.next()?;
        if !header.starts_with("TcpExt:") {
            continue;
        }
        let col = header
            .split_whitespace()
            .position(|h| h == "ListenOverflows")?;
        return values.split_whitespace().nth(col)?.parse().ok();
    }
    None
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative `(steal, total)` clock ticks over all CPUs, from the
/// `cpu` line of `/proc/stat`. Steal is time the hypervisor ran
/// something else while the virtual CPUs wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Samples [`cpu_ticks`] once per second of a timed phase on a
/// background thread, so the phase can be split into one-second
/// sub-windows with their steal shares (see
/// [`crate::stats::quiet_half`]).
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(u64, u64)>>,
}

impl StealSampler {
    /// Start sampling at `start` (which may lie a little in the future).
    pub fn start(start: Instant) -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-steal".into())
            .spawn(move || {
                let mut samples = Vec::new();
                let mut next = start;
                while !flag.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now >= next {
                        samples.push(cpu_ticks().unwrap_or_default());
                        next += Duration::from_secs(1);
                    } else {
                        // Wake rarely: this thread shares the CPUs
                        // with the stack under test.
                        std::thread::sleep((next - now).min(Duration::from_millis(100)));
                    }
                }
                samples
            })
            .expect("spawn steal sampler");
        StealSampler { stop, handle }
    }

    /// Stop, take a final sample closing the last (partial) sub-window,
    /// and return every sample.
    pub fn finish(self) -> Vec<(u64, u64)> {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.handle.join().expect("steal sampler thread");
        samples.push(cpu_ticks().unwrap_or_default());
        samples
    }
}
