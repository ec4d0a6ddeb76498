//! Host description and process accounting read from `/proc`.
//!
//! The host block printed with every run lets numbers from different
//! machines be read side by side: the revision measured, the CPU, the
//! number of CPUs, and how much parallel capacity those CPUs really offer.

use std::fs;
use std::path::Path;
use std::time::Instant;

use crate::rng::Fnv;

/// Facts about the machine a run was measured on.
#[derive(Clone, Debug)]
pub struct HostInfo {
    /// Revision of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Serial time / parallel time of two identical CPU-bound jobs: 2.0 on
    /// two free cores, 1.0 when the "cores" share one.
    pub parallel_capacity: f64,
    /// Seconds one probe job took on its own: how fast a core was when the
    /// run started.
    pub job_s: f64,
}

impl HostInfo {
    /// Probes the host (takes a few hundred milliseconds for the capacity
    /// probe).
    pub fn probe(root: &Path) -> HostInfo {
        let probe = parallel_capacity();
        HostInfo {
            git_rev: git_rev(root),
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            parallel_capacity: probe.parallel_capacity,
            job_s: probe.job_s,
        }
    }

    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \"parallel_capacity\": {:.3}, \"job_s\": {:.4}}}",
            escape(&self.git_rev),
            escape(&self.cpu_model),
            self.nproc,
            self.parallel_capacity,
            self.job_s
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect()
}

/// Reads `HEAD` from the checkout's `.git` directory without running git.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        None => head.to_string(),
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One CPU-bound job: FNV over a counter stream.
fn cpu_job() -> u64 {
    let mut h = Fnv::default();
    for i in 0..6_000_000u64 {
        h.add(i);
    }
    std::hint::black_box(h.0)
}

/// Runs the job twice in series, then twice in parallel; returns serial /
/// parallel wall time and the time of one serial job.
fn parallel_capacity() -> ProbeResult {
    cpu_job();
    let t = Instant::now();
    cpu_job();
    cpu_job();
    let serial = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(cpu_job);
        let b = s.spawn(cpu_job);
        a.join().expect("probe thread panicked");
        b.join().expect("probe thread panicked");
    });
    let parallel = t.elapsed().as_secs_f64();
    ProbeResult {
        parallel_capacity: serial / parallel.max(1e-9),
        job_s: serial / 2.0,
    }
}

struct ProbeResult {
    parallel_capacity: f64,
    job_s: f64,
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of a CPU-time clock, from the scheduler's exact runtime.
///
/// The `/proc/*/stat` times are sampled at clock ticks: a thread that wakes
/// thousands of times a second for a few microseconds is charged by
/// chance, which on a 10 s run leaves a few percent of noise.  The CPU-time
/// clocks read the runtime the scheduler accumulated, to the nanosecond.
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call; `clock_gettime` writes only
    // into it and is async-signal-safe.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the kernel refused CPU-time clock {clock}");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by the whole process so far (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU seconds used by the calling thread so far (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// Kernel receive-drop counters of the UDP sockets bound to `ports`, from
/// `/proc/net/udp` (IPv4) — the `drops` column, summed.
pub fn udp_drops(ports: &[u16]) -> u64 {
    let Ok(table) = fs::read_to_string("/proc/net/udp") else {
        return 0;
    };
    let mut total = 0;
    for line in table.lines().skip(1) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let Some(local) = cols.get(1) else { continue };
        let Some(port) = local
            .split(':')
            .nth(1)
            .and_then(|p| u16::from_str_radix(p, 16).ok())
        else {
            continue;
        };
        if ports.contains(&port) {
            total += cols.last().and_then(|d| d.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    total
}
