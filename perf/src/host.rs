//! What the benchmark reads from the host: wall clock, process CPU
//! time, peak resident memory, and the facts a result file records
//! about the machine it ran on.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

/// Pins the process, and every thread it later starts, to the
/// highest-numbered CPU it is allowed to run on, and returns that CPU.
///
/// On the two-vCPU sandbox a thread handed to the other core costs a
/// cross-CPU wake-up through the hypervisor, and what that costs changes
/// from minute to minute. Unpinned, ten seeds of every workload measured
/// twice an hour apart moved their medians by 19 to 25% (`cold_scan`,
/// `warm_serve`, `live_point`: the bound is 25%), and the reference work
/// of `reference.rs`, which runs on one thread, did not track it: scaled
/// and unscaled spreads came out the same. Pinned, the same ten seeds
/// spread 19–34% unscaled and 4–5% scaled on `cold_scan`, 21–27% and
/// 2–4% on `live_point` (README, "What the harness does to the host").
/// No workload ran slower pinned: on a shared two-core box
/// `parallel_map`'s second core never paid for its wake-ups. What this
/// gives up is seeing a second core used at all: wall time is CPU time,
/// `host_qps` restates `cpu_ms_per_query`, and parallel dispatch (ROADMAP
/// item 3b) cannot be judged here. CPU 0 takes the interrupts, hence the
/// highest.
pub fn pin_to_one_cpu() -> Option<usize> {
    let pinned = pin();
    PINNED
        .set(pinned)
        .expect("the process is pinned once, at start");
    pinned
}

static PINNED: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();

/// The CPU [`pin_to_one_cpu`] chose, if it ran and succeeded.
pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().copied().flatten()
}

fn pin() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `bytes` bytes, the size the
    // call is told; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of `bytes` bytes naming one CPU
    // the process may already use.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// Linux's id for the clock that sums user+sys CPU time over every
/// thread of the process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds (user + sys, all threads) so far.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target), and the clock id is a constant the
    // kernel defines; the call writes only through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A wall + CPU reading; `elapsed` gives the pair of deltas.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu_s: f64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            wall: Instant::now(),
            cpu_s: cpu_s(),
        }
    }

    /// `(wall seconds, cpu seconds)` elapsed since `self`.
    pub fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_s() - self.cpu_s)
    }
}

/// Peak resident set size in MiB (`VmHWM` from `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores the machine has (`/proc/cpuinfo`), whatever the
/// process is pinned to: a `run` started by `all` inherits its parent's
/// one-CPU affinity.
pub fn nproc() -> usize {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo
        .lines()
        .filter(|line| line.starts_with("processor"))
        .count()
        .max(1)
}

/// First line of a command's stdout, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// The checked-out commit, or `"unknown"` outside a git repository
/// (the benchmark driver runs from an exported tree).
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "... <mount point> <opts> [optional...] - <fstype> <source> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(point), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}
