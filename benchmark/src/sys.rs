//! The three Linux calls the harness needs and `std` does not offer:
//! CPU affinity (the 1-CPU pass) and process-wide resource usage (CPU
//! seconds and context switches, which must include node threads that have
//! already exited — `/proc/self/status` counts only the main thread's
//! switches). Peak RSS does come from `/proc/self/status`: `ru_maxrss`
//! survives `execve`, so under `cargo run` it never reads below cargo's own
//! footprint.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark harness needs 64-bit Linux (sched_setaffinity, getrusage)");

use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// `struct rusage` on LP64 Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    _unused: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide usage so far, every thread dead or alive included.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout the
    // kernel fills for LP64 Linux (checked by the `compile_error!` above).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage: {}", io::Error::last_os_error());
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Usage {
        cpu_s: secs(raw.utime) + secs(raw.stime),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

/// `VmHWM`: the process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn get_mask() -> io::Result<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set_mask(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a live buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<usize> {
    Ok(get_mask()?.iter().map(|w| w.count_ones() as usize).sum())
}

/// Confines the calling thread — and every thread it spawns afterwards,
/// which is how the simulator's node threads get confined — to one CPU
/// until dropped.
pub struct Pinned {
    restore: CpuSet,
}

/// Pin to the highest-numbered allowed CPU (CPU 0 takes most interrupts).
pub fn pin_to_one_cpu() -> io::Result<Pinned> {
    let restore = get_mask()?;
    let cpu = (0..1024)
        .rev()
        .find(|&c| restore[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_mask(&one)?;
    Ok(Pinned { restore })
}

impl Pinned {
    /// Lift the confinement, reporting a refusal: an all-core rep that is
    /// silently still pinned would be timed as the wrong thing.
    pub fn release(self) -> io::Result<()> {
        set_mask(&self.restore)
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Error paths only get a best effort; `release` is the checked way.
        let _ = set_mask(&self.restore);
    }
}
