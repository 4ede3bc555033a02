//! The host and build every result was measured on.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPU model name from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line naming CPU, `nproc`, rustc, commit and build profile.
pub fn description() -> String {
    format!(
        "cpu={}; nproc={}; rustc={}; commit={}; profile={}",
        cpu_model(),
        nproc(),
        env!("HOSTBENCH_RUSTC"),
        commit(),
        env!("HOSTBENCH_PROFILE"),
    )
}

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

/// `struct rusage` of 64-bit Linux: user and system time, then 14 longs.
#[repr(C)]
struct Rusage {
    user: Timeval,
    system: Timeval,
    rest: [std::os::raw::c_long; 14],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
}

/// CPU time this process has run so far, all its threads (live and
/// ended) together, in seconds.
///
/// The kernel derives it from the scheduler's run time, so it leaves out
/// time the process waited for a CPU — behind co-tenants in the guest or,
/// with paravirtual steal accounting, behind other guests on the host.
/// On a shared host that waiting is most of the run-to-run noise of wall
/// time, while a slower program takes more CPU time alike.
///
/// # Panics
///
/// Panics when `getrusage` fails, which it cannot for `RUSAGE_SELF`.
pub fn cpu_s() -> f64 {
    const RUSAGE_SELF: std::os::raw::c_int = 0;
    let mut usage = Rusage {
        user: Timeval { sec: 0, usec: 0 },
        system: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this
    // target, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let s = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    s(&usage.user) + s(&usage.system)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
