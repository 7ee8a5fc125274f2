//! Peak resident memory per round.
//!
//! Before each round the benchmark hands freed heap pages back to the
//! kernel and resets the process's high-water mark, so a round's peak
//! counts what that round holds on top of the generated input, not what
//! the allocator kept from earlier rounds.
//!
//! glibc raises its mmap threshold whenever a large mmapped block is
//! freed, so whether later large blocks come from mmap (returned on
//! free) or from the heap (kept) depends on which frees happened first.
//! `long_history` rounds measured 43 MB until, in some runs and at a
//! random round, the threshold rose and every later round measured 55 MB.
//! [`fix_mmap_threshold`] holds the threshold at 32 MiB, the most the
//! dynamic threshold can reach on 64-bit glibc: the state a long-running
//! server drifts towards, taken from the first round. Held at glibc's
//! initial 128 KiB instead, every large block is mapped and unmapped
//! again: in two paired 20 s runs the `long_history` tick p50 was 12–26%
//! higher than with the dynamic threshold.

use std::fs;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Holds glibc's mmap threshold at 32 MiB for the whole process; call it
/// before any other thread starts.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        // SAFETY: `mallopt` takes no pointers; setting the threshold
        // explicitly only turns off its dynamic adjustment.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Returns free heap memory to the kernel and resets VmHWM to the
/// current resident size.
pub fn reset_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases heap
    // pages glibc already holds as free; it is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 to clear_refs resets the peak RSS (Linux ≥ 4.0); where
    // that is refused, the peak simply keeps counting from process start.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// VmHWM in MiB.
pub fn peak_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
