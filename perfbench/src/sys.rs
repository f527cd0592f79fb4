//! Host measurements read from the operating system (peak resident
//! memory, process CPU time) and CPU affinity.

/// Peak resident set (`VmHWM`) of process `pid`, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Returns the allocator's free memory to the operating system, then
/// resets this process's `VmHWM` to its current resident set, so the
/// next [`peak_rss_mb`] reading covers only what runs in between and
/// does not depend on what earlier work left cached in the allocator.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and may be called at any time from any thread.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// A set of CPUs in the kernel's `cpu_set_t` layout (1024 bits).
type CpuSet = [u64; 16];

/// The CPUs this process may run on.
pub fn allowed_cpus() -> std::io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread to `cpus`. Threads it spawns afterwards
/// inherit the restriction.
pub fn pin_to(cpus: &[usize]) -> std::io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in seconds.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call; on 64-bit Linux both of its fields are 64-bit integers, which
    // is the layout `Timespec` declares.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_secs() > t0);
    }

    #[test]
    fn pinning_moves_the_thread_and_can_be_undone() {
        let all = allowed_cpus().expect("affinity is readable");
        assert!(!all.is_empty());
        std::thread::spawn(move || {
            let last = *all.last().unwrap();
            pin_to(&[last]).expect("pin");
            assert_eq!(allowed_cpus().unwrap(), vec![last]);
            pin_to(&all).expect("unpin");
            assert_eq!(allowed_cpus().unwrap(), all);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn peak_rss_resets_to_the_current_footprint() {
        let me = std::process::id();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let high = peak_rss_mb(me).expect("VmHWM is readable");
        drop(block);
        reset_peak_rss().expect("clear_refs is writable");
        let low = peak_rss_mb(me).expect("VmHWM is readable");
        assert!(
            low + 30.0 < high,
            "{low} MB after reset vs {high} MB before"
        );
    }
}
