//! Pins the measuring process to one CPU.
//!
//! Every thread the libraries start afterwards (party workers, the dealer
//! pool's refiller, the parallel engine's workers, the serve clients)
//! inherits the mask, so a whole run executes on one CPU. The README's
//! section "What the sandbox does to measurements" has the numbers behind
//! this: on the 2-vCPU guest this was written on, a lock-step round costs
//! ~7 µs when the three party threads share a CPU and ~26 µs when the
//! scheduler has spread them, it spreads them at a moment of its own
//! choosing, and identical code then reads 243 ms or 775 ms. Pinned, a run
//! measures the work the code does and the same-CPU switches between party
//! threads; it does not measure how much of that work two CPUs could overlap.

/// Bits in the mask passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and with it every thread it starts from now
/// on, to the highest-numbered CPU it may run on (CPU 0 takes most of a
/// guest's interrupts). Returns that CPU, or `None` where the kernel refuses
/// or the platform has no such call; the run then goes ahead unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread; the kernel writes at most `bytes`.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly `bytes` bytes that the
    // kernel only reads; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
