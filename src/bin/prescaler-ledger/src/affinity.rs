//! Pins the measuring thread to one CPU.
//!
//! On a small shared host, wall times of the library's multi-threaded
//! paths (speculative trials, parallel VM chunks, serving workers) swing
//! by 20–35% between runs, while one thread on one CPU stays within a few
//! percent. Pinning the thread before it spawns anything makes every
//! thread-count decision the library takes from
//! `std::thread::available_parallelism` — speculation, the execution
//! budget, inspector fan-out — see one core, without editing the library.

/// The host's CPUs as the process found them, before any pinning.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// A `cpu_set_t`: one bit for each of 1024 CPUs.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // alive for the whole call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // alive for the whole call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) -> bool {
    false
}

/// While alive, the calling thread (and every thread it spawns) runs on
/// the highest-numbered CPU it was allowed; dropping restores the mask.
pub struct Pin {
    previous: Mask,
}

impl Pin {
    /// `None` when the platform cannot pin; the pass then runs unpinned
    /// and records so.
    pub fn one_cpu() -> Option<Pin> {
        host_cores();
        let previous = get()?;
        let cpu = (0..previous.len() * 64)
            .rev()
            .find(|&c| previous[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: Mask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one).then_some(Pin { previous })
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // Best effort: a failed restore leaves the thread pinned, which
        // only slows the unpinned probes that follow.
        let _ = set(&self.previous);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_restores_the_mask() {
        std::thread::spawn(|| {
            let cores = std::thread::available_parallelism().unwrap().get();
            let pin = Pin::one_cpu().expect("linux can pin");
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            drop(pin);
            assert_eq!(std::thread::available_parallelism().unwrap().get(), cores);
        })
        .join()
        .unwrap();
    }
}
