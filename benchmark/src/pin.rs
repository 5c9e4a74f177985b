//! Thread placement: the generator on one CPU, the service workers on
//! the others.
//!
//! Unpinned, `Service::call` is bimodal on a small VM — about 2 us when
//! the scheduler happens to put client and worker on one vCPU, about
//! 40 us when it does not — and one process flips between the two from
//! run to run. Pinned apart, runs agree. So placement is part of the
//! workload definition, and a run that cannot pin refuses to publish
//! service numbers (see `main`).

/// `cpu_set_t` is 1024 bits on Linux.
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, ascending (empty if the query
/// fails or the platform has no affinity call).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc == 0 {
            return (0..WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        if mask.iter().all(|&w| w == 0) {
            return false;
        }
        // SAFETY: `mask` is a readable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// Where a run's threads go.
#[derive(Debug, Clone)]
pub struct Placement {
    /// CPUs the process may use.
    pub cpus: Vec<usize>,
    /// Service workers: `max(1, min(nproc, 4) - 1)`, so generator plus
    /// workers never exceed `nproc` (beyond one CPU).
    pub workers: usize,
}

impl Placement {
    pub fn detect() -> Self {
        let mut cpus = allowed_cpus();
        if cpus.is_empty() {
            let n = std::thread::available_parallelism().map_or(1, |n| n.get());
            cpus = (0..n).collect();
        }
        let workers = cpus.len().min(4).saturating_sub(1).max(1);
        Placement { cpus, workers }
    }

    pub fn nproc(&self) -> usize {
        self.cpus.len()
    }

    /// The generator's CPU: the first allowed one.
    pub fn generator(&self) -> &[usize] {
        &self.cpus[..1]
    }

    /// The workers' CPUs: every other allowed one.
    pub fn worker_set(&self) -> &[usize] {
        &self.cpus[1..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_never_exceeds_nproc() {
        let p = Placement::detect();
        assert!(p.nproc() >= 1);
        assert!(p.workers >= 1);
        if p.nproc() > 1 {
            assert!(p.workers < p.nproc(), "generator plus workers fit");
            assert!(!p.worker_set().contains(&p.generator()[0]));
        }
    }
}
