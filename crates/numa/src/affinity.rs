//! Thread-to-core pinning for the threaded runtime.
//!
//! ERIS pins every AEU to a designated core (Section 3.1 of the paper).  On
//! the simulated platforms there are usually more AEUs than host cores; the
//! threaded runtime therefore pins AEU *i* to host core `i % host_cores`,
//! which preserves the property that an AEU never migrates.
#![expect(unsafe_code, reason = "libc affinity and sysconf calls")]

use std::io;

/// Number of cores available to this process.
pub fn available_cores() -> usize {
    // SAFETY: sysconf is always safe to call.
    let n = unsafe { libc::sysconf(libc::_SC_NPROCESSORS_ONLN) };
    if n < 1 {
        1
    } else {
        n as usize
    }
}

/// Pin the calling thread to the given host core.  Core indices beyond the
/// host's range wrap around, so simulated core ids can be passed directly.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> io::Result<()> {
    let core = core % available_cores();
    // SAFETY: CPU_ZERO/CPU_SET initialize the set before use and
    // sched_setaffinity only reads it.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(core, &mut set);
        if libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Pinning is a no-op on non-Linux hosts.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> io::Result<()> {
    Ok(())
}

/// The core of the current thread's CPU, if the platform exposes it.
#[cfg(target_os = "linux")]
pub fn current_core() -> Option<usize> {
    // SAFETY: sched_getcpu has no preconditions.
    let c = unsafe { libc::sched_getcpu() };
    if c < 0 {
        None
    } else {
        Some(c as usize)
    }
}

#[cfg(not(target_os = "linux"))]
pub fn current_core() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_at_least_one_core() {
        assert!(available_cores() >= 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_to_core_zero_succeeds_and_sticks() {
        pin_current_thread(0).expect("pin to core 0");
        // After pinning to core 0 we must be running there.
        assert_eq!(current_core(), Some(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_wraps_out_of_range_cores() {
        // Core index beyond the host's range must still succeed (modulo).
        pin_current_thread(available_cores() * 7).expect("wrapped pin");
    }
}
