//! The clock the benchmark times the simulator with: CPU time of the
//! benchmark process.
//!
//! The simulator runs on one thread that never sleeps, so its CPU time
//! is its wall time minus the time the process was kept off a CPU: by
//! other processes or, on a virtual machine, by the hypervisor (steal
//! time). Those gaps belong to the host, not to the program, and on a
//! shared host they swing from run to run far more than the program
//! does: a 10 ms line can read 40 ms of wall time. CPU time counts
//! every thread of the process, so work moved onto helper threads still
//! shows. How long a run keeps going (`--seconds`) stays wall time.

use std::time::Duration;

/// A reading of the process's CPU clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// CPU time the process has used so far.
    pub fn now() -> Self {
        Self(process_cpu_time())
    }

    /// CPU time the process has used since `self`.
    pub fn elapsed(&self) -> Duration {
        process_cpu_time().saturating_sub(self.0)
    }
}

#[cfg(target_os = "linux")]
fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, and the clock
    // id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere, wall time since the first reading.
#[cfg(not(target_os = "linux"))]
fn process_cpu_time() -> Duration {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(std::time::Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work() {
        let start = CpuInstant::now();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(start.elapsed() > Duration::ZERO);
        assert!(CpuInstant::now() > start);
    }
}
