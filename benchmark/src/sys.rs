//! What the operating system says about this process (Linux `/proc`).

use std::time::Instant;

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resident set size now, in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:") * 1024.0
}

/// High-water mark of the resident set size, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// The calling thread's kernel id, for [`thread_cpu_s`] from another thread.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU seconds (user + system) thread `tid` of this process has used.
pub fn thread_cpu_s(tid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')')?.1;
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Seconds since `t`, as a float.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The clock a workload is timed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time.
    Wall,
    /// CPU time of this process (user + system, every thread): the time it
    /// is blocked, on a disk for one, does not pass.
    Cpu,
}

impl Clock {
    /// Seconds on this clock since an arbitrary origin.
    pub fn now(self) -> f64 {
        match self {
            Clock::Wall => eris_obs::now_ns() as f64 / 1e9,
            Clock::Cpu => process_cpu_s(),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark is built
    // for) that outlives the call; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}
