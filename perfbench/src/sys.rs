//! Readers for the kernel's CPU clocks and for its per-thread and
//! per-process accounting in `/proc`. Each returns `None` where the clock
//! or file cannot be read, so a metric built on it is reported as
//! missing, never as zero.

/// Scheduler accounting of the calling thread, from
/// `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Nanoseconds spent on a CPU.
    pub oncpu_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub runqueue_ns: u64,
}

impl Sched {
    /// This thread's counters now.
    pub fn now() -> Option<Sched> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        Some(Sched {
            oncpu_ns: fields.next()?.ok()?,
            runqueue_ns: fields.next()?.ok()?,
        })
    }

    /// Counters accrued between `earlier` and `self`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            oncpu_ns: self.oncpu_ns.saturating_sub(earlier.oncpu_ns),
            runqueue_ns: self.runqueue_ns.saturating_sub(earlier.runqueue_ns),
        }
    }
}

/// CPU time of the whole process (every thread, live or joined), in
/// nanoseconds, from the kernel's `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_ns() -> Option<u64> {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds, from the kernel's
/// `CLOCK_THREAD_CPUTIME_ID`.
///
/// The kernel advances these clocks only while the thread is on a CPU,
/// and on a guest with paravirtual steal accounting (as on KVM) it leaves
/// out the time the hypervisor gave to other tenants. So neither run-queue
/// waits nor host steal count, which is what keeps a figure built on them
/// steady on a shared host.
pub fn thread_cpu_ns() -> Option<u64> {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock: i32) -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` from the C library std links writes one
    // `struct timespec`, whose layout `Timespec` matches on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ns(_clock: i32) -> Option<u64> {
    None
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set size of the process in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mib("VmRSS:")
}

fn status_mib(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(steal, total)` clock ticks of the whole machine from `/proc/stat`:
/// time the hypervisor ran something else while this machine's CPUs
/// wanted to run, and all CPU time.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}
