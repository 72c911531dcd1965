//! The libc calls the harness needs, declared directly: the workspace
//! has no libc crate (same convention as `omc serve`'s `signal(2)` hook).
//! Linux LP64 layouts.

use std::os::fd::{AsRawFd, BorrowedFd};
use std::os::unix::process::{CommandExt, ExitStatusExt};
use std::process::{Command, ExitStatus};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: two timevals, then fourteen longs of which only the
/// first (`ru_maxrss`, kilobytes on Linux) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;
const POLLIN: i16 = 1;
const WNOHANG: i32 = 1;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn malloc_trim(pad: usize) -> i32;
}

/// Resources of the children a session has reaped: each child's own
/// `wait4` usage, never the process-wide `RUSAGE_CHILDREN` (whose
/// `ru_maxrss` remembers every child any earlier workload waited for).
///
/// A child's `ru_maxrss` is its own only if it was spawned through
/// [`spawn_by_fork`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChildUsage {
    /// User + system CPU time, summed.
    pub cpu: Duration,
    /// Largest resident set any single child reached.
    pub max_rss_kb: u64,
}

impl ChildUsage {
    pub fn add(&mut self, child: ChildUsage) {
        self.cpu += child.cpu;
        self.max_rss_kb = self.max_rss_kb.max(child.max_rss_kb);
    }
}

/// Wait for child `pid` to exit and return its status with its own
/// resource usage. Without a `limit` the wait blocks; with one it polls
/// and gives up with `TimedOut`, the child still running. After `Ok` the
/// caller must not wait for the child again.
pub fn reap(pid: u32, limit: Option<Duration>) -> std::io::Result<(ExitStatus, ChildUsage)> {
    let deadline = limit.map(|limit| Instant::now() + limit);
    let options = if limit.is_some() { WNOHANG } else { 0 };
    let mut usage = Rusage::default();
    let mut status = 0;
    loop {
        // SAFETY: `status` and `usage` are live and writable, and `usage`
        // has the size and layout the Linux LP64 ABI gives `struct
        // rusage`; `wait4` only writes into them.
        let rc = unsafe { wait4(pid as i32, &mut status, options, &mut usage) };
        if rc == pid as i32 {
            break;
        }
        if rc == 0 {
            // WNOHANG and still running.
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let time = |tv: &Timeval| Duration::new(tv.sec as u64, tv.usec as u32 * 1000);
    Ok((
        ExitStatus::from_raw(status),
        ChildUsage {
            cpu: time(&usage.utime) + time(&usage.stime),
            max_rss_kb: usage.maxrss as u64,
        },
    ))
}

/// Make `command` spawn by `fork` + `exec` instead of `posix_spawn`, so
/// that the child's `ru_maxrss` is its own.
///
/// On `exec` Linux starts the new program's `ru_maxrss` at the high-water
/// mark of the address space it replaces. A `posix_spawn` child borrows
/// the harness's address space until then, so it would start at the
/// harness's own peak: the reference computation, and every page of its
/// text touched so far (4–9 MB measured, above most `omc` runs). A forked
/// child replaces a copy that holds only the harness's anonymous pages of
/// that moment: 1–2 MB after [`release_freed_heap`], below the 2.5 MB of
/// the cheapest `omc` process.
pub fn spawn_by_fork(command: &mut Command) -> &mut Command {
    // SAFETY: the closure runs between `fork` and `exec` and does
    // nothing; its presence is what makes std take the `fork` path.
    unsafe { command.pre_exec(|| Ok(())) }
}

/// Give freed heap back to the kernel: what [`spawn_by_fork`]'s children
/// start from is the harness's resident anonymous memory.
pub fn release_freed_heap() {
    // SAFETY: `malloc_trim` takes an integer and only releases memory the
    // allocator holds free.
    unsafe { malloc_trim(0) };
}

/// This process's resident anonymous memory (`RssAnon`), in kilobytes.
pub fn own_anon_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("RssAnon:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Block until `fd` has data or has been closed by its writer; false when
/// `timeout` passes first.
pub fn readable_within(fd: BorrowedFd<'_>, timeout: Duration) -> bool {
    let mut fds = PollFd {
        fd: fd.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is one live, writable `struct pollfd` and the count
    // says so; `fd` is open for as long as it is borrowed.
    // A signal (EINTR) reads as a timeout; the caller's deadline loop
    // polls again.
    unsafe { poll(&mut fds, 1, timeout_ms) > 0 }
}

/// Ask a child to drain (`SIGTERM`).
pub fn terminate(pid: u32) {
    // SAFETY: `kill` takes plain integers and touches no memory of ours;
    // `pid` is a child this process spawned and has not yet waited for.
    unsafe { kill(pid as i32, SIGTERM) };
}

/// Kill a child outright. Same condition on `pid` as [`terminate`].
pub fn kill_now(pid: u32) {
    // SAFETY: as in `terminate`.
    unsafe { kill(pid as i32, SIGKILL) };
}

/// User + system CPU time of a live process, from `/proc/<pid>/stat`
/// (fields 14 and 15, in clock ticks).
pub fn process_cpu(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // SAFETY: `sysconf` takes an integer and returns one.
    let ticks_per_sec = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some(Duration::from_secs_f64(
        (utime + stime) as f64 / ticks_per_sec,
    ))
}

#[cfg(test)]
// The children are reaped by `reap`, through `wait4`, which the lint
// cannot see.
#[allow(clippy::zombie_processes)]
mod tests {
    use super::*;

    #[test]
    fn a_forked_child_does_not_start_from_the_harness_peak() {
        // 64 MB of small blocks, as a reference computation leaves them.
        let ballast: Vec<Vec<u8>> = (0..640_000).map(|i| vec![i as u8; 100]).collect();
        drop(std::hint::black_box(ballast));
        release_freed_heap();
        let peak_of = |by_fork: bool| {
            let mut command = Command::new("sh");
            command.args(["-c", "exit 0"]);
            if by_fork {
                spawn_by_fork(&mut command);
            }
            let child = command.spawn().expect("sh runs");
            let (status, usage) = reap(child.id(), None).expect("child");
            assert!(status.success());
            usage.max_rss_kb
        };
        // The same shell, 1 MB of its own: `posix_spawn` hands it this
        // process's peak, `fork` what is resident now. (Other tests run
        // in this process too, hence a margin and not two constants.)
        let (spawned, forked) = (peak_of(false), peak_of(true));
        assert!(spawned > 64_000, "{spawned} kB");
        assert!(
            forked + 32_000 < spawned,
            "{forked} kB forked, {spawned} kB spawned"
        );
    }

    #[test]
    fn own_process_cpu_is_readable() {
        assert!(process_cpu(std::process::id()).is_some());
        assert!(process_cpu(u32::MAX).is_none());
    }

    #[test]
    fn reap_returns_the_childs_own_status_and_usage() {
        let spawn = |script: &str| {
            let mut command = Command::new("sh");
            command.args(["-c", script]);
            spawn_by_fork(&mut command).spawn().expect("sh runs")
        };
        // The shell itself holds 20 MB, so the peak is its own.
        let big = spawn("x=$(head -c 20000000 /dev/zero | tr '\\0' a); exit 3");
        let (status, first) = reap(big.id(), None).expect("first child");
        assert_eq!(status.code(), Some(3));
        assert!(first.max_rss_kb > 20_000, "{first:?}");
        // A later, smaller child reports its own peak, not the running
        // maximum over every child waited for so far.
        let small = spawn("exit 0");
        let (status, second) = reap(small.id(), None).expect("second child");
        assert!(status.success());
        assert!(
            second.max_rss_kb > 0 && second.max_rss_kb + 10_000 < first.max_rss_kb,
            "{second:?} after {first:?}"
        );
        let mut sum = first;
        sum.add(second);
        assert_eq!(sum.max_rss_kb, first.max_rss_kb);
        assert_eq!(sum.cpu, first.cpu + second.cpu);
    }

    #[test]
    fn readable_within_times_out_on_a_silent_pipe_and_sees_eof() {
        use std::os::fd::AsFd;
        use std::process::Stdio;
        let mut silent = Command::new("sleep")
            .arg("5")
            .stdout(Stdio::piped())
            .spawn()
            .expect("sleep runs");
        let pipe = silent.stdout.take().expect("piped");
        assert!(!readable_within(pipe.as_fd(), Duration::from_millis(30)));
        let still_running = reap(silent.id(), Some(Duration::from_millis(10)));
        assert_eq!(
            still_running.map(|_| ()).map_err(|e| e.kind()),
            Err(std::io::ErrorKind::TimedOut)
        );
        kill_now(silent.id());
        // Killed: the write end closes, which reads as ready (EOF).
        assert!(readable_within(pipe.as_fd(), Duration::from_secs(5)));
        let (status, _) = reap(silent.id(), Some(Duration::from_secs(5))).expect("killed child");
        assert_eq!(status.signal(), Some(SIGKILL));
    }
}
