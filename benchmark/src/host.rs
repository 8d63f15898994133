//! What the benchmark reads from the operating system: CPU time of the process and of
//! single threads, peak resident memory, and the host facts every result file records
//! so that snapshots from different hosts are never compared silently.
//!
//! Linux only. CPU clocks come from `clock_gettime(2)` (declared here: the workspace
//! vendors no `libc` crate), everything else from `/proc`.

use std::ffi::{c_int, c_long};
use std::fs;
use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    /// `clock_gettime(2)` of the C library `std` already links.
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock_ns(clock_id: c_int) -> u64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer, which points
    // at a live, properly aligned `Timespec` with the C layout (`time_t` and `long` are
    // both `long` on Linux); it keeps no reference to it after returning.
    let status = unsafe { clock_gettime(clock_id, &mut now) };
    if status != 0 {
        return 0;
    }
    now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64
}

/// User + system CPU seconds consumed so far by every thread of this process, live or
/// ended (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

/// CPU ns consumed so far by the calling thread (`CLOCK_THREAD_CPUTIME_ID`): exact, but
/// a system call — the wrappers read it around a sample of their calls only.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Scheduler statistics of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadSched {
    /// Seconds the thread ran on a CPU.
    pub run_s: f64,
    /// Seconds the thread was runnable but waited for a CPU.
    pub wait_s: f64,
}

fn parse_schedstat(text: &str) -> ThreadSched {
    let mut fields = text.split_whitespace();
    let mut ns = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    ThreadSched {
        run_s: ns() / 1e9,
        wait_s: ns() / 1e9,
    }
}

/// Scheduler statistics of the calling thread (`/proc/thread-self/schedstat`).
pub fn thread_sched() -> ThreadSched {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default())
}

/// CPU seconds of the live threads the calling thread spawned without a name: a thread
/// inherits the kernel-visible name of the thread that creates it and keeps it unless it
/// is given one of its own. The calling thread itself is not counted.
pub fn unnamed_threads_cpu_s() -> f64 {
    let inherited = fs::read_to_string("/proc/thread-self/comm").unwrap_or_default();
    let me = fs::read_link("/proc/thread-self").unwrap_or_default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|task| Some(task.file_name().as_os_str()) != me.file_name())
        .filter(|task| {
            fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| comm == inherited)
        })
        .map(|task| {
            parse_schedstat(&fs::read_to_string(task.path().join("schedstat")).unwrap_or_default())
                .run_s
        })
        .sum()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Standard output of a finished command, if it ran and succeeded (`output` waits for it).
fn stdout_of(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The commit of the checkout this benchmark was built in, if it is a git repository.
/// The search stops at the checkout's own root: a benchmark run reads nothing above it.
fn git_commit() -> Option<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    stdout_of(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", root.parent()?),
    )
}

/// The host facts written into every result file.
pub fn host_facts() -> Json {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    let mut facts = Json::obj();
    facts
        .set("nproc", Json::Int(nproc as u64))
        .set("cpu_model", Json::str(cpu_model))
        .set("kernel", Json::str(kernel.trim()))
        .set(
            "rustc",
            Json::Str(stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        )
        .set(
            "git_commit",
            Json::Str(git_commit().unwrap_or_else(unknown)),
        );
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fields_parse_as_seconds() {
        let sched = parse_schedstat("2500000000 500000000 17\n");
        assert_eq!(sched.run_s, 2.5);
        assert_eq!(sched.wait_s, 0.5);
        assert_eq!(parse_schedstat(""), ThreadSched::default());
    }

    #[test]
    fn cpu_clocks_agree_with_the_scheduler_statistics() {
        // Burn CPU on this thread alone and compare the three clocks. Other test threads
        // only add to the process clock, so it must not read less than the thread's.
        let before = (thread_cpu_ns(), thread_sched().run_s, process_cpu_s());
        let mut x = 1u64;
        while thread_cpu_ns() - before.0 < 200_000_000 {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        let thread_s = (thread_cpu_ns() - before.0) as f64 / 1e9;
        let sched_s = thread_sched().run_s - before.1;
        let process_s = process_cpu_s() - before.2;
        assert!(
            (sched_s - thread_s).abs() < 0.05,
            "schedstat {sched_s} vs clock {thread_s}"
        );
        assert!(
            process_s > thread_s * 0.95,
            "process {process_s} vs thread {thread_s}"
        );
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn host_facts_name_the_cores() {
        let facts = host_facts().render();
        assert!(facts.contains("\"nproc\""));
        assert!(facts.contains("\"rustc\""));
    }
}
