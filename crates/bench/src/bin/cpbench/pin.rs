//! CPU pinning and the `/proc` readings of the measuring child.
//!
//! The DES kernel runs exactly one simulated process at a time and hands
//! the virtual CPU from thread to thread, so one core is its honest
//! envelope — and the only steady one: left to the scheduler on two CPUs,
//! the same binary on the same input ran `service-closed` at 2.2 k checked
//! ops per host second instead of 9.1 k, because the kernel does not
//! co-locate the hand-off threads (20.6 µs per dispatch across cores, 4.8 µs
//! on one; README.md has the measurements). The
//! runner therefore re-executes itself as one child per workload under
//! `taskset -c <first allowed CPU>`; the child measures, the parent only
//! relays. No `unsafe` and no dependency: affinity comes from `taskset`,
//! everything else from `/proc/self`.
//!
//! A future parallel DES kernel needs a benchmark-correction issue that
//! widens this affinity; until then more than one CPU only adds noise.

use std::fs;
use std::process::{Command, Stdio};

fn status_field(field: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// The CPUs of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// CPUs this process may run on; empty when `/proc` does not say.
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list")
        .map(|l| parse_cpu_list(&l))
        .unwrap_or_default()
}

/// Whether this process is confined to a single CPU.
pub fn is_pinned() -> bool {
    allowed_cpus().len() == 1
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let v = status_field("VmHWM")?;
    let kb: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(utime, stime)` of this process in clock ticks, from `/proc/self/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come state (3) … utime (14), stime (15).
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Share of CPU time spent in the kernel between two [`cpu_ticks`] readings.
pub fn sys_fraction(before: (u64, u64), after: (u64, u64)) -> f64 {
    let user = after.0.saturating_sub(before.0) as f64;
    let sys = after.1.saturating_sub(before.1) as f64;
    if user + sys == 0.0 {
        0.0
    } else {
        sys / (user + sys)
    }
}

/// The command that runs this executable with `args` as the measuring
/// child: on `cpu` alone when one is given, and with a single malloc arena.
///
/// glibc gives each of a simulation's ~30 threads one of 8 x cores arenas,
/// and freed blocks stay in the arena they came from, so peak RSS follows
/// where the scheduler happened to put things: `host_peak_rss_mb` of
/// `pingpong-bulk` spread 13.5 % (IQR / median, ten runs). With one arena it
/// spreads 1 %, and since the DES runs one thread at a time nothing contends
/// for it: `host_ops_per_s` is unchanged. Other allocators ignore the
/// variable.
pub fn child_command(cpu: Option<usize>, args: &[String]) -> std::io::Result<Command> {
    let exe = std::env::current_exe()?;
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(cpu.to_string()).arg(exe);
            cmd
        }
        None => Command::new(exe),
    };
    cmd.args(args).env("MALLOC_ARENA_MAX", "1");
    Ok(cmd)
}

/// Whether `taskset` can confine a process to `cpu` here.
pub fn can_pin(cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-c", &cpu.to_string(), "true"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert_eq!(parse_cpu_list("0,2-4, 7"), [0, 2, 3, 4, 7]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn proc_readings_are_available_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb().unwrap() > 0.5);
        let before = cpu_ticks().unwrap();
        let f = sys_fraction(before, cpu_ticks().unwrap());
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn sys_fraction_is_a_share() {
        assert_eq!(sys_fraction((10, 10), (40, 20)), 0.25);
        assert_eq!(sys_fraction((5, 5), (5, 5)), 0.0);
    }
}
