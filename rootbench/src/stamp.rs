//! What a record is stamped with: the hardware and toolchain it ran on,
//! and the process's own memory and CPU accounting from `/proc`.

use std::process::Command;

use crate::json::{obj, Json};

/// Threads the benchmark is sized for: an injector plus one shard for the
/// serve workloads, two simulator shards for `resolve_psim`, one thread
/// everywhere else. Fixed, never auto-detected, so two machines run the
/// same configuration; a machine with fewer cores is marked oversubscribed.
pub const THREAD_BUDGET: usize = 2;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git. A benchmark checkout that is not a repository
/// reports "unknown".
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp every record carries.
pub fn stamp() -> Json {
    let nproc = nproc();
    obj([
        ("nproc", (nproc as u64).into()),
        ("cpu_model", cpu_model().into()),
        ("git_rev", git_rev().into()),
        ("rustc", rustc_version().into()),
        ("thread_budget", (THREAD_BUDGET as u64).into()),
        ("oversubscribed", (nproc < THREAD_BUDGET).into()),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) this process has used on all its threads,
/// exited ones included. `/proc/self/stat` counts in clock ticks, which
/// Linux reports to user space at 100 per second on every architecture.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the parenthesis that closes it. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(") ").map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after_comm.split(' ').skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks() + ticks()) / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_real_numbers() {
        assert!(peak_rss_mb() > 1.0, "a running test binary holds more than 1 MB");
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < before + 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn stamp_names_the_machine() {
        let s = stamp();
        assert!(s.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        for key in ["cpu_model", "git_rev", "rustc"] {
            assert!(!s.get(key).and_then(Json::as_str).unwrap().is_empty(), "{key}");
        }
    }
}
