//! The host fingerprint printed with every result, and the process's peak RSS.

use std::process::Command;

use crate::json::Json;

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(prefix))
        .map(|l| {
            l[prefix.len()..]
                .trim_start_matches([' ', '\t', ':'])
                .trim()
                .to_string()
        })
}

/// Standard output of a short-lived helper command, waited for; `unknown` when
/// it is missing or fails (a checkout that is not a git repository).
fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint(seed: u64, scale: f64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::from(nproc)),
        (
            "cpu",
            Json::str(
                first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::str(output_of("rustc", &["--version"]))),
        (
            "commit",
            Json::str(output_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed)),
        ("scale", Json::Num(scale)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    first_line_of("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
