//! Environment hygiene and the host stamp.

use std::process::Command;

/// Remove every `ADAPTAGG_*` variable from this process, returning the
/// names removed. The library reads `ADAPTAGG_THREADS`, `_COLUMNAR`,
/// `_INTRA`, `_TRACE` and the watchdog knobs implicitly; the benchmark
/// measures the program's defaults and pins everything else through
/// `ClusterConfig` / `CostParams`. Called before any thread starts.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ADAPTAGG_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Where the numbers came from.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

impl HostStamp {
    /// Read the stamp; fields the host cannot answer read `unknown`
    /// (the driver's checkout is not a git repository).
    pub fn read() -> HostStamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
