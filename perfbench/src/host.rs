//! Host identity and process memory. Numbers from this benchmark are
//! comparable only between runs whose fingerprints match.

use std::fs;

/// CPU model, logical CPU count, L2/L3 sizes and kernel release, as one
/// JSON object.
pub fn fingerprint() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cache = |level: &str| -> String {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = fs::read_to_string(format!("{dir}/level")).ok()?;
                (lvl.trim() == level)
                    .then(|| fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"l2\":\"{}\",\"l3\":\"{}\",\"kernel\":\"{}\"}}",
        cpu.replace('"', "'"),
        cache("2"),
        cache("3"),
        kernel.replace('"', "'")
    )
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
