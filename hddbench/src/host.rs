//! The host fingerprint stamped on every result, the guest's stolen CPU
//! time and the process's peak resident memory. All read the kernel's
//! `/proc` and `/sys` views and report "unknown" or 0 where a file is
//! missing.

use std::fs;

/// `available_parallelism`, CPU model, L2/L3 sizes and kernel release,
/// as a JSON object.
pub fn fingerprint_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "{{\"available_parallelism\": {cpus}, \"cpu_model\": {}, \"l2\": {}, \"l3\": {}, \"kernel\": {}}}",
        quote(&model),
        quote(&cache_size(2)),
        quote(&cache_size(3)),
        quote(&kernel)
    )
}

/// Size of the unified or data cache at `level` as the kernel reports it
/// for CPU 0 (e.g. "4096K").
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .find_map(|i| {
            let dir = format!("{base}/index{i}");
            let lvl = fs::read_to_string(format!("{dir}/level")).ok()?;
            let kind = fs::read_to_string(format!("{dir}/type")).ok()?;
            (lvl.trim() == level.to_string() && kind.trim() != "Instruction")
                .then(|| fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time stolen from this guest by the hypervisor so far, seconds,
/// summed over all vCPUs (the `steal` column of `/proc/stat`, in the
/// kernel's 100 Hz user ticks); 0 where the kernel does not report it.
pub fn steal_seconds() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
