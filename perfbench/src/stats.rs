//! Small statistics and output helpers shared by every part of the
//! benchmark.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Linear-interpolation quantile (type 7) of an unsorted sample; `NaN`
/// for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Elapsed microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Named samples, keyed in sorted order so output is stable.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn q(&self, name: &str, q: f64) -> f64 {
        quantile(self.get(name), q)
    }

    pub fn mean(&self, name: &str) -> f64 {
        mean(self.get(name))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders a finite float with all its digits (`Display` is the shortest
/// exact round-trip form); non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64 step: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// CPU time this process has spent on a core, nanoseconds, from
/// `/proc/self/schedstat`; `None` where that file is missing.
pub fn self_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time of one thread, nanoseconds, from its `schedstat` file. With
/// paravirtual time accounting this excludes time the hypervisor stole.
pub fn thread_cpu_ns(schedstat: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(schedstat).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// The `schedstat` path of the thread of process `pid` named `name`.
pub fn named_thread(pid: u32, name: &str) -> Option<PathBuf> {
    let tasks = PathBuf::from(format!("/proc/{pid}/task"));
    std::fs::read_dir(&tasks).ok()?.flatten().find_map(|task| {
        let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
        (comm.trim_end() == name).then(|| task.path().join("schedstat"))
    })
}

/// CPU time (user + system) of this process's reaped children, seconds.
pub fn children_cpu_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = text[text.rfind(')')? + 2..].split_whitespace().collect();
    let cutime: f64 = fields.get(13)?.parse().ok()?;
    let cstime: f64 = fields.get(14)?.parse().ok()?;
    Some((cutime + cstime) / 100.0)
}

/// Cumulative steal time of all CPUs in clock ticks (USER_HZ, 100 on
/// Linux), and the CPU count, from `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, usize)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let total = text
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    let cpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    Some((total, cpus.max(1)))
}

/// CPU time (user + system, all threads) of process `pid`, seconds,
/// from `/proc/<pid>/stat` in clock ticks (USER_HZ, 100 on Linux).
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let fields: Vec<&str> = text[text.rfind(')')? + 2..].split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
