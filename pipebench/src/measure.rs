//! Statistics, process accounting and the result record.

use crate::calib::{Calib, Timing};
use std::time::Duration;

/// Linear-interpolated percentile (`q` in 0..=1) of an unsorted sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// User + system CPU time of all current threads of a process, with
/// nanosecond resolution (`/proc/<pid>/task/*/schedstat`).
pub fn threads_cpu(pid: &str) -> Duration {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Duration::ZERO;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
        })
        .sum();
    Duration::from_nanos(ns)
}

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed: transport errors, refusals, wrong answers.
    pub failed: u64,
    /// Ops whose answer differed from the known answer.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Provenance written next to the result (`key`, JSON value).
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

/// The end-to-end metrics every workload reports with tracing off,
/// all over the whole timed phase and at the reference host speed
/// (see [`crate::calib`]).
pub struct EndToEnd<'a> {
    /// Each repeated set-up.
    pub setups: &'a [Timing],
    /// Every completed op, send to final answer.
    pub ops: &'a [Timing],
    /// The stretches of the timed phase, without the probes between
    /// them.
    pub timed: &'a [Timing],
    /// CPU time of the working process over each timed stretch.
    pub cpu: &'a [Timing],
    /// `VmHWM` of the working process.
    pub peak_rss_mb: f64,
    pub calib: &'a Calib,
}

impl EndToEnd<'_> {
    pub fn push_into(&self, report: &mut Report) {
        let n = self.ops.len().max(1) as f64;
        let mut unscaled = Vec::new();
        for scale in [true, false] {
            let secs = |t: &Timing| {
                if scale {
                    self.calib.scaled_secs(t)
                } else {
                    t.value.as_secs_f64()
                }
            };
            let setups: Vec<f64> = self.setups.iter().map(secs).collect();
            let latencies_ms: Vec<f64> = self.ops.iter().map(|t| secs(t) * 1e3).collect();
            let timed: f64 = self.timed.iter().map(secs).sum();
            let cpu: f64 = self.cpu.iter().map(secs).sum();
            let values = [
                ("setup_s", median(&setups), "s"),
                ("ops_per_s", n / timed, "1/s"),
                ("latency_p50_ms", percentile(&latencies_ms, 0.5), "ms"),
                ("latency_p90_ms", percentile(&latencies_ms, 0.9), "ms"),
                ("cpu_ms_per_op", cpu * 1e3 / n, "ms"),
            ];
            for (name, value, unit) in values {
                if scale {
                    report.push(name, value, unit);
                } else {
                    unscaled.push(format!("{}:{}", json_str(name), json_num(value)));
                }
            }
        }
        report.push("peak_rss_mb", self.peak_rss_mb, "MB");
        report
            .meta
            .push(("unscaled".into(), format!("{{{}}}", unscaled.join(","))));
        report
            .meta
            .push(("host_factor".into(), json_num(self.calib.mean_factor())));
        report
            .meta
            .push(("probes".into(), self.calib.probes().to_string()));
    }
}

/// Renders a finite float as a JSON number with every digit.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_owned()
    }
}

/// Renders a string as a JSON string literal.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn own_process_accounting_is_readable() {
        assert!(peak_rss_mb("self") > 0.0);
        let c0 = threads_cpu("self");
        assert!(c0 > Duration::ZERO);
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(50) {
            x = x.wrapping_add(1);
        }
        assert!(x > 0);
        assert!(threads_cpu("self") > c0);
    }
}
