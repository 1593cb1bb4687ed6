//! Order statistics, the run report, and process memory readings.

use std::fmt::Write as _;

/// Median of `xs` (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest whole percentile (never below the median) that still has
/// at least ten samples above it among `min_n` samples. Runs fix it from
/// the job count every run reaches, so faster code that fits more jobs in
/// a run still reads the same percentile.
pub fn tail_percentile(min_n: usize) -> u32 {
    (50..100)
        .rev()
        .find(|&p| rank(p, min_n) + 10 <= min_n)
        .unwrap_or(50)
}

/// Nearest-rank percentile `p` of `xs`, with the number of samples above it.
pub fn percentile(xs: &[f64], p: u32) -> (f64, usize) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, 0);
    }
    let r = rank(p, n);
    (s[r - 1], n - r)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// Geometric mean; NaN for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    let ln: f64 = xs.iter().map(|x| x.ln()).sum();
    (ln / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A `Vm*` field of `/proc/<pid>/status`, in MiB (`pid` `None` = self).
pub fn vm_mib(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The metrics a run reports, in report order, plus its job counts.
#[derive(Default)]
pub struct Report {
    notes: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// The first metric that is NaN or infinite; such a run has no result.
    pub fn non_finite(&self) -> Option<&str> {
        self.metrics
            .iter()
            .find(|(_, value, _)| !value.is_finite())
            .map(|(name, _, _)| name.as_str())
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.metrics
            .push((name.to_string(), value + 0.0, unit.to_string()));
    }

    /// A human-readable line printed before the metrics but kept out of
    /// the result object.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the notes and one human-readable line per metric, then the
    /// result object as the last line of standard output. Every metric must
    /// be finite (see [`Report::non_finite`]).
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(32), 68);
        assert_eq!(tail_percentile(64), 84);
        assert_eq!(tail_percentile(12), 50);
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&xs, 80), (40.0, 10));
        let more: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&more, 80), (80.0, 20));
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
