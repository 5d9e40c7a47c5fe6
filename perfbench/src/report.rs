//! Statistics over raw samples and the benchmark's output format.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many raw samples the value summarises (0 for a fixed count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name: name.to_string(), unit, value, samples }
    }
}

/// Operations attempted and failed, with a reason per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` records it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    /// Records a failed check that is not an operation of its own (it
    /// invalidates the run without changing `attempted`).
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank percentile of raw samples: the smallest sample
/// with at least `p` of the samples at or below it. Never exceeds the
/// maximum sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A finite number as JSON; NaN and infinities (a metric that could
/// not be measured) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Prints the metrics one per line (name, value, unit, sample count),
/// for a reader of the log.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        let n = if m.samples > 0 { format!("  (n={})", m.samples) } else { String::new() };
        println!("{:<40} {:>16} {}{n}", m.name, json_num(m.value), m.unit);
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_samples_and_never_exceed_the_max() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(max(&v), 10.0);
    }
}
