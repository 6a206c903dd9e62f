//! Order statistics over timing samples, and the result line.

/// Nearest-rank percentile `p` (0–100) of `samples`, or 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The better quartile of per-trial figures where lower is better: the
/// 25th nearest-rank percentile. Load from other tenants of a shared
/// machine only ever slows a trial down, so the better quartile moves
/// with the program and shrugs off up to three quarters of slowed trials.
pub fn low_quartile(samples: &[f64]) -> f64 {
    percentile(samples, 25.0)
}

/// The better quartile of per-trial figures where higher is better: the
/// 75th nearest-rank percentile (see [`low_quartile`]).
pub fn high_quartile(samples: &[f64]) -> f64 {
    percentile(samples, 75.0)
}

/// Largest sample, or 0 when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Mean of `samples`, or 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in insertion order, printed as the benchmark's result.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` = `value` in `unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.entries.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| n.as_str()).collect()
    }

    /// `name=value unit` for every metric, space-separated.
    pub fn summary(&self) -> String {
        let items: Vec<String> =
            self.entries.iter().map(|(n, v, u)| format!("{n}={v:.6} {u}")).collect();
        items.join("  ")
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let trials: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(low_quartile(&trials), 3.0);
        assert_eq!(high_quartile(&trials), 8.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("p50_us", 1.5, "us");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
