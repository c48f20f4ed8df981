//! Small numeric helpers: seeded draws, percentiles, process memory, and
//! the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// splitmix64 step: a deterministic stream from one seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform index below `n` (`n > 0`).
pub fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// Zipf(s) sampler over ranks `0..n`, rank 0 most frequent.
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n >= 1` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cum = (0..n.max(1))
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cum }
    }

    /// Draw one rank.
    pub fn sample(&self, state: &mut u64) -> usize {
        let total = self.cum[self.cum.len() - 1];
        let u = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process high-water resident set (`VmHWM`) in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always prints a decimal point.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16, 1.1);
        let mut s = 3;
        let draws: Vec<usize> = (0..2000).map(|_| z.sample(&mut s)).collect();
        let zeros = draws.iter().filter(|&&d| d == 0).count();
        let lasts = draws.iter().filter(|&&d| d == 15).count();
        assert!(zeros > 4 * lasts);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_json(true, 3, 0, &[metric("a_ms", "ms", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
