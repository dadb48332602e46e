//! Order statistics, output hashing and process measurements.

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p).clamp(1, v.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The nearest rank of percentile `p` among `n` samples, immune to
/// `p / 100 · n` landing a rounding error above a whole number.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of `CANDIDATES` that leaves at least ten of
/// `n` samples beyond it (the tail a sample of `n` supports).
pub fn supported_tail(n: usize) -> f64 {
    const CANDIDATES: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0];
    CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10).unwrap_or(50.0)
}

/// A reported tail: the percentile, its value, and the sample it came from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

impl Tail {
    /// Percentile `pct` of `values`. A fixed percentile keeps runs
    /// comparable; when a run is too short to leave ten samples beyond
    /// it, the highest supported percentile is used instead and the
    /// result line says so.
    pub fn of(values: &[f64], pct: f64) -> Self {
        let n = values.len();
        let pct = if beyond(n, pct) >= 10 { pct } else { supported_tail(n) };
        Self { pct, value: percentile(values, pct), samples: n }
    }

    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples ({} beyond)",
            self.pct,
            self.samples,
            beyond(self.samples, self.pct)
        )
    }
}

/// FNV-1a over a stream of byte slices: the output fingerprint the
/// correctness gate compares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn i8s(&mut self, data: &[i8]) {
        for &b in data {
            self.bytes(&[b as u8]);
        }
    }
}

/// Peak resident set size (`VmHWM`) in MB; `NaN` off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let t = Tail::of(&v, 99.0);
        assert_eq!(t.pct, 95.0, "200 samples cannot support p99");
    }
}
