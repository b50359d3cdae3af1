//! Order statistics, the output digest, and the peak-RSS reader.

/// Median of `values` (mean of the two middle elements for an even count);
/// `None` for empty input. NaNs sort last and are never produced by the
/// harness.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// `(min, max)` of `values`; `None` for empty input.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    Some(
        values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// The `q`-quantile (nearest rank) of an ascending-sorted sample, subject to
/// the reporting rule that a percentile needs at least `beyond` samples
/// strictly above its rank: p99 of 700 samples has 7 beyond it and is
/// refused when `beyond` is 10. `None` for empty input or too few samples.
pub fn percentile(sorted: &[u64], q: f64, beyond: usize) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted.len() - 1 - idx >= beyond).then(|| sorted[idx])
}

/// FNV-1a 64-bit running digest over the deterministic outputs of a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    /// Folds the exact bit pattern, so "equal digests" means bit-for-bit
    /// equal floats.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc/self/status` is unreadable (non-Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(min_max(&[]), None);
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), Some((-1.0, 5.0)));
    }

    #[test]
    fn percentile_needs_samples_beyond_it() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&[], 0.5, 0), None);
        assert_eq!(percentile(&sorted, 0.5, 10), Some(500));
        // p99 of 1000 is rank 990: exactly 10 samples lie beyond it.
        assert_eq!(percentile(&sorted, 0.99, 10), Some(990));
        assert_eq!(percentile(&sorted, 0.99, 11), None);
        // p99.9 has one sample beyond it: refused.
        assert_eq!(percentile(&sorted, 0.999, 10), None);
        // 15 samples: the median has seven beyond it, not ten.
        let few: Vec<u64> = (1..=15).collect();
        assert_eq!(percentile(&few, 0.5, 10), None);
        assert_eq!(percentile(&few, 0.5, 7), Some(8));
        assert_eq!(percentile(&sorted, 1.5, 0), None);
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector for \"a\"");
        let (mut x, mut y) = (Digest::new(), Digest::new());
        x.u64(1);
        x.u64(2);
        y.u64(2);
        y.u64(1);
        assert_ne!(x, y);
        let (mut n, mut z) = (Digest::new(), Digest::new());
        n.opt_f64(None);
        z.opt_f64(Some(0.0));
        assert_ne!(n, z);
    }

    #[test]
    fn vm_hwm_parses_or_is_absent() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  181248 kB\n"),
            Some(181_248)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
