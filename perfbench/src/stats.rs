//! Small numeric helpers: order statistics, the FNV-1a digest behind
//! `outputs_digest` / `config_digest`, and the process's peak RSS.

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail of `xs`: the highest percentile that still has at least ten
/// samples beyond it, as `(value, percentile, sample count)`.  Below 20
/// samples that percentile would fall under the median, so the maximum is
/// returned at percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n < 20 {
        return (v[n - 1], 100.0, n);
    }
    let k = n - 11; // exactly ten samples lie above index k
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Incremental FNV-1a, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
        self
    }

    /// Mixes a string plus a separator, so `("ab","c")` ≠ `("a","bc")`.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Mixes an integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Mixes the exact bits of a float.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used so far, over all its threads
/// (exited ones included), from `/proc/self/stat`; 0 where `/proc` is
/// unavailable.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0) // USER_HZ
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        // 40 samples: the value with exactly ten above it is 30, the 75th
        // percentile.
        assert_eq!(tail(&xs), (30.0, 75.0, 40));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0, 2));
        assert_eq!(tail(&xs[..12]), (12.0, 100.0, 12));
    }

    #[test]
    fn digest_separates_fields() {
        let a = Fnv::default().str("ab").str("c").finish();
        let b = Fnv::default().str("a").str("bc").finish();
        assert_ne!(a, b);
    }
}
