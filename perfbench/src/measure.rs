//! Measurement plumbing: sample sets with medians and quartiles, the
//! output digest, failure accounting and the process memory high-water
//! mark.

/// Repeated measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Add one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(q1, median, q3)` by linear interpolation between order
    /// statistics; all zero when empty.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        if self.0.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        (at(0.25), at(0.5), at(0.75))
    }

    /// The median (0 when empty).
    pub fn median(&self) -> f64 {
        self.quartiles().1
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

/// FNV-1a over the simulated outputs of one workload unit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in one number.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Ops attempted and failed. Every unit of a workload is one op; it
/// fails when one of its output checks fails or when its digest differs
/// from the first unit's (all units of a run share the seed, so their
/// simulated outputs must be identical).
#[derive(Debug, Clone, Default)]
pub struct Ops {
    /// Units run.
    pub attempted: u64,
    /// Units with at least one failed check.
    pub failed: u64,
    /// Digest of the first unit, which every later unit must repeat.
    pub reference: Option<u64>,
    /// What went wrong, for the report (first few only).
    pub problems: Vec<String>,
}

impl Ops {
    /// Most problems kept for printing.
    const KEEP: usize = 8;

    /// Account one unit with its digest and the failures its own checks
    /// found.
    pub fn record(&mut self, digest: u64, mut problems: Vec<String>) {
        match self.reference {
            None => self.reference = Some(digest),
            Some(r) if r != digest => problems.push(format!(
                "digest {digest:#018x} differs from the first unit's {r:#018x}"
            )),
            Some(_) => {}
        }
        self.record_undigested(problems);
    }

    /// Account one unit that has no digest to compare (a check run at
    /// another seed than the measured units).
    pub fn record_undigested(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = Self::KEEP.saturating_sub(self.problems.len());
            self.problems.extend(problems.into_iter().take(room));
        }
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or
/// `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
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
    fn quartiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.quartiles(), (2.0, 3.0, 4.0));
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn perturbed_digest_counts_as_a_failed_op() {
        let mut ops = Ops::default();
        ops.record(42, Vec::new());
        ops.record(42, Vec::new());
        assert_eq!((ops.attempted, ops.failed), (2, 0));
        ops.record(42 ^ 1, Vec::new());
        assert_eq!((ops.attempted, ops.failed), (3, 1));
        ops.record(42, vec!["delivered > sent".into()]);
        assert_eq!((ops.attempted, ops.failed), (4, 2));
        assert_eq!(ops.problems.len(), 2);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
