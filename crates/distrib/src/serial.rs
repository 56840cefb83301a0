//! Serial (auto-increment) value stream.

use amnesia_util::SimRng;

use crate::DataDistribution;

/// Auto-increment values: 0, 1, 2, …
///
/// Models both a surrogate key and the temporal order of insertions (paper
/// §2.1). Values keep growing past the configured domain — an
/// auto-increment column does not wrap — which is exactly what makes
/// query-based rot on serial data behave like FIFO (old keys fall out of
/// every fresh query range).
#[derive(Debug, Clone)]
pub struct SerialDistribution {
    next: i64,
    domain: i64,
}

impl SerialDistribution {
    /// Counter starting at zero.
    pub fn new(domain: i64) -> Self {
        Self { next: 0, domain }
    }
}

impl DataDistribution for SerialDistribution {
    fn sample(&mut self, _rng: &mut SimRng) -> i64 {
        let v = self.next;
        self.next += 1;
        v
    }

    fn domain(&self) -> i64 {
        self.domain
    }

    fn name(&self) -> &'static str {
        "serial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_consecutive_values() {
        let mut d = SerialDistribution::new(100);
        let mut rng = SimRng::new(0);
        for expect in 0..500 {
            assert_eq!(d.sample(&mut rng), expect);
        }
    }

    #[test]
    fn ignores_rng_state() {
        let mut d1 = SerialDistribution::new(10);
        let mut d2 = SerialDistribution::new(10);
        let mut r1 = SimRng::new(1);
        let mut r2 = SimRng::new(999);
        for _ in 0..50 {
            assert_eq!(d1.sample(&mut r1), d2.sample(&mut r2));
        }
    }
}
