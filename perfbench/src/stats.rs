//! Small numeric helpers: a seeded generator, percentiles, medians.

/// SplitMix64: a tiny, well-mixed generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Low-discrepancy point `i` of the golden-ratio sequence shifted by
/// `offset`: every prefix covers `[0, 1)` nearly evenly, so figures that
/// average over generated factors barely depend on the seed, while no two
/// points coincide.
pub fn golden(i: u64, offset: f64) -> f64 {
    const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
    (offset + i as f64 * PHI_FRAC).fract()
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; `NaN`
/// when empty. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Figures of an ordered sample stream cut into timing blocks, each the
/// median over the quieter half of the blocks: those that saw no more
/// hypervisor steal than the median block. Steal slows whole stretches of
/// a run on a shared host; ranking blocks by it keeps those stretches out
/// of the figures without discarding anything the program itself did.
#[derive(Debug, Clone, Copy)]
pub struct Blocked {
    /// Median over kept blocks of samples per unit of summed sample value
    /// (operations per ms when samples are ms).
    pub rate: f64,
    /// Median over kept blocks of the block median.
    pub p50: f64,
    /// Median over kept blocks of the block's tail quantile.
    pub tail: f64,
}

/// Cuts a sample stream into blocks as it arrives, summarising each block
/// (and the steal ticks it saw) when it closes, so memory stays constant
/// however long the run.
#[derive(Debug)]
pub struct Blocks {
    size: usize,
    tail: f64,
    steal_at_start: Option<u64>,
    open: Vec<f64>,
    /// (steal ticks, rate, p50, tail) of every closed block.
    closed: Vec<(u64, f64, f64, f64)>,
}

impl Blocks {
    /// Blocks of `size` samples summarised at the `tail` quantile,
    /// starting now.
    pub fn new(size: usize, tail: f64) -> Blocks {
        Blocks {
            size: size.max(1),
            tail,
            steal_at_start: crate::stamp::steal_ticks(),
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Starts the open block's steal count now (for blocks that are whole
    /// runs, with untimed work between them).
    pub fn restart(&mut self) {
        self.steal_at_start = crate::stamp::steal_ticks();
    }

    /// Adds a sample, closing the block when it is full.
    pub fn push(&mut self, sample: f64) {
        self.open.push(sample);
        if self.open.len() >= self.size {
            self.close();
        }
    }

    /// Closes the open block (the end of a run, for blocks that are whole
    /// runs); does nothing when it is empty.
    pub fn close(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let now = crate::stamp::steal_ticks();
        let steal = match (self.steal_at_start, now) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        let rate = self.open.len() as f64 / self.open.iter().sum::<f64>();
        let p50 = quantile(&mut self.open, 0.5);
        let tail = quantile(&mut self.open, self.tail);
        self.closed.push((steal, rate, p50, tail));
        self.open.clear();
        self.steal_at_start = now;
    }

    /// The figures over the quieter half of the closed blocks. A trailing
    /// partial block counts only when no block filled up.
    pub fn summary(&mut self) -> Blocked {
        if self.closed.is_empty() {
            self.close();
        }
        let mut steals: Vec<f64> = self.closed.iter().map(|b| b.0 as f64).collect();
        let quiet = median(&mut steals);
        let kept = self.closed.iter().filter(|b| b.0 as f64 <= quiet);
        let pick = |f: fn(&(u64, f64, f64, f64)) -> f64| {
            median(&mut kept.clone().map(f).collect::<Vec<_>>())
        };
        Blocked {
            rate: pick(|b| b.1),
            p50: pick(|b| b.2),
            tail: pick(|b| b.3),
        }
    }
}

/// Geometric mean of positive `values`; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn golden_points_are_distinct_and_in_range() {
        let pts: Vec<f64> = (0..1000).map(|i| golden(i, 0.3)).collect();
        assert!(pts.iter().all(|p| (0.0..1.0).contains(p)));
        let mut sorted = pts.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
