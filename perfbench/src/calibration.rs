//! Machine-speed calibration for the end-to-end timings.
//!
//! Absolute speed on a shared VM drifts by 10 to 30 % within minutes,
//! more than any useful regression bound. The runner therefore times a
//! fixed kernel of the benchmark's own every [`REFRESH`] between queries
//! and scales each query's wall time by `REFERENCE_KERNEL_MS` over the
//! median kernel time within [`WINDOW`] of the query. The result reads as
//! milliseconds on the reference VM at its nominal speed: a change to the
//! program moves it, a change in the machine's speed mostly does not.
//! The raw wall times are printed beside it.
//!
//! The kernel shares no code with the program. It mixes the two kinds of
//! work the queries do: scalar transcendental arithmetic over a small
//! working set (like the tape sweeps) and many small short-lived
//! allocations (like the optimizers' point batches).

use std::time::{Duration, Instant};

/// The kernel's time on the reference VM (2 vCPUs) at its nominal speed.
pub const REFERENCE_KERNEL_MS: f64 = 2.4;

/// How often the kernel is timed between queries. Rare enough that the
/// queries right after a kernel pass stay out of the latency tail.
pub const REFRESH: Duration = Duration::from_secs(1);

/// How far around a query the kernel times that scale it may lie.
pub const WINDOW: Duration = Duration::from_secs(3);

/// One kernel pass; returns its wall time in milliseconds.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..24_000usize {
        let t = std::hint::black_box(5.0 + (i % 1024) as f64 * 0.0244);
        let exposure = -(-0.13 * t).exp_m1();
        let survival = 0.5 * (1.0 - ((t - 4.0) * 0.35).tanh());
        acc += exposure * survival + (-(exposure * 1e-3)).ln_1p() * t.sqrt();
    }
    for i in 0..6_000usize {
        let points: Vec<Vec<f64>> = (0..4)
            .map(|k| vec![5.0 + (i + k) as f64 * 1e-3, 7.0])
            .collect();
        let values: Vec<f64> = points.iter().map(|p| (-0.13 * p[0]).exp() * p[1]).collect();
        acc += std::hint::black_box(values).iter().sum::<f64>();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Kernel times taken during a loop, and the scales they give.
#[derive(Debug, Default)]
pub struct Calibrator {
    samples: Vec<(Instant, f64)>,
}

impl Calibrator {
    /// A calibrator with one fresh kernel sample.
    pub fn new() -> Self {
        let mut c = Self::default();
        c.sample();
        c
    }

    /// Times the kernel now.
    pub fn sample(&mut self) {
        let ms = kernel_ms();
        self.samples.push((Instant::now(), ms));
    }

    /// Times the kernel when [`REFRESH`] has passed since the last
    /// sample. Call it between queries, outside the timed region.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= REFRESH)
        {
            self.sample();
        }
    }

    /// The scale for a query run from `start` to `end`: the reference
    /// kernel time over the median kernel time within [`WINDOW`] of the
    /// query, or over the nearest kernel time when none is that close.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        let (lo, hi) = (start.checked_sub(WINDOW).unwrap_or(start), end + WINDOW);
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at >= lo && *at <= hi)
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            let distance = |at: Instant| {
                if at < start {
                    start - at
                } else {
                    at.saturating_duration_since(end)
                }
            };
            near.extend(
                self.samples
                    .iter()
                    .min_by_key(|(at, _)| distance(*at))
                    .map(|&(_, ms)| ms),
            );
        }
        near.sort_by(f64::total_cmp);
        crate::stats::median(&near).map_or(1.0, |ms| REFERENCE_KERNEL_MS / ms)
    }

    /// Every kernel time taken, in milliseconds.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ms)| ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_kernel_times_around_the_query() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let c = Calibrator {
            samples: vec![
                (at(0), 1.0),
                (at(4000), 4.0),
                (at(4200), 4.0),
                (at(12_000), 1.0),
            ],
        };
        // Only the two samples near the query count.
        assert_eq!(c.scale(at(4100), at(4150)), REFERENCE_KERNEL_MS / 4.0);
        // None within the window: the nearest one does.
        assert_eq!(c.scale(at(7300), at(7400)), REFERENCE_KERNEL_MS / 4.0);
        assert_eq!(c.scale(at(8700), at(8800)), REFERENCE_KERNEL_MS / 1.0);
    }
}
