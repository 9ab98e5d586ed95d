//! Update-rate accounting (Section 4, Equations 1 and 16).

use std::time::Duration;

/// Equation 1: `Update Rate = N_D / (T_U + T_M)` updates/second, where `T_U`
/// is the time spent applying the `N_D` updates to the delta partitions and
/// `T_M` the time spent merging them back.
pub fn update_rate(n_updates: usize, t_u: Duration, t_m: Duration) -> f64 {
    let secs = (t_u + t_m).as_secs_f64();
    if secs == 0.0 {
        f64::INFINITY
    } else {
        n_updates as f64 / secs
    }
}

/// Equation 16: convert an amortized update cost (cycles per tuple per
/// column) into updates/second:
///
/// ```text
///            N_D * hz
/// rate = ----------------------------
///         cpt * (N_M + N_D) * N_C
/// ```
pub fn updates_per_second(cpt: f64, hz: f64, n_d: usize, total_tuples: usize, n_c: usize) -> f64 {
    (n_d as f64 * hz) / (cpt * total_tuples as f64 * n_c as f64)
}

/// The paper's two target update rates (Section 4): systems must sustain at
/// least the low target; high-update systems the high one.
pub const LOW_TARGET_UPDATES_PER_SEC: f64 = 3_000.0;
/// See [`LOW_TARGET_UPDATES_PER_SEC`]. [`crate::MergePolicy::is_due`]
/// scales merge eagerness by the observed write rate over this target.
pub const HIGH_TARGET_UPDATES_PER_SEC: f64 = 18_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_16_worked_example() {
        // "for N_D = 4 million and say N_C = 300, an update cost of 13.5
        // cycles per tuple evaluates to ~31,350 updates/second" at 3.3 GHz
        // with N_M = 100 million.
        let rate = updates_per_second(13.5, 3.3e9, 4_000_000, 104_000_000, 300);
        assert!((rate - 31_350.0).abs() / 31_350.0 < 0.01, "got {rate}");
    }

    #[test]
    fn equation_1_basics() {
        let r = update_rate(1000, Duration::from_millis(200), Duration::from_millis(300));
        assert!((r - 2000.0).abs() < 1e-9);
        assert!(update_rate(5, Duration::ZERO, Duration::ZERO).is_infinite());
    }

    #[test]
    fn rate_decreases_with_merge_time() {
        let fast = update_rate(1000, Duration::from_millis(100), Duration::from_millis(100));
        let slow = update_rate(1000, Duration::from_millis(100), Duration::from_millis(900));
        assert!(fast > slow);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn naive_implementation_misses_targets() {
        // Section 2: the naive implementation handled ~1,000 merged updates
        // per second on VBAP — below even the low target.
        assert!(1_000.0 < LOW_TARGET_UPDATES_PER_SEC);
        assert!(LOW_TARGET_UPDATES_PER_SEC < HIGH_TARGET_UPDATES_PER_SEC);
    }
}
