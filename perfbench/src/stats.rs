//! Order statistics for the benchmark's samples: medians, quartiles and
//! the highest percentile that still has at least ten samples beyond it.

/// Samples needed beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between the two nearest order statistics. `None` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// First and third quartiles of `xs`.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    Some((quantile(xs, 0.25)?, quantile(xs, 0.75)?))
}

/// The highest of the usual reporting percentiles (99, 95, 90, 75, 50)
/// that leaves at least [`TAIL_SAMPLES`] of `n` samples beyond it.
/// `None` when even the median would not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= TAIL_SAMPLES * 100)
}

/// Per-step minimum over repetitions: entry `i` is the least time step
/// `i` took in any repetition. Interference from the rest of the host
/// only ever slows a step down, so the minimum over enough repetitions
/// estimates the step's own cost. Repetitions must have equal length.
pub fn stepwise_min(reps: &[&[f64]]) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "repetitions of unequal length"
    );
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Spread of `xs` as the interquartile distance over the median.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quartiles(&xs), Some((1.75, 3.25)));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), Some(5.0));
        assert_eq!(median(&a), median(&b));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn stepwise_min_takes_each_step_from_its_fastest_repetition() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 6.0];
        assert_eq!(stepwise_min(&[&a, &b]), vec![2.0, 1.0, 5.0]);
        assert_eq!(stepwise_min(&[&a]), a.to_vec());
        assert!(stepwise_min(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn stepwise_min_rejects_ragged_repetitions() {
        stepwise_min(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| x * 1000.0).collect();
        assert_eq!(relative_iqr(&xs), Some(2.0 / 3.0));
        assert_eq!(relative_iqr(&xs), relative_iqr(&ys));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }
}
