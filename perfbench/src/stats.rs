//! Order statistics for the reported metrics.

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `q` quantile, linearly interpolated between the two nearest
/// order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The intercept of the least-squares line through `points` (x, y).
pub fn intercept(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.is_empty() {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return my;
    }
    my - (sxy / sxx) * mx
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn intercept_of_a_line() {
        let pts = [(1.0, 5.0), (2.0, 7.0), (4.0, 11.0)];
        assert!((intercept(&pts) - 3.0).abs() < 1e-9);
    }
}
