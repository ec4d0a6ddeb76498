//! Order statistics used by the reports.

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when
/// empty.  Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The mean of the middle half of `values` (between the quartiles): smooth
/// where a median of quantised simulated times sits on one value, and
/// robust where a mean is dragged by a few outage-long recoveries.  Sorts
/// in place; 0 when empty.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let q = values.len() / 4;
    let mid = &values[q..values.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}
