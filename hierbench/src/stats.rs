//! The benchmark's own arithmetic: medians, supported percentiles,
//! self time from span intervals, and ratios that carry their base.

/// Fewest samples that must lie above a reported percentile: a
/// percentile with fewer samples beyond it is one or two outliers, not
/// a distribution tail.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` in `(0, 1)` of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Samples a run needs before `percentile(values, q)` is supported.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).max(1) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// A half-open time interval `[start, end)` in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, nanoseconds since the trace origin.
    pub start: u64,
    /// End, nanoseconds since the trace origin.
    pub end: u64,
}

/// Self time of a span: its duration minus the part of it that the
/// union of its children's intervals covers. Children may overlap one
/// another or stick out of the parent; only covered parent time counts.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    parent.end.saturating_sub(parent.start) - covered
}

/// A ratio reported together with its base (the denominator), so a
/// reader can tell 1 of 2 from 500 of 1000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub part: f64,
    /// Denominator.
    pub base: f64,
}

impl Ratio {
    /// The quotient; `None` on a zero base.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0).then(|| self.part / self.base)
    }

    /// The quotient and its base as two named metrics, `name` and
    /// `name.base`.
    pub fn metrics(&self, name: &str, unit: &str) -> Vec<(String, f64, String)> {
        vec![
            (
                name.to_string(),
                self.value().unwrap_or(0.0),
                "ratio".into(),
            ),
            (format!("{name}.base"), self.base, unit.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None, "99 samples leave 9 above p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.9),
            Some(90.0),
            "100 samples leave 10 above"
        );
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.99), 1000);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Some(180.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Interval { start: 0, end: 100 };
        assert_eq!(self_time(parent, &[]), 100);
        let disjoint = [
            Interval { start: 10, end: 20 },
            Interval { start: 30, end: 50 },
        ];
        assert_eq!(self_time(parent, &disjoint), 70);
        // Overlapping children count their union once.
        let overlapping = [
            Interval { start: 10, end: 40 },
            Interval { start: 20, end: 50 },
            Interval { start: 45, end: 60 },
        ];
        assert_eq!(self_time(parent, &overlapping), 50);
        // Children sticking out of the parent count only inside it.
        let outside = [
            Interval { start: 0, end: 0 },
            Interval {
                start: 90,
                end: 150,
            },
            Interval {
                start: 200,
                end: 300,
            },
        ];
        assert_eq!(self_time(parent, &outside), 90);
        let shifted = Interval {
            start: 1000,
            end: 1100,
        };
        assert_eq!(
            self_time(
                shifted,
                &[Interval {
                    start: 900,
                    end: 1050
                }]
            ),
            50
        );
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio {
            part: 3.0,
            base: 12.0,
        };
        assert_eq!(r.value(), Some(0.25));
        let m = r.metrics("stream.tick_fresh_ratio", "count");
        assert_eq!(m[0].0, "stream.tick_fresh_ratio");
        assert_eq!(
            m[1],
            (
                "stream.tick_fresh_ratio.base".to_string(),
                12.0,
                "count".into()
            )
        );
        assert_eq!(
            Ratio {
                part: 1.0,
                base: 0.0
            }
            .value(),
            None
        );
    }
}
