//! The benchmark's arithmetic: percentiles with their sample support,
//! medians, self time over nested spans, and the exact-repeat share of a
//! statement stream.

use std::collections::HashSet;

/// Samples that must lie beyond a reported percentile for it to count as
/// supported by the run.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that say how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Pct {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile of `values` (`q` in `0.0..=1.0`): the smallest
/// sample with at least `q` of the samples at or below it. `None` when
/// there are no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<Pct> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One timed interval of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The statement the span belongs to; every span of one statement
    /// shares it.
    pub stmt: u64,
    pub name: &'static str,
    /// Nanoseconds since the traced run's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its direct children (overlapping children
/// count once; a child sticking out of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.duration();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|&(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in clipped {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration() - covered
        })
        .collect()
}

/// Share of statements whose exact text already occurred earlier in the
/// stream: the most a result cache keyed on the statement could hit.
pub fn repeat_share<'a>(stmts: impl IntoIterator<Item = &'a str>) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for s in stmts {
        total += 1;
        if !seen.insert(s) {
            repeats += 1;
        }
    }
    ratio(repeats as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&thousand, 0.99).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
        assert!(p.supported());

        let p = percentile(&thousand[..999], 0.99).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.supported());

        // The median of a handful of samples is well supported.
        let p = percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5).unwrap();
        assert_eq!((p.value, p.beyond), (3.0, 2));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 7,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            // Overlaps the first child: counted once.
            span(3, Some(1), 20, 50),
            span(4, Some(1), 60, 70),
            // A grandchild reduces its parent, not the root.
            span(5, Some(4), 62, 65),
            // Sticks out of its parent: only the inside counts.
            span(6, Some(2), 25, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 7, 3, 15]);
    }

    #[test]
    fn repeat_share_counts_later_occurrences() {
        let stream = ["a", "b", "a", "c", "a"];
        assert_eq!(repeat_share(stream), 2.0 / 5.0);
        assert_eq!(repeat_share(["x", "y"]), 0.0);
        assert_eq!(repeat_share(std::iter::empty()), 0.0);
    }
}
