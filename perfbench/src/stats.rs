//! The benchmark's own arithmetic: medians, tail percentiles, simulator
//! throughput, span self time and the paper-accuracy score. Kept free of
//! simulator types so the unit tests below pin every formula by hand.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make the tail a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of durations, in seconds.
pub fn median_secs(samples: &[Duration]) -> Option<f64> {
    median(
        &samples
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    )
}

/// The median, in seconds, of the fastest of each `group` back-to-back
/// samples. Host contention only ever slows a sample down, and comes in
/// spells that cover a share of a burst; the fastest of a group is slow
/// only when the whole group falls in a spell, so the median of group
/// minima stays put where the plain median follows the share of slow
/// samples. A burst's trailing partial group is left out.
pub fn median_of_group_minima(bursts: &[&[Duration]], group: usize) -> Option<f64> {
    let minima: Vec<Duration> = bursts
        .iter()
        .flat_map(|b| b.chunks_exact(group.max(1)))
        .filter_map(|g| g.iter().min().copied())
        .collect();
    median_secs(&minima)
}

/// The nearest-rank `p`-th percentile, or `None` unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Host time one simulation point spent simulating.
#[derive(Clone, Copy, Debug)]
pub struct PointTime {
    pub instructions: u64,
    pub busy: Duration,
}

/// Simulated instructions per host second inside point simulations, in
/// millions. Only the points' own busy time is summed, so time the
/// runner spends idle at a barrier or between points does not count.
pub fn sim_mips(points: &[PointTime]) -> Option<f64> {
    let instructions: u64 = points.iter().map(|p| p.instructions).sum();
    let busy: f64 = points.iter().map(|p| p.busy.as_secs_f64()).sum();
    (busy > 0.0).then(|| instructions as f64 / busy / 1e6)
}

/// One traced interval. `parent` indexes the span that caused it in the
/// same list; spans of one request share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One paper speedup claim: the mean of the measured speedups in
/// `column` over `workloads` is compared with `paper`.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    pub label: String,
    pub column: String,
    pub workloads: Vec<String>,
    pub paper: f64,
}

/// Parses the tab-separated claim table (`label column workloads paper`,
/// workloads comma-separated; `#` starts a comment line).
pub fn parse_claims(text: &str) -> Result<Vec<Claim>, String> {
    let mut claims = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [label, column, workloads, paper] = fields[..] else {
            return Err(format!(
                "claim line {}: expected 4 tab-separated fields",
                i + 1
            ));
        };
        let paper: f64 = paper
            .parse()
            .map_err(|_| format!("claim line {}: bad paper value {paper:?}", i + 1))?;
        claims.push(Claim {
            label: label.to_string(),
            column: column.to_string(),
            workloads: workloads.split(',').map(str::to_string).collect(),
            paper,
        });
    }
    if claims.is_empty() {
        return Err("no claims".into());
    }
    Ok(claims)
}

/// The claims whose every speedup `measured` can look up: a workload
/// that runs only some of the paper's points is scored on those.
pub fn covered(claims: &[Claim], measured: impl Fn(&str, &str) -> Option<f64>) -> Vec<Claim> {
    claims
        .iter()
        .filter(|c| c.workloads.iter().all(|w| measured(w, &c.column).is_some()))
        .cloned()
        .collect()
}

/// Mean absolute error, in percent of the paper value, of the measured
/// speedups against `claims`. `measured(workload, column)` looks up one
/// fresh speedup; a missing one is an error.
pub fn paper_err_pct(
    claims: &[Claim],
    measured: impl Fn(&str, &str) -> Option<f64>,
) -> Result<f64, String> {
    let mut total = 0.0;
    for c in claims {
        let mut sum = 0.0;
        for w in &c.workloads {
            sum += measured(w, &c.column).ok_or_else(|| {
                format!(
                    "claim {}: no measured {} speedup for {w}",
                    c.label, c.column
                )
            })?;
        }
        let mean = sum / c.workloads.len() as f64;
        total += (mean - c.paper).abs() / c.paper * 100.0;
    }
    Ok(total / claims.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn setup_takes_the_median_of_group_minima() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        // Groups of 3: [100,250,260] [240,110,250] [250,260,120] | [300]
        // left out; minima 100, 110, 120. Half the samples are slow, and
        // the plain median (250) lands among them.
        let a = ms(&[100, 250, 260, 240, 110, 250, 250, 260, 120, 300]);
        // Groups: [130,270,280] [290,300,310]: minima 130 and 290. The
        // median of 100, 110, 120, 130, 290 is 120.
        let b = ms(&[130, 270, 280, 290, 300, 310]);
        let got = median_of_group_minima(&[&a, &b], 3).unwrap();
        assert!((got - 0.120).abs() < 1e-12, "{got}");
        assert_eq!(median_secs(&a), Some(0.25));
        assert_eq!(median_of_group_minima(&[&a[..2]], 3), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        // 999 samples: rank 990 leaves 9 beyond, too few.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn sim_mips_excludes_runner_idle_time() {
        // Two points of 1 s busy each inside a 3 s wall (1 s idle at a
        // barrier): 4M instructions over 2 busy seconds, not 3.
        let points = [
            PointTime {
                instructions: 1_000_000,
                busy: Duration::from_secs(1),
            },
            PointTime {
                instructions: 3_000_000,
                busy: Duration::from_secs(1),
            },
        ];
        assert_eq!(sim_mips(&points), Some(2.0));
        assert_eq!(sim_mips(&[]), None);
    }

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // runs past the parent's end
            span("a.1", 15, 20, Some(1)),
        ];
        // root: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn paper_error_on_a_hand_computed_table() {
        let claims = parse_claims(
            "# comment\n\
             sw\tSLICC-SW\tA\t1.60\n\
             mean\tSLICC\tA,B\t1.50\n\
             flat\tSLICC\tM\t1.00\n",
        )
        .unwrap();
        let table = |w: &str, c: &str| match (w, c) {
            ("A", "SLICC-SW") => Some(1.20),
            ("A", "SLICC") => Some(1.40),
            ("B", "SLICC") => Some(1.80),
            ("M", "SLICC") => Some(0.90),
            _ => None,
        };
        // |1.20-1.60|/1.60 = 25 %; mean(1.40,1.80) = 1.60 vs 1.50 = 6.67 %;
        // |0.90-1.00| = 10 %; MAE = 41.67 / 3 = 13.89 %.
        let err = paper_err_pct(&claims, table).unwrap();
        assert!(
            (err - (25.0 + 0.1 / 1.5 * 100.0 + 10.0) / 3.0).abs() < 1e-9,
            "{err}"
        );
        let missing = parse_claims("x\tPIF\tA\t1.0\n").unwrap();
        assert!(paper_err_pct(&missing, table).is_err());
        // Only the claims the table can score are kept.
        let mixed = parse_claims("x\tPIF\tA\t1.0\nsw\tSLICC-SW\tA\t1.60\n").unwrap();
        let kept = covered(&mixed, table);
        assert_eq!(kept.len(), 1);
        assert!((paper_err_pct(&kept, table).unwrap() - 25.0).abs() < 1e-9);
        assert!(parse_claims("bad line\n").is_err());
    }
}
