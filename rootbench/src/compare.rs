//! `rootbench compare A.json B.json`: two sets of runs, one row per
//! (metric, workload), judged against the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats;

/// How run B reads against run A on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better than A's by more than the bound.
    Better,
    /// The spread inside a run is wider than the bound and the two runs'
    /// values overlap: the metric cannot tell the runs apart.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's values against A's. `bound` is the share of A's median by
/// which B's may be worse; `higher_is_better` gives the direction.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    // Fold the direction away: from here on, larger is worse.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = sign * (mb - ma) / ma.abs();
    if stats::iqr_share(a).max(stats::iqr_share(b)) > bound {
        let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
        let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        return if best(b) > worst(a) && change > bound {
            Verdict::Worse
        } else if worst(b) < best(a) && change < -bound {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").map(Json::items).unwrap_or_default()
}

fn values(record: &Json, metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = record
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .items()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Prints the comparison and returns how many rows read `worse`.
pub fn compare(a: &Json, b: &Json, manifest: &Json) -> Result<usize, String> {
    let metrics = manifest.get("end_to_end").map(Json::items).unwrap_or_default();
    if metrics.is_empty() {
        return Err("the manifest declares no end_to_end metrics".to_string());
    }
    let mut worse = 0;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for ra in workloads(a) {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(rb) = workloads(b)
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} missing from B");
            worse += 1;
            continue;
        };
        for m in metrics {
            let metric = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("a metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (values(ra, metric), values(rb, metric)) else {
                println!("{name:<16} {metric:<14} missing from a record");
                worse += 1;
                continue;
            };
            let v = verdict(&va, &vb, bound, higher);
            worse += usize::from(v == Verdict::Worse);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{name:<16} {metric:<14} {ma:>14.4} {mb:>14.4} {:>9.4} {:>6.0}%  {}",
                mb / ma,
                bound * 100.0,
                v.word()
            );
        }
        // Failures have no bound: any increase is a regression.
        let share = |r: &Json| r.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let (fa, fb) = (share(ra), share(rb));
        let v = if fb > fa { Verdict::Worse } else { Verdict::Within };
        worse += usize::from(v == Verdict::Worse);
        println!(
            "{name:<16} {:<14} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {}",
            "failed_share",
            "-",
            "any",
            v.word()
        );
        let print = |r: &Json| r.get("fingerprint").and_then(Json::as_str).unwrap_or("?").to_string();
        if print(ra) != print(rb) {
            println!("{name:<16} outputs differ: A [{}] B [{}]", print(ra), print(rb));
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_runs_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&a, &[102.0, 103.0, 102.5], 0.05, false), Verdict::Within);
        assert_eq!(verdict(&a, &[107.0, 108.0, 107.5], 0.05, false), Verdict::Worse);
        assert_eq!(verdict(&a, &[90.0, 91.0, 90.5], 0.05, false), Verdict::Better);
        // The same numbers as a throughput: direction flips.
        assert_eq!(verdict(&a, &[107.0, 108.0, 107.5], 0.05, true), Verdict::Better);
        assert_eq!(verdict(&a, &[90.0, 91.0, 90.5], 0.05, true), Verdict::Worse);
        assert_eq!(verdict(&[5.0], &[5.1], 0.05, false), Verdict::Within);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let noisy_a = [80.0, 100.0, 120.0, 95.0, 105.0];
        let noisy_b = [85.0, 110.0, 125.0, 100.0, 115.0];
        assert_eq!(verdict(&noisy_a, &noisy_b, 0.05, false), Verdict::Unresolved);
        assert_eq!(verdict(&noisy_b, &noisy_a, 0.05, false), Verdict::Unresolved);
        // Wide but disjoint: every run of B is worse than every run of A.
        let far_b = [160.0, 200.0, 240.0, 190.0, 210.0];
        assert_eq!(verdict(&noisy_a, &far_b, 0.05, false), Verdict::Worse);
        assert_eq!(verdict(&far_b, &noisy_a, 0.05, false), Verdict::Better);
    }

    #[test]
    fn compare_counts_worse_rows_and_any_new_failure() {
        let manifest = crate::json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]}"#,
        )
        .unwrap();
        let doc = |ops: &str, failed_share: &str| {
            crate::json::parse(&format!(
                r#"{{"workloads": [{{"workload": "w", "failed_share": {failed_share}, "fingerprint": "f",
                   "metrics": {{"ops_per_s": {{"values": {ops}}}}}}}]}}"#
            ))
            .unwrap()
        };
        let base = doc("[100, 101, 99]", "0");
        assert_eq!(compare(&base, &doc("[100, 102, 98]", "0"), &manifest), Ok(0));
        assert_eq!(compare(&base, &doc("[90, 91, 89]", "0"), &manifest), Ok(1));
        assert_eq!(compare(&base, &doc("[100, 101, 99]", "0.001"), &manifest), Ok(1));
        assert_eq!(
            compare(&base, &crate::json::parse(r#"{"workloads": []}"#).unwrap(), &manifest),
            Ok(1)
        );
    }
}
