//! `exobench compare a.json b.json`: for every workload and end-to-end metric,
//! both medians and quartiles, the ratio with its base, and a verdict from the
//! metric's bound: `ok`, `regressed`, or `unresolved` when the run-to-run
//! spread is wider than the bound itself.

use crate::json::Json;
use crate::spec::END_TO_END;
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    /// `[q1, median, q3]` over side A's runs, then side B's.
    pub a: [f64; 3],
    pub b: [f64; 3],
    pub runs: (usize, usize),
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    /// B's median over A's: the base of the ratio is side A.
    pub fn ratio(&self) -> f64 {
        self.b[1] / self.a[1]
    }

    /// The wider of the two sides' inter-quartile spreads, as a share of the median.
    pub fn spread(&self) -> f64 {
        let of = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
        of(self.a).max(of(self.b))
    }

    pub fn to_json(&self) -> Json {
        let side = |q: [f64; 3], runs: usize| {
            Json::obj([
                ("median", Json::Num(q[1])),
                ("q1", Json::Num(q[0])),
                ("q3", Json::Num(q[2])),
                ("runs", Json::from(runs)),
            ])
        };
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("metric", Json::str(self.metric)),
            ("unit", Json::str(self.unit)),
            ("a", side(self.a, self.runs.0)),
            ("b", side(self.b, self.runs.1)),
            ("ratio_b_over_a", Json::Num(self.ratio())),
            ("spread", Json::Num(self.spread())),
            ("bound", Json::Num(self.bound)),
            ("verdict", Json::str(self.verdict.as_str())),
        ])
    }
}

/// Every run's value of `metric` for `workload` in a results document.
fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    match m.get("values").and_then(Json::as_arr) {
        Some(vs) => vs.iter().map(Json::as_f64).collect(),
        None => Some(vec![m.get("value")?.as_f64()?]),
    }
}

fn judge(a: [f64; 3], b: [f64; 3], better: &str, bound: f64, spread: f64) -> Verdict {
    // How much worse B's median is than A's, as a share of A's.
    let worse_by = match better {
        "lower" => (b[1] - a[1]) / a[1],
        _ => (a[1] - b[1]) / a[1],
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row per (workload, end-to-end metric) present in both documents.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("side A has no 'workloads' object")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in &END_TO_END {
            let (Some(mut va), Some(mut vb)) =
                (values(a, workload, m.name), values(b, workload, m.name))
            else {
                continue;
            };
            va.sort_by(f64::total_cmp);
            vb.sort_by(f64::total_cmp);
            let mut row = Row {
                workload: workload.clone(),
                metric: m.name,
                unit: m.unit,
                a: quartiles(&va),
                b: quartiles(&vb),
                runs: (va.len(), vb.len()),
                bound: m.bound,
                verdict: Verdict::Ok,
            };
            row.verdict = judge(row.a, row.b, m.better, m.bound, row.spread());
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(rows)
}

pub fn print_table(rows: &[Row]) {
    eprintln!(
        "{:<15} {:<20} {:>12} {:>12} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "spread", "bound"
    );
    for r in rows {
        eprintln!(
            "{:<15} {:<20} {:>12.4} {:>12.4} {:>16.4} {:>8.4} {:>6.2}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a[1],
            r.b[1],
            r.ratio(),
            r.spread(),
            r.bound,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(values: &[f64]) -> Json {
        let metric = Json::obj([
            ("value", Json::Num(values[values.len() / 2])),
            (
                "values",
                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]);
        let workload = Json::obj([("metrics", Json::obj([("stmt_p50_ms", metric)]))]);
        Json::obj([("workloads", Json::obj([("w", workload)]))])
    }

    fn verdict(a: &[f64], b: &[f64]) -> Verdict {
        compare(&doc(a), &doc(b)).unwrap()[0].verdict
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let steady = [10.0, 10.1, 10.2, 10.3, 10.4];
        assert_eq!(verdict(&steady, &steady), Verdict::Ok);
        // 40 % slower: beyond any bound the contract allows (at most 0.25).
        assert_eq!(
            verdict(&steady, &[14.0, 14.1, 14.2, 14.3, 14.4]),
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(verdict(&steady, &[5.0, 5.1, 5.2, 5.3, 5.4]), Verdict::Ok);
        // Spread wider than the bound: no verdict either way.
        assert_eq!(
            verdict(&steady, &[6.0, 9.0, 12.0, 15.0, 18.0]),
            Verdict::Unresolved
        );
    }
}
