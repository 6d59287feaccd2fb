//! `cpbench --compare A.json B.json`: is B worse than A?
//!
//! A and B are result files written with `--out`. Every metric is judged by
//! its own rule from `BENCHMARK.json`:
//!
//! * virtual-clock metrics (`sim_*`, `*.sim_us`), `paper_err_pct`,
//!   `ok_share` and every `.count` must be **equal** — the simulator is
//!   deterministic, so at one seed any difference is a change in behaviour
//!   (a relative 1e-9 absorbs float formatting). Different in the worse
//!   direction is `worse`; different in the better direction is `ok`, with
//!   the change shown.
//! * `setup_s`, `host_ops_per_s`, `host_peak_rss_mb` may worsen by their
//!   `bound`, a share of A's value.
//! * per-layer host timings and ratios have no bound. One pair of runs
//!   cannot tell noise from change, so a difference beyond the widest
//!   end-to-end bound is `unresolved`, never `worse`.
//!
//! A metric missing on either side is `unresolved`. Exit code 1 when any row
//! is `worse`.

use std::collections::BTreeMap;

use cp_trace::Json;

use crate::spec::{Spec, SpecMetric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Must repeat exactly at one seed.
fn is_exact(m: &SpecMetric) -> bool {
    m.name.starts_with("sim_")
        || m.name == "paper_err_pct"
        || m.name == "ok_share"
        || m.name.ends_with(".sim_us")
        || m.name.ends_with(".count")
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &SpecMetric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(m: &SpecMetric, a: Option<f64>, b: Option<f64>, widest_bound: f64) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    if !a.is_finite() || !b.is_finite() {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(m, a, b);
    if is_exact(m) {
        let equal = (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        if equal || worse_by < 0.0 {
            Verdict::Ok
        } else {
            Verdict::Worse
        }
    } else if let Some(bound) = m.bound {
        if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if worse_by.abs() > widest_bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// `(workload, trace) → metric → value` of a result file.
type Results = BTreeMap<(String, bool), BTreeMap<String, f64>>;

pub fn parse_results(text: &str) -> Result<Results, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no \"runs\" array")?;
    let mut out = Results::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no workload")?;
        let trace = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("run of {workload} has no metrics"));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.insert((workload.to_string(), trace), values);
    }
    Ok(out)
}

/// Compare two result files; returns the report and whether any row is worse.
pub fn compare(spec: &Spec, a: &Results, b: &Results) -> (String, bool) {
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    let mut report = format!(
        "{:<16} {:<36} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "change"
    );
    let (mut worse, mut unresolved, mut exact_differ) = (0, 0, 0);
    for workload in &spec.workloads {
        for (trace, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let key = (workload.clone(), trace);
            for m in metrics {
                let va = a.get(&key).and_then(|r| r.get(&m.name)).copied();
                let vb = b.get(&key).and_then(|r| r.get(&m.name)).copied();
                let verdict = judge(m, va, vb, widest);
                match verdict {
                    Verdict::Worse => worse += 1,
                    Verdict::Unresolved => unresolved += 1,
                    Verdict::Ok => {}
                }
                let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
                let change = match (va, vb) {
                    (Some(x), Some(y)) if x != y => {
                        if is_exact(m) {
                            exact_differ += 1;
                        }
                        format!("{:+.2}%", (y - x) / x.abs().max(f64::MIN_POSITIVE) * 100.0)
                    }
                    (Some(_), Some(_)) => "=".to_string(),
                    _ => "?".to_string(),
                };
                report.push_str(&format!(
                    "{:<16} {:<36} {:>16} {:>16} {:>9}  {}\n",
                    workload,
                    m.name,
                    show(va),
                    show(vb),
                    change,
                    verdict.label()
                ));
            }
        }
    }
    report.push_str(&format!(
        "{worse} worse, {unresolved} unresolved; virtual results, counts and error figures \
         identical: {}\n",
        if exact_differ == 0 {
            "yes".to_string()
        } else {
            format!("no ({exact_differ} differ)")
        }
    ));
    (report, worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: Option<f64>) -> SpecMetric {
        SpecMetric {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn virtual_metrics_must_be_equal() {
        let m = metric("sim_lat_us_p99", false, Some(0.1));
        assert_eq!(judge(&m, Some(155.3), Some(155.3), 0.25), Verdict::Ok);
        assert_eq!(
            judge(&m, Some(155.3), Some(155.3 + 1e-12), 0.25),
            Verdict::Ok
        );
        // Inside the driver's bound, but not equal: worse.
        assert_eq!(judge(&m, Some(155.3), Some(156.0), 0.25), Verdict::Worse);
        assert_eq!(judge(&m, Some(155.3), Some(150.0), 0.25), Verdict::Ok);
        let knee = metric("sim_knee_ops_s", true, Some(0.1));
        assert_eq!(judge(&knee, Some(33e3), Some(32e3), 0.25), Verdict::Worse);
        let count = metric("des.dispatches_per_op.count", false, None);
        assert_eq!(judge(&count, Some(31.0), Some(31.5), 0.25), Verdict::Worse);
    }

    #[test]
    fn host_metrics_use_their_bound() {
        let m = metric("host_ops_per_s", true, Some(0.1));
        assert_eq!(judge(&m, Some(10_000.0), Some(9_200.0), 0.25), Verdict::Ok);
        assert_eq!(
            judge(&m, Some(10_000.0), Some(8_900.0), 0.25),
            Verdict::Worse
        );
        let setup = metric("setup_s", false, Some(0.25));
        assert_eq!(judge(&setup, Some(1.0), Some(1.2), 0.25), Verdict::Ok);
        assert_eq!(judge(&setup, Some(1.0), Some(1.3), 0.25), Verdict::Worse);
    }

    #[test]
    fn unbounded_and_missing_metrics_are_never_worse() {
        let m = metric("des.switch.host_ns", false, None);
        assert_eq!(judge(&m, Some(4800.0), Some(5200.0), 0.25), Verdict::Ok);
        assert_eq!(
            judge(&m, Some(4800.0), Some(9000.0), 0.25),
            Verdict::Unresolved
        );
        assert_eq!(judge(&m, Some(4800.0), None, 0.25), Verdict::Unresolved);
        assert_eq!(
            judge(&m, Some(f64::NAN), Some(1.0), 0.25),
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_files_round_trip_through_the_comparison() {
        let file = |p99: f64| {
            format!(
                r#"{{"runs":[{{"workload":"service-open","trace":0,
                "metrics":{{"sim_lat_us_p99":{{"value":{p99},"unit":"sim_us"}}}}}}]}}"#
            )
        };
        let spec = Spec {
            run_seconds: 1.0,
            workloads: vec!["service-open".to_string()],
            end_to_end: vec![metric("sim_lat_us_p99", false, Some(0.1))],
            per_layer: vec![],
        };
        let a = parse_results(&file(155.3)).unwrap();
        let (report, worse) = compare(&spec, &a, &a);
        assert!(!worse && report.contains("identical: yes"), "{report}");
        let b = parse_results(&file(170.0)).unwrap();
        let (report, worse) = compare(&spec, &a, &b);
        assert!(worse && report.contains("worse"), "{report}");
    }
}
