//! `BENCHMARK.json`, compiled in: the names, units, directions and bounds
//! this program must emit and `--compare` applies.

use cp_trace::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

fn metrics_of(doc: &Json, key: &str) -> Result<Vec<SpecMetric>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json: no array {key:?}"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: a metric of {key:?} lacks {k:?}"))
            };
            Ok(SpecMetric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(BENCHMARK_JSON)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads,
            end_to_end: metrics_of(&doc, "end_to_end")?,
            per_layer: metrics_of(&doc, "per_layer")?,
        })
    }
}
