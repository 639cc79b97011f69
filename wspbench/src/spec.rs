//! The benchmark's own description, `BENCHMARK.json` at the repository
//! root, compiled into the binary so the metric table, bounds and run
//! length have exactly one source.

use crate::stats::Better;
use xobs::Json;

/// The text of `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark description.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the file is malformed — a defect of this package, not
    /// a runtime condition.
    pub fn load() -> BenchSpec {
        BenchSpec::parse(BENCHMARK_JSON).expect("BENCHMARK.json must describe the benchmark")
    }

    /// Parses a benchmark description.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = xobs::json::parse(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let rows = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing `{key}`"))?;
            rows.iter()
                .map(|row| {
                    let field = |f: &str| {
                        row.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("`{key}` row lacks `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_owned(),
                        unit: field("unit")?.to_owned(),
                        better: Better::parse(field("better")?)
                            .ok_or_else(|| format!("`{key}`: bad `better`"))?,
                        bound: row.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing `workloads`")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "workload lacks `name`".to_owned())
            })
            .collect::<Result<_, _>>()?;
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `run_seconds`")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
