//! Versioned structured run reports.
//!
//! Every bench harness emits a [`RunReport`] under `--json`: the
//! harness's headline results, a metrics snapshot, and the simulated
//! core's configuration fingerprint, wrapped in a schema-versioned
//! envelope so downstream tooling (`scripts/bench_report.sh`, trend
//! dashboards) can reject reports it does not understand instead of
//! mis-parsing them.
//!
//! Versioning policy: `schema_version` bumps only on breaking changes
//! (removing or re-typing a field). Adding fields is backward
//! compatible and does not bump the version; consumers must ignore
//! fields they do not know.
//!
//! Schema 2 adds the optional wall-clock envelope fields `wall_ms`,
//! `threads`, and `memo_hit_rate` (the parallel-execution trajectory).
//! Schema 3 adds the optional resilience arrays `degradations` (the
//! flow's recorded recovery events: retries, fault-free fallbacks,
//! quarantines, model-estimate substitutions) and `fault_campaign`
//! (per-unit outcomes of an `xr32-fault` injection sweep). Both are
//! omitted from a healthy run.
//! Schema 4 adds the optional `generated_variants` array: one object
//! per kernel × accelerator level produced by the `xopt` optimizing
//! pipeline, carrying the gate verdicts (`lint_ok`, `golden_ok`,
//! `admitted`) and generated-vs-hand-written cycle counts.
//! Schema 5 adds the optional `spans` array: the flow's hierarchical
//! span tree (see [`crate::span`]), each span carrying deterministic
//! sequence/cycle/task fields alongside wall-clock fields, plus
//! `wall_only` host-execution (per-worker) spans.
//! Schema 6 adds the optional `fidelity_summary` object: how a
//! dual-fidelity run split its work between the cycle-accurate
//! pipeline and the pre-decoded fast path (e.g. sweep and retired
//! instruction counts per engine). Omitted by single-fidelity runs.
//! Schema 7 adds the optional `core_configs` array: one object per
//! core model a cross-product (core config × accelerator level) run
//! swept, each carrying at least a string `id` (`"io"`, `"ooo-…"`)
//! and typically the core's structural gate cost; per-point results
//! reference these ids via their own `core` fields. Omitted by
//! single-core runs.
//! Schema 8 adds the optional `job` object: the serialized job spec a
//! run was driven by (the serving layer's `JobSpec`), carrying at
//! least a string `kind` plus the canonical spec and its digest. Only
//! spec-derived fields appear, so a daemon-run job and the equivalent
//! CLI run stamp identical bytes. Omitted by runs not driven through
//! a job spec.
//! [`validate`] accepts only the current version (no stored report
//! predates it), and [`normalize`] strips everything host-timing-dependent so
//! two runs of the same workload can be compared byte-for-byte (the
//! resilience and variant arrays are seed-determined workload facts
//! and survive normalization; span wall fields and `wall_only` spans
//! are stripped, the deterministic span skeleton survives).

use crate::json::Json;
use crate::metrics::MetricsSnapshot;

/// Current report schema version.
pub const SCHEMA_VERSION: u64 = 8;

/// A structured record of one harness run.
#[derive(Debug, Clone)]
pub struct RunReport {
    name: String,
    config_fingerprint: Option<u64>,
    results: Json,
    metrics: Option<MetricsSnapshot>,
    wall_ms: Option<f64>,
    threads: Option<usize>,
    memo_hit_rate: Option<f64>,
    kernel_errors: Vec<String>,
    degradations: Vec<Json>,
    fault_campaign: Vec<Json>,
    generated_variants: Vec<Json>,
    spans: Vec<Json>,
    fidelity_summary: Option<Json>,
    core_configs: Vec<Json>,
    job: Option<Json>,
}

impl RunReport {
    /// Starts a report for the named harness.
    pub fn new(name: &str) -> Self {
        RunReport {
            name: name.to_owned(),
            config_fingerprint: None,
            results: Json::obj(),
            metrics: None,
            wall_ms: None,
            threads: None,
            memo_hit_rate: None,
            kernel_errors: Vec::new(),
            degradations: Vec::new(),
            fault_campaign: Vec::new(),
            generated_variants: Vec::new(),
            spans: Vec::new(),
            fidelity_summary: None,
            core_configs: Vec::new(),
            job: None,
        }
    }

    /// Records the simulated core's configuration fingerprint.
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.config_fingerprint = Some(fingerprint);
        self
    }

    /// Adds (or replaces) one headline result.
    pub fn result(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.results = self.results.set(key, value);
        self
    }

    /// Attaches a metrics snapshot.
    pub fn with_metrics(mut self, snapshot: MetricsSnapshot) -> Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Records the harness's host wall-clock time in milliseconds
    /// (schema 2).
    pub fn with_wall_ms(mut self, wall_ms: f64) -> Self {
        self.wall_ms = Some(wall_ms);
        self
    }

    /// Records the worker-pool thread count the harness ran with
    /// (schema 2).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Records the kernel-cycle memo-cache hit rate of the run
    /// (schema 2).
    pub fn with_memo_hit_rate(mut self, rate: f64) -> Self {
        self.memo_hit_rate = Some(rate);
        self
    }

    /// Records kernel-layer failures observed during the run (rendered
    /// divergences or unsupported-operation errors). Serialized as the
    /// `kernel_errors` string array when non-empty; a healthy run omits
    /// the field (schema 2).
    pub fn with_kernel_errors<I, S>(mut self, errors: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        self.kernel_errors
            .extend(errors.into_iter().map(|e| e.to_string()));
        self
    }

    /// Records the flow's resilience events (retries, fault-free
    /// fallbacks, quarantine substitutions), one JSON object each, as
    /// produced by the flow's degradation log. Serialized as the
    /// `degradations` array when non-empty; a run that degraded nothing
    /// omits the field (schema 3).
    pub fn with_degradations<I>(mut self, events: I) -> Self
    where
        I: IntoIterator<Item = Json>,
    {
        self.degradations.extend(events);
        self
    }

    /// Records the per-unit outcomes of a fault-injection campaign
    /// (one JSON object per seed x site x kernel unit). Serialized as
    /// the `fault_campaign` array when non-empty (schema 3).
    pub fn with_fault_campaign<I>(mut self, units: I) -> Self
    where
        I: IntoIterator<Item = Json>,
    {
        self.fault_campaign.extend(units);
        self
    }

    /// Records the optimizing pipeline's per-level outcomes (one JSON
    /// object per kernel x accelerator level: gate verdicts and
    /// generated-vs-hand-written cycles). Serialized as the
    /// `generated_variants` array when non-empty; a run with no
    /// generated kernels omits the field (schema 4).
    pub fn with_generated_variants<I>(mut self, rows: I) -> Self
    where
        I: IntoIterator<Item = Json>,
    {
        self.generated_variants.extend(rows);
        self
    }

    /// Records the flow's hierarchical span tree (one object per root
    /// span, as serialized by [`crate::span::Spans::to_json_roots`]).
    /// Serialized as the `spans` array when non-empty; a run that
    /// recorded no spans omits the field (schema 5).
    pub fn with_spans<I>(mut self, roots: I) -> Self
    where
        I: IntoIterator<Item = Json>,
    {
        self.spans.extend(roots);
        self
    }

    /// Records how a dual-fidelity run split its work between the
    /// cycle-accurate pipeline and the pre-decoded fast path. `summary`
    /// should be a JSON object of deterministic counts (e.g.
    /// `{"fast": {"sweeps": 64, "insns": 1.2e6}, "accurate": ...}`).
    /// Serialized as the `fidelity_summary` field; single-fidelity runs
    /// omit it (schema 6).
    pub fn with_fidelity_summary(mut self, summary: Json) -> Self {
        self.fidelity_summary = Some(summary);
        self
    }

    /// Records the core models a cross-product run swept (one JSON
    /// object per core configuration, each with at least a string
    /// `id`; per-point results reference these ids via their own
    /// `core` fields). Serialized as the `core_configs` array when
    /// non-empty; single-core runs omit the field (schema 7).
    pub fn with_core_configs<I>(mut self, configs: I) -> Self
    where
        I: IntoIterator<Item = Json>,
    {
        self.core_configs.extend(configs);
        self
    }

    /// Records the serialized job spec this run was driven by (a JSON
    /// object with at least a string `kind`; see schema 8). Runs not
    /// driven through a job spec omit the field.
    pub fn with_job(mut self, job: Json) -> Self {
        self.job = Some(job);
        self
    }

    /// Serializes the report envelope.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("report", self.name.as_str());
        if let Some(job) = &self.job {
            obj = obj.set("job", job.clone());
        }
        if let Some(fp) = self.config_fingerprint {
            obj = obj.set("config_fingerprint", format!("{fp:016x}"));
        }
        if let Some(ms) = self.wall_ms {
            obj = obj.set("wall_ms", ms);
        }
        if let Some(t) = self.threads {
            obj = obj.set("threads", t as u64);
        }
        if let Some(r) = self.memo_hit_rate {
            obj = obj.set("memo_hit_rate", r);
        }
        if !self.kernel_errors.is_empty() {
            obj = obj.set(
                "kernel_errors",
                Json::Arr(
                    self.kernel_errors
                        .iter()
                        .map(|e| Json::from(e.as_str()))
                        .collect(),
                ),
            );
        }
        if !self.degradations.is_empty() {
            obj = obj.set("degradations", Json::Arr(self.degradations.clone()));
        }
        if !self.fault_campaign.is_empty() {
            obj = obj.set("fault_campaign", Json::Arr(self.fault_campaign.clone()));
        }
        if !self.generated_variants.is_empty() {
            obj = obj.set(
                "generated_variants",
                Json::Arr(self.generated_variants.clone()),
            );
        }
        if !self.spans.is_empty() {
            obj = obj.set("spans", Json::Arr(self.spans.clone()));
        }
        if let Some(fs) = &self.fidelity_summary {
            obj = obj.set("fidelity_summary", fs.clone());
        }
        if !self.core_configs.is_empty() {
            obj = obj.set("core_configs", Json::Arr(self.core_configs.clone()));
        }
        obj = obj.set("results", self.results.clone());
        if let Some(m) = &self.metrics {
            obj = obj.set("metrics", m.to_json());
        }
        obj
    }

    /// The report rendered as pretty-printed JSON text.
    pub fn render(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// Checks that a parsed JSON value is a well-formed report envelope of
/// the current schema version ([`SCHEMA_VERSION`]). Returns a
/// human-readable description of the first violation.
pub fn validate(json: &Json) -> Result<(), String> {
    let version = json
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing numeric schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} unsupported (validator supports {SCHEMA_VERSION})"
        ));
    }
    let name = json
        .get("report")
        .and_then(Json::as_str)
        .ok_or("missing string field: report")?;
    if name.is_empty() {
        return Err("empty report name".into());
    }
    let results = json.get("results").ok_or("missing field: results")?;
    if results.as_str().is_some() || results.as_f64().is_some() || results.as_arr().is_some() {
        return Err("results must be an object".into());
    }
    if let Some(fp) = json.get("config_fingerprint") {
        let s = fp.as_str().ok_or("config_fingerprint must be a string")?;
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("config_fingerprint {s:?} is not 16 hex digits"));
        }
    }
    for key in ["wall_ms", "memo_hit_rate", "threads"] {
        if let Some(v) = json.get(key) {
            if v.as_f64().is_none() {
                return Err(format!("{key} must be a number"));
            }
        }
    }
    if let Some(errors) = json.get("kernel_errors") {
        let arr = errors.as_arr().ok_or("kernel_errors must be an array")?;
        if arr.iter().any(|e| e.as_str().is_none()) {
            return Err("kernel_errors entries must be strings".into());
        }
    }
    for key in ["degradations", "fault_campaign"] {
        if let Some(events) = json.get(key) {
            let arr = events
                .as_arr()
                .ok_or_else(|| format!("{key} must be an array"))?;
            if arr
                .iter()
                .any(|e| !matches!(e, Json::Obj(_)) && e.as_str().is_none())
            {
                return Err(format!("{key} entries must be objects"));
            }
        }
    }
    if let Some(rows) = json.get("generated_variants") {
        let arr = rows.as_arr().ok_or("generated_variants must be an array")?;
        for row in arr {
            if !matches!(row, Json::Obj(_)) {
                return Err("generated_variants entries must be objects".into());
            }
            for key in ["kernel", "tag"] {
                if row.get(key).is_none_or(|v| v.as_str().is_none()) {
                    return Err(format!("generated_variants entries need a string `{key}`"));
                }
            }
            if row
                .get("admitted")
                .is_none_or(|v| !matches!(v, Json::Bool(_)))
            {
                return Err("generated_variants entries need a boolean `admitted`".into());
            }
        }
    }
    if let Some(spans) = json.get("spans") {
        let arr = spans.as_arr().ok_or("spans must be an array")?;
        for span in arr {
            crate::span::validate_span_json(span).map_err(|e| format!("spans: {e}"))?;
        }
    }
    if let Some(fs) = json.get("fidelity_summary") {
        if !matches!(fs, Json::Obj(_)) {
            return Err("fidelity_summary must be an object".into());
        }
    }
    if let Some(job) = json.get("job") {
        if !matches!(job, Json::Obj(_)) {
            return Err("job must be an object".into());
        }
        if job.get("kind").is_none_or(|v| v.as_str().is_none()) {
            return Err("job needs a string `kind`".into());
        }
    }
    if let Some(cores) = json.get("core_configs") {
        let arr = cores.as_arr().ok_or("core_configs must be an array")?;
        for core in arr {
            if !matches!(core, Json::Obj(_)) {
                return Err("core_configs entries must be objects".into());
            }
            if core.get("id").is_none_or(|v| v.as_str().is_none()) {
                return Err("core_configs entries need a string `id`".into());
            }
        }
    }
    Ok(())
}

/// True for a key whose value depends on host timing, thread count or
/// cache warmth rather than on the simulated workload.
fn is_volatile_key(key: &str) -> bool {
    key == "wall_ms"
        || key == "threads"
        || key == "memo_hit_rate"
        || key == "estimation_speedup"
        || key == "mean_estimation_speedup"
        || key == "fast_path_speedup"
        || key == "busy_fraction"
        || key == "queue_wait_ms"
        || key.ends_with("wall_ms")
        || key.starts_with("xpar.")
        || key.starts_with("kcache.")
}

/// True for an array element normalization drops entirely: a
/// `wall_only` span, whose existence (one per pool worker) depends on
/// the thread count rather than on the workload.
fn volatile_entry(json: &Json) -> bool {
    json.get("wall_only") == Some(&Json::Bool(true))
}

/// Returns the report with every host-timing-dependent field removed,
/// recursively: the schema-2 envelope fields (`wall_ms`, `threads`,
/// `memo_hit_rate`), wall-clock-derived results
/// (`estimation_speedup`, `mean_estimation_speedup`, any `*wall_ms`
/// key — including the schema-5 span fields `start_wall_ms` /
/// `wall_ms`), the `xpar.*` / `kcache.*` metrics, and whole `wall_only`
/// (per-worker) spans. Two runs of the same simulated workload —
/// whatever the thread count or cache state — normalize to
/// byte-identical JSON.
pub fn normalize(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !is_volatile_key(k))
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(
            items
                .iter()
                .filter(|item| !volatile_entry(item))
                .map(normalize)
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::Registry;

    #[test]
    fn kernel_errors_serialize_and_validate() {
        let healthy = RunReport::new("r").with_kernel_errors(Vec::<String>::new());
        assert!(healthy.to_json().get("kernel_errors").is_none());

        let report = RunReport::new("r").with_kernel_errors(["kernel `x` diverged"]);
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        let arr = parsed.get("kernel_errors").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 1);

        let bad =
            json::parse(r#"{"schema_version":8,"report":"r","results":{},"kernel_errors":[3]}"#)
                .unwrap();
        assert!(validate(&bad).unwrap_err().contains("kernel_errors"));
        // Divergences are workload facts, not host noise: normalize keeps them.
        assert!(normalize(&parsed).get("kernel_errors").is_some());
    }

    #[test]
    fn report_round_trips_and_validates() {
        let reg = Registry::new();
        reg.counter("flow.candidates").add(450);
        let report = RunReport::new("table1_speedups")
            .with_fingerprint(0xdead_beef_cafe_f00d)
            .result("rsa_bits", 1024u64)
            .result("speedup_des", 5.2)
            .with_metrics(reg.snapshot());
        let text = report.render();
        let parsed = json::parse(&text).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(
            parsed.get("report").and_then(Json::as_str),
            Some("table1_speedups")
        );
        assert_eq!(
            parsed.get("config_fingerprint").and_then(Json::as_str),
            Some("deadbeefcafef00d")
        );
        assert_eq!(
            parsed
                .get("results")
                .and_then(|r| r.get("speedup_des"))
                .and_then(Json::as_f64),
            Some(5.2)
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("flow.candidates"))
                .and_then(|c| c.get("value"))
                .and_then(Json::as_f64),
            Some(450.0)
        );
    }

    #[test]
    fn wall_clock_fields_serialize_and_validate() {
        let report = RunReport::new("sec43")
            .with_wall_ms(123.5)
            .with_threads(8)
            .with_memo_hit_rate(0.75);
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("wall_ms").and_then(Json::as_f64), Some(123.5));
        assert_eq!(parsed.get("threads").and_then(Json::as_f64), Some(8.0));
        assert_eq!(
            parsed.get("memo_hit_rate").and_then(Json::as_f64),
            Some(0.75)
        );
    }

    #[test]
    fn degradations_and_fault_campaign_serialize_and_validate() {
        let healthy = RunReport::new("r").with_degradations(Vec::new());
        assert!(healthy.to_json().get("degradations").is_none());
        assert!(healthy.to_json().get("fault_campaign").is_none());

        let report = RunReport::new("r")
            .with_degradations([Json::obj()
                .set("phase", "curves")
                .set("kernel", "mpn_add_n")
                .set("action", "fallback-fault-free")])
            .with_fault_campaign([Json::obj()
                .set("seed", 7u64)
                .set("site", "data_mem")
                .set("outcome", "detected")]);
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        let degr = parsed.get("degradations").and_then(Json::as_arr).unwrap();
        assert_eq!(
            degr[0].get("kernel").and_then(Json::as_str),
            Some("mpn_add_n")
        );
        let camp = parsed.get("fault_campaign").and_then(Json::as_arr).unwrap();
        assert_eq!(
            camp[0].get("outcome").and_then(Json::as_str),
            Some("detected")
        );

        let bad = json::parse(r#"{"schema_version":8,"report":"r","results":{},"degradations":7}"#)
            .unwrap();
        assert!(validate(&bad).unwrap_err().contains("degradations"));
        // Resilience events are seed-determined workload facts: keep them.
        assert!(normalize(&parsed).get("degradations").is_some());
        assert!(normalize(&parsed).get("fault_campaign").is_some());
    }

    #[test]
    fn generated_variants_serialize_and_validate() {
        let healthy = RunReport::new("r").with_generated_variants(Vec::<Json>::new());
        assert!(healthy.to_json().get("generated_variants").is_none());

        let report = RunReport::new("fig5_adcurves").with_generated_variants([Json::obj()
            .set("kernel", "mpn_add_n")
            .set("family", "add")
            .set("lanes", 4u64)
            .set("tag", "gen-a4m1")
            .set("lint_ok", true)
            .set("golden_ok", true)
            .set("admitted", true)
            .set("cycles_hand", 100.0)
            .set("cycles_generated", 92.0)]);
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        let rows = parsed
            .get("generated_variants")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(rows[0].get("tag").and_then(Json::as_str), Some("gen-a4m1"));
        assert_eq!(
            rows[0].get("cycles_generated").and_then(Json::as_f64),
            Some(92.0)
        );
        // Simulated-cycle facts, not host noise: normalize keeps them.
        assert!(normalize(&parsed).get("generated_variants").is_some());

        let bad =
            json::parse(r#"{"schema_version":8,"report":"r","results":{},"generated_variants":7}"#)
                .unwrap();
        assert!(validate(&bad).unwrap_err().contains("generated_variants"));
        let bad_row = json::parse(
            r#"{"schema_version":8,"report":"r","results":{},
                "generated_variants":[{"kernel":"mpn_add_n","tag":"gen-a4m1"}]}"#,
        )
        .unwrap();
        assert!(validate(&bad_row).unwrap_err().contains("admitted"));
        let bad_kernel = json::parse(
            r#"{"schema_version":8,"report":"r","results":{},
                "generated_variants":[{"tag":"gen-a4m1","admitted":true}]}"#,
        )
        .unwrap();
        assert!(validate(&bad_kernel).unwrap_err().contains("kernel"));
    }

    #[test]
    fn spans_serialize_validate_and_normalize() {
        let healthy = RunReport::new("r").with_spans(Vec::<Json>::new());
        assert!(healthy.to_json().get("spans").is_none());

        let spans = crate::span::Spans::new();
        {
            let _flow = spans.enter("flow");
            {
                let _p1 = spans.enter("phase1.characterize");
                spans.leaf("mpn_add_n.r4", 120.0, 3, Some(0.4));
                spans.wall_span(
                    "xpar.worker-0",
                    0.0,
                    0.3,
                    &[
                        ("worker", Json::from(0u64)),
                        ("busy_fraction", Json::from(0.9)),
                    ],
                );
            }
        }
        let report = RunReport::new("fig5_adcurves").with_spans(spans.to_json_roots());
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        let n = normalize(&parsed);
        let roots = n.get("spans").and_then(Json::as_arr).unwrap();
        let flow = &roots[0];
        // Deterministic skeleton survives…
        assert_eq!(flow.get("cycles").and_then(Json::as_f64), Some(120.0));
        assert!(flow.get("seq_start").is_some());
        // …wall fields and per-worker spans do not.
        assert!(flow.get("wall_ms").is_none());
        assert!(flow.get("start_wall_ms").is_none());
        let p1 = &flow.get("children").and_then(Json::as_arr).unwrap()[0];
        let kids = p1.get("children").and_then(Json::as_arr).unwrap();
        assert_eq!(kids.len(), 1, "wall_only worker span must be dropped");
        assert_eq!(
            kids[0].get("name").and_then(Json::as_str),
            Some("mpn_add_n.r4")
        );
        // Normalized form still validates and is idempotent.
        validate(&n).unwrap();
        assert_eq!(normalize(&n).to_string_compact(), n.to_string_compact());
    }

    #[test]
    fn validate_rejects_malformed_span_trees() {
        let bad = json::parse(
            r#"{"schema_version":8,"report":"r","results":{},"spans":[
                {"name":"p","seq_start":0,"seq_end":9,"cycles":0,"tasks":0,"children":[
                    {"name":"a","seq_start":1,"seq_end":5,"cycles":0,"tasks":0},
                    {"name":"b","seq_start":3,"seq_end":8,"cycles":0,"tasks":0}]}]}"#,
        )
        .unwrap();
        assert!(validate(&bad).unwrap_err().contains("nested"));
        let not_arr =
            json::parse(r#"{"schema_version":8,"report":"r","results":{},"spans":7}"#).unwrap();
        assert!(validate(&not_arr).unwrap_err().contains("spans"));
    }

    #[test]
    fn fidelity_summary_serializes_and_validates() {
        let healthy = RunReport::new("r");
        assert!(healthy.to_json().get("fidelity_summary").is_none());

        let report = RunReport::new("fastpath_gate").with_fidelity_summary(
            Json::obj()
                .set(
                    "fast",
                    Json::obj().set("sweeps", 64u64).set("insns", 1_200_000u64),
                )
                .set("accurate", Json::obj().set("sweeps", 64u64)),
        );
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(
            parsed
                .get("fidelity_summary")
                .and_then(|f| f.get("fast"))
                .and_then(|f| f.get("sweeps"))
                .and_then(Json::as_f64),
            Some(64.0)
        );
        // Engine split counts are workload facts: normalize keeps them.
        assert!(normalize(&parsed).get("fidelity_summary").is_some());

        let bad =
            json::parse(r#"{"schema_version":8,"report":"r","results":{},"fidelity_summary":[1]}"#)
                .unwrap();
        assert!(validate(&bad).unwrap_err().contains("fidelity_summary"));
    }

    #[test]
    fn core_configs_serialize_and_validate() {
        let healthy = RunReport::new("r").with_core_configs(Vec::<Json>::new());
        assert!(healthy.to_json().get("core_configs").is_none());

        let report = RunReport::new("sec43_exploration")
            .with_core_configs([
                Json::obj().set("id", "io").set("area", 0u64),
                Json::obj()
                    .set("id", "ooo-i2x2-r32s16l8b256")
                    .set("area", 42_000u64),
            ])
            .result(
                "cross_product.points",
                Json::Arr(vec![Json::obj()
                    .set("core", "ooo-i2x2-r32s16l8b256")
                    .set("level", "base")
                    .set("area", 42_000u64)
                    .set("cycles", 9_000.0)
                    .set("on_front", true)]),
            );
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        let cores = parsed.get("core_configs").and_then(Json::as_arr).unwrap();
        assert_eq!(cores.len(), 2);
        assert_eq!(cores[0].get("id").and_then(Json::as_str), Some("io"));
        // Core sweeps are workload facts, not host noise: normalize keeps them.
        assert!(normalize(&parsed).get("core_configs").is_some());

        let bad = json::parse(r#"{"schema_version":8,"report":"r","results":{},"core_configs":7}"#)
            .unwrap();
        assert!(validate(&bad).unwrap_err().contains("core_configs"));
        let bad_entry =
            json::parse(r#"{"schema_version":8,"report":"r","results":{},"core_configs":[7]}"#)
                .unwrap();
        assert!(validate(&bad_entry).unwrap_err().contains("objects"));
        let bad_id = json::parse(
            r#"{"schema_version":8,"report":"r","results":{},"core_configs":[{"area":1}]}"#,
        )
        .unwrap();
        assert!(validate(&bad_id).unwrap_err().contains("id"));
    }

    #[test]
    fn job_stanza_serializes_validates_and_survives_normalization() {
        let healthy = RunReport::new("r");
        assert!(healthy.to_json().get("job").is_none());

        let report = RunReport::new("sec43_exploration").with_job(
            Json::obj()
                .set("kind", "explore")
                .set("digest", "00c0ffee00c0ffee")
                .set(
                    "spec",
                    Json::obj().set("kind", "explore").set("bits", 128u64),
                ),
        );
        let parsed = json::parse(&report.render()).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(
            parsed
                .get("job")
                .and_then(|j| j.get("kind"))
                .and_then(Json::as_str),
            Some("explore")
        );
        // The spec is a workload fact: normalize keeps it.
        assert!(normalize(&parsed).get("job").is_some());

        let bad = json::parse(r#"{"schema_version":8,"report":"r","results":{},"job":7}"#).unwrap();
        assert!(validate(&bad).unwrap_err().contains("job"));
        let bad_kind =
            json::parse(r#"{"schema_version":8,"report":"r","results":{},"job":{"bits":1}}"#)
                .unwrap();
        assert!(validate(&bad_kind).unwrap_err().contains("kind"));
    }

    #[test]
    fn validate_rejects_older_versions() {
        let j = json::parse(r#"{"schema_version":7,"report":"x","results":{}}"#).unwrap();
        assert!(validate(&j).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn validate_rejects_missing_version() {
        let j = json::parse(r#"{"report":"x","results":{}}"#).unwrap();
        assert!(validate(&j).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn validate_rejects_future_version() {
        let j = json::parse(r#"{"schema_version":99,"report":"x","results":{}}"#).unwrap();
        assert!(validate(&j).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn validate_rejects_non_object_results() {
        let j = json::parse(r#"{"schema_version":8,"report":"x","results":[1]}"#).unwrap();
        assert!(validate(&j).unwrap_err().contains("object"));
    }

    #[test]
    fn validate_rejects_bad_fingerprint() {
        let j = json::parse(
            r#"{"schema_version":8,"report":"x","config_fingerprint":"xyz","results":{}}"#,
        )
        .unwrap();
        assert!(validate(&j).unwrap_err().contains("hex"));
    }

    #[test]
    fn validate_rejects_non_numeric_wall_fields() {
        let j = json::parse(r#"{"schema_version":8,"report":"x","wall_ms":"fast","results":{}}"#)
            .unwrap();
        assert!(validate(&j).unwrap_err().contains("wall_ms"));
    }

    #[test]
    fn normalize_strips_volatile_fields_recursively() {
        let j = json::parse(
            r#"{
              "schema_version": 8, "report": "x", "wall_ms": 9.1,
              "threads": 8, "memo_hit_rate": 0.5,
              "results": {
                "cosim_samples": 3, "mean_estimation_speedup": 41.0,
                "phases": [{"exploration_wall_ms": 2.0, "evaluated": 450}]
              },
              "metrics": {
                "xpar.utilization": {"type": "gauge", "value": 0.9},
                "kcache.hits": {"type": "counter", "value": 12},
                "flow.phase1.wall_ms": {"type": "gauge", "value": 3.0},
                "flow.phase2.best_cycles": {"type": "gauge", "value": 7.0}
              }
            }"#,
        )
        .unwrap();
        let n = normalize(&j);
        assert!(n.get("wall_ms").is_none());
        assert!(n.get("threads").is_none());
        assert!(n.get("memo_hit_rate").is_none());
        let results = n.get("results").unwrap();
        assert!(results.get("mean_estimation_speedup").is_none());
        assert_eq!(
            results.get("cosim_samples").and_then(Json::as_f64),
            Some(3.0)
        );
        let phase = &results.get("phases").and_then(Json::as_arr).unwrap()[0];
        assert!(phase.get("exploration_wall_ms").is_none());
        assert_eq!(phase.get("evaluated").and_then(Json::as_f64), Some(450.0));
        let metrics = n.get("metrics").unwrap();
        assert!(metrics.get("xpar.utilization").is_none());
        assert!(metrics.get("kcache.hits").is_none());
        assert!(metrics.get("flow.phase1.wall_ms").is_none());
        assert!(metrics.get("flow.phase2.best_cycles").is_some());
        // Idempotent: normalizing a normal form is the identity.
        assert_eq!(normalize(&n).to_string_compact(), n.to_string_compact());
    }
}
