//! Library behind the `vstool` debugging CLI.
//!
//! Everything testable lives here; `main.rs` only parses arguments and
//! maps results to exit codes. Three concerns:
//!
//! - [`MetricsDoc`]: parsing the `METRICS {…}` lines / `BENCH_*.json`
//!   snapshots every `exp_*` binary emits (see `vs_bench::metrics_json`),
//!   plus [`metrics_diff`] and the regression [`bench_gate`];
//! - [`TraceFilter`] / [`causal_slice_of`]: querying exported trace
//!   journals by process, event kind and vector-clock interval, printing
//!   causal slices through the **same** renderer
//!   ([`vs_obs::render_slice`]) the monitor and checkers use;
//! - re-running and shrinking recorded scenarios is *not* here — that is
//!   [`view_synchrony::scenario`] and [`view_synchrony::shrink`], which
//!   the CLI calls directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vs_obs::json::{self, Value};
use vs_obs::TraceEvent;

pub mod live;
pub mod slo;

/// Relative tolerance (as a fraction) applied to `*_us` histogram stats
/// by [`bench_gate`] unless overridden: timings may drift ±25% before
/// the gate calls it a regression, while counters must match exactly.
pub const DEFAULT_US_TOLERANCE: f64 = 0.25;

/// Summary statistics of one exported histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStats {
    /// Number of observations.
    pub count: u64,
    /// Mean of the observed values.
    pub mean: f64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

/// A parsed experiment metrics snapshot — the object rendered by
/// `vs_bench::metrics_json`, whether it came from a committed
/// `BENCH_*.json` baseline or was grepped off a `METRICS {…}` stdout
/// line.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// The experiment name the snapshot was recorded under.
    pub experiment: String,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram name → summary stats.
    pub histograms: BTreeMap<String, HistStats>,
}

impl MetricsDoc {
    /// Locates the raw snapshot JSON inside `text`: the payload of the
    /// last `METRICS {…}` line if any (an experiment's captured stdout),
    /// otherwise the whole text (a `BENCH_*.json` file). This is the exact
    /// document [`MetricsDoc::parse`] reads, so `bench-gate --update` can
    /// write it back as the new committed baseline verbatim.
    pub fn extract_json(text: &str) -> &str {
        text.lines()
            .rev()
            .find_map(|l| l.trim().strip_prefix("METRICS "))
            .unwrap_or(text)
    }

    /// Parses a metrics snapshot from `text`: either a bare JSON object
    /// (a `BENCH_*.json` file) or any text containing `METRICS {…}`
    /// lines (an experiment's captured stdout; the **last** such line
    /// wins, matching "the run's final snapshot").
    pub fn parse(text: &str) -> Result<MetricsDoc, String> {
        let doc = MetricsDoc::extract_json(text);
        let v = json::parse(doc).map_err(|e| format!("bad metrics JSON: {e}"))?;
        let experiment = v
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("missing \"experiment\"")?
            .to_string();
        let m = v.get("metrics").ok_or("missing \"metrics\"")?;
        let mut out = MetricsDoc {
            experiment,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        if let Some(Value::Obj(entries)) = m.get("counters") {
            for (k, v) in entries {
                let n = v.as_f64().ok_or_else(|| format!("counter {k}: not a number"))?;
                out.counters.insert(k.clone(), n as u64);
            }
        }
        if let Some(Value::Obj(entries)) = m.get("gauges") {
            for (k, v) in entries {
                let n = v.as_f64().ok_or_else(|| format!("gauge {k}: not a number"))?;
                out.gauges.insert(k.clone(), n as i64);
            }
        }
        if let Some(Value::Obj(entries)) = m.get("histograms") {
            for (k, v) in entries {
                let field = |f: &str| {
                    v.get(f)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("histogram {k}: missing {f}"))
                };
                out.histograms.insert(
                    k.clone(),
                    HistStats {
                        count: field("count")? as u64,
                        mean: field("mean")?,
                        min: field("min")? as u64,
                        max: field("max")? as u64,
                    },
                );
            }
        }
        Ok(out)
    }
}

fn pct_delta(a: f64, b: f64) -> String {
    if a == 0.0 {
        if b == 0.0 {
            "±0.0%".to_string()
        } else {
            "new (was 0)".to_string()
        }
    } else {
        format!("{:+.1}%", 100.0 * (b - a) / a)
    }
}

/// Renders a human-readable diff of two metrics snapshots: every
/// counter, gauge and histogram that changed, with absolute values and
/// percentage deltas, plus keys present on only one side. Unchanged
/// entries are summarised in one closing line.
pub fn metrics_diff(a: &MetricsDoc, b: &MetricsDoc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "experiment: {} -> {}", a.experiment, b.experiment);
    let mut unchanged = 0usize;

    let keys = |xa: &BTreeMap<String, u64>, xb: &BTreeMap<String, u64>| {
        let mut ks: Vec<String> = xa.keys().chain(xb.keys()).cloned().collect();
        ks.sort();
        ks.dedup();
        ks
    };
    let mut counter_lines = Vec::new();
    for k in keys(&a.counters, &b.counters) {
        match (a.counters.get(&k), b.counters.get(&k)) {
            (Some(&va), Some(&vb)) if va == vb => unchanged += 1,
            (Some(&va), Some(&vb)) => counter_lines.push(format!(
                "  {k}: {va} -> {vb} ({})",
                pct_delta(va as f64, vb as f64)
            )),
            (Some(&va), None) => counter_lines.push(format!("  {k}: {va} -> (absent)")),
            (None, Some(&vb)) => counter_lines.push(format!("  {k}: (absent) -> {vb}")),
            (None, None) => unreachable!(),
        }
    }
    if !counter_lines.is_empty() {
        let _ = writeln!(out, "counters:");
        for l in counter_lines {
            let _ = writeln!(out, "{l}");
        }
    }

    let mut gauge_lines = Vec::new();
    let mut gkeys: Vec<String> = a.gauges.keys().chain(b.gauges.keys()).cloned().collect();
    gkeys.sort();
    gkeys.dedup();
    for k in gkeys {
        match (a.gauges.get(&k), b.gauges.get(&k)) {
            (Some(&va), Some(&vb)) if va == vb => unchanged += 1,
            (Some(&va), Some(&vb)) => gauge_lines.push(format!(
                "  {k}: {va} -> {vb} ({})",
                pct_delta(va as f64, vb as f64)
            )),
            (Some(&va), None) => gauge_lines.push(format!("  {k}: {va} -> (absent)")),
            (None, Some(&vb)) => gauge_lines.push(format!("  {k}: (absent) -> {vb}")),
            (None, None) => unreachable!(),
        }
    }
    if !gauge_lines.is_empty() {
        let _ = writeln!(out, "gauges:");
        for l in gauge_lines {
            let _ = writeln!(out, "{l}");
        }
    }

    let mut hist_lines = Vec::new();
    let mut hkeys: Vec<String> =
        a.histograms.keys().chain(b.histograms.keys()).cloned().collect();
    hkeys.sort();
    hkeys.dedup();
    for k in hkeys {
        match (a.histograms.get(&k), b.histograms.get(&k)) {
            (Some(ha), Some(hb)) if ha == hb => unchanged += 1,
            (Some(ha), Some(hb)) => hist_lines.push(format!(
                "  {k}: count {} -> {} ({}), mean {:.1} -> {:.1} ({})",
                ha.count,
                hb.count,
                pct_delta(ha.count as f64, hb.count as f64),
                ha.mean,
                hb.mean,
                pct_delta(ha.mean, hb.mean)
            )),
            (Some(_), None) => hist_lines.push(format!("  {k}: -> (absent)")),
            (None, Some(_)) => hist_lines.push(format!("  {k}: (absent) ->")),
            (None, None) => unreachable!(),
        }
    }
    if !hist_lines.is_empty() {
        let _ = writeln!(out, "histograms:");
        for l in hist_lines {
            let _ = writeln!(out, "{l}");
        }
    }
    let _ = writeln!(out, "({unchanged} entries unchanged)");
    out
}

/// Outcome of a [`bench_gate`] comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Regressions — non-empty means the gate fails (nonzero exit).
    pub failures: Vec<String>,
    /// Non-fatal observations (new metrics, within-tolerance drifts).
    pub notes: Vec<String>,
}

impl GateReport {
    /// Whether the fresh run passed the gate.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gates a fresh experiment run against a committed baseline.
///
/// The simulator is deterministic, so **counters and gauges must match
/// exactly** — any drift means the protocol's behaviour changed and the
/// baseline must be consciously re-recorded. Histogram stats of metrics
/// named `*_us` (simulated timings) get `tolerance` relative slack on
/// count and mean; other histograms are exact. Metrics that appear only
/// in the fresh run are notes, not failures (new instrumentation is
/// fine); metrics that *disappear* are failures.
pub fn bench_gate(baseline: &MetricsDoc, fresh: &MetricsDoc, tolerance: f64) -> GateReport {
    let mut r = GateReport::default();
    if baseline.experiment != fresh.experiment {
        r.failures.push(format!(
            "experiment mismatch: baseline {:?} vs fresh {:?}",
            baseline.experiment, fresh.experiment
        ));
    }
    for (k, &vb) in &baseline.counters {
        match fresh.counters.get(k) {
            None => r.failures.push(format!("counter {k}: missing from fresh run (was {vb})")),
            Some(&vf) if vf != vb => r.failures.push(format!(
                "counter {k}: {vb} -> {vf} ({})",
                pct_delta(vb as f64, vf as f64)
            )),
            Some(_) => {}
        }
    }
    for k in fresh.counters.keys() {
        if !baseline.counters.contains_key(k) {
            r.notes.push(format!("counter {k}: new in fresh run"));
        }
    }
    for (k, &vb) in &baseline.gauges {
        let vf = match fresh.gauges.get(k) {
            None => {
                r.failures.push(format!("gauge {k}: missing from fresh run (was {vb})"));
                continue;
            }
            Some(&vf) => vf,
        };
        if vf != vb {
            r.failures.push(format!(
                "gauge {k}: {vb} -> {vf} ({})",
                pct_delta(vb as f64, vf as f64)
            ));
        }
    }
    let within = |base: f64, fresh: f64| {
        if base == 0.0 {
            fresh == 0.0
        } else {
            ((fresh - base) / base).abs() <= tolerance
        }
    };
    for (k, hb) in &baseline.histograms {
        let hf = match fresh.histograms.get(k) {
            Some(h) => h,
            None => {
                r.failures.push(format!("histogram {k}: missing from fresh run"));
                continue;
            }
        };
        if k.ends_with("_us") {
            if !within(hb.count as f64, hf.count as f64) {
                r.failures.push(format!(
                    "histogram {k}: count {} -> {} ({}) exceeds ±{:.0}%",
                    hb.count,
                    hf.count,
                    pct_delta(hb.count as f64, hf.count as f64),
                    tolerance * 100.0
                ));
            }
            if !within(hb.mean, hf.mean) {
                r.failures.push(format!(
                    "histogram {k}: mean {:.1} -> {:.1} ({}) exceeds ±{:.0}%",
                    hb.mean,
                    hf.mean,
                    pct_delta(hb.mean, hf.mean),
                    tolerance * 100.0
                ));
            } else if hb != hf {
                r.notes.push(format!(
                    "histogram {k}: mean {:.1} -> {:.1} ({}) within tolerance",
                    hb.mean,
                    hf.mean,
                    pct_delta(hb.mean, hf.mean)
                ));
            }
        } else if hb != hf {
            r.failures.push(format!(
                "histogram {k}: count {} -> {}, mean {:.1} -> {:.1} (exact match required)",
                hb.count, hf.count, hb.mean, hf.mean
            ));
        }
    }
    r
}

/// Event-stream filters for `vstool trace`, all conjunctive.
#[derive(Debug, Default, Clone)]
pub struct TraceFilter {
    /// Keep only events recorded at this process.
    pub process: Option<u64>,
    /// Keep only events whose [`vs_obs::EventKind::name`] equals this.
    pub kind: Option<String>,
    /// Vector-clock lower bounds: keep events whose clock component for
    /// the given process is ≥ the given count (event is at-or-after the
    /// cut).
    pub clock_ge: Vec<(u64, u64)>,
    /// Vector-clock upper bounds: keep events whose clock component for
    /// the given process is ≤ the given count (event is at-or-before the
    /// cut).
    pub clock_le: Vec<(u64, u64)>,
    /// After filtering, keep only the trailing `n` events.
    pub last: Option<usize>,
}

impl TraceFilter {
    fn matches(&self, e: &TraceEvent) -> bool {
        if let Some(p) = self.process {
            if e.process != p {
                return false;
            }
        }
        if let Some(k) = &self.kind {
            if e.kind.name() != k {
                return false;
            }
        }
        self.clock_ge.iter().all(|&(p, c)| e.clock.get(p) >= c)
            && self.clock_le.iter().all(|&(p, c)| e.clock.get(p) <= c)
    }
}

/// Applies `filter` to `events` (assumed in global `seq` order, as
/// [`vs_obs::events_from_json`] returns them).
pub fn filter_events(events: &[TraceEvent], filter: &TraceFilter) -> Vec<TraceEvent> {
    let mut kept: Vec<TraceEvent> =
        events.iter().filter(|e| filter.matches(e)).cloned().collect();
    if let Some(n) = filter.last {
        let skip = kept.len().saturating_sub(n);
        kept.drain(..skip);
    }
    kept
}

/// The causal slice anchored at `process`'s last event in `events`: the
/// anchor's predecessor cone (via [`vs_obs::global::causal_cone`], the
/// same cone the in-memory [`vs_obs::Journal::causal_slice`] uses),
/// truncated to the trailing `window` entries. `None` when the process
/// has no events.
pub fn causal_slice_of(
    events: &[TraceEvent],
    process: u64,
    window: usize,
) -> Option<Vec<TraceEvent>> {
    let anchor = events.iter().rev().find(|e| e.process == process)?.clone();
    let cone = vs_obs::global::causal_cone(events, &anchor);
    let skip = cone.len().saturating_sub(window);
    Some(cone.into_iter().skip(skip).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs_obs::{EventKind, Obs};

    const BASE: &str = r#"{"experiment":"exp_demo","metrics":{"counters":{"gcs.mcasts":300,"net.sent":1000},"gauges":{"g.depth":4},"histograms":{"span.flush_us":{"count":10,"sum":1000,"min":50,"max":200,"mean":100.0},"exact.series":{"count":3,"sum":30,"min":10,"max":10,"mean":10.0}}}}"#;

    fn doc(text: &str) -> MetricsDoc {
        MetricsDoc::parse(text).expect("parses")
    }

    #[test]
    fn parses_bare_json_and_metrics_lines_alike() {
        let from_json = doc(BASE);
        let from_stdout = doc(&format!("table noise\n\nMETRICS {BASE}\ntrailer"));
        assert_eq!(from_json, from_stdout);
        assert_eq!(from_json.experiment, "exp_demo");
        assert_eq!(from_json.counters["net.sent"], 1000);
        assert_eq!(from_json.gauges["g.depth"], 4);
        assert_eq!(from_json.histograms["span.flush_us"].count, 10);
    }

    #[test]
    fn the_last_metrics_line_wins() {
        let old = BASE.replace("300", "1");
        let text = format!("METRICS {old}\nMETRICS {BASE}");
        assert_eq!(doc(&text).counters["gcs.mcasts"], 300);
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let r = bench_gate(&doc(BASE), &doc(BASE), DEFAULT_US_TOLERANCE);
        assert!(r.passed(), "failures: {:?}", r.failures);
    }

    #[test]
    fn perturbed_counter_fails_the_gate() {
        // The ISSUE's synthetic-regression check: feed the gate a METRICS
        // line with one counter nudged and require a loud failure.
        let perturbed = BASE.replace("\"net.sent\":1000", "\"net.sent\":1001");
        let r = bench_gate(&doc(BASE), &doc(&perturbed), DEFAULT_US_TOLERANCE);
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("net.sent") && f.contains("1000 -> 1001")),
            "failures: {:?}",
            r.failures
        );
    }

    #[test]
    fn us_histograms_get_tolerance_but_not_a_free_pass() {
        // +20% mean: within ±25%, passes with a note.
        let drift = BASE.replace("\"mean\":100.0", "\"mean\":120.0");
        let r = bench_gate(&doc(BASE), &doc(&drift), DEFAULT_US_TOLERANCE);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert!(r.notes.iter().any(|n| n.contains("span.flush_us")));
        // +50% mean: regression.
        let blowup = BASE.replace("\"mean\":100.0", "\"mean\":150.0");
        let r = bench_gate(&doc(BASE), &doc(&blowup), DEFAULT_US_TOLERANCE);
        assert!(!r.passed());
        assert!(r.failures.iter().any(|f| f.contains("span.flush_us") && f.contains("mean")));
    }

    #[test]
    fn non_us_histograms_and_missing_metrics_are_exact_failures() {
        let drift = BASE.replace("\"mean\":10.0", "\"mean\":11.0");
        let r = bench_gate(&doc(BASE), &doc(&drift), DEFAULT_US_TOLERANCE);
        assert!(r.failures.iter().any(|f| f.contains("exact.series")));

        let missing = BASE.replace("\"gcs.mcasts\":300,", "");
        let r = bench_gate(&doc(BASE), &doc(&missing), DEFAULT_US_TOLERANCE);
        assert!(r.failures.iter().any(|f| f.contains("gcs.mcasts") && f.contains("missing")));
        // The reverse direction — new counter in fresh — is only a note.
        let r = bench_gate(&doc(&missing), &doc(BASE), DEFAULT_US_TOLERANCE);
        assert!(r.passed());
        assert!(r.notes.iter().any(|n| n.contains("gcs.mcasts")));

        // Gauges follow the same two rules: exact, and present.
        let deeper = BASE.replace("\"g.depth\":4", "\"g.depth\":5");
        let r = bench_gate(&doc(BASE), &doc(&deeper), DEFAULT_US_TOLERANCE);
        assert!(r.failures.iter().any(|f| f.contains("g.depth") && f.contains("4 -> 5")));
        let gone = BASE.replace("\"g.depth\":4", "");
        let r = bench_gate(&doc(BASE), &doc(&gone), DEFAULT_US_TOLERANCE);
        assert!(r.failures.iter().any(|f| f.contains("g.depth") && f.contains("missing")));
    }

    #[test]
    fn diff_reports_changes_and_absences_with_percentages() {
        let changed = BASE
            .replace("\"net.sent\":1000", "\"net.sent\":1100")
            .replace("\"gcs.mcasts\":300,", "");
        let d = metrics_diff(&doc(BASE), &doc(&changed));
        assert!(d.contains("net.sent: 1000 -> 1100 (+10.0%)"), "{d}");
        assert!(d.contains("gcs.mcasts: 300 -> (absent)"), "{d}");
        assert!(d.contains("entries unchanged"), "{d}");
    }

    fn sample_events() -> Vec<TraceEvent> {
        // A real journal, exported and re-parsed, so the filters are
        // exercised on the genuine JSON round trip.
        let obs = Obs::new();
        obs.record(0, 10, EventKind::GroupView { epoch: 1, coord: 0, members: 2 });
        obs.record(1, 20, EventKind::MsgSend { from: 1, to: 0 });
        obs.record(0, 30, EventKind::MsgDeliver { from: 1, to: 0 });
        obs.record(1, 40, EventKind::GroupView { epoch: 2, coord: 1, members: 2 });
        vs_obs::events_from_json(&obs.journal_snapshot().to_json()).expect("round trip")
    }

    #[test]
    fn filters_compose_conjunctively() {
        let evs = sample_events();
        let by_process = filter_events(
            &evs,
            &TraceFilter { process: Some(0), ..TraceFilter::default() },
        );
        assert_eq!(by_process.len(), 2);
        let by_kind = filter_events(
            &evs,
            &TraceFilter { kind: Some("group_view".into()), ..TraceFilter::default() },
        );
        assert_eq!(by_kind.len(), 2);
        let both = filter_events(
            &evs,
            &TraceFilter {
                process: Some(0),
                kind: Some("group_view".into()),
                ..TraceFilter::default()
            },
        );
        assert_eq!(both.len(), 1);
        let last = filter_events(&evs, &TraceFilter { last: Some(1), ..TraceFilter::default() });
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].seq, evs.last().unwrap().seq);
    }

    #[test]
    fn clock_interval_filters_cut_by_causality() {
        let evs = sample_events();
        // Events at-or-after p0's first event.
        let after = filter_events(
            &evs,
            &TraceFilter { clock_ge: vec![(0, 1)], ..TraceFilter::default() },
        );
        assert!(after.iter().all(|e| e.clock.get(0) >= 1));
        assert!(!after.is_empty());
        // Events before p1 had recorded anything.
        let before = filter_events(
            &evs,
            &TraceFilter { clock_le: vec![(1, 0)], ..TraceFilter::default() },
        );
        assert!(before.iter().all(|e| e.clock.get(1) == 0));
    }

    #[test]
    fn causal_slice_matches_the_journal_renderer() {
        let obs = Obs::new();
        obs.record(0, 10, EventKind::GroupView { epoch: 1, coord: 0, members: 2 });
        obs.record(1, 20, EventKind::MsgSend { from: 1, to: 0 });
        obs.record(0, 30, EventKind::MsgDeliver { from: 1, to: 0 });
        let j = obs.journal_snapshot();
        let parsed = vs_obs::events_from_json(&j.to_json()).expect("round trip");
        let slice = causal_slice_of(&parsed, 0, 10).expect("p0 has events");
        // Same events, and the same single formatting path, as the
        // in-memory journal's slice.
        assert_eq!(
            vs_obs::render_slice(&slice, 2),
            vs_obs::render_slice(&j.causal_slice(0, 10), 2)
        );
        assert!(causal_slice_of(&parsed, 9, 10).is_none());
    }
}
