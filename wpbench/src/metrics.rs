//! Metric names and units, per-layer aggregation from spans, and the
//! result line.

use std::collections::{BTreeMap, HashSet};

use crate::stats::percentile;
use crate::trace::{self_times, Span};

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("nodes_per_s", "gates/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("slo_miss_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("qor_size_ratio", "ratio"),
    ("qor_depth", "phases"),
];

/// Timed layers of the traced run. Each expands into `<layer>.p50`,
/// `.p90` (per-call duration), `.calls` and `.busy` (summed self time).
/// The span behind `<x>_ms` is named `<x>`; `engine.hit_ms` is a self
/// time (see [`aggregate`]) and `pipeline.boundary_ms` is filled in by
/// [`LayerTable::add_boundaries`].
pub const LAYERS_MS: [&str; 23] = [
    "benchsuite.generate_ms",
    "mig.content_hash_ms",
    "mig.parse_ms",
    "serve.parse_ms",
    "mig.optimize_depth_ms",
    "mig.optimize_size_ms",
    "mig.rewrite_gate_ms",
    "spec.check_ms",
    "engine.hit_ms",
    "pipeline.run_ms",
    "pipeline.boundary_ms",
    "pipeline.gate_ms",
    "from_mig.map_ms",
    "fanout_restriction.restrict_ms",
    "buffer_insertion.insert_ms",
    "balance.verify_ms",
    "arena.build_ms",
    "differential.check_ms",
    "cost.price_ms",
    "serve.encode_ms",
    "serve.first_cell_ms",
    "serve.tail_after_cell_ms",
    "serve.generator_late_ms",
];

/// Scalar per-layer metrics: (name, unit).
pub const SCALARS: [(&str, &str); 27] = [
    ("serve.generator_late_ms.p99", "ms"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.evictions", "count"),
    ("engine.passes_executed", "count"),
    ("engine.hit_rate", "ratio"),
    ("engine.executions", "count"),
    ("engine.distinct_netlists", "count"),
    ("engine.executions_per_netlist", "ratio"),
    ("engine.hit_speedup", "ratio"),
    ("engine.hit_speedup.uncached_ms", "ms"),
    ("engine.hit_speedup.hit_ms", "ms"),
    ("pipeline.boundary_frac", "ratio"),
    ("fanout_restriction.nodes_per_s", "nodes/s"),
    ("buffer_insertion.nodes_per_s", "nodes/s"),
    ("differential.patterns_per_s", "patterns/s"),
    ("from_mig.map_ms.pass_stats_busy", "ms"),
    ("fanout_restriction.restrict_ms.pass_stats_busy", "ms"),
    ("buffer_insertion.insert_ms.pass_stats_busy", "ms"),
    ("balance.verify_ms.pass_stats_busy", "ms"),
    ("serve.executed", "count"),
    ("serve.coalesced", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.cells_shed", "count"),
    ("serve.rejected", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric, in output order: (name, unit).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS_MS {
        out.push((format!("{layer}.p50"), "ms"));
        out.push((format!("{layer}.p90"), "ms"));
        out.push((format!("{layer}.calls"), "count"));
        out.push((format!("{layer}.busy"), "ms"));
    }
    out.extend(SCALARS.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// Root span name of one request.
pub const REQUEST: &str = "request";

/// Span around an engine request's per-cell section; its self time is
/// the part of the section no cell accounts for.
pub const CELLS: &str = "engine.cells";

/// Spans beneath a coverage root whose self time no public layer call
/// explains: the cell section, and each executed cell's
/// `run_with_model` interval beyond its replayed pass calls.
pub const CONTAINERS: [&str; 2] = [CELLS, "pipeline.run"];

/// What `trace.coverage` is measured against on one workload.
#[derive(Clone, Copy, Debug)]
pub struct CoverageRoot {
    /// Name of the spans whose wall time the layer calls must explain.
    pub span: &'static str,
    /// What their unexplained self time consists of, for the summary.
    pub remainder: &'static str,
}

/// Per-call durations and summed self time of one layer (ms).
#[derive(Clone, Debug, Default)]
pub struct LayerStat {
    pub durations: Vec<f64>,
    pub busy: f64,
}

/// Layer table of a traced run.
#[derive(Debug)]
pub struct LayerTable {
    pub layers: BTreeMap<&'static str, LayerStat>,
    pub root: CoverageRoot,
    /// (Σ root wall − Σ unexplained) / Σ root wall.
    pub coverage: f64,
    pub root_wall_ms: f64,
    /// Self time of the roots and of the [`CONTAINERS`] beneath them.
    pub unexplained_ms: f64,
    /// The [`CONTAINERS`]' share of `unexplained_ms`, per name.
    pub containers_ms: BTreeMap<&'static str, f64>,
}

/// Folds spans into per-layer statistics and `trace.coverage`.
///
/// Coverage compares the layer calls hung under each `root` span with
/// the root's own measured interval: the unexplained share is the self
/// time of the roots plus that of the [`CONTAINERS`] below them.
/// Only the roots in `replayed` count, when it is given (the others
/// had nothing replayed under them). `hit_spans` are the request roots
/// of in-process cache hits, whose self time is the engine's own share
/// of a hit (`engine.hit_ms`).
pub fn aggregate(
    spans: &[Span],
    root: CoverageRoot,
    replayed: Option<&HashSet<u64>>,
    hit_spans: &HashSet<u64>,
) -> LayerTable {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    let mut push = |layer: &'static str, dur_ns: u64, self_ns: i64| {
        let stat = layers.entry(layer).or_default();
        stat.durations.push(dur_ns as f64 / 1e6);
        stat.busy += self_ns as f64 / 1e6;
    };
    let (mut wall, mut unexplained) = (0.0, 0.0);
    let mut containers_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = selfs[&s.id];
        if hit_spans.contains(&s.id) {
            push("engine.hit_ms", own.max(0) as u64, own);
        }
        if s.name == root.span && replayed.is_none_or(|r| r.contains(&s.id)) {
            wall += s.dur_ns() as f64 / 1e6;
            unexplained += own as f64 / 1e6;
        } else if let Some(&name) = CONTAINERS.iter().find(|&&c| c == s.name) {
            unexplained += own as f64 / 1e6;
            *containers_ms.entry(name).or_default() += own as f64 / 1e6;
        }
        if let Some(layer) = LAYERS_MS
            .iter()
            .find(|l| l.strip_suffix("_ms") == Some(s.name))
        {
            push(layer, s.dur_ns(), own);
        }
    }
    LayerTable {
        layers,
        root,
        coverage: if wall > 0.0 {
            (wall - unexplained) / wall
        } else {
            0.0
        },
        root_wall_ms: wall,
        unexplained_ms: unexplained,
        containers_ms,
    }
}

impl LayerTable {
    /// Records the pass-boundary time of each replayed pipeline run:
    /// `run_with_model` wall time minus the pass bodies (their own
    /// `PassStats::micros`) and minus the replayed equivalence gates.
    pub fn add_boundaries(&mut self, boundaries_ms: &[f64]) {
        if boundaries_ms.is_empty() {
            return;
        }
        self.layers.insert(
            "pipeline.boundary_ms",
            LayerStat {
                durations: boundaries_ms.to_vec(),
                busy: boundaries_ms.iter().sum(),
            },
        );
    }

    /// The `<layer>.{p50,p90,calls,busy}` values of every timed layer
    /// (zeros for layers this workload never calls).
    pub fn metrics(&self, out: &mut BTreeMap<String, f64>) {
        for layer in LAYERS_MS {
            let stat = self.layers.get(layer).cloned().unwrap_or_default();
            out.insert(format!("{layer}.p50"), percentile(&stat.durations, 0.5));
            out.insert(format!("{layer}.p90"), percentile(&stat.durations, 0.9));
            out.insert(format!("{layer}.calls"), stat.durations.len() as f64);
            out.insert(format!("{layer}.busy"), stat.busy);
        }
        let late = self
            .layers
            .get("serve.generator_late_ms")
            .map_or(0.0, |s| percentile(&s.durations, 0.99));
        out.insert("serve.generator_late_ms.p99".to_owned(), late);
        let run: f64 = self
            .layers
            .get("pipeline.run_ms")
            .map_or(0.0, |s| s.durations.iter().sum());
        let boundary = self
            .layers
            .get("pipeline.boundary_ms")
            .map_or(0.0, |s| s.busy);
        out.insert(
            "pipeline.boundary_frac".to_owned(),
            if run > 0.0 { boundary / run } else { 0.0 },
        );
        out.insert("trace.coverage".to_owned(), self.coverage);
    }

    /// Human-readable self-time table plus the coverage verdict.
    pub fn summary(&self, workload: &str, overhead_frac: f64) -> String {
        let mut text = format!(
            "traced run `{workload}`: layer self time against {:.1} ms of `{}` wall time\n",
            self.root_wall_ms, self.root.span
        );
        text.push_str(&format!(
            "  {:<34} {:>7} {:>11} {:>10} {:>10}\n",
            "layer", "calls", "busy ms", "p50 ms", "p90 ms"
        ));
        for (layer, stat) in &self.layers {
            text.push_str(&format!(
                "  {:<34} {:>7} {:>11.2} {:>10.3} {:>10.3}\n",
                layer,
                stat.durations.len(),
                stat.busy,
                percentile(&stat.durations, 0.5),
                percentile(&stat.durations, 0.9)
            ));
        }
        text.push_str(&format!(
            "  trace.coverage {:.4}  trace.overhead_frac {:.6}\n",
            self.coverage, overhead_frac
        ));
        let share = 100.0 * self.unexplained_ms / self.root_wall_ms.max(f64::MIN_POSITIVE);
        let own = self.unexplained_ms - self.containers_ms.values().sum::<f64>();
        text.push_str(&format!(
            "  unexplained {:.1} ms ({share:.1}%): `{}` self {own:.1} ms",
            self.unexplained_ms, self.root.span
        ));
        for (name, ms) in &self.containers_ms {
            text.push_str(&format!(", `{name}` self {ms:.1} ms"));
        }
        text.push('\n');
        if self.coverage < 0.95 {
            text.push_str(&format!(
                "  coverage below 0.95: {:.1} ms ({share:.1}%) of `{}` wall time is not explained \
                 by any timed layer call; it is {}\n",
                self.unexplained_ms, self.root.span, self.root.remainder
            ));
        } else if self.coverage > 1.05 {
            text.push_str(&format!(
                "  coverage above 1.05: the replayed layer calls took {:.1} ms ({:.1}%) longer than \
                 the `{}` intervals they explain\n",
                -self.unexplained_ms,
                -share,
                self.root.span
            ));
        }
        text
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, with each metric as `{"value", "unit"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Full-precision JSON number (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer_names());
        for (name, unit) in all {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(per_layer_names().len() <= 128);
    }

    #[test]
    fn a_gap_under_the_root_lowers_coverage_and_is_named() {
        use crate::trace::Recorder;
        use std::time::{Duration, Instant};
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let rec = Recorder::since(t0);
        let root = rec.record(REQUEST, None, 1, t0, t0 + ms(10));
        rec.record("spec.check", Some(root), 1, t0, t0 + ms(1));
        let cells = rec.record(CELLS, Some(root), 1, t0 + ms(1), t0 + ms(8));
        let run = rec.record("pipeline.run", Some(cells), 1, t0 + ms(1), t0 + ms(7));
        rec.record("from_mig.map", Some(run), 1, t0 + ms(1), t0 + ms(6));
        let cover = CoverageRoot {
            span: REQUEST,
            remainder: "engine work outside the layers",
        };
        let table = aggregate(&rec.spans(), cover, None, &HashSet::new());
        // 2 ms after the cells, 1 ms of the section outside its cell and
        // 1 ms of the cell outside its pass are unexplained.
        assert!((table.coverage - 0.6).abs() < 1e-9, "{}", table.coverage);
        let summary = table.summary("w", 0.0);
        assert!(summary.contains("coverage below 0.95"), "{summary}");
        assert!(
            summary.contains("engine work outside the layers"),
            "{summary}"
        );

        let full = Recorder::since(t0);
        let root = full.record(REQUEST, None, 1, t0, t0 + ms(10));
        full.record("spec.check", Some(root), 1, t0, t0 + ms(10));
        let table = aggregate(&full.spans(), cover, None, &HashSet::new());
        assert_eq!(table.coverage, 1.0);
        assert!(!table.summary("w", 0.0).contains("coverage below"));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("x".to_owned(), "ms", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
