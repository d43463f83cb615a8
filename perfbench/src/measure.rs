//! Statistics over samples, process memory, and the result line.

use serde_json::Value;
use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Search-layer counters read per phase: from the simulator's registry,
/// or summed over the node members' `StatsReport`s.
pub const COUNTERS: [&str; 11] = [
    "search.msgs.route",
    "search.msgs.refine",
    "search.msgs.results",
    "search.bytes.query",
    "search.bytes.results",
    "routing.splits",
    "store.entries_scanned",
    "store.entries_matched",
    "store.entries_skipped",
    "search.refine.pruned",
    "search.refine.dist_calls",
];

/// Values of `COUNTERS`, in its order.
pub type Counts = [u64; 11];

/// The growth of each counter over a phase, per query of the phase.
pub struct PerQuery(Counts, f64);

impl PerQuery {
    pub fn new(after: &Counts, before: &Counts, queries: usize) -> PerQuery {
        PerQuery(
            std::array::from_fn(|i| after[i] - before[i]),
            queries as f64,
        )
    }

    /// Counter `name` per query.
    pub fn get(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("counter is in COUNTERS");
        self.0[i] as f64 / self.1
    }

    /// Protocol messages per query: delivery plus results.
    pub fn msgs(&self) -> f64 {
        self.get("search.msgs.route")
            + self.get("search.msgs.refine")
            + self.get("search.msgs.results")
    }

    /// Query and result bytes per query.
    pub fn bytes(&self) -> f64 {
        self.get("search.bytes.query") + self.get("search.bytes.results")
    }
}

/// What the search layer holds at the end of a run, beside its counters.
pub struct SearchState {
    /// Entries on the most loaded node.
    pub load_max: u64,
    /// Publishes of the ingest phase and the hops they took.
    pub publishes: (u64, u64),
    /// Query traces retained.
    pub traces: u64,
    /// Seconds to read the telemetry out at the end.
    pub snapshot_s: f64,
}

/// The `simsearch.*` per-layer metrics both drivers report alike.
pub fn search_layer(out: &mut Outcome, q: &PerQuery, s: &SearchState) {
    let pruned = q.get("search.refine.pruned");
    let calls = q.get("search.refine.dist_calls");
    for (name, counter, unit) in [
        (
            "simsearch.routing.splits_per_query",
            "routing.splits",
            "count",
        ),
        (
            "simsearch.msgs.route_per_query",
            "search.msgs.route",
            "count",
        ),
        (
            "simsearch.msgs.refine_per_query",
            "search.msgs.refine",
            "count",
        ),
        (
            "simsearch.msgs.results_per_query",
            "search.msgs.results",
            "count",
        ),
        (
            "simsearch.bytes.query_per_query",
            "search.bytes.query",
            "bytes",
        ),
        (
            "simsearch.bytes.results_per_query",
            "search.bytes.results",
            "bytes",
        ),
        (
            "simsearch.store.scanned_per_query",
            "store.entries_scanned",
            "count",
        ),
        (
            "simsearch.store.matched_per_query",
            "store.entries_matched",
            "count",
        ),
        (
            "simsearch.store.skipped_per_query",
            "store.entries_skipped",
            "count",
        ),
    ] {
        out.metric(name, q.get(counter), unit);
    }
    out.metric("simsearch.store.load_max", s.load_max as f64, "count");
    out.metric("simsearch.refine.pruned_per_query", pruned, "count");
    out.metric(
        "simsearch.refine.prune_ratio",
        ratio(pruned, pruned + calls),
        "ratio",
    );
    out.metric(
        "simsearch.publish.hops_per_publish",
        ratio(s.publishes.1 as f64, s.publishes.0 as f64),
        "count",
    );
    out.metric("simsearch.telemetry.traces", s.traces as f64, "count");
    out.metric("simsearch.telemetry.snapshot_s", s.snapshot_s, "s");
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores the host reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one run prints as its last line: operation counts, the verdict
/// on every answer that was checked, and the metrics by name.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (publishes and queries).
    pub attempted: u64,
    /// Operations that failed: a wrong, missing or late answer.
    pub failed: u64,
    /// Problems with the run as a whole (inputs that break the
    /// workload's preconditions, storage counts that do not add up).
    pub problems: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// End-to-end figures of the traced run, for its trace file.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record one operation's verdict; `Err` carries why it failed.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed operation: {why}");
            }
        }
    }

    /// Record a whole-run problem (makes `correct` false).
    pub fn problem(&mut self, why: String) {
        eprintln!("perfbench: {why}");
        self.problems.push(why);
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Add an end-to-end figure of the traced run to its trace file.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// The result object the last line of standard output carries.
    pub fn to_json(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Value::Float(value));
                m.insert("unit".to_string(), Value::String(unit.to_string()));
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let mut out = BTreeMap::new();
        out.insert("correct".to_string(), Value::Bool(self.problems.is_empty()));
        out.insert("attempted".to_string(), Value::UInt(self.attempted));
        out.insert("failed".to_string(), Value::UInt(self.failed));
        out.insert("metrics".to_string(), Value::Object(metrics));
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }
}
