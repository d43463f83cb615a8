//! The traced run's span ledger.
//!
//! A span brackets one call the benchmark makes into a layer: name,
//! start, end, the enclosing span and the operation it belongs to.
//! Spans are kept in memory and written out when the run ends. Calls
//! too short to time one by one (distance calls, codec calls) are kept
//! as counters with summed nanoseconds instead. When tracing is off
//! every method returns at once and nothing is recorded.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-name roll-up of the recorded spans.
#[derive(Clone, Copy, Default)]
pub struct Rollup {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time child spans cover.
    pub self_ns: u64,
}

/// The span ledger of one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A ledger that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// An empty ledger on the same clock, for another thread; its spans
    /// come back through [`Tracer::absorb`].
    pub fn fork(&self, on: bool) -> Tracer {
        Tracer {
            on: self.on && on,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Take over a forked ledger's spans, nesting its top-level spans in
    /// the innermost span open here, and add up its counters.
    pub fn absorb(&mut self, child: Tracer) {
        let offset = self.spans.len();
        let here = self.open.last().copied();
        for mut s in child.spans {
            s.parent = s.parent.map(|p| p + offset).or(here);
            self.spans.push(s);
        }
        for (name, (n, ns)) in child.counters {
            self.count(name, n, ns);
        }
    }

    /// Is this the traced run?
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span for operation `op`, nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// [`Tracer::begin`] when `cond` holds; otherwise a span that
    /// records nothing.
    pub fn begin_if(&mut self, cond: bool, name: &'static str, op: u64) -> SpanId {
        if cond {
            self.begin(name, op)
        } else {
            SpanId(None)
        }
    }

    /// Close a span; returns its duration in nanoseconds (0 when off).
    pub fn end(&mut self, span: SpanId) -> u64 {
        let Some(id) = span.0 else { return 0 };
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Add `n` operations taking `ns` nanoseconds to a counter.
    pub fn count(&mut self, name: &'static str, n: u64, ns: u64) {
        if self.on {
            let c = self.counters.entry(name).or_default();
            c.0 += n;
            c.1 += ns;
        }
    }

    /// A counter's `(operations, summed ns)`.
    pub fn counter(&self, name: &str) -> (u64, u64) {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Count, total and self time per span name. Children of one span
    /// never overlap (the benchmark calls layers one at a time), so the
    /// covered time is the sum of the children's durations.
    pub fn rollups(&self) -> BTreeMap<&'static str, Rollup> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let r = out.entry(s.name).or_default();
            r.count += 1;
            r.total_ns += d;
            r.self_ns += d.saturating_sub(covered);
        }
        out
    }

    /// Spans, roll-ups and counters as JSON (the trace file's body).
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::String(s.name.to_string()),
                    Value::UInt(s.start_ns),
                    Value::UInt(s.end_ns),
                    s.parent.map_or(Value::Int(-1), |p| Value::UInt(p as u64)),
                    Value::UInt(s.op),
                ])
            })
            .collect();
        let rollups = self
            .rollups()
            .into_iter()
            .map(|(name, r)| {
                let mut m = BTreeMap::new();
                m.insert("count".to_string(), Value::UInt(r.count));
                m.insert("total_ns".to_string(), Value::UInt(r.total_ns));
                m.insert("self_ns".to_string(), Value::UInt(r.self_ns));
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, &(n, ns))| {
                let mut m = BTreeMap::new();
                m.insert("ops".to_string(), Value::UInt(n));
                m.insert("ns".to_string(), Value::UInt(ns));
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let mut out = BTreeMap::new();
        out.insert(
            "span_columns".to_string(),
            Value::Array(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .iter()
                    .map(|c| Value::String(c.to_string()))
                    .collect(),
            ),
        );
        out.insert("spans".to_string(), Value::Array(spans));
        out.insert("rollups".to_string(), Value::Object(rollups));
        out.insert("counters".to_string(), Value::Object(counters));
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        let r = t.rollups();
        assert_eq!(r["inner"].self_ns, inner_ns);
        assert_eq!(r["outer"].self_ns, outer_ns - inner_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        assert_eq!(t.end(s), 0);
        t.count("c", 1, 5);
        assert!(t.rollups().is_empty());
        assert_eq!(t.counter("c"), (0, 0));
    }
}
