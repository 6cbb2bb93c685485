//! The benchmark's own spans, recorded around its calls into each layer
//! during a traced run: name, start, end, parent span and op id, kept in
//! memory and written as chrome://tracing JSON at exit. An untraced run
//! holds a disabled tracer whose spans cost one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub tid: u64,
}

impl SpanRecord {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    /// Indices of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Guard of an open span; the span ends when it drops.
pub struct Span<'t> {
    tracer: Option<&'t Tracer>,
    index: usize,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let end = tracer.now_ns();
            if let Ok(mut spans) = tracer.spans.lock() {
                spans[self.index].end_ns = end;
            }
            OPEN.with(|open| open.borrow_mut().pop());
        }
    }
}

impl Span<'_> {
    /// Renames the open span, for a call whose kind shows only once it
    /// has returned.
    pub fn rename(&mut self, name: &'static str) {
        if let Some(tracer) = self.tracer {
            if let Ok(mut spans) = tracer.spans.lock() {
                spans[self.index].name = name;
            }
        }
    }
}

/// Per-span-name totals: how often a layer was entered, its wall time,
/// and its self time (wall time minus the time its child spans cover).
#[derive(Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens span `name` for op `op`, a child of this thread's innermost
    /// open span.
    pub fn span(&self, name: &'static str, op: u64) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: None,
                index: 0,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span log");
            spans.push(SpanRecord {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
                tid: TID.with(|t| *t),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        Span {
            tracer: Some(self),
            index,
        }
    }

    /// Runs `f` inside span `name`.
    pub fn time<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name, op);
        f()
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log").clone()
    }

    /// Totals per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.records())
    }

    /// Mean wall time of span `name` in milliseconds (0 when absent).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.layers()
            .get(name)
            .map_or(0.0, |l| l.total_ms / l.count.max(1) as f64)
    }

    /// Appends this tracer's spans as chrome://tracing complete events
    /// under process id `pid`.
    pub fn chrome_events(&self, pid: usize, events: &mut Vec<String>) {
        for (i, s) in self.records().iter().enumerate() {
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {}, \"args\": {{\"span\": {i}, \
                 \"op\": {}, \"parent\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
            events.push(e);
        }
    }
}

fn layer_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let l = layers.entry(s.name).or_default();
        l.count += 1;
        l.total_ms += s.dur_ns() as f64 / 1e6;
        l.self_ms += s.dur_ns().saturating_sub(children) as f64 / 1e6;
    }
    layers
}

/// Renders a chrome://tracing document from complete events.
pub fn chrome_document(events: &[String]) -> String {
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            rec("op", 0, 10_000_000, None),
            rec("engine", 1_000_000, 7_000_000, Some(0)),
            rec("inner", 2_000_000, 5_000_000, Some(1)),
            rec("render", 7_000_000, 9_000_000, Some(0)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["op"].self_ms, 2.0);
        assert_eq!(layers["engine"].self_ms, 3.0);
        assert_eq!(layers["inner"].self_ms, 3.0);
        assert_eq!(layers["render"].total_ms, 2.0);
    }

    #[test]
    fn nested_guards_record_parents_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        {
            let _op = t.span("op", 7);
            t.time("child", 7, || ());
        }
        let spans = t.records();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut renamed = t.span("poll", 8);
        renamed.rename("result");
        drop(renamed);
        assert_eq!(t.records()[2].name, "result");

        let off = Tracer::new(false);
        off.time("child", 1, || ());
        off.span("poll", 1).rename("result");
        assert!(off.records().is_empty());
    }
}
