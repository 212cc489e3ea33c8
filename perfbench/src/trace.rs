//! Harness-side tracing for the per-layer run.
//!
//! Spans are recorded only around the public calls the benchmark makes into
//! each crate; the program itself gains no spans. Each span has a name, a
//! start, an end and its parent's id. Spans stay in memory until [`write`]
//! dumps them as JSON when the run ends. With tracing off, [`span`] costs
//! one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hotspot_active::{BatchSelector, SelectionContext};
use hotspot_litho::{Label, LithoOracle, OracleError, OracleStateSnapshot, OracleStats};

/// One closed span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; it closes when dropped.
#[derive(Debug)]
pub struct Span {
    open: Option<(u64, Option<u64>, String, Instant)>,
}

impl Span {
    /// This span's id, for parenting spans opened on other threads.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|(id, ..)| *id)
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let parent = STACK.with(|stack| stack.borrow().last().copied());
    child_of(name, parent)
}

/// Opens a span under an explicit parent, e.g. one opened on another thread.
pub fn child_of(name: &str, parent: Option<u64>) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| stack.borrow_mut().push(id));
    Span {
        open: Some((id, parent, name.to_string(), Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|&open| open == id) {
                stack.truncate(at);
            }
        });
        let record = SpanRecord {
            id,
            parent,
            name,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
        };
        SPANS
            .lock()
            .expect("span buffer lock poisoned by a panicking thread")
            .push(record);
    }
}

/// Drains every span recorded so far.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span buffer lock poisoned by a panicking thread"),
    )
}

/// Per-name aggregate: count, total seconds and self seconds, where self
/// time is a span's duration minus the part of it its children cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for span in spans {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let covered = children.get(&span.id).map_or(0, |intervals| {
            union_length(intervals, span.start_ns, span.end_ns)
        });
        let entry = out.entry(span.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += total as f64 * 1e-9;
        entry.2 += total.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`; children on
/// different threads may overlap each other.
fn union_length(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut length = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                length += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        length += ce - cs;
    }
    length
}

/// Writes spans as a JSON array of `{id, parent, name, start_us, end_us}`.
pub fn write(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let name = serde_json::to_string(&span.name).map_err(std::io::Error::other)?;
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":{name},\"start_us\":{:.3},\"end_us\":{:.3}}}{comma}",
            span.id,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// A [`LithoOracle`] that times every labelling call into the wrapped one.
#[derive(Debug)]
pub struct TimedOracle<O> {
    inner: O,
    pub seconds: f64,
}

impl<O> TimedOracle<O> {
    pub fn new(inner: O) -> Self {
        TimedOracle {
            inner,
            seconds: 0.0,
        }
    }

    fn timed<T>(&mut self, call: impl FnOnce(&mut O) -> T) -> T {
        let _span = span("litho.oracle");
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.seconds += start.elapsed().as_secs_f64();
        out
    }
}

impl<O: LithoOracle> LithoOracle for TimedOracle<O> {
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
        self.timed(|inner| inner.try_query(index))
    }

    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        self.timed(|inner| inner.resimulate(index))
    }

    fn try_query_batch(&mut self, indices: &[usize]) -> Vec<Result<Label, OracleError>> {
        self.timed(|inner| inner.try_query_batch(indices))
    }

    fn unique_queries(&self) -> usize {
        self.inner.unique_queries()
    }

    fn total_queries(&self) -> usize {
        self.inner.total_queries()
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn state_snapshot(&self) -> Option<OracleStateSnapshot> {
        self.inner.state_snapshot()
    }

    fn restore_state(&mut self, state: &OracleStateSnapshot) -> bool {
        self.inner.restore_state(state)
    }
}

/// A [`BatchSelector`] that times each selection.
#[derive(Debug)]
pub struct TimedSelector {
    inner: Box<dyn BatchSelector>,
    span_name: String,
    pub seconds: f64,
    pub calls: u64,
}

impl TimedSelector {
    pub fn new(inner: Box<dyn BatchSelector>) -> Self {
        let span_name = format!("select.{}", inner.name());
        TimedSelector {
            inner,
            span_name,
            seconds: 0.0,
            calls: 0,
        }
    }
}

impl BatchSelector for TimedSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        let _span = span(&self.span_name);
        let start = Instant::now();
        let picked = self.inner.select(ctx);
        self.seconds += start.elapsed().as_secs_f64();
        self.calls += 1;
        picked
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn last_weights(&self) -> Option<(f64, f64)> {
        self.inner.last_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_children() {
        assert_eq!(union_length(&[(0, 10), (5, 15), (20, 25)], 0, 30), 20);
        assert_eq!(union_length(&[(0, 10)], 2, 8), 6);
        assert_eq!(union_length(&[], 0, 8), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "outer".into(),
                start_ns: 0,
                end_ns: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "inner".into(),
                start_ns: 10,
                end_ns: 40,
            },
        ];
        let times = self_times(&spans);
        let (count, total, own) = times["outer"];
        assert_eq!(count, 1);
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((own - 70e-9).abs() < 1e-15);
    }
}
