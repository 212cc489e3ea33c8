//! Structured telemetry for the PSHD pipeline: leveled events, RAII span
//! timers, process-wide metrics, and pluggable sinks.
//!
//! The crate deliberately has no external dependencies beyond the
//! workspace's serde layer. Everything hangs off one lazily-initialised
//! process-global:
//!
//! - **Events** ([`emit`], [`info`], [`warn`], …) carry a [`Level`], a dotted
//!   target such as `core.framework`, a message, and typed key–value fields.
//!   They fan out to every registered [`Sink`].
//! - **Sinks** ([`ConsoleSink`] honouring the `LITHOHD_LOG` filter,
//!   [`JsonlSink`] writing an append-only run journal, [`MemorySink`] for
//!   tests) are registered with [`add_sink`].
//! - **Metrics** ([`counter`], [`gauge`], [`histogram`]) are atomics shared
//!   process-wide; [`snapshot`] copies them and [`publish_snapshot`]
//!   broadcasts the copy to sinks (the journal's final record).
//! - **Spans** ([`span`]) time a scope on drop, aggregate into a
//!   hierarchical [`ProfileTree`] (rendered by [`profile_report`] for
//!   `--profile`), and emit a `profile` event so journals capture per-span
//!   durations.
//!
//! - **Traces** ([`trace::enable`], normally via `--trace out.json`) give
//!   spans process-unique ids and parent links — propagated across threads
//!   with [`trace::handoff`]/[`trace::adopt`] — and export as Chrome-trace
//!   JSON for Perfetto. Trace data never reaches a sink, so canonical
//!   journals are unaffected.
//!
//! - **Time** ([`Clock`]) is injected: [`SystemClock`] in production,
//!   [`VirtualClock`] in tests, so retry backoff, shard polling and batching
//!   deadlines never read the wall clock directly.
//!
//! With no sinks registered, events cost one atomic load and spans only
//! update the profile tree — instrumented library code stays cheap for
//! callers that never opt in.

#![forbid(unsafe_code)]

mod clock;
mod event;
mod export;
mod http;
mod level;
mod metrics;
pub mod names;
mod sink;
mod span;
pub mod trace;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use event::{Event, FieldValue};
pub use export::{prometheus_name, render_prometheus};
pub use http::{
    serve_http, serve_metrics, Handler, HttpOptions, HttpServer, MetricsServer, Request, Response,
};
pub use level::{EnvFilter, Level, ParseLevelError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramState, HistogramSummary, MetricsRegistry, MetricsSnapshot,
    MetricsState,
};
pub use sink::{ConsoleSink, JournalPosition, JsonlSink, MemorySink, Sink};
pub use span::{ProfileTree, SpanStat, SpanTimer};
pub use trace::{TraceHandoff, TraceRecord};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Process-global telemetry state.
pub(crate) struct Telemetry {
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
    /// Cheap empty-check so uninstrumented runs skip field formatting.
    sink_count: AtomicUsize,
    metrics: MetricsRegistry,
    pub(crate) profile: ProfileTree,
    run_ids: AtomicU64,
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Recovers the guard from a poisoned lock instead of propagating the
/// panic. Telemetry state is a monotone set of registries and buffers — a
/// thread that panicked mid-update (e.g. a chaos-injected shard worker)
/// leaves them structurally intact — and observability must never take the
/// process down with the thread it was observing.
pub(crate) fn recover<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| Telemetry {
        sinks: RwLock::new(Vec::new()),
        sink_count: AtomicUsize::new(0),
        metrics: MetricsRegistry::default(),
        profile: ProfileTree::default(),
        run_ids: AtomicU64::new(0),
    })
}

/// Registers a sink; every subsequent event and snapshot reaches it.
pub fn add_sink(sink: Arc<dyn Sink>) {
    let state = global();
    let mut sinks = recover(state.sinks.write());
    sinks.push(sink);
    state.sink_count.store(sinks.len(), Ordering::Release);
}

/// Removes one previously registered sink (matched by `Arc` identity),
/// flushing it first. Lets a long-running process attach a journal for the
/// duration of one unit of work — a serving session step, say — and detach
/// it afterwards without disturbing other sinks.
pub fn remove_sink(sink: &Arc<dyn Sink>) {
    let state = global();
    let mut sinks = recover(state.sinks.write());
    sinks.retain(|registered| {
        if Arc::ptr_eq(registered, sink) {
            registered.flush();
            false
        } else {
            true
        }
    });
    state.sink_count.store(sinks.len(), Ordering::Release);
}

/// Removes every registered sink (flushing first). Mainly for tests and for
/// binaries that reconfigure logging after argument parsing.
pub fn clear_sinks() {
    let state = global();
    let mut sinks = recover(state.sinks.write());
    for sink in sinks.iter() {
        sink.flush();
    }
    sinks.clear();
    state.sink_count.store(0, Ordering::Release);
}

/// Whether any sink is registered (events are dropped early otherwise).
pub fn has_sinks() -> bool {
    global().sink_count.load(Ordering::Acquire) > 0
}

thread_local! {
    /// Per-thread mute flag; see [`silence_thread`].
    static SILENCED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is silenced (see [`silence_thread`]).
pub fn thread_is_silenced() -> bool {
    SILENCED.with(Cell::get)
}

/// RAII guard returned by [`silence_thread`]; dropping it restores the
/// thread's previous silence state.
#[derive(Debug)]
pub struct SilenceGuard {
    previous: bool,
}

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        SILENCED.with(|cell| cell.set(self.previous));
    }
}

/// Silences telemetry on the current thread until the returned guard drops:
/// events are discarded before reaching any sink, and [`counter`],
/// [`gauge`], and [`histogram`] hand out detached (unregistered) slots whose
/// updates never reach snapshots. Shard worker threads run under this guard
/// so the coordinator can replay their merged effects exactly once on the
/// main thread, keeping journals and billing worker-count invariant.
pub fn silence_thread() -> SilenceGuard {
    let previous = SILENCED.with(|cell| cell.replace(true));
    SilenceGuard { previous }
}

/// Sends a structured event to every sink.
pub fn emit(
    level: Level,
    target: &'static str,
    message: &str,
    fields: &[(&'static str, FieldValue)],
) {
    if !has_sinks() || thread_is_silenced() {
        return;
    }
    let event = Event {
        level,
        target,
        message: message.to_string(),
        fields: fields.to_vec(),
    };
    let sinks = recover(global().sinks.read());
    for sink in sinks.iter() {
        sink.on_event(&event);
    }
}

/// Emits at [`Level::Trace`].
pub fn trace(target: &'static str, message: &str, fields: &[(&'static str, FieldValue)]) {
    emit(Level::Trace, target, message, fields);
}

/// Emits at [`Level::Debug`].
pub fn debug(target: &'static str, message: &str, fields: &[(&'static str, FieldValue)]) {
    emit(Level::Debug, target, message, fields);
}

/// Emits at [`Level::Info`].
pub fn info(target: &'static str, message: &str, fields: &[(&'static str, FieldValue)]) {
    emit(Level::Info, target, message, fields);
}

/// Emits at [`Level::Warn`].
pub fn warn(target: &'static str, message: &str, fields: &[(&'static str, FieldValue)]) {
    emit(Level::Warn, target, message, fields);
}

/// Emits at [`Level::Error`].
pub fn error(target: &'static str, message: &str, fields: &[(&'static str, FieldValue)]) {
    emit(Level::Error, target, message, fields);
}

/// Resolves a process-wide counter by name. On a silenced thread (see
/// [`silence_thread`]) the handle is detached: updates are discarded.
pub fn counter(name: &str) -> Counter {
    if thread_is_silenced() {
        return Counter::detached();
    }
    global().metrics.counter(name)
}

/// Resolves a process-wide gauge by name (detached on a silenced thread).
pub fn gauge(name: &str) -> Gauge {
    if thread_is_silenced() {
        return Gauge::detached();
    }
    global().metrics.gauge(name)
}

/// Resolves a process-wide histogram by name (detached on a silenced
/// thread).
pub fn histogram(name: &str) -> Arc<Histogram> {
    if thread_is_silenced() {
        return Histogram::detached();
    }
    global().metrics.histogram(name)
}

/// Copies the current value of every metric.
pub fn snapshot() -> MetricsSnapshot {
    global().metrics.snapshot()
}

/// Snapshots all metrics, broadcasts the snapshot to every sink (journals
/// append it as their final record), flushes, and returns it.
pub fn publish_snapshot() -> MetricsSnapshot {
    let snap = snapshot();
    let sinks = recover(global().sinks.read());
    for sink in sinks.iter() {
        sink.on_snapshot(&snap);
        sink.flush();
    }
    snap
}

/// Opens a wall-clock span; time is recorded when the returned timer drops.
pub fn span(name: &'static str) -> SpanTimer {
    SpanTimer::open(name)
}

/// Renders the aggregated span-timing tree (the `--profile` output).
pub fn profile_report() -> String {
    global().profile.render()
}

/// Flushes every sink.
pub fn flush() {
    let sinks = recover(global().sinks.read());
    for sink in sinks.iter() {
        sink.flush();
    }
}

/// Allocates a process-unique run id, letting concurrent runs (e.g. parallel
/// tests) tag and later disentangle their journal events.
pub fn next_run_id() -> u64 {
    global().run_ids.fetch_add(1, Ordering::Relaxed)
}

/// The next run id [`next_run_id`] would hand out, without consuming it.
/// Checkpoints persist this so a resumed process keeps allocating the same
/// ids an uninterrupted process would have.
pub fn run_id_watermark() -> u64 {
    global().run_ids.load(Ordering::Relaxed)
}

/// Overwrites the run-id allocator, pairing with [`run_id_watermark`] when
/// restoring a checkpoint in a fresh process.
pub fn set_run_id_watermark(next: u64) {
    global().run_ids.store(next, Ordering::Relaxed);
}

/// Captures the raw state of every registered metric (full histogram bucket
/// arrays, exact bit patterns) for checkpointing; see
/// [`MetricsRegistry::state`].
pub fn metrics_state() -> MetricsState {
    global().metrics.state()
}

/// Restores a [`metrics_state`] capture into the process-global registry;
/// see [`MetricsRegistry::restore_state`].
pub fn restore_metrics_state(state: &MetricsState) {
    global().metrics.restore_state(state);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn counters_are_process_wide() {
        counter("test.lib.counter").add(2);
        counter("test.lib.counter").incr();
        assert!(counter("test.lib.counter").get() >= 3);
        assert!(snapshot().counter("test.lib.counter").unwrap() >= 3);
    }

    #[test]
    fn silenced_thread_drops_events_and_metric_updates() {
        let sink = Arc::new(MemorySink::default());
        add_sink(sink.clone());
        {
            let _guard = silence_thread();
            assert!(thread_is_silenced());
            info("test.silence", "muted", &[]);
            counter("test.silence.counter").add(10);
            gauge("test.silence.gauge").set(3.0);
            histogram("test.silence.histogram").record(1.0);
        }
        assert!(!thread_is_silenced());
        counter("test.silence.counter").incr();
        assert!(
            !sink.events().iter().any(|e| e.target == "test.silence"),
            "silenced events must not reach sinks"
        );
        let snap = snapshot();
        assert_eq!(snap.counter("test.silence.counter"), Some(1));
        assert_eq!(snap.gauge("test.silence.gauge"), None);
        assert!(!snap
            .histograms
            .iter()
            .any(|h| h.name == "test.silence.histogram"));
    }

    #[test]
    fn silence_guard_restores_nested_state() {
        let outer = silence_thread();
        {
            let inner = silence_thread();
            assert!(thread_is_silenced());
            drop(inner);
        }
        assert!(thread_is_silenced(), "outer guard still active");
        drop(outer);
        assert!(!thread_is_silenced());
    }

    #[test]
    fn silence_is_per_thread() {
        let _guard = silence_thread();
        let other = std::thread::spawn(thread_is_silenced)
            .join()
            .expect("probe thread");
        assert!(!other, "silence must not leak to other threads");
    }

    #[test]
    fn events_reach_registered_sinks() {
        let sink = Arc::new(MemorySink::default());
        add_sink(sink.clone());
        info("test.lib", "hello", &[("answer", FieldValue::U64(42))]);
        let seen = sink
            .events()
            .iter()
            .any(|e| e.target == "test.lib" && e.message == "hello");
        assert!(seen);
        let snap = publish_snapshot();
        assert!(!sink.snapshots().is_empty());
        assert!(snap.counters.iter().all(|(name, _)| !name.is_empty()));
    }
}
