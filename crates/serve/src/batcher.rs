//! The adaptive micro-batcher behind `/score`.
//!
//! Requests enter a bounded queue; a single batcher thread coalesces them
//! into one forward pass per flush. A flush fires when either the batch
//! holds [`BatchOptions::max_batch`] clips or the oldest queued request has
//! waited [`BatchOptions::max_delay`] (measured on the injectable
//! [`Clock`], so the deadline math is testable without sleeps).
//!
//! Three admission-control layers, outermost first:
//!
//! 1. **Load shedding** — more than [`BatchOptions::max_inflight`] requests
//!    inside the batcher means the server is past its concurrency budget;
//!    new work is refused immediately ([`SubmitError::Overloaded`] → 503).
//! 2. **Backpressure** — the bounded queue is full; the client should back
//!    off and retry ([`SubmitError::QueueFull`] → 429 + `Retry-After`).
//! 3. **Coalescing** — admitted requests wait at most `max_delay` before
//!    a flush, trading a bounded latency increase for per-batch
//!    amortisation of the forward pass.
//!
//! Ordering and identity guarantees: the queue is a single MPSC channel, so
//! jobs flush in arrival order and each job's rows stay contiguous; scoring
//! is batch-invariant (see [`crate::scorer`]), so a coalesced response is
//! bit-identical to batch-size-1.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hotspot_telemetry::{names, Clock, MetricsRegistry};

use crate::api::ClipScore;
use crate::scorer::Scorer;

/// Micro-batcher tuning knobs.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Bounded queue depth in *jobs*; a full queue triggers backpressure.
    pub queue_depth: usize,
    /// Flush once this many clips have coalesced.
    pub max_batch: usize,
    /// Flush once the oldest queued job has waited this long.
    pub max_delay: Duration,
    /// Load-shed beyond this many requests inside the batcher at once.
    pub max_inflight: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            queue_depth: 256,
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            max_inflight: 512,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue full — back off and retry (HTTP 429).
    QueueFull,
    /// In-flight cap exceeded — shed (HTTP 503).
    Overloaded,
    /// The batcher thread is gone (HTTP 500).
    WorkerGone,
}

struct ScoreJob {
    rows: Vec<Vec<f32>>,
    reply: SyncSender<Result<Vec<ClipScore>, String>>,
}

/// Handle to the batcher thread. See the module docs.
#[derive(Debug)]
pub struct MicroBatcher {
    tx: SyncSender<ScoreJob>,
    options: BatchOptions,
    inflight: Arc<AtomicUsize>,
    running: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// How often the idle batcher thread re-checks its stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);

impl MicroBatcher {
    /// Spawns the batcher thread.
    pub fn start(
        scorer: Arc<Scorer>,
        clock: Arc<dyn Clock>,
        options: BatchOptions,
        registry: Arc<MetricsRegistry>,
    ) -> MicroBatcher {
        let (tx, rx) = mpsc::sync_channel(options.queue_depth.max(1));
        let running = Arc::new(AtomicBool::new(true));
        let stop = Arc::new(AtomicBool::new(false));
        let worker_running = Arc::clone(&running);
        let worker_stop = Arc::clone(&stop);
        let worker_options = options.clone();
        let handle = std::thread::Builder::new()
            .name("serve-batcher".to_string())
            .spawn(move || {
                // Scoring emits kernel-level telemetry (DCT, matmul); the
                // batcher must not leak it into whatever journal a session
                // step has attached to the global dispatcher.
                let _silence = hotspot_telemetry::silence_thread();
                batcher_loop(
                    &rx,
                    &scorer,
                    &*clock,
                    &worker_options,
                    &worker_stop,
                    &registry,
                );
                worker_running.store(false, Ordering::Release);
            })
            // lithohd-lint: allow(panic-safety) — failing to spawn the one batcher thread at boot is unrecoverable
            .expect("spawn batcher thread");
        MicroBatcher {
            tx,
            options,
            inflight: Arc::new(AtomicUsize::new(0)),
            running,
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Whether the batcher thread is alive.
    pub fn running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    /// Scores `rows` through the batcher, blocking until the flush that
    /// contains them completes.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] on admission-control refusal or a dead batcher;
    /// scoring failures come back as `Ok(Err(...))` from the scorer and are
    /// surfaced as [`SubmitError::WorkerGone`] only when the thread died.
    pub fn score(
        &self,
        rows: Vec<Vec<f32>>,
    ) -> Result<Result<Vec<ClipScore>, String>, SubmitError> {
        if !self.running() {
            return Err(SubmitError::WorkerGone);
        }
        let admitted = self.inflight.fetch_add(1, Ordering::AcqRel);
        if admitted >= self.options.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::Overloaded);
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = ScoreJob {
            rows,
            reply: reply_tx,
        };
        let submitted = match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(SubmitError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::WorkerGone),
        };
        if let Err(refusal) = submitted {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(refusal);
        }
        let outcome = reply_rx.recv().map_err(|_| SubmitError::WorkerGone);
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        outcome
    }

    /// Stops the batcher thread and waits for it to exit. Queued jobs are
    /// drained (their clients get a reply) before the thread parks.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = crate::recover(self.handle.lock()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(
    rx: &Receiver<ScoreJob>,
    scorer: &Scorer,
    clock: &dyn Clock,
    options: &BatchOptions,
    stop: &AtomicBool,
    registry: &MetricsRegistry,
) {
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // lithohd-lint: allow(unordered-merge) — single MPSC queue drained FIFO; job order is the reply order by contract
        let first = match rx.recv_timeout(IDLE_POLL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut jobs = vec![first];
        let mut clip_count = jobs[0].rows.len();
        let deadline = clock.elapsed() + options.max_delay;
        while clip_count < options.max_batch {
            let now = clock.elapsed();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => {
                    clip_count += job.rows.len();
                    jobs.push(job);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        flush(scorer, jobs, clip_count, registry);
    }
}

/// One forward pass over every coalesced job, then FIFO reply split.
fn flush(scorer: &Scorer, jobs: Vec<ScoreJob>, clip_count: usize, registry: &MetricsRegistry) {
    registry.counter(names::SERVE_BATCH_FLUSHES).incr();
    registry
        .counter(names::SERVE_BATCH_CLIPS)
        .add(clip_count as u64);
    registry
        .gauge(names::SERVE_BATCH_FILL)
        .set(clip_count as f64);
    let mut all_rows = Vec::with_capacity(clip_count);
    let mut splits = Vec::with_capacity(jobs.len());
    let mut replies = Vec::with_capacity(jobs.len());
    for job in jobs {
        splits.push(job.rows.len());
        all_rows.extend(job.rows);
        replies.push(job.reply);
    }
    match scorer.score_rows(&all_rows) {
        Ok(mut scores) => {
            // Split back in arrival order; each job's rows were contiguous.
            for (reply, take) in replies.iter().zip(&splits) {
                let rest = scores.split_off(*take);
                let own = std::mem::replace(&mut scores, rest);
                // A client that timed out and hung up is not an error.
                let _ = reply.try_send(Ok(own));
            }
        }
        Err(error) => {
            let message = error.to_string();
            for reply in &replies {
                let _ = reply.try_send(Err(message.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::BootstrapConfig;
    use hotspot_telemetry::VirtualClock;

    fn tiny_scorer() -> Arc<Scorer> {
        let config = BootstrapConfig {
            benchmark: "iccad16_2".to_string(),
            scale: 0.25,
            seed: 11,
            epochs: 8,
        };
        Arc::new(Scorer::bootstrap(&config).expect("bootstrap"))
    }

    fn row(scorer: &Scorer, tag: usize) -> Vec<f32> {
        (0..scorer.input_dim())
            .map(|c| ((tag * 131 + c) as f32 * 0.013).sin())
            .collect()
    }

    #[test]
    fn scores_round_trip_through_the_batcher() {
        let scorer = tiny_scorer();
        let batcher = MicroBatcher::start(
            Arc::clone(&scorer),
            Arc::new(VirtualClock::new()),
            BatchOptions::default(),
            Arc::new(MetricsRegistry::default()),
        );
        let rows = vec![row(&scorer, 1), row(&scorer, 2)];
        let scores = batcher.score(rows.clone()).expect("submit").expect("score");
        let direct = scorer.score_rows(&rows).expect("direct");
        assert_eq!(scores, direct);
        batcher.shutdown();
        assert!(!batcher.running());
        assert_eq!(batcher.score(rows).unwrap_err(), SubmitError::WorkerGone);
    }

    #[test]
    fn inflight_cap_sheds_load() {
        let scorer = tiny_scorer();
        let batcher = MicroBatcher::start(
            scorer,
            Arc::new(VirtualClock::new()),
            BatchOptions {
                max_inflight: 0,
                ..BatchOptions::default()
            },
            Arc::new(MetricsRegistry::default()),
        );
        assert_eq!(
            batcher.score(vec![vec![0.0; 4]]).unwrap_err(),
            SubmitError::Overloaded
        );
    }

    #[test]
    fn deadline_flush_fires_without_a_full_batch() {
        // A manual clock never advances, so the deadline never expires on
        // its own; the recv_timeout below still wakes on real time, which
        // pins that a lone sub-max_batch job does get flushed.
        let scorer = tiny_scorer();
        let registry = Arc::new(MetricsRegistry::default());
        let batcher = MicroBatcher::start(
            Arc::clone(&scorer),
            Arc::new(VirtualClock::new()),
            BatchOptions {
                max_batch: 64,
                max_delay: Duration::from_millis(1),
                ..BatchOptions::default()
            },
            Arc::clone(&registry),
        );
        let scores = batcher
            .score(vec![row(&scorer, 3)])
            .expect("submit")
            .expect("score");
        assert_eq!(scores.len(), 1);
        assert_eq!(
            registry.snapshot().counter(names::SERVE_BATCH_FLUSHES),
            Some(1)
        );
        batcher.shutdown();
    }
}
