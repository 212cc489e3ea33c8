//! Resumable active-learning campaigns ("sessions").
//!
//! A session is a directory under the manager's root:
//!
//! ```text
//! <root>/<id>/spec.json       campaign parameters (immutable after create)
//! <root>/<id>/ckpt/           CheckpointStore of per-iteration bundles
//! <root>/<id>/journal.jsonl   canonical run journal
//! <root>/<id>/done.json       final metrics, written when the campaign ends
//! ```
//!
//! Every `step` is a full resume: load the latest
//! [`hotspot_store::CheckpointBundle`], restore cumulative telemetry and the
//! run-id watermark, truncate the journal to the bundle's durable position,
//! and drive [`hotspot_active::SamplingFramework`] through a hook that saves
//! after the next iteration and then *aborts the run on purpose* (the
//! documented save-error contract) — advancing the campaign exactly one
//! iteration. The final step lets the run finish its detection pass and
//! records `done.json`. Because a step never relies on in-process state
//! beyond the benchmark cache, a killed and restarted server resumes
//! byte-identically (pinned by `tests/session_chaos.rs`).
//!
//! All session work is serialised on one runner thread: steps of different
//! sessions never interleave, so the globally-attached journal sink only
//! ever sees the stepping session's events (scoring runs on silenced
//! threads; see [`crate::batcher`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hotspot_active::{
    ActiveError, CheckpointHook, RunCheckpoint, SamplingConfig, SamplingFramework,
};
use hotspot_baselines::ActiveMethod;
use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
use hotspot_shard::{ShardConfig, ShardedOracle};
use hotspot_store::{CheckpointBundle, CheckpointStore};
use hotspot_telemetry::{self as telemetry, names, JsonlSink, MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::api::{SessionInfo, SessionRequest};
use crate::ServeError;

/// The sentinel `save` error a [`StepHook`] raises to stop the framework
/// after exactly one iteration; never surfaced to clients.
const STEP_BREAK: &str = "serve.session.step-boundary";

/// How often the idle runner thread re-checks its stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Persisted campaign parameters (`spec.json`). Unlike
/// [`SessionRequest`], every field is concrete: defaults are applied once
/// at create time so a restarted server sees identical parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Benchmark name.
    pub benchmark: String,
    /// Population scale factor.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Active-learning method.
    pub method: String,
    /// Sharded-oracle worker threads.
    pub workers: usize,
    /// Total sampling iterations.
    pub iterations: usize,
}

/// Final campaign metrics (`done.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DoneRecord {
    accuracy: f64,
    litho: u64,
    iteration: usize,
}

enum Command {
    Create(SessionRequest, SyncSender<Result<SessionInfo, ServeError>>),
    Step(String, SyncSender<Result<SessionInfo, ServeError>>),
    Status(String, SyncSender<Result<SessionInfo, ServeError>>),
}

/// Owns the runner thread; cheap handle for route handlers.
#[derive(Debug)]
pub struct SessionManager {
    tx: SyncSender<Command>,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl SessionManager {
    /// Spawns the runner thread over `root` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates root-directory creation failures.
    pub fn start(
        root: impl Into<PathBuf>,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<SessionManager> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let (tx, rx) = mpsc::sync_channel(64);
        let stop = Arc::new(AtomicBool::new(false));
        let runner_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("serve-sessions".to_string())
            .spawn(move || {
                let mut runner = Runner {
                    root,
                    registry,
                    specs: BTreeMap::new(),
                    benchmarks: BTreeMap::new(),
                };
                runner_loop(&rx, &runner_stop, &mut runner);
            })?;
        Ok(SessionManager {
            tx,
            stop,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Creates a campaign under a fresh deterministic ordinal id.
    ///
    /// # Errors
    ///
    /// Validation failures as [`ServeError::BadInput`]; a dead runner as
    /// [`ServeError::Internal`].
    pub fn create(&self, request: SessionRequest) -> Result<SessionInfo, ServeError> {
        self.call(|reply| Command::Create(request, reply))
    }

    /// Advances a campaign exactly one iteration via checkpoint resume.
    ///
    /// # Errors
    ///
    /// Unknown session as [`ServeError::NotFound`]; a finished campaign as
    /// [`ServeError::Conflict`]; substrate failures as
    /// [`ServeError::Active`] / [`ServeError::Internal`].
    pub fn step(&self, session: &str) -> Result<SessionInfo, ServeError> {
        self.call(|reply| Command::Step(session.to_string(), reply))
    }

    /// Reports campaign state without advancing it.
    ///
    /// # Errors
    ///
    /// Unknown session as [`ServeError::NotFound`].
    pub fn status(&self, session: &str) -> Result<SessionInfo, ServeError> {
        self.call(|reply| Command::Status(session.to_string(), reply))
    }

    fn call(
        &self,
        command: impl FnOnce(SyncSender<Result<SessionInfo, ServeError>>) -> Command,
    ) -> Result<SessionInfo, ServeError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.tx
            .send(command(reply_tx))
            .map_err(|_| ServeError::Internal("session runner is gone".to_string()))?;
        reply_rx
            .recv()
            .map_err(|_| ServeError::Internal("session runner died mid-request".to_string()))?
    }

    /// Stops the runner thread after the in-flight command finishes.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = crate::recover(self.handle.lock()).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn runner_loop(rx: &Receiver<Command>, stop: &AtomicBool, runner: &mut Runner) {
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match rx.recv_timeout(IDLE_POLL) {
            Ok(Command::Create(request, reply)) => {
                let _ = reply.try_send(runner.create(&request));
            }
            Ok(Command::Step(session, reply)) => {
                let _ = reply.try_send(runner.step(&session));
            }
            Ok(Command::Status(session, reply)) => {
                let _ = reply.try_send(runner.status(&session));
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

struct Runner {
    root: PathBuf,
    registry: Arc<MetricsRegistry>,
    specs: BTreeMap<String, SessionSpec>,
    benchmarks: BTreeMap<String, Arc<GeneratedBenchmark>>,
}

impl Runner {
    fn create(&mut self, request: &SessionRequest) -> Result<SessionInfo, ServeError> {
        let spec = SessionSpec {
            benchmark: request
                .benchmark
                .clone()
                .unwrap_or_else(|| "iccad12".to_string()),
            scale: request.scale.unwrap_or(0.004),
            seed: request.seed.unwrap_or(7),
            method: request.method.clone().unwrap_or_else(|| "ours".to_string()),
            workers: request.workers.unwrap_or(2),
            iterations: request.iterations.unwrap_or(4),
        };
        // Fail fast on everything a later step would choke on.
        ActiveMethod::from_name(&spec.method).map_err(ServeError::BadInput)?;
        if !(spec.scale.is_finite() && spec.scale > 0.0) {
            return Err(ServeError::BadInput(format!(
                "scale must be positive and finite, got {}",
                spec.scale
            )));
        }
        if spec.iterations == 0 {
            return Err(ServeError::BadInput("iterations must be >= 1".to_string()));
        }
        if spec.workers == 0 {
            return Err(ServeError::BadInput("workers must be >= 1".to_string()));
        }
        let bench_spec = BenchmarkSpec::by_name(&spec.benchmark)
            .map_err(|e| ServeError::BadInput(e.to_string()))?
            .scaled(spec.scale);
        bench_spec
            .validate()
            .map_err(|e| ServeError::BadInput(format!("bad benchmark spec: {e}")))?;

        let id = self.next_id()?;
        let dir = self.root.join(&id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Internal(format!("cannot create session dir: {e}")))?;
        let encoded = serde_json::to_string(&spec)
            .map_err(|e| ServeError::Internal(format!("cannot encode spec: {e}")))?;
        std::fs::write(dir.join("spec.json"), encoded)
            .map_err(|e| ServeError::Internal(format!("cannot persist spec: {e}")))?;
        self.registry.counter(names::SERVE_SESSIONS_CREATED).incr();
        let info = SessionInfo {
            session: id.clone(),
            benchmark: spec.benchmark.clone(),
            seed: spec.seed,
            iteration: 0,
            iterations: spec.iterations,
            done: false,
            accuracy: None,
            litho: None,
        };
        self.specs.insert(id, spec);
        Ok(info)
    }

    /// Smallest `sNNNN` id not on disk — survives restarts, where the
    /// in-memory map starts empty but session dirs persist.
    fn next_id(&self) -> Result<String, ServeError> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| ServeError::Internal(format!("cannot scan session root: {e}")))?;
        let mut highest = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(index) = name
                .to_str()
                .and_then(|n| n.strip_prefix('s'))
                .and_then(|n| n.parse::<u64>().ok())
            {
                highest = highest.max(index);
            }
        }
        Ok(format!("s{:04}", highest + 1))
    }

    fn load_spec(&mut self, session: &str) -> Result<SessionSpec, ServeError> {
        if let Some(spec) = self.specs.get(session) {
            return Ok(spec.clone());
        }
        let path = self.root.join(session).join("spec.json");
        let raw = std::fs::read_to_string(&path)
            .map_err(|_| ServeError::NotFound(format!("no session {session}")))?;
        let spec: SessionSpec = serde_json::from_str(&raw)
            .map_err(|e| ServeError::Internal(format!("corrupt spec for {session}: {e}")))?;
        self.specs.insert(session.to_string(), spec.clone());
        Ok(spec)
    }

    fn benchmark(&mut self, spec: &SessionSpec) -> Result<Arc<GeneratedBenchmark>, ServeError> {
        let key = format!("{}|{}|{}", spec.benchmark, spec.scale, spec.seed);
        if let Some(bench) = self.benchmarks.get(&key) {
            return Ok(Arc::clone(bench));
        }
        if !(spec.scale.is_finite() && spec.scale > 0.0) {
            return Err(ServeError::BadInput(format!(
                "scale must be positive and finite, got {}",
                spec.scale
            )));
        }
        let bench_spec = BenchmarkSpec::by_name(&spec.benchmark)
            .map_err(|e| ServeError::BadInput(e.to_string()))?
            .scaled(spec.scale);
        // Generation is a pure function of (spec, seed); silencing keeps its
        // kernel telemetry out of whatever the process has accumulated, so
        // a step's restored metrics are the only global state that matters.
        let bench = {
            let _silence = telemetry::silence_thread();
            GeneratedBenchmark::generate(&bench_spec, spec.seed)
                .map_err(|e| ServeError::Internal(format!("benchmark generation failed: {e}")))?
        };
        let bench = Arc::new(bench);
        self.benchmarks.insert(key, Arc::clone(&bench));
        Ok(bench)
    }

    fn status(&mut self, session: &str) -> Result<SessionInfo, ServeError> {
        let spec = self.load_spec(session)?;
        let dir = self.root.join(session);
        if let Some(done) = read_done(&dir)? {
            return Ok(info_done(session, &spec, &done));
        }
        let iteration = match CheckpointStore::open(dir.join("ckpt")) {
            Ok(store) => store
                .load_latest_bundle()
                .map_err(|e| ServeError::Internal(format!("cannot read checkpoints: {e}")))?
                .map_or(0, |(_, bundle)| bundle.run.iteration),
            Err(_) => 0,
        };
        Ok(SessionInfo {
            session: session.to_string(),
            benchmark: spec.benchmark.clone(),
            seed: spec.seed,
            iteration,
            iterations: spec.iterations,
            done: false,
            accuracy: None,
            litho: None,
        })
    }

    fn step(&mut self, session: &str) -> Result<SessionInfo, ServeError> {
        let spec = self.load_spec(session)?;
        let dir = self.root.join(session);
        if read_done(&dir)?.is_some() {
            return Err(ServeError::Conflict(format!(
                "session {session} already finished"
            )));
        }
        let bench = self.benchmark(&spec)?;
        let mut config = SamplingConfig::for_benchmark(bench.len());
        config.iterations = spec.iterations;

        let mut store = CheckpointStore::open(dir.join("ckpt"))
            .map_err(|e| ServeError::Internal(format!("cannot open checkpoint store: {e}")))?;
        let latest = store
            .load_latest_bundle()
            .map_err(|e| ServeError::Internal(format!("cannot load checkpoint: {e}")))?;
        let journal_path = dir.join("journal.jsonl");

        // Restore-or-init through the same `CheckpointBundle` pair as the
        // bench harness: cumulative telemetry and the run-id allocator
        // continue from the checkpoint, and the journal is truncated to the
        // durable position so records written after the save never survive
        // twice.
        let (sink, resume_cp, next_key) = match latest {
            Some((key, bundle)) => {
                bundle.restore_process_state();
                self.registry.counter(names::SERVE_SESSION_RESUMES).incr();
                let position = bundle.journal.unwrap_or_default();
                let sink = JsonlSink::resume(&journal_path, position, true)
                    .map_err(|e| ServeError::Internal(format!("cannot reopen journal: {e}")))?;
                sink.record_resume(bundle.run.iteration as u64, key);
                (Arc::new(sink), Some(bundle.run), key + 1)
            }
            None => {
                telemetry::set_run_id_watermark(0);
                let sink = JsonlSink::create_canonical(&journal_path)
                    .map_err(|e| ServeError::Internal(format!("cannot create journal: {e}")))?;
                (Arc::new(sink), None, 1)
            }
        };
        let next_iteration = resume_cp.as_ref().map_or(1, |cp| cp.iteration + 1);

        let sink_dyn: Arc<dyn telemetry::Sink> = Arc::clone(&sink) as Arc<dyn telemetry::Sink>;
        telemetry::add_sink(Arc::clone(&sink_dyn));
        let outcome = {
            let mut selector = ActiveMethod::from_name(&spec.method)
                .map_err(ServeError::BadInput)?
                .selector();
            let bench_for_factory = Arc::clone(&bench);
            let shard_config =
                ShardConfig::new(spec.workers).with_stream_seed(spec.seed ^ 0x5a4d_0001);
            let mut oracle = ShardedOracle::new(
                bench.oracle(),
                move |_shard, _jitter| bench_for_factory.oracle(),
                shard_config,
            );
            let mut hook = StepHook {
                store: &mut store,
                sink: &sink,
                resume: resume_cp,
                next_key,
                final_iteration: config.iterations,
                saved: None,
            };
            let framework = SamplingFramework::new(config);
            let result = framework.run_with_oracle_checkpointed(
                &bench,
                selector.as_mut(),
                spec.seed,
                &mut oracle,
                &mut hook,
            );
            (result, hook.saved)
        };
        telemetry::remove_sink(&sink_dyn);
        self.registry.counter(names::SERVE_SESSION_STEPS).incr();

        let (result, saved) = outcome;
        match result {
            Ok(run) => {
                let done = DoneRecord {
                    accuracy: run.metrics.accuracy,
                    litho: run.metrics.litho as u64,
                    iteration: saved.unwrap_or(spec.iterations),
                };
                let encoded = serde_json::to_string(&done)
                    .map_err(|e| ServeError::Internal(format!("cannot encode outcome: {e}")))?;
                std::fs::write(dir.join("done.json"), encoded)
                    .map_err(|e| ServeError::Internal(format!("cannot persist outcome: {e}")))?;
                Ok(info_done(session, &spec, &done))
            }
            Err(ActiveError::Checkpoint { detail }) if detail == STEP_BREAK => Ok(SessionInfo {
                session: session.to_string(),
                benchmark: spec.benchmark.clone(),
                seed: spec.seed,
                iteration: saved.unwrap_or(next_iteration),
                iterations: spec.iterations,
                done: false,
                accuracy: None,
                litho: None,
            }),
            Err(error) => Err(ServeError::Active(error)),
        }
    }
}

fn info_done(session: &str, spec: &SessionSpec, done: &DoneRecord) -> SessionInfo {
    SessionInfo {
        session: session.to_string(),
        benchmark: spec.benchmark.clone(),
        seed: spec.seed,
        iteration: done.iteration,
        iterations: spec.iterations,
        done: true,
        accuracy: Some(done.accuracy),
        litho: Some(done.litho),
    }
}

fn read_done(dir: &Path) -> Result<Option<DoneRecord>, ServeError> {
    match std::fs::read_to_string(dir.join("done.json")) {
        Ok(raw) => serde_json::from_str(&raw)
            .map(Some)
            .map_err(|e| ServeError::Internal(format!("corrupt done record: {e}"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ServeError::Internal(format!(
            "cannot read done record: {e}"
        ))),
    }
}

/// Saves after every iteration and aborts the run after the first save
/// below the final iteration — the one-iteration-per-step mechanism.
struct StepHook<'a> {
    store: &'a mut CheckpointStore,
    sink: &'a JsonlSink,
    resume: Option<RunCheckpoint>,
    next_key: u64,
    final_iteration: usize,
    saved: Option<usize>,
}

impl CheckpointHook for StepHook<'_> {
    fn resume(&mut self) -> Option<RunCheckpoint> {
        self.resume.take()
    }

    fn wants_save(&mut self, _iteration: usize) -> bool {
        true
    }

    fn save(&mut self, checkpoint: &RunCheckpoint) -> Result<(), ActiveError> {
        let bundle = CheckpointBundle::capture(checkpoint, Some(self.sink.position()), Vec::new());
        self.store
            .save(self.next_key, &bundle.to_file())
            .map_err(|e| ActiveError::Checkpoint {
                detail: format!("session checkpoint save failed: {e}"),
            })?;
        self.next_key += 1;
        self.saved = Some(checkpoint.iteration);
        if checkpoint.iteration < self.final_iteration {
            // The documented abort contract: a save error stops the run.
            // This is not a failure — the step's work is durably committed
            // and the next step resumes from it.
            return Err(ActiveError::Checkpoint {
                detail: STEP_BREAK.to_string(),
            });
        }
        Ok(())
    }
}
