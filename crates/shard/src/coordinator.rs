//! The shard coordinator: fan-out, dead/hung-shard recovery, and the
//! deterministic merge.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

use hotspot_litho::{Label, LithoOracle, OracleError, OracleStateSnapshot, OracleStats};
use hotspot_store::{decode_from_slice, encode_to_vec, CheckpointFile, CheckpointStore};
use hotspot_telemetry as telemetry;
use hotspot_telemetry::{Clock, SystemClock};
use rand_chacha::{ChaCha8Rng, RngCore, SeedableRng};

use crate::ClipOutcome;

/// How a chaos-injected worker failure manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// The worker panics after committing its first assigned clip,
    /// exercising salvage-from-checkpoint plus reassignment of the rest.
    Panic,
    /// The worker blocks forever before touching any clip, exercising the
    /// coordinator's poll deadline and full-sub-batch reassignment.
    Hang,
}

/// A chaos injection: murder worker `shard` on the `batch`-th labelling
/// batch (1-based over every `try_query_batch` call the oracle serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Worker index in `0..workers`.
    pub shard: usize,
    /// 1-based batch ordinal the failure fires on.
    pub batch: usize,
    /// How the worker dies.
    pub mode: FailureMode,
}

/// Configuration of a [`ShardedOracle`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads per labelling batch (≥ 1). The merged results are
    /// byte-identical for every value.
    pub workers: usize,
    /// Directory for per-shard checkpoint commits (`<dir>/shard-<i>/`).
    /// `None` disables commits; dead-shard recovery then recomputes
    /// orphaned clips instead of salvaging them — by purity the merged
    /// result is identical either way.
    pub dir: Option<PathBuf>,
    /// Seed of the coordinator's ChaCha8 stream; per-shard streams are
    /// split off it via the `stream_state` key-perturbation, feeding each
    /// worker's retry-jitter seed (jitter shapes backoff sleeps only,
    /// never labels).
    pub stream_seed: u64,
    /// Coordinator poll cadence while waiting on workers.
    pub poll_interval: Duration,
    /// Polls before an unfinished worker is declared hung and abandoned.
    pub deadline_polls: usize,
    /// Optional chaos injection, consumed the first time its batch ordinal
    /// comes up.
    pub kill: Option<KillSpec>,
}

impl ShardConfig {
    /// A default configuration for `workers` threads: no commit directory,
    /// 1 ms polls with a 10-minute deadline, no chaos.
    pub fn new(workers: usize) -> Self {
        ShardConfig {
            workers: workers.max(1),
            dir: None,
            stream_seed: 0,
            poll_interval: Duration::from_millis(1),
            deadline_polls: 600_000,
            kill: None,
        }
    }

    /// Enables per-shard checkpoint commits under `dir`.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Seeds the per-shard jitter streams.
    pub fn with_stream_seed(mut self, seed: u64) -> Self {
        self.stream_seed = seed;
        self
    }

    /// Installs a chaos injection.
    pub fn with_kill(mut self, kill: KillSpec) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Overrides the hung-shard deadline (in polls).
    pub fn with_deadline_polls(mut self, polls: usize) -> Self {
        self.deadline_polls = polls;
        self
    }
}

const OUTCOME_SECTION: &str = "shard.outcomes";

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`LithoOracle`] that fans every labelling batch out across worker
/// threads and merges the results deterministically.
///
/// `master` holds the authoritative oracle state between batches; single
/// queries ([`LithoOracle::try_query`], [`LithoOracle::resimulate`]) go
/// straight through it on the calling thread. For batches, `factory(shard,
/// jitter_seed)` builds one fresh oracle stack per worker, which is restored
/// from the master's pre-batch snapshot, labels a disjoint sub-batch on its
/// own thread (telemetry silenced), and reports per-clip [`ClipOutcome`]
/// deltas. The coordinator merges outcomes in ascending clip order, restores
/// the merged snapshot into the master, and replays billing and per-clip
/// oracle events exactly once — so journals and `Litho#` are invariant in
/// the worker count and in any dead-shard recovery the batch needed.
pub struct ShardedOracle<O, F, C = SystemClock> {
    master: O,
    factory: F,
    config: ShardConfig,
    clock: C,
    stream: ChaCha8Rng,
    batches: usize,
}

impl<O, F, C> fmt::Debug for ShardedOracle<O, F, C>
where
    O: fmt::Debug,
    C: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedOracle")
            .field("master", &self.master)
            .field("config", &self.config)
            .field("clock", &self.clock)
            .field("batches", &self.batches)
            .finish_non_exhaustive()
    }
}

impl<O, F> ShardedOracle<O, F, SystemClock> {
    /// Wraps `master`, fanning batches out across `config.workers` threads
    /// whose oracle stacks are built by `factory(shard, jitter_seed)`.
    pub fn new(master: O, factory: F, config: ShardConfig) -> Self {
        Self::with_clock(master, factory, config, SystemClock::new())
    }
}

impl<O, F, C> ShardedOracle<O, F, C> {
    /// [`ShardedOracle::new`] with an explicit coordinator clock (tests use
    /// [`hotspot_telemetry::VirtualClock`] to exercise the hung-shard deadline
    /// without real sleeps).
    pub fn with_clock(master: O, factory: F, config: ShardConfig, clock: C) -> Self {
        let stream = ChaCha8Rng::seed_from_u64(config.stream_seed);
        ShardedOracle {
            master,
            factory,
            config,
            clock,
            stream,
            batches: 0,
        }
    }

    /// The wrapped master oracle.
    pub fn master(&self) -> &O {
        &self.master
    }

    /// Unwraps into the master oracle.
    pub fn into_inner(self) -> O {
        self.master
    }

    /// Labelling batches served so far (the ordinal [`KillSpec::batch`]
    /// counts against).
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Per-shard jitter seeds for this batch: the coordinator stream is
    /// advanced once, then split per shard by perturbing the captured
    /// `stream_state` key — distinct shards get decorrelated streams that
    /// are independent of the worker count of any *other* shard.
    fn shard_jitter_seeds(&mut self) -> Vec<u64> {
        let _ = self.stream.next_u64(); // one advance per batch
        let base = self.stream.stream_state();
        (0..self.config.workers)
            .map(|shard| {
                let mut state = base;
                let h = splitmix64(self.config.stream_seed ^ (shard as u64 + 1));
                state.key[0] ^= h as u32;
                state.key[1] ^= (h >> 32) as u32;
                match ChaCha8Rng::from_stream_state(state) {
                    Some(mut rng) => rng.next_u64(),
                    // Unreachable (the index comes from a valid state), but
                    // a plain seed keeps the path total.
                    None => h,
                }
            })
            .collect()
    }
}

/// Labels one worker's sub-batch, reporting a [`ClipOutcome`] per clip.
/// Runs with telemetry silenced: the coordinator replays the merged
/// effects exactly once, so nothing a worker does may leak into journals,
/// counters, or billing directly. Tracing is the exception — when the
/// coordinator hands a [`telemetry::TraceHandoff`] over, the worker adopts
/// a per-shard trace buffer (track `1 + shard`), times its whole sub-batch
/// under a `shard.worker` span parented onto the coordinator's open span,
/// and returns the harvested records for the deterministic merge. A worker
/// that dies simply never hands records back.
fn worker_run<O: LithoOracle>(
    mut oracle: O,
    shard: usize,
    clips: Vec<usize>,
    mut committer: Option<ShardCommitter>,
    kill: Option<FailureMode>,
    handoff: Option<telemetry::TraceHandoff>,
) -> (Vec<ClipOutcome>, Vec<telemetry::TraceRecord>) {
    let _mute = telemetry::silence_thread();
    let _trace = telemetry::trace::adopt(handoff, shard as u64 + 1);
    if kill == Some(FailureMode::Hang) {
        // Simulated hang: block before touching any clip so the whole
        // sub-batch is orphaned and reassigned.
        loop {
            std::thread::park();
        }
    }
    let span = telemetry::span(telemetry::names::SPAN_SHARD_WORKER)
        .with("shard", shard as u64)
        .with("clips", clips.len() as u64);
    let mut outcomes = Vec::new();
    for &clip in &clips {
        let before = oracle.state_snapshot().unwrap_or_default();
        let result = oracle.try_query(clip);
        let after = oracle.state_snapshot().unwrap_or_default();
        outcomes.push(ClipOutcome::from_diff(clip, result, &before, &after));
        if let Some(committer) = committer.as_mut() {
            committer.commit(&outcomes);
        }
        if kill == Some(FailureMode::Panic) {
            // lithohd-lint: allow(panic-safety) — deliberate chaos injection; the coordinator captures the panic
            panic!("chaos kill: shard worker murdered after first commit");
        }
    }
    drop(span);
    (outcomes, telemetry::trace::harvest())
}

/// Per-shard checkpoint committer: after every clip the worker's outcomes
/// so far are committed through the store's tmp+fsync+rename protocol, so
/// whatever a dead worker finished is salvageable from disk.
struct ShardCommitter {
    store: CheckpointStore,
    shard: u64,
    ordinal: u64,
    seq: u64,
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

impl ShardCommitter {
    fn open(dir: &Path, shard: usize, ordinal: u64) -> Option<ShardCommitter> {
        let store = CheckpointStore::open(shard_dir(dir, shard)).ok()?;
        Some(ShardCommitter {
            store,
            shard: shard as u64,
            ordinal,
            seq: 0,
        })
    }

    fn commit(&mut self, outcomes: &[ClipOutcome]) {
        self.seq += 1;
        let mut file = CheckpointFile::new();
        file.put(
            OUTCOME_SECTION,
            encode_to_vec(&(self.ordinal, self.shard, outcomes.to_vec())),
        );
        // Best-effort: a failed commit only shrinks what a recovery can
        // salvage; reassignment recomputes the remainder identically.
        let _ = self.store.save((self.ordinal << 20) | self.seq, &file);
    }
}

/// Loads the outcomes a lost worker committed for the current batch, if any.
fn salvage(dir: &Path, shard: usize, ordinal: u64) -> Vec<ClipOutcome> {
    let Ok(store) = CheckpointStore::open(shard_dir(dir, shard)) else {
        return Vec::new();
    };
    let Ok(Some((_key, file))) = store.load_latest() else {
        return Vec::new();
    };
    let Some(payload) = file.get(OUTCOME_SECTION) else {
        return Vec::new();
    };
    let Ok((saved_ordinal, saved_shard, outcomes)) =
        decode_from_slice::<(u64, u64, Vec<ClipOutcome>)>(payload, "shard outcomes")
    else {
        return Vec::new();
    };
    if saved_ordinal != ordinal || saved_shard != shard as u64 {
        return Vec::new(); // stale commit from an earlier batch
    }
    outcomes
}

impl<O, F, C> ShardedOracle<O, F, C>
where
    O: LithoOracle + Send + 'static,
    F: Fn(usize, u64) -> O,
    C: Clock,
{
    /// Runs one fan-out round over `clips`, returning the collected
    /// outcomes and the clips lost to dead or hung workers. `blocking`
    /// joins every worker unconditionally (recovery rounds have no chaos
    /// left, so a bounded deadline would only add nondeterminism).
    #[allow(clippy::too_many_arguments)]
    fn run_round(
        &mut self,
        clips: &[usize],
        pre: &OracleStateSnapshot,
        ordinal: u64,
        seeds: &[u64],
        kill: Option<KillSpec>,
        commit_dir: Option<&Path>,
        blocking: bool,
    ) -> (Vec<ClipOutcome>, Vec<usize>) {
        let shards = self.config.workers.min(clips.len()).max(1);
        let chunk = clips.len().div_ceil(shards);
        let subs: Vec<Vec<usize>> = clips.chunks(chunk).map(<[usize]>::to_vec).collect();
        // Captured once on the coordinator thread: every worker's root span
        // parents onto the span open here (e.g. the selector's batch query).
        let handoff = telemetry::trace::handoff();
        type WorkerResult = (Vec<ClipOutcome>, Vec<telemetry::TraceRecord>);
        let mut handles: Vec<JoinHandle<WorkerResult>> = Vec::with_capacity(subs.len());
        for (shard, sub) in subs.iter().enumerate() {
            let mut oracle = (self.factory)(shard, seeds.get(shard).copied().unwrap_or(0));
            let restored = oracle.restore_state(pre);
            debug_assert!(restored, "factory oracle must accept the master snapshot");
            let mode = kill.and_then(|k| (k.shard == shard).then_some(k.mode));
            let committer = commit_dir.and_then(|dir| ShardCommitter::open(dir, shard, ordinal));
            let sub = sub.clone();
            handles.push(std::thread::spawn(move || {
                worker_run(oracle, shard, sub, committer, mode, handoff)
            }));
        }

        if !blocking {
            let mut polls = 0usize;
            while polls < self.config.deadline_polls && !handles.iter().all(JoinHandle::is_finished)
            {
                self.clock.sleep(self.config.poll_interval);
                polls += 1;
            }
        }

        let mut outcomes = Vec::new();
        let mut lost = Vec::new();
        for (shard, handle) in handles.into_iter().enumerate() {
            let sub = &subs[shard];
            let mut dead = false;
            if blocking || handle.is_finished() {
                match handle.join() {
                    Ok((mut worker_outcomes, trace_records)) => {
                        // Workers are joined in ascending shard order, so
                        // absorbing here keeps the merged trace (and the
                        // replayed profile events below) deterministic.
                        for record in &trace_records {
                            telemetry::debug(
                                "profile",
                                record.name,
                                &[
                                    ("span", record.name.into()),
                                    ("duration_us", record.dur_us.into()),
                                    ("shard", (shard as u64).into()),
                                ],
                            );
                        }
                        telemetry::trace::absorb(trace_records);
                        outcomes.append(&mut worker_outcomes);
                        continue;
                    }
                    Err(_panic) => dead = true,
                }
            }
            // A dead (panicked) or hung (deadline-exceeded, now detached)
            // worker: salvage whatever it committed, orphan the rest.
            if dead {
                telemetry::counter(telemetry::names::SHARD_WORKERS_DEAD).incr();
            } else {
                telemetry::counter(telemetry::names::SHARD_WORKERS_HUNG).incr();
            }
            let salvaged = commit_dir
                .map(|dir| salvage(dir, shard, ordinal))
                .unwrap_or_default();
            telemetry::counter(telemetry::names::SHARD_OUTCOMES_SALVAGED)
                .add(salvaged.len() as u64);
            let covered: BTreeSet<usize> = salvaged.iter().map(|o| o.clip).collect();
            let orphans: Vec<usize> = sub
                .iter()
                .copied()
                .filter(|clip| !covered.contains(clip))
                .collect();
            telemetry::warn(
                "shard.coordinator",
                telemetry::names::EVENT_SHARD_WORKER_LOST,
                &[
                    ("batch", ordinal.into()),
                    ("shard", (shard as u64).into()),
                    ("dead", dead.into()),
                    ("salvaged", (salvaged.len() as u64).into()),
                    ("orphaned", (orphans.len() as u64).into()),
                ],
            );
            outcomes.extend(salvaged);
            lost.extend(orphans);
        }
        (outcomes, lost)
    }
}

impl<O, F, C> LithoOracle for ShardedOracle<O, F, C>
where
    O: LithoOracle + Send + 'static,
    F: Fn(usize, u64) -> O,
    C: Clock,
{
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
        self.master.try_query(index)
    }

    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        self.master.resimulate(index)
    }

    fn try_query_batch(&mut self, indices: &[usize]) -> Vec<Result<Label, OracleError>> {
        self.batches += 1;
        let ordinal = self.batches as u64;
        // The chaos spec fires on its batch ordinal exactly once, even when
        // the batch turns out to be empty or unshardable.
        let kill = match self.config.kill {
            Some(spec) if spec.batch as u64 == ordinal => {
                self.config.kill = None;
                Some(spec)
            }
            _ => None,
        };
        if indices.is_empty() {
            return Vec::new();
        }
        let Some(pre) = self.master.state_snapshot() else {
            // A stack that cannot capture state cannot replay worker
            // effects; degrade to the sequential master path.
            return indices.iter().map(|&i| self.master.try_query(i)).collect();
        };

        // lithohd-lint: allow(determinism-clock) — batch latency histogram is observability, not logic
        let started = std::time::Instant::now();
        telemetry::counter(telemetry::names::SHARD_BATCHES).incr();
        let seeds = self.shard_jitter_seeds();
        let commit_dir = self.config.dir.clone();

        let (mut outcomes, lost) = self.run_round(
            indices,
            &pre,
            ordinal,
            &seeds,
            kill,
            commit_dir.as_deref(),
            false,
        );
        if !lost.is_empty() {
            // Reassign orphaned clips to a fresh recovery round. Purity of
            // the per-clip schedule makes the recomputed outcomes identical
            // to what the lost worker would have produced.
            telemetry::counter(telemetry::names::SHARD_CLIPS_REASSIGNED).add(lost.len() as u64);
            telemetry::info(
                "shard.coordinator",
                telemetry::names::EVENT_SHARD_REASSIGNED,
                &[
                    ("batch", ordinal.into()),
                    ("clips", (lost.len() as u64).into()),
                ],
            );
            let (recovered, abandoned) =
                self.run_round(&lost, &pre, ordinal, &seeds, None, None, true);
            outcomes.extend(recovered);
            // Graceful degradation: clips even the recovery round lost
            // become un-billed transient failures, which the framework
            // returns to the unlabeled pool.
            outcomes.extend(abandoned.into_iter().map(ClipOutcome::abandoned));
        }

        // Deterministic merge: ascending clip order over the pre-batch
        // snapshot, then one-shot billing and per-clip event replay.
        outcomes.sort_by_key(|o| o.clip);
        let mut merged = pre;
        let mut failures = 0u64;
        for outcome in &outcomes {
            outcome.apply_to(&mut merged);
            if outcome.cache_upsert.is_some() {
                telemetry::counter(telemetry::names::ORACLE_CALLS).incr();
                telemetry::trace(
                    "litho.oracle",
                    "litho simulation",
                    &[("clip", (outcome.clip as u64).into())],
                );
            }
            for _ in 0..outcome.resimulations_delta {
                telemetry::counter(telemetry::names::ORACLE_CALLS).incr();
                telemetry::trace(
                    "litho.oracle",
                    "litho re-simulation",
                    &[("clip", (outcome.clip as u64).into())],
                );
            }
            telemetry::counter(telemetry::names::ORACLE_RETRIES).add(outcome.retries_delta as u64);
            telemetry::counter(telemetry::names::ORACLE_GIVEUPS).add(outcome.giveups_delta as u64);
            telemetry::counter(telemetry::names::ORACLE_QUORUM_VOTES)
                .add(outcome.quorum_votes_delta as u64);
            telemetry::counter(telemetry::names::ORACLE_FAULTS_INJECTED)
                .add(outcome.faults_delta.total() as u64);
            failures += u64::from(outcome.result.is_err());
        }
        let accepted = self.master.restore_state(&merged);
        debug_assert!(accepted, "master oracle must accept the merged snapshot");
        telemetry::counter(telemetry::names::SHARD_CLIPS).add(outcomes.len() as u64);
        telemetry::debug(
            "shard.coordinator",
            telemetry::names::EVENT_SHARD_BATCH_MERGED,
            &[
                ("batch", ordinal.into()),
                ("workers", (self.config.workers as u64).into()),
                ("clips", (outcomes.len() as u64).into()),
                ("failures", failures.into()),
            ],
        );
        telemetry::histogram(telemetry::names::SHARD_BATCH_SECONDS)
            .record(started.elapsed().as_secs_f64());

        let by_clip: BTreeMap<usize, Result<Label, OracleError>> =
            outcomes.iter().map(|o| (o.clip, o.result)).collect();
        indices
            .iter()
            .map(|&i| {
                by_clip
                    .get(&i)
                    .copied()
                    .unwrap_or(Err(OracleError::Transient { index: i }))
            })
            .collect()
    }

    fn unique_queries(&self) -> usize {
        self.master.unique_queries()
    }

    fn total_queries(&self) -> usize {
        self.master.total_queries()
    }

    fn stats(&self) -> OracleStats {
        self.master.stats()
    }

    fn state_snapshot(&self) -> Option<OracleStateSnapshot> {
        self.master.state_snapshot()
    }

    fn restore_state(&mut self, state: &OracleStateSnapshot) -> bool {
        self.master.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_litho::{
        CountingOracle, FaultRates, FaultyOracle, RetryOracle, RetryPolicy, VirtualClock,
    };

    fn truth(n: usize) -> Vec<Label> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Label::Hotspot
                } else {
                    Label::NonHotspot
                }
            })
            .collect()
    }

    type FaultyStack = RetryOracle<FaultyOracle<CountingOracle>, VirtualClock>;

    fn faulty_stack(n: usize, jitter_seed: u64) -> FaultyStack {
        let rates = FaultRates {
            transient: 0.25,
            timeout: 0.05,
            corrupt: 0.05,
            flip: 0.02,
        };
        let flaky = FaultyOracle::new(CountingOracle::new(truth(n)), rates, 0xfa17_fa17);
        let policy = RetryPolicy {
            seed: jitter_seed,
            ..RetryPolicy::default()
        };
        RetryOracle::with_clock(flaky, policy, VirtualClock::new()).with_quorum(3)
    }

    fn sharded_faulty(
        n: usize,
        config: ShardConfig,
    ) -> ShardedOracle<FaultyStack, impl Fn(usize, u64) -> FaultyStack> {
        ShardedOracle::new(
            faulty_stack(n, 0),
            move |_shard, jitter_seed| faulty_stack(n, jitter_seed),
            config,
        )
    }

    const BATCHES: [&[usize]; 3] = [&[0, 5, 3, 11, 7], &[1, 2, 8], &[4, 6, 9, 10, 13, 12]];

    type BatchLabels = Vec<Vec<Result<Label, OracleError>>>;

    #[test]
    fn merged_state_is_worker_count_invariant() {
        let n = 16;
        let mut reference: Option<(BatchLabels, OracleStateSnapshot)> = None;
        for workers in [1, 2, 4] {
            let mut oracle = sharded_faulty(n, ShardConfig::new(workers).with_stream_seed(7));
            let results: Vec<_> = BATCHES.iter().map(|b| oracle.try_query_batch(b)).collect();
            let state = oracle.state_snapshot().unwrap();
            match &reference {
                None => reference = Some((results, state)),
                Some((ref_results, ref_state)) => {
                    assert_eq!(&results, ref_results, "labels differ at N={workers}");
                    assert_eq!(&state, ref_state, "merged state differs at N={workers}");
                }
            }
        }
    }

    #[test]
    fn sharded_plain_oracle_matches_sequential_billing() {
        let n = 12;
        let mut sequential = CountingOracle::new(truth(n));
        let mut sharded = ShardedOracle::new(
            CountingOracle::new(truth(n)),
            move |_, _| CountingOracle::new(truth(n)),
            ShardConfig::new(3),
        );
        for batch in BATCHES {
            let batch: Vec<usize> = batch.iter().copied().filter(|&i| i < n).collect();
            let seq: Vec<_> = batch.iter().map(|&i| sequential.try_query(i)).collect();
            let shd = sharded.try_query_batch(&batch);
            assert_eq!(seq, shd);
        }
        assert_eq!(sequential.stats(), sharded.stats());
        assert_eq!(
            sequential.state_snapshot().unwrap(),
            sharded.state_snapshot().unwrap()
        );
    }

    #[test]
    fn killed_worker_recovers_to_the_undisturbed_state() {
        let n = 16;
        let mut undisturbed = sharded_faulty(n, ShardConfig::new(3).with_stream_seed(5));
        let undisturbed_results: Vec<_> = BATCHES
            .iter()
            .map(|b| undisturbed.try_query_batch(b))
            .collect();

        let dir = std::env::temp_dir().join(format!("lithohd-shard-kill-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kill = KillSpec {
            shard: 1,
            batch: 3,
            mode: FailureMode::Panic,
        };
        let mut chaotic = sharded_faulty(
            n,
            ShardConfig::new(3)
                .with_stream_seed(5)
                .with_dir(&dir)
                .with_kill(kill),
        );
        let chaotic_results: Vec<_> = BATCHES.iter().map(|b| chaotic.try_query_batch(b)).collect();

        assert_eq!(undisturbed_results, chaotic_results);
        assert_eq!(
            undisturbed.state_snapshot().unwrap(),
            chaotic.state_snapshot().unwrap()
        );
        assert_eq!(undisturbed.stats(), chaotic.stats());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_worker_without_commit_dir_recomputes_identically() {
        let n = 16;
        let mut undisturbed = sharded_faulty(n, ShardConfig::new(4).with_stream_seed(9));
        let undisturbed_results: Vec<_> = BATCHES
            .iter()
            .map(|b| undisturbed.try_query_batch(b))
            .collect();

        let kill = KillSpec {
            shard: 0,
            batch: 1,
            mode: FailureMode::Panic,
        };
        let mut chaotic =
            sharded_faulty(n, ShardConfig::new(4).with_stream_seed(9).with_kill(kill));
        let chaotic_results: Vec<_> = BATCHES.iter().map(|b| chaotic.try_query_batch(b)).collect();

        assert_eq!(undisturbed_results, chaotic_results);
        assert_eq!(
            undisturbed.state_snapshot().unwrap(),
            chaotic.state_snapshot().unwrap()
        );
    }

    #[test]
    fn hung_worker_is_abandoned_and_its_clips_reassigned() {
        let n = 16;
        let mut undisturbed = sharded_faulty(n, ShardConfig::new(3).with_stream_seed(3));
        let undisturbed_results: Vec<_> = BATCHES
            .iter()
            .map(|b| undisturbed.try_query_batch(b))
            .collect();

        let kill = KillSpec {
            shard: 2,
            batch: 2,
            mode: FailureMode::Hang,
        };
        let config = ShardConfig::new(3)
            .with_stream_seed(3)
            .with_kill(kill)
            .with_deadline_polls(200);
        let mut chaotic = ShardedOracle::with_clock(
            faulty_stack(n, 0),
            move |_shard, jitter_seed| faulty_stack(n, jitter_seed),
            config,
            VirtualClock::new(),
        );
        let chaotic_results: Vec<_> = BATCHES.iter().map(|b| chaotic.try_query_batch(b)).collect();

        assert_eq!(undisturbed_results, chaotic_results);
        assert_eq!(
            undisturbed.state_snapshot().unwrap(),
            chaotic.state_snapshot().unwrap()
        );
    }

    #[test]
    fn traced_chaos_batch_keeps_spans_and_results_intact() {
        // Satellite regression: a span dropped during a chaos-killed
        // worker's unwind must not corrupt the trace or sibling span paths,
        // and the traced chaotic campaign must still merge to the
        // undisturbed result.
        let n = 16;
        let mut undisturbed = sharded_faulty(n, ShardConfig::new(3).with_stream_seed(11));
        let undisturbed_results: Vec<_> = BATCHES
            .iter()
            .map(|b| undisturbed.try_query_batch(b))
            .collect();

        telemetry::trace::enable();
        let _ = telemetry::trace::drain_records();
        let kill = KillSpec {
            shard: 1,
            batch: 2,
            mode: FailureMode::Panic,
        };
        let mut chaotic =
            sharded_faulty(n, ShardConfig::new(3).with_stream_seed(11).with_kill(kill));
        let outer = telemetry::span("shard_trace_test");
        let chaotic_results: Vec<_> = BATCHES.iter().map(|b| chaotic.try_query_batch(b)).collect();
        drop(outer);

        assert_eq!(undisturbed_results, chaotic_results);
        assert_eq!(
            undisturbed.state_snapshot().unwrap(),
            chaotic.state_snapshot().unwrap()
        );

        let records = telemetry::trace::drain_records();
        let outer = records
            .iter()
            .find(|r| r.name == "shard_trace_test")
            .expect("coordinator span traced");
        assert_eq!(outer.track, 0);
        let workers: Vec<_> = records
            .iter()
            .filter(|r| r.name == telemetry::names::SPAN_SHARD_WORKER)
            .collect();
        assert!(!workers.is_empty(), "surviving workers must be traced");
        for worker in &workers {
            assert!(worker.track >= 1, "workers record on shard tracks");
            assert_eq!(
                worker.parent, outer.id,
                "worker roots parent onto the coordinator span"
            );
        }
        // The murdered worker unwound mid-span; spans opened afterwards on
        // this thread must still nest correctly (no stale stack frames).
        {
            let inner_path = {
                let _after = telemetry::span("shard_trace_after");
                let probe = telemetry::span("shard_trace_probe");
                probe.path()
            };
            assert_eq!(inner_path, "shard_trace_after/shard_trace_probe");
        }
    }

    #[test]
    fn single_queries_pass_through_the_master() {
        let n = 8;
        let mut oracle = ShardedOracle::new(
            CountingOracle::new(truth(n)),
            move |_, _| CountingOracle::new(truth(n)),
            ShardConfig::new(2),
        );
        assert_eq!(oracle.try_query(0), Ok(Label::Hotspot));
        assert_eq!(oracle.resimulate(0), Ok(Label::Hotspot));
        assert_eq!(oracle.unique_queries(), 2);
        assert_eq!(oracle.total_queries(), 2);
        assert_eq!(oracle.batches(), 0, "single queries are not batches");
    }

    #[test]
    fn empty_batch_consumes_its_kill_ordinal() {
        let n = 8;
        let kill = KillSpec {
            shard: 0,
            batch: 1,
            mode: FailureMode::Panic,
        };
        let mut oracle = ShardedOracle::new(
            CountingOracle::new(truth(n)),
            move |_, _| CountingOracle::new(truth(n)),
            ShardConfig::new(2).with_kill(kill),
        );
        assert!(oracle.try_query_batch(&[]).is_empty());
        // The spec fired (and was consumed) on the empty batch; the next
        // batch labels normally.
        let results = oracle.try_query_batch(&[1, 2]);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn out_of_range_clips_report_errors_without_billing() {
        let n = 4;
        let mut oracle = ShardedOracle::new(
            CountingOracle::new(truth(n)),
            move |_, _| CountingOracle::new(truth(n)),
            ShardConfig::new(2),
        );
        let results = oracle.try_query_batch(&[1, 99]);
        assert_eq!(results[0], Ok(Label::NonHotspot));
        assert_eq!(
            results[1],
            Err(OracleError::OutOfRange { index: 99, len: 4 })
        );
        assert_eq!(oracle.unique_queries(), 1);
    }
}
