use hotspot_active::{CheckpointHook, NoCheckpoint, RunOutcome, SamplingConfig, SamplingFramework};
use hotspot_baselines::{ActiveMethod, PatternMatcher};
use hotspot_layout::GeneratedBenchmark;
use hotspot_litho::{
    FaultRates, FaultyOracle, LithoOracle, RetryOracle, RetryPolicy, VirtualClock,
};
use hotspot_shard::{KillSpec, ShardConfig, ShardedOracle};
use serde::{Deserialize, Serialize};
use std::time::Duration;

use crate::checkpoint::{CheckpointedSequence, RunRecord};

/// How a sharded run fans its labelling batches out — built from
/// `--workers` / `--kill-shard` by
/// [`crate::ExperimentArgs::plan`]. The merged labels, Litho#, and
/// canonical journal are byte-identical for every worker count and for any
/// chaos the recovery path absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Oracle worker threads per labelling batch.
    pub workers: usize,
    /// Optional chaos injection (applies to every run of the binary — each
    /// run builds a fresh sharded oracle, so the spec fires once per run).
    pub kill: Option<KillSpec>,
}

impl ShardSpec {
    fn config(&self, seed: u64) -> ShardConfig {
        let mut config = ShardConfig::new(self.workers).with_stream_seed(seed ^ 0x5a4d_0001);
        if let Some(kill) = self.kill {
            config = config.with_kill(kill);
        }
        config
    }
}

/// Everything that varies between the harness's Algorithm 2 runs: the
/// selector, the oracle stack (plain, or fault-injecting behind
/// retry/backoff and optional quorum), the labelling worker count, and how
/// many consecutively seeded repeats to run. [`RunPlan::run`] is the one
/// path every table and figure binary takes into the framework.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// The batch selector.
    pub method: ActiveMethod,
    /// Injected oracle faults and quorum votes per label (1 = no quorum);
    /// `None` labels through the plain metered oracle.
    pub faults: Option<(FaultRates, usize)>,
    /// Sharded labelling; `None` labels on the calling thread.
    pub shard: Option<ShardSpec>,
    /// Runs with seeds `seed, seed + 1, …`; must be positive.
    pub repeats: usize,
}

impl RunPlan {
    /// One unsharded, fault-free run of `method`.
    pub fn new(method: ActiveMethod) -> Self {
        RunPlan {
            method,
            faults: None,
            shard: None,
            repeats: 1,
        }
    }

    /// Executes the plan: `repeats` framework runs with consecutive seeds,
    /// each driven through `sequence` when one is given (so a resumed
    /// invocation replays completed runs from their persisted records and
    /// restores the in-flight one). The retry-jitter seed only shapes
    /// virtual backoff sleeps, so the sharded and unsharded stacks label
    /// and bill identically.
    ///
    /// # Panics
    ///
    /// Panics when `repeats == 0`, the fault rates are invalid, or the
    /// framework rejects the configuration or a checkpoint.
    pub fn run(
        &self,
        bench: &GeneratedBenchmark,
        config: &SamplingConfig,
        seed: u64,
        mut sequence: Option<&mut CheckpointedSequence>,
    ) -> Vec<RunRecord> {
        assert!(self.repeats > 0, "repeats must be positive");
        (0..self.repeats as u64)
            .map(|repeat| {
                let seed = seed + repeat;
                match sequence.as_deref_mut() {
                    Some(seq) => seq.next_run(|hook| self.run_once(bench, config, seed, hook)),
                    None => self.run_once(bench, config, seed, &mut NoCheckpoint),
                }
            })
            .collect()
    }

    fn run_once(
        &self,
        bench: &GeneratedBenchmark,
        config: &SamplingConfig,
        seed: u64,
        hook: &mut dyn CheckpointHook,
    ) -> RunRecord {
        let outcome = match self.faults {
            None => self.drive(bench, config, seed, hook, |_jitter_seed| bench.oracle()),
            Some((rates, quorum)) => self.drive(bench, config, seed, hook, |jitter_seed| {
                let flaky = FaultyOracle::new(bench.oracle(), rates, seed ^ 0xfa17_fa17);
                let policy = RetryPolicy {
                    seed: jitter_seed,
                    ..RetryPolicy::default()
                };
                let oracle = RetryOracle::with_clock(flaky, policy, VirtualClock::new());
                if quorum > 1 {
                    oracle.with_quorum(quorum)
                } else {
                    oracle
                }
            }),
        };
        RunRecord::from(&outcome)
    }

    /// One framework run over the oracle `stack(jitter_seed)` builds —
    /// wrapped in a [`ShardedOracle`] whose workers each rebuild the stack
    /// when the plan is sharded.
    fn drive<O: LithoOracle + Send + 'static>(
        &self,
        bench: &GeneratedBenchmark,
        config: &SamplingConfig,
        seed: u64,
        hook: &mut dyn CheckpointHook,
        stack: impl Fn(u64) -> O,
    ) -> RunOutcome {
        let framework = SamplingFramework::new(config.clone());
        let mut selector = self.method.selector();
        let mut master = stack(RetryPolicy::default().seed);
        let outcome = match &self.shard {
            None => framework.run_with_oracle_checkpointed(
                bench,
                selector.as_mut(),
                seed,
                &mut master,
                hook,
            ),
            Some(spec) => {
                let mut oracle = ShardedOracle::new(
                    master,
                    |_shard, jitter_seed| stack(jitter_seed),
                    spec.config(seed),
                );
                framework.run_with_oracle_checkpointed(
                    bench,
                    selector.as_mut(),
                    seed,
                    &mut oracle,
                    hook,
                )
            }
        };
        // lithohd-lint: allow(panic-safety) — documented: the harness passes validated configurations
        outcome.expect("framework run succeeds")
    }

    /// The table cell of this plan: `records` (one per repeat) averaged
    /// under the method's label — CNN-style detectors are
    /// initialisation-sensitive, so the paper's tables are read as averages.
    pub fn method_result(&self, bench: &GeneratedBenchmark, records: &[RunRecord]) -> MethodResult {
        let mean = RunRecord::mean(records);
        MethodResult {
            method: self.method.label().to_owned(),
            benchmark: bench.spec().name.clone(),
            accuracy: mean.accuracy,
            litho: mean.litho as usize,
            elapsed: Duration::from_secs_f64(mean.secs),
            workers: self.shard.as_ref().map(|spec| spec.workers),
        }
    }

    /// The `faults` sweep cell of this plan, from its averaged `records`.
    pub fn faulty_result(
        &self,
        bench: &GeneratedBenchmark,
        records: &[RunRecord],
    ) -> FaultyMethodResult {
        let mean = RunRecord::mean(records);
        let (rates, quorum) = self.faults.unwrap_or((FaultRates::default(), 1));
        FaultyMethodResult {
            method: self.method.label().to_owned(),
            benchmark: bench.spec().name.clone(),
            transient: rates.transient,
            flip: rates.flip,
            quorum: quorum.max(1),
            accuracy: mean.accuracy,
            litho: mean.litho as usize,
            extra_simulations: mean.extra_simulations as usize,
            retries: mean.retries as usize,
            giveups: mean.giveups as usize,
            label_failures: mean.label_failures as usize,
            degraded: mean.degraded,
        }
    }
}

/// One (method, benchmark) result cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method label.
    pub method: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Detection accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Litho-clip overhead.
    pub litho: usize,
    /// Measured PSHD computation time.
    #[serde(with = "duration_secs")]
    pub elapsed: Duration,
    /// Oracle worker threads the labelling batches were sharded across
    /// (`--workers`); `None` is the single-threaded legacy path. Accuracy
    /// and Litho# are worker-count-invariant, so sharded rows exist purely
    /// to let `lithohd-report gate` track shard-scaling wall-clock.
    /// Baselines written before this field existed parse as `None`.
    pub workers: Option<usize>,
}

mod duration_secs {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        d.as_secs_f64().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_secs_f64(f64::deserialize(d)?))
    }
}

/// One cell of the `faults` robustness sweep: a method run against a
/// seeded fault-injecting oracle behind the retry/quorum layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyMethodResult {
    /// Method label.
    pub method: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Injected transient-failure rate.
    pub transient: f64,
    /// Injected silent label-flip rate.
    pub flip: f64,
    /// Quorum votes per label (1 = no quorum).
    pub quorum: usize,
    /// Detection accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Litho-clip overhead (Eq. 2, quorum re-simulations included).
    pub litho: usize,
    /// Billable re-simulations beyond the labelled sets.
    pub extra_simulations: usize,
    /// Oracle retries absorbed by the backoff policy.
    pub retries: usize,
    /// Queries abandoned after exhausting the retry budget.
    pub giveups: usize,
    /// Labels that never arrived (clips returned to the pool).
    pub label_failures: usize,
    /// Whether the run degraded (see `RunFaultStats::is_degraded`).
    pub degraded: bool,
}

/// Runs a pattern-matching method on a benchmark.
pub fn run_pattern_method(matcher: PatternMatcher, bench: &GeneratedBenchmark) -> MethodResult {
    // lithohd-lint: allow(determinism-clock) — method wall time is a reported measurement, not control flow
    let start = std::time::Instant::now();
    let outcome = matcher.run(bench);
    MethodResult {
        method: outcome.name,
        benchmark: bench.spec().name.clone(),
        accuracy: outcome.accuracy,
        litho: outcome.litho,
        elapsed: start.elapsed(),
        workers: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_layout::{BenchmarkSpec, Tech};

    fn bench() -> GeneratedBenchmark {
        let spec = BenchmarkSpec {
            name: "harness".to_owned(),
            tech: Tech::Euv7,
            hotspots: 15,
            non_hotspots: 135,
            dup_rate: 0.2,
            near_miss_rate: 0.3,
        };
        GeneratedBenchmark::generate(&spec, 4).unwrap()
    }

    fn config(b: &GeneratedBenchmark) -> SamplingConfig {
        let mut config = SamplingConfig::for_benchmark(b.len());
        config.iterations = 2;
        config.initial_epochs = 20;
        config.update_epochs = 5;
        config
    }

    #[test]
    fn all_active_methods_run() {
        let b = bench();
        let config = config(&b);
        for method in ActiveMethod::ALL {
            let plan = RunPlan::new(method);
            let result = plan.method_result(&b, &plan.run(&b, &config, 1, None));
            assert_eq!(result.method, method.label());
            assert!(result.accuracy > 0.0);
            assert!(result.litho > 0);
        }
    }

    #[test]
    fn repeats_run_consecutive_seeds_and_average() {
        let b = bench();
        let config = config(&b);
        let plan = RunPlan {
            repeats: 2,
            ..RunPlan::new(ActiveMethod::Random)
        };
        let records = plan.run(&b, &config, 1, None);
        let single = |seed| RunPlan::new(ActiveMethod::Random).run(&b, &config, seed, None)[0];
        assert_eq!(records.len(), 2);
        for (record, seed) in records.iter().zip([1, 2]) {
            let alone = single(seed);
            assert_eq!(
                (record.accuracy, record.litho),
                (alone.accuracy, alone.litho)
            );
        }
        let cell = plan.method_result(&b, &records);
        assert_eq!(
            cell.accuracy,
            (records[0].accuracy + records[1].accuracy) / 2.0
        );
        let mean_litho = (records[0].litho + records[1].litho) as f64 / 2.0;
        assert_eq!(cell.litho, mean_litho.round() as usize);
    }

    #[test]
    fn faulty_method_runs_and_accounts() {
        let b = bench();
        let config = config(&b);
        let rates = FaultRates {
            transient: 0.2,
            flip: 0.02,
            ..FaultRates::default()
        };
        let plan = RunPlan {
            faults: Some((rates, 3)),
            ..RunPlan::new(ActiveMethod::Ours)
        };
        let r = plan.faulty_result(&b, &plan.run(&b, &config, 1, None));
        assert!(r.litho > 0);
        assert_eq!(r.quorum, 3);
        assert!(r.retries > 0, "20% transient should force retries");
        assert!(r.extra_simulations > 0, "quorum votes should bill");
        // The same seed reproduces the same degraded run bit-for-bit.
        let again = plan.faulty_result(&b, &plan.run(&b, &config, 1, None));
        assert_eq!(r, again);
    }

    #[test]
    fn pattern_method_runs() {
        let b = bench();
        let result = run_pattern_method(PatternMatcher::exact(), &b);
        assert_eq!(result.method, "PM-exact");
        assert_eq!(result.accuracy, 1.0);
    }

    #[test]
    fn method_result_serializes() {
        let r = MethodResult {
            method: "Ours".to_owned(),
            benchmark: "B".to_owned(),
            accuracy: 0.5,
            litho: 10,
            elapsed: Duration::from_millis(1500),
            workers: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: MethodResult = serde_json::from_str(&json).unwrap();
        assert!((back.elapsed.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(back.workers, None);
    }

    #[test]
    fn baselines_without_a_workers_field_parse_as_unsharded() {
        // BENCH_pshd.json files written before the shard-scaling rows
        // existed must keep loading; the absent field reads as `None`.
        let legacy = r#"{"method":"Ours","benchmark":"B","accuracy":0.9,"litho":12,"elapsed":2.5}"#;
        let row: MethodResult = serde_json::from_str(legacy).unwrap();
        assert_eq!(row.workers, None);

        let tagged = r#"{"method":"Ours","benchmark":"B","accuracy":0.9,"litho":12,"elapsed":2.5,"workers":4}"#;
        let row: MethodResult = serde_json::from_str(tagged).unwrap();
        assert_eq!(row.workers, Some(4));
    }
}
