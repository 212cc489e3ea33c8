use hotspot_baselines::ActiveMethod;
use hotspot_shard::{FailureMode, KillSpec};
use hotspot_telemetry::{
    self as telemetry, ConsoleSink, EnvFilter, JournalPosition, JsonlSink, MetricsServer,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use crate::methods::{RunPlan, ShardSpec};

/// The `--metrics-addr` HTTP server for the lifetime of the binary; stashed
/// globally because [`ExperimentArgs`] stays `Clone + PartialEq` while the
/// server handle is neither.
fn metrics_server() -> &'static Mutex<Option<MetricsServer>> {
    static SERVER: OnceLock<Mutex<Option<MetricsServer>>> = OnceLock::new();
    SERVER.get_or_init(|| Mutex::new(None))
}

/// The `--journal` sink for the lifetime of the binary, kept reachable so
/// the checkpoint layer can ask for the journal's durable byte position at
/// save time and write the `resume` header record on restore.
fn journal_slot() -> &'static Mutex<Option<Arc<JsonlSink>>> {
    static JOURNAL: OnceLock<Mutex<Option<Arc<JsonlSink>>>> = OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(None))
}

/// The active `--journal` sink, if one is open.
pub(crate) fn journal_sink() -> Option<Arc<JsonlSink>> {
    journal_slot()
        .lock()
        // lithohd-lint: allow(panic-safety) — a poisoned lock is unrecoverable process state
        .expect("journal slot poisoned")
        .clone()
}

/// Command-line arguments shared by every experiment binary.
///
/// Supported flags: `--scale <f64>` (benchmark size factor, default 0.1;
/// 1.0 reproduces Table I cardinalities), `--seed <u64>` (default 1),
/// `--repeats <usize>` (experiments that average over runs, default 3),
/// `--out <dir>` (JSON output directory, default `target/experiments`),
/// `--log <filter>` (console log filter overriding `LITHOHD_LOG`, e.g.
/// `debug` or `info,gmm=trace`), `--journal <path>` (write a JSONL run
/// journal), `--canonical-journal` (withhold all wall-clock data from the
/// journal so identically-seeded runs write byte-identical files),
/// `--metrics-addr <ip:port>` (serve live Prometheus metrics over
/// HTTP for the duration of the run), `--profile` (print the
/// span-timing tree on exit), `--checkpoint-dir <dir>` (persist crash-safe
/// run-state checkpoints), `--checkpoint-every <n>` (iterations between
/// checkpoints, default 1), `--resume` (continue from the newest valid
/// checkpoint instead of starting over),
/// `--crash-after-checkpoints <n>` (kill the process right after the Nth
/// checkpoint commit — the crash injector for resume testing),
/// `--workers <n>` (shard each labelling batch across N oracle worker
/// threads; merged results are byte-identical for every N), and
/// `--kill-shard <i>@<k>` (chaos injection: murder worker `i` on labelling
/// batch `k` of every sharded run — requires `--workers`),
/// `--workers-sweep <n,n,...>` (pshd only: append shard-scaling rows for
/// the paper's method at each listed worker count to the baseline), and
/// `--trace <path>` (record span ids, parent links, and per-shard worker
/// tracks, exported on exit as Chrome-trace JSON loadable in Perfetto).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// Benchmark size factor.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Repetitions for averaged experiments.
    pub repeats: usize,
    /// Output directory for JSON results.
    pub out: PathBuf,
    /// Console log filter (`--log`), overriding the `LITHOHD_LOG` variable.
    pub log: Option<EnvFilter>,
    /// JSONL run-journal path (`--journal`).
    pub journal: Option<PathBuf>,
    /// Whether the journal withholds wall-clock data
    /// (`--canonical-journal`) so equal seeds give byte-identical files.
    pub canonical_journal: bool,
    /// Address to serve live `/metrics` on (`--metrics-addr`), e.g.
    /// `127.0.0.1:9184`; port `0` picks a free port (logged at startup).
    pub metrics_addr: Option<String>,
    /// Whether to print the span-timing profile on exit (`--profile`).
    pub profile: bool,
    /// Checkpoint directory (`--checkpoint-dir`); enables durable run-state
    /// persistence via `hotspot-store`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Save a checkpoint every N framework iterations
    /// (`--checkpoint-every`, default 1 when a checkpoint dir is given).
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint in `--checkpoint-dir`
    /// (`--resume`).
    pub resume: bool,
    /// Kill the process (exit code 3) immediately after the Nth checkpoint
    /// commit (`--crash-after-checkpoints`) — the crash injector the
    /// resume-determinism suite drives.
    pub crash_after_checkpoints: Option<usize>,
    /// Oracle worker threads per labelling batch (`--workers`); `None`
    /// keeps the legacy single-threaded labelling path.
    pub workers: Option<usize>,
    /// Chaos injection `(shard, batch)` from `--kill-shard <i>@<k>`: worker
    /// `i` is murdered on the `k`-th (1-based) labelling batch of every
    /// sharded run. Requires `--workers`.
    pub kill_shard: Option<(usize, usize)>,
    /// Worker counts for the pshd seeder's shard-scaling rows
    /// (`--workers-sweep 1,2,4`); empty disables the sweep.
    pub workers_sweep: Vec<usize>,
    /// Chrome-trace output path (`--trace`): span ids, parent links, and
    /// per-shard worker tracks exported as Perfetto-loadable JSON on exit.
    pub trace: Option<PathBuf>,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            scale: 0.1,
            seed: 1,
            repeats: 3,
            out: PathBuf::from("target/experiments"),
            log: None,
            journal: None,
            canonical_journal: false,
            metrics_addr: None,
            profile: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            crash_after_checkpoints: None,
            workers: None,
            kill_shard: None,
            workers_sweep: Vec::new(),
            trace: None,
        }
    }
}

impl ExperimentArgs {
    /// Parses `std::env::args` and initialises telemetry sinks, exiting
    /// with a usage message on bad input.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => {
                args.init_telemetry();
                args
            }
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: <bin> [--scale <f64>] [--seed <u64>] [--repeats <usize>] [--out <dir>] \
                     [--log <filter>] [--journal <path>] [--canonical-journal] \
                     [--metrics-addr <ip:port>] [--profile] [--checkpoint-dir <dir>] \
                     [--checkpoint-every <n>] [--resume] [--crash-after-checkpoints <n>] \
                     [--workers <n>] [--kill-shard <i>@<k>] [--workers-sweep <n,n,...>] \
                     [--trace <path>]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument iterator.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or unparsable
    /// values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ExperimentArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| format!("flag {flag} expects a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    out.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                    if !(out.scale > 0.0 && out.scale.is_finite()) {
                        return Err("--scale must be positive".to_owned());
                    }
                }
                "--seed" => {
                    out.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--repeats" => {
                    out.repeats = value()?
                        .parse()
                        .map_err(|e| format!("bad --repeats: {e}"))?;
                    if out.repeats == 0 {
                        return Err("--repeats must be positive".to_owned());
                    }
                }
                "--out" => {
                    out.out = PathBuf::from(value()?);
                }
                "--log" => {
                    out.log =
                        Some(EnvFilter::parse(&value()?).map_err(|e| format!("bad --log: {e}"))?);
                }
                "--journal" => {
                    out.journal = Some(PathBuf::from(value()?));
                }
                "--canonical-journal" => {
                    out.canonical_journal = true;
                }
                "--metrics-addr" => {
                    out.metrics_addr = Some(value()?);
                }
                "--profile" => {
                    out.profile = true;
                }
                "--checkpoint-dir" => {
                    out.checkpoint_dir = Some(PathBuf::from(value()?));
                }
                "--checkpoint-every" => {
                    out.checkpoint_every = value()?
                        .parse()
                        .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                    if out.checkpoint_every == 0 {
                        return Err("--checkpoint-every must be positive".to_owned());
                    }
                }
                "--resume" => {
                    out.resume = true;
                }
                "--crash-after-checkpoints" => {
                    out.crash_after_checkpoints = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("bad --crash-after-checkpoints: {e}"))?,
                    );
                }
                "--workers" => {
                    out.workers = Some(
                        value()?
                            .parse()
                            .map_err(|e| format!("bad --workers: {e}"))?,
                    );
                    if out.workers == Some(0) {
                        return Err("--workers must be positive".to_owned());
                    }
                }
                "--kill-shard" => {
                    out.kill_shard = Some(parse_kill_shard(&value()?)?);
                }
                "--trace" => {
                    out.trace = Some(PathBuf::from(value()?));
                }
                "--workers-sweep" => {
                    out.workers_sweep = value()?
                        .split(',')
                        .map(|part| {
                            part.trim()
                                .parse::<usize>()
                                .map_err(|e| format!("bad --workers-sweep entry {part:?}: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                    if out.workers_sweep.is_empty() || out.workers_sweep.contains(&0) {
                        return Err(
                            "--workers-sweep expects positive counts like `1,2,4`".to_owned()
                        );
                    }
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if out.checkpoint_dir.is_none() && (out.resume || out.crash_after_checkpoints.is_some()) {
            return Err(
                "--resume and --crash-after-checkpoints require --checkpoint-dir".to_owned(),
            );
        }
        if out.workers.is_none() && out.kill_shard.is_some() {
            return Err("--kill-shard requires --workers".to_owned());
        }
        if let (Some(workers), Some((shard, _))) = (out.workers, out.kill_shard) {
            if shard >= workers {
                return Err(format!(
                    "--kill-shard names worker {shard}, but --workers is {workers}"
                ));
            }
        }
        Ok(out)
    }

    /// The run plan these flags ask for: `method` averaged over `--repeats`
    /// runs, sharded across `--workers` threads when given (with the
    /// `--kill-shard` chaos and, under `--checkpoint-dir`, a `shards/`
    /// commit subdirectory next to the run checkpoints).
    pub fn plan(&self, method: ActiveMethod) -> RunPlan {
        let shard = self.workers.map(|workers| ShardSpec {
            workers,
            kill: self.kill_shard.map(|(shard, batch)| KillSpec {
                shard,
                batch,
                mode: FailureMode::Panic,
            }),
            dir: self.checkpoint_dir.as_ref().map(|d| d.join("shards")),
        });
        RunPlan {
            shard,
            repeats: self.repeats,
            ..RunPlan::new(method)
        }
    }

    /// Registers the telemetry sinks these arguments ask for: a console
    /// sink (filtered by `--log`, else `LITHOHD_LOG`), a JSONL journal when
    /// `--journal` was given, and a live `/metrics` HTTP server when
    /// `--metrics-addr` was given.
    pub fn init_telemetry(&self) {
        let filter = self.log.clone().unwrap_or_else(EnvFilter::from_env);
        telemetry::add_sink(Arc::new(ConsoleSink::new(filter)));
        if self.trace.is_some() {
            telemetry::trace::enable();
        }
        if self.journal.is_some() && !self.resume {
            // A resuming process defers the journal: it must first restore
            // the checkpoint (events before its saved journal position
            // already survive in the file), regenerate the benchmark
            // without double-journalling those events, truncate, and only
            // then start appending — see `open_journal_resumed`.
            self.open_journal(false, None);
        }
        if let Some(addr) = &self.metrics_addr {
            match telemetry::serve_metrics(addr) {
                Ok(server) => {
                    eprintln!("serving metrics on http://{}/metrics", server.local_addr());
                    // lithohd-lint: allow(panic-safety) — a poisoned lock is unrecoverable process state
                    *metrics_server().lock().expect("metrics server poisoned") = Some(server);
                }
                Err(e) => {
                    eprintln!("cannot serve metrics on {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }

    /// Opens the `--journal` sink for a resumed run: the file is truncated
    /// back to the checkpoint's durable [`JournalPosition`] (records the
    /// crashed process wrote after its last save must not survive twice —
    /// the resumed run re-emits them), then opened in append mode so the
    /// continuation extends the surviving prefix. No-op without
    /// `--journal`.
    pub fn open_journal_resumed(&self, position: Option<JournalPosition>) {
        if self.journal.is_some() {
            self.open_journal(true, position);
        }
    }

    fn open_journal(&self, append: bool, truncate_to: Option<JournalPosition>) {
        // lithohd-lint: allow(panic-safety) — `open_journal` is only called with `journal` set
        let path = self.journal.as_ref().expect("journal path present");
        if let Some(position) = truncate_to {
            if let Ok(file) = std::fs::File::options().write(true).open(path) {
                if let Err(e) = file.set_len(position.bytes) {
                    eprintln!("cannot truncate journal {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        let sink = match (self.canonical_journal, append) {
            (true, true) => JsonlSink::create_canonical_append(path),
            (true, false) => JsonlSink::create_canonical(path),
            (false, true) => JsonlSink::append(path),
            (false, false) => JsonlSink::create(path),
        };
        match sink {
            Ok(sink) => {
                let sink = Arc::new(sink);
                // lithohd-lint: allow(panic-safety) — a poisoned lock is unrecoverable process state
                *journal_slot().lock().expect("journal slot poisoned") = Some(Arc::clone(&sink));
                telemetry::add_sink(sink);
            }
            Err(e) => {
                eprintln!("cannot open journal {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    /// Finalises telemetry at the end of a binary: publishes the metrics
    /// snapshot to every sink (the journal's closing record), prints the
    /// span-timing tree when `--profile` was given, and shuts down the
    /// `--metrics-addr` server.
    pub fn finish_telemetry(&self) {
        telemetry::publish_snapshot();
        if self.profile {
            eprint!("{}", telemetry::profile_report());
        }
        if let Some(path) = &self.trace {
            match std::fs::write(path, telemetry::trace::export_chrome_trace()) {
                Ok(()) => eprintln!("trace written to {}", path.display()),
                Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
            }
        }
        telemetry::flush();
        if let Some(mut server) = metrics_server()
            .lock()
            // lithohd-lint: allow(panic-safety) — a poisoned lock is unrecoverable process state
            .expect("metrics server poisoned")
            .take()
        {
            server.shutdown();
        }
    }
}

/// Parses a `--kill-shard` value of the form `<shard>@<batch>` (the batch
/// ordinal is 1-based).
fn parse_kill_shard(value: &str) -> Result<(usize, usize), String> {
    let (shard, batch) = value
        .split_once('@')
        .ok_or_else(|| format!("bad --kill-shard {value:?}: expected <shard>@<batch>"))?;
    let shard: usize = shard
        .parse()
        .map_err(|e| format!("bad --kill-shard shard: {e}"))?;
    let batch: usize = batch
        .parse()
        .map_err(|e| format!("bad --kill-shard batch: {e}"))?;
    if batch == 0 {
        return Err("--kill-shard batch ordinal is 1-based".to_owned());
    }
    Ok((shard, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_telemetry::Level;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, ExperimentArgs::default());
    }

    #[test]
    fn all_flags_parse() {
        let args = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "9",
            "--repeats",
            "7",
            "--out",
            "/tmp/x",
            "--log",
            "debug",
            "--journal",
            "/tmp/run.jsonl",
            "--canonical-journal",
            "--metrics-addr",
            "127.0.0.1:0",
            "--profile",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--checkpoint-every",
            "2",
            "--resume",
            "--crash-after-checkpoints",
            "4",
            "--trace",
            "/tmp/trace.json",
        ])
        .unwrap();
        assert_eq!(args.scale, 0.5);
        assert_eq!(args.seed, 9);
        assert_eq!(args.repeats, 7);
        assert_eq!(args.out, PathBuf::from("/tmp/x"));
        assert_eq!(args.log, Some(EnvFilter::at(Level::Debug)));
        assert_eq!(args.journal, Some(PathBuf::from("/tmp/run.jsonl")));
        assert!(args.canonical_journal);
        assert_eq!(args.metrics_addr, Some("127.0.0.1:0".to_string()));
        assert!(args.profile);
        assert_eq!(args.checkpoint_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(args.checkpoint_every, 2);
        assert!(args.resume);
        assert_eq!(args.crash_after_checkpoints, Some(4));
        assert_eq!(args.trace, Some(PathBuf::from("/tmp/trace.json")));
    }

    #[test]
    fn trace_flag_needs_a_path() {
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&[]).unwrap().trace.is_none());
    }

    #[test]
    fn log_accepts_directives() {
        let args = parse(&["--log", "warn,gmm=trace"]).unwrap();
        let filter = args.log.unwrap();
        assert!(filter.enabled(Level::Trace, "gmm.em"));
        assert!(!filter.enabled(Level::Info, "core.framework"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--repeats", "0"]).is_err());
        assert!(parse(&["--log", "loud"]).is_err());
        assert!(parse(&["--journal"]).is_err());
        assert!(parse(&["--metrics-addr"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--checkpoint-every", "0"]).is_err());
        assert!(parse(&["--resume"]).is_err(), "--resume needs a dir");
        assert!(parse(&["--crash-after-checkpoints", "1"]).is_err());
    }

    #[test]
    fn shard_flags_parse_and_validate() {
        let args = parse(&["--workers", "4"]).unwrap();
        assert_eq!(args.workers, Some(4));
        assert_eq!(args.kill_shard, None);
        let plan = args.plan(ActiveMethod::Ours);
        assert_eq!(plan.shard.as_ref().map(|s| s.workers), Some(4));
        assert!(plan.shard.unwrap().kill.is_none());
        assert!(parse(&[]).unwrap().plan(ActiveMethod::Ours).shard.is_none());

        let args = parse(&["--workers", "4", "--kill-shard", "1@3"]).unwrap();
        assert_eq!(args.kill_shard, Some((1, 3)));
        let spec = args.plan(ActiveMethod::Ours).shard.unwrap().kill.unwrap();
        assert_eq!(spec.shard, 1);
        assert_eq!(spec.batch, 3);
        assert_eq!(spec.mode, FailureMode::Panic);

        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--kill-shard", "1@3"]).is_err(), "needs --workers");
        assert!(parse(&["--workers", "2", "--kill-shard", "2@3"]).is_err());
        assert!(parse(&["--workers", "2", "--kill-shard", "1@0"]).is_err());
        assert!(parse(&["--workers", "2", "--kill-shard", "1-3"]).is_err());
    }

    #[test]
    fn workers_sweep_parses_and_validates() {
        assert!(parse(&[]).unwrap().workers_sweep.is_empty());

        let args = parse(&["--workers-sweep", "1,2,4"]).unwrap();
        assert_eq!(args.workers_sweep, vec![1, 2, 4]);

        let args = parse(&["--workers-sweep", " 2 , 8 "]).unwrap();
        assert_eq!(args.workers_sweep, vec![2, 8]);

        assert!(parse(&["--workers-sweep", ""]).is_err());
        assert!(parse(&["--workers-sweep", "1,0"]).is_err());
        assert!(parse(&["--workers-sweep", "1,x"]).is_err());
    }
}
