//! `serve-score` and `serve-mixed`: the scoring service in process through
//! `ServeApp::start`, loaded over HTTP by at most two client connections
//! (the host has two cores).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hotspot_active::SamplingConfig;
use hotspot_bench::journal::Journal;
use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
use hotspot_serve::{
    BatchOptions, BootstrapConfig, ClipScore, HttpClient, MicroBatcher, RasterInput, ScoreRequest,
    ScoreResponse, Scorer, ServeApp, ServeOptions, SessionInfo, SessionRequest, SystemClock,
};
use hotspot_telemetry::{self as telemetry, names, prometheus_name, MetricsRegistry};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::campaign::{accept_ratio, framework_layers, is_pinned, TEMPERATURE_FLOOR};
use crate::trace;
use crate::{counter_delta, histogram_delta, median, quantile, Args, Outcome};

const HTTP_THREADS: usize = 2;
/// Server starts per process; `setup_s` is their median. A start takes
/// about 1.4 s, so more of them than of the campaign's generations fit.
const BOOT_REPEATS: usize = 5;
const SCORE_CLIENTS: usize = 2;
const ROWS_PER_REQUEST: usize = 4;
/// Hotspots (and as many non-hotspots) in the held-out ICCAD12-style
/// population `serve-score` scores.
const HELD_OUT_CLASS: usize = 320;
/// The held-out population's generator seed. Its Eq. 1 accuracy moves by
/// about 10 % between generator seeds (the hotspot-family mix differs), so
/// the population is fixed and `--seed` only decides which clips share a
/// request and in which order they are sent.
const HELD_OUT_SEED: u64 = 12;
const SESSION_BENCHMARK: &str = "iccad16_3";
const SESSION_SCALE: f64 = 0.5;
/// Sampling iterations per session. At 10 the session's accuracy is not
/// saturated, so selection and calibration can visibly regress. No session
/// size both stays unsaturated and lets 200 `/score` requests finish while
/// it runs (16 iterations label 68 % of the pool, saturate accuracy at 1.0,
/// and still let only 134 requests through on a fast host), so a run holds
/// several sessions and p95 rests on all of their requests.
const SESSION_ITERATIONS: usize = 10;
const SESSION_WORKERS: usize = 2;
/// Wall times of one held-out pass and of one session, for sizing runs.
const PASS_NOMINAL_S: f64 = 3.5;
const SESSION_NOMINAL_S: f64 = 6.0;
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Calls per single-layer replay in the traced run.
const REPLAY_CALLS: usize = 200;

/// One prepared `/score` request and the in-process reference answer.
struct Prepared {
    clips: Vec<usize>,
    body: String,
    rows: Vec<Vec<f32>>,
    expected: Vec<ClipScore>,
}

/// One client-side `/score` round trip.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ms: f64,
    ok: bool,
}

/// A running server and the directory it keeps session state in.
struct Server {
    app: ServeApp,
    addr: String,
    dir: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.app.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        threads: HTTP_THREADS,
        read_timeout: READ_TIMEOUT,
        sessions_dir: dir.to_path_buf(),
        ..ServeOptions::default()
    }
}

fn start_server(dir: PathBuf) -> Result<Server, String> {
    let _span = trace::span("serve.start");
    let app = ServeApp::start(options(&dir)).map_err(|e| format!("ServeApp::start: {e}"))?;
    let addr = app.local_addr().to_string();
    Ok(Server { app, addr, dir })
}

/// Starts the server [`BOOT_REPEATS`] times, timing each `ServeApp::start`,
/// and keeps the last one running.
fn boot(args: &Args) -> Result<(Server, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..BOOT_REPEATS {
        let start = Instant::now();
        let started = start_server(args.scratch_dir(&format!("sessions{k}")))?;
        setup_s.push(start.elapsed().as_secs_f64());
        // Dropping the previous server shuts it down and removes its dir.
        server = Some(started);
    }
    let server = server.ok_or("no set-up ran")?;
    println!(
        "setup: ServeApp::start on {} in {:.3} s median of {:?}",
        server.addr,
        median(&setup_s),
        setup_s
    );
    Ok((server, setup_s))
}

fn connect(addr: &str) -> Result<HttpClient, String> {
    HttpClient::connect(addr, READ_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

/// A generated DUV28 population disjoint from the server's bootstrap data,
/// whose bootstrap seed is fixed.
fn held_out(seed: u64, spec: &BenchmarkSpec) -> Result<GeneratedBenchmark, String> {
    let mut seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6865_6c64;
    if seed == BootstrapConfig::default().seed {
        seed += 1;
    }
    GeneratedBenchmark::generate(spec, seed).map_err(|e| format!("held-out generation: {e}"))
}

/// The bootstrap's own benchmark: ICCAD12 at the bootstrap scale.
fn bootstrap_spec() -> BenchmarkSpec {
    BenchmarkSpec::iccad12().scaled(BootstrapConfig::default().scale)
}

fn prepare(
    scorer: &Scorer,
    id: usize,
    clips: Vec<usize>,
    rows: Vec<Vec<f32>>,
    rasters: Option<Vec<RasterInput>>,
) -> Result<Prepared, String> {
    let expected = scorer
        .score_rows(&rows)
        .map_err(|e| format!("in-process scoring failed: {e}"))?;
    let request = ScoreRequest {
        request_id: Some(format!("r{id}")),
        features: rasters.is_none().then(|| rows.clone()),
        rasters,
    };
    let body = serde_json::to_string(&request).map_err(|e| format!("encode request: {e}"))?;
    Ok(Prepared {
        clips,
        body,
        rows,
        expected,
    })
}

/// `/score` requests of [`ROWS_PER_REQUEST`] feature rows each, covering
/// the whole held-out population once in a seeded order.
fn feature_requests(
    bench: &GeneratedBenchmark,
    scorer: &Scorer,
    seed: u64,
) -> Result<Vec<Prepared>, String> {
    let features = bench.dct_features();
    let mut order: Vec<usize> = (0..features.rows()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    order
        .chunks(ROWS_PER_REQUEST)
        .enumerate()
        .map(|(id, chunk)| {
            let rows = chunk.iter().map(|&i| features.row(i).to_vec()).collect();
            prepare(scorer, id, chunk.to_vec(), rows, None)
        })
        .collect()
}

/// One-raster `/score` requests holding each clip's core crop. Checks that
/// `Scorer::raster_features` on the crop equals the generator's feature row.
fn raster_requests(
    bench: &GeneratedBenchmark,
    scorer: &Scorer,
    outcome: &mut Outcome,
) -> Result<Vec<Prepared>, String> {
    let core = bench.core();
    let mut requests = Vec::with_capacity(bench.len());
    let mut max_delta = 0.0f32;
    let mut shape = None;
    for i in 0..bench.len() {
        let raster = bench.clip_raster(i);
        let crop = raster.crop(&core).ok_or("core lies outside the clip")?;
        let (width, height) = (crop.width(), crop.height());
        shape = Some((width, height));
        let row = scorer
            .raster_features(width, height, crop.pixels())
            .map_err(|e| format!("raster features: {e}"))?;
        let generated = bench.dct_features().row(i);
        max_delta = if row.len() == generated.len() {
            row.iter()
                .zip(generated)
                .fold(max_delta, |m, (a, b)| m.max((a - b).abs()))
        } else {
            f32::INFINITY
        };
        let input = RasterInput {
            width,
            height,
            pixels: crop.pixels().to_vec(),
        };
        requests.push(prepare(scorer, i, vec![i], vec![row], Some(vec![input]))?);
    }
    outcome.check(
        "Scorer::raster_features equals generator feature rows",
        max_delta == 0.0,
        &format!(
            "max |delta| {max_delta} over {} clips of {:?} pixels",
            bench.len(),
            shape.unwrap_or_default()
        ),
    );
    Ok(requests)
}

fn same_bits(a: &[ClipScore], b: &[ClipScore]) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.probability.to_bits() == y.probability.to_bits()
                && x.bvsb.to_bits() == y.bvsb.to_bits()
                && x.uncertainty.to_bits() == y.uncertainty.to_bits()
                && bits(&x.logits) == bits(&y.logits)
                && bits(&x.scaled_logits) == bits(&y.scaled_logits)
        })
}

/// Posts requests back to back (closed loop) while `pick` hands out
/// indices, verifying each 200 response against the in-process reference.
fn post_loop(
    client: &mut HttpClient,
    requests: &[Prepared],
    pick: impl Fn() -> Option<usize>,
    parent: Option<u64>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    while let Some(i) = pick() {
        let request = &requests[i % requests.len()];
        let span = trace::child_of("client.score", parent);
        let start = Instant::now();
        let response = client.post_json("/score", &request.body);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(span);
        let ok = match response {
            Ok(response) if response.status == 200 => {
                serde_json::from_str::<ScoreResponse>(&response.body)
                    .map(|parsed| same_bits(&parsed.scores, &request.expected))
                    .unwrap_or(false)
            }
            _ => false,
        };
        samples.push(Sample { ms, ok });
    }
    samples
}

/// Every prepared request once, shared by the clients; returns the samples
/// and the pass's wall time.
fn score_pass(clients: &mut [HttpClient], requests: &[Prepared]) -> (Vec<Sample>, f64) {
    let _span = trace::span("score.pass");
    let parent = _span.id();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let pick = || {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        (i < requests.len()).then_some(i)
                    };
                    post_loop(client, requests, pick, parent)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (samples, start.elapsed().as_secs_f64())
}

fn count_samples(samples: &[Sample], outcome: &mut Outcome) {
    for sample in samples {
        outcome.op(sample.ok);
    }
    let bad = samples.iter().filter(|s| !s.ok).count();
    outcome.check(
        "/score responses are bit-identical to in-process Scorer::score_rows",
        bad == 0,
        &format!("{bad} of {} responses differ or failed", samples.len()),
    );
}

/// Eq. 1 on the held-out population: hotspots the served model flags at
/// the framework's detection threshold, over all hotspots.
fn served_accuracy(bench: &GeneratedBenchmark, requests: &[Prepared]) -> f64 {
    let threshold = SamplingConfig::for_benchmark(bench.len()).detect_threshold;
    let scored = requests
        .iter()
        .flat_map(|r| r.clips.iter().zip(&r.expected));
    let (hits, hotspots) = scored
        .filter(|(&clip, _)| bench.labels()[clip].is_hotspot())
        .fold((0usize, 0usize), |(hits, all), (_, score)| {
            (hits + usize::from(score.probability >= threshold), all + 1)
        });
    hits as f64 / hotspots.max(1) as f64
}

/// The server's own `/metrics` text, fetched on a connection the workload
/// already holds: every HTTP thread is busy with one keep-alive client.
fn scrape(client: &mut HttpClient) -> Result<String, String> {
    let response = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /metrics answered {}", response.status));
    }
    Ok(response.body)
}

fn series(text: &str, name: &str, suffix: &str) -> f64 {
    let wanted = format!("{}{suffix}", prometheus_name(name));
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == wanted).then(|| value.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// Client p50 against the server's own `/score` p50: the remainder is time
/// in the network stack and kernel, which no server span covers.
fn reconcile(
    label: &str,
    client: &mut HttpClient,
    samples: &[Sample],
) -> Result<(f64, String), String> {
    let text = scrape(client)?;
    let client = quantile(&samples.iter().map(|s| s.ms).collect::<Vec<_>>(), 0.5);
    let server = series(&text, names::SERVE_SCORE_SECONDS, "_p50") * 1e3;
    println!(
        "reconcile {label} /score p50: client {client:.3} ms = server {server:.3} ms + unaccounted {:.3} ms",
        client - server
    );
    Ok((client - server, text))
}

fn latency_metrics(samples: &[Sample], busy_s: f64, outcome: &mut Outcome) {
    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    println!("latency: {} /score round trips", ms.len());
    outcome.set("latency_p50_ms", quantile(&ms, 0.50));
    outcome.set("latency_p95_ms", quantile(&ms, 0.95));
    outcome.set("throughput_rps", ms.len() as f64 / busy_s);
}

/// Per-layer rows read from the server's `/metrics` and from direct calls
/// into the scorer and a private micro-batcher.
fn serve_layers(
    scorer: &Arc<Scorer>,
    requests: &[Prepared],
    unaccounted_ms: f64,
    metrics_text: &str,
    samples: usize,
    outcome: &mut Outcome,
) {
    let server_p50 = series(metrics_text, names::SERVE_SCORE_SECONDS, "_p50") * 1e3;
    outcome.set("serve.server_ms.p50", server_p50);
    outcome.set("serve.unaccounted_ms.p50", unaccounted_ms);
    outcome.set("latency.samples", samples as f64);
    // Mean clips per flush; the server's own fill gauge holds only the last.
    let flushes = series(metrics_text, names::SERVE_BATCH_FLUSHES, "");
    let clips = series(metrics_text, names::SERVE_BATCH_CLIPS, "");
    outcome.set(names::SERVE_BATCH_FILL, clips / flushes.max(1.0));
    for name in [
        names::SERVE_BATCH_FLUSHES,
        names::SERVE_BACKPRESSURE_REJECTED,
        names::SERVE_LOAD_SHED,
        names::SERVE_HTTP_ERRORS,
    ] {
        outcome.set(name, series(metrics_text, name, ""));
    }
    let _span = trace::span("replay.scorer");
    let pick = |k: usize| &requests[k % requests.len()];
    let start = Instant::now();
    for k in 0..REPLAY_CALLS {
        std::hint::black_box(scorer.score_rows(&pick(k).rows).ok());
    }
    let score_rows_s = start.elapsed().as_secs_f64() / REPLAY_CALLS as f64;
    outcome.set("nn.score_rows_us", score_rows_s * 1e6);

    let batcher = MicroBatcher::start(
        Arc::clone(scorer),
        Arc::new(SystemClock::new()),
        BatchOptions::default(),
        Arc::new(MetricsRegistry::default()),
    );
    let start = Instant::now();
    for k in 0..REPLAY_CALLS {
        std::hint::black_box(batcher.score(pick(k).rows.clone()).ok());
    }
    let batcher_s = start.elapsed().as_secs_f64() / REPLAY_CALLS as f64;
    batcher.shutdown();
    outcome.set("serve.batcher_wait_ms", (batcher_s - score_rows_s) * 1e3);
}

fn raster_features_us(scorer: &Scorer, bench: &GeneratedBenchmark) -> f64 {
    let _span = trace::span("replay.raster_features");
    let core = bench.core();
    let crops: Vec<_> = (0..bench.len().min(64))
        .filter_map(|i| bench.clip_raster(i).crop(&core))
        .collect();
    let start = Instant::now();
    for crop in &crops {
        std::hint::black_box(
            scorer
                .raster_features(crop.width(), crop.height(), crop.pixels())
                .ok(),
        );
    }
    start.elapsed().as_secs_f64() * 1e6 / crops.len().max(1) as f64
}

fn check_temperature(scorer: &Scorer, tracing: bool, outcome: &mut Outcome) {
    let t = scorer.temperature().value();
    let pinned = is_pinned(t);
    if pinned {
        outcome.warn(&format!(
            "served temperature {t} is pinned at the {TEMPERATURE_FLOOR} search bound"
        ));
    }
    if tracing {
        outcome.set("calibration.temperature", t);
        outcome.set("calibration.pinned_runs", f64::from(u8::from(pinned)));
    }
}

pub fn run_score(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    trace::set_enabled(args.trace);
    let (server, setup_s) = boot(args)?;
    let scorer = server.app.scorer();
    let spec = BenchmarkSpec {
        hotspots: HELD_OUT_CLASS,
        non_hotspots: HELD_OUT_CLASS,
        dup_rate: 0.0,
        ..BenchmarkSpec::iccad12()
    };
    let start = Instant::now();
    let bench = held_out(HELD_OUT_SEED, &spec)?;
    let requests = feature_requests(&bench, &scorer, args.seed)?;
    println!(
        "held-out: {} clips ({} hotspots) in {} requests of {ROWS_PER_REQUEST} rows, {SCORE_CLIENTS} clients, prepared in {:.3} s",
        bench.len(),
        bench.hotspot_count(),
        requests.len(),
        start.elapsed().as_secs_f64()
    );
    let mut clients = (0..SCORE_CLIENTS)
        .map(|_| connect(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    check_temperature(&scorer, args.trace, outcome);

    if args.trace {
        trace::set_enabled(false);
        let (plain, plain_s) = score_pass(&mut clients, &requests);
        trace::set_enabled(true);
        let (traced, traced_s) = score_pass(&mut clients, &requests);
        println!("trace overhead: pass {traced_s:.3} s traced vs {plain_s:.3} s untraced");
        outcome.set("bench.trace_overhead", traced_s / plain_s);
        let mut samples = plain;
        samples.extend(traced);
        count_samples(&samples, outcome);
        let (unaccounted, text) = reconcile("serve-score", &mut clients[0], &samples)?;
        serve_layers(
            &scorer,
            &requests,
            unaccounted,
            &text,
            samples.len(),
            outcome,
        );
        outcome.set(
            "serve.raster_features_us",
            raster_features_us(&scorer, &bench),
        );
        return crate::finish_trace(args);
    }

    let mut samples = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..args.units(PASS_NOMINAL_S) {
        let (pass, seconds) = score_pass(&mut clients, &requests);
        samples.extend(pass);
        passes.push(seconds);
    }
    println!("passes over the held-out set: {passes:.3?} s");
    count_samples(&samples, outcome);
    reconcile("serve-score", &mut clients[0], &samples)?;
    outcome.set("setup_s", median(&setup_s));
    outcome.set("flow_s", median(&passes));
    latency_metrics(&samples, passes.iter().sum(), outcome);
    outcome.set("accuracy", served_accuracy(&bench, &requests));
    // Every bootstrap clip was litho-labelled to train the served model.
    outcome.set("litho", bootstrap_spec().total() as f64);
    Ok(())
}

/// One labelling session stepped to `done`, and what its steps cost.
struct SessionRun {
    id: String,
    session_s: f64,
    step_ms: Vec<f64>,
    accuracy: f64,
    litho: u64,
    oracle_calls: f64,
}

fn post_session(client: &mut HttpClient, path: &str, body: &str) -> Result<SessionInfo, String> {
    let response = client
        .post_json(path, body)
        .map_err(|e| format!("POST {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "POST {path} answered {}: {}",
            response.status, response.body
        ));
    }
    serde_json::from_str(&response.body).map_err(|e| format!("POST {path}: bad body: {e}"))
}

fn run_session(
    client: &mut HttpClient,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<SessionRun, String> {
    let _span = trace::span("session");
    let before = telemetry::snapshot();
    let request = SessionRequest {
        benchmark: Some(SESSION_BENCHMARK.to_string()),
        scale: Some(SESSION_SCALE),
        seed: Some(seed),
        method: Some("ours".to_string()),
        workers: Some(SESSION_WORKERS),
        iterations: Some(SESSION_ITERATIONS),
    };
    let body = serde_json::to_string(&request).map_err(|e| format!("encode session: {e}"))?;
    let start = Instant::now();
    let created = post_session(client, "/session", &body);
    outcome.op(created.is_ok());
    let mut info = created?;
    let id = info.session.clone();
    let step_path = format!("/session/{id}/step");
    let mut step_ms = Vec::new();
    while !info.done {
        let _span = trace::span("session.step");
        let step_start = Instant::now();
        let stepped = post_session(client, &step_path, "");
        outcome.op(stepped.is_ok());
        info = stepped?;
        step_ms.push(step_start.elapsed().as_secs_f64() * 1e3);
    }
    let session_s = start.elapsed().as_secs_f64();
    let oracle_calls = counter_delta(&before, &telemetry::snapshot(), names::ORACLE_CALLS);
    Ok(SessionRun {
        id,
        session_s,
        step_ms,
        accuracy: info.accuracy.ok_or("finished session without accuracy")?,
        litho: info.litho.ok_or("finished session without Litho#")?,
        oracle_calls,
    })
}

/// Runs a session on client A while client B posts raster scores back to
/// back; returns the session and B's samples.
fn mixed_round(
    dir: &Path,
    session_client: &mut HttpClient,
    score_client: &mut HttpClient,
    requests: &[Prepared],
    seed: u64,
    outcome: &mut Outcome,
) -> Result<(SessionRun, Vec<Sample>), String> {
    let stop = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let parent = trace::span("mixed.round");
    let parent_id = parent.id();
    let (session, samples) = std::thread::scope(|scope| {
        let scorer = scope.spawn(|| {
            let pick =
                || (!stop.load(Ordering::Relaxed)).then(|| next.fetch_add(1, Ordering::Relaxed));
            post_loop(score_client, requests, pick, parent_id)
        });
        let session = run_session(session_client, seed, outcome);
        stop.store(true, Ordering::Relaxed);
        (session, scorer.join().expect("score client panicked"))
    });
    let session = session?;
    let run = session_journal(dir, &session.id);
    outcome.op(run.is_ok_and(|degraded| !degraded));
    outcome.check(
        "litho.oracle.calls equals the session's Litho#",
        session.oracle_calls == session.litho as f64,
        &format!(
            "counter {} vs Litho# {}",
            session.oracle_calls, session.litho
        ),
    );
    println!(
        "session {} (seed {seed}): {:.3} s, {} steps, accuracy {:.4}, Litho# {}, {} /score meanwhile",
        session.id,
        session.session_s,
        session.step_ms.len(),
        session.accuracy,
        session.litho,
        samples.len()
    );
    Ok((session, samples))
}

/// Whether the session's run degraded, from its canonical journal.
fn session_journal(dir: &Path, id: &str) -> Result<bool, String> {
    let journal = read_journal(dir, id)?;
    let runs = journal.runs();
    let run = runs.last().ok_or("session journal has no finished run")?;
    Ok(run.degraded)
}

fn read_journal(dir: &Path, id: &str) -> Result<Journal, String> {
    let path = dir.join(id).join("journal.jsonl");
    Journal::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn session_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(round)
}

pub fn run_mixed(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    trace::set_enabled(args.trace);
    let (server, setup_s) = boot(args)?;
    let scorer = server.app.scorer();
    let bench = held_out(args.seed, &bootstrap_spec())?;
    let requests = raster_requests(&bench, &scorer, outcome)?;
    let mut session_client = connect(&server.addr)?;
    let mut score_client = connect(&server.addr)?;

    if args.trace {
        trace::set_enabled(false);
        let (plain, plain_samples) = mixed_round(
            &server.dir,
            &mut session_client,
            &mut score_client,
            &requests,
            session_seed(args.seed, 0),
            outcome,
        )?;
        // The traced session repeats the untraced one on a second server:
        // on the first it would hit that server's benchmark cache and skip
        // the generation the untraced session paid for.
        let traced_server = start_server(args.scratch_dir("sessions-traced"))?;
        let mut session_client = connect(&traced_server.addr)?;
        let mut score_client = connect(&traced_server.addr)?;
        trace::set_enabled(true);
        let before = telemetry::snapshot();
        let (session, traced_samples) = mixed_round(
            &traced_server.dir,
            &mut session_client,
            &mut score_client,
            &requests,
            session_seed(args.seed, 0),
            outcome,
        )?;
        let after = telemetry::snapshot();
        outcome.set("bench.trace_overhead", session.session_s / plain.session_s);
        println!(
            "trace overhead: session {:.3} s traced vs {:.3} s untraced",
            session.session_s, plain.session_s
        );
        let (unaccounted, text) = reconcile("serve-mixed", &mut session_client, &traced_samples)?;
        let mut samples = plain_samples;
        samples.extend(traced_samples);
        count_samples(&samples, outcome);
        serve_layers(
            &scorer,
            &requests,
            unaccounted,
            &text,
            samples.len(),
            outcome,
        );
        outcome.set(
            "serve.raster_features_us",
            raster_features_us(&scorer, &bench),
        );
        session_layers(&traced_server.dir, &session, &before, &after, outcome)?;
        let saturated = sessions_saturated(&[session], outcome);
        outcome.set(
            "degenerate.accuracy_saturated",
            f64::from(u8::from(saturated)),
        );
        replay_session_generation(args, outcome)?;
        return crate::finish_trace(args);
    }

    let mut sessions = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..args.units(SESSION_NOMINAL_S) {
        let seed = session_seed(args.seed, sessions.len() as u64);
        let (session, round) = mixed_round(
            &server.dir,
            &mut session_client,
            &mut score_client,
            &requests,
            seed,
            outcome,
        )?;
        sessions.push(session);
        samples.extend(round);
    }
    count_samples(&samples, outcome);
    reconcile("serve-mixed", &mut session_client, &samples)?;
    let session_s: Vec<f64> = sessions.iter().map(|s| s.session_s).collect();
    outcome.set("setup_s", median(&setup_s));
    outcome.set("flow_s", median(&session_s));
    latency_metrics(&samples, session_s.iter().sum(), outcome);
    outcome.set(
        "accuracy",
        median(&sessions.iter().map(|s| s.accuracy).collect::<Vec<_>>()),
    );
    outcome.set(
        "litho",
        median(&sessions.iter().map(|s| s.litho as f64).collect::<Vec<_>>()),
    );
    sessions_saturated(&sessions, outcome);
    Ok(())
}

/// Whether every session finished at accuracy 1.0, where the quality rows
/// can show a regression but never an improvement.
fn sessions_saturated(sessions: &[SessionRun], outcome: &Outcome) -> bool {
    let saturated = sessions.iter().all(|s| s.accuracy >= 1.0);
    if saturated {
        outcome.warn("session accuracy is saturated at 1.0; it can fall but not rise here");
    }
    saturated
}

/// Session-side layers: the program's own counters and span histograms
/// (deltas over the traced session), its journal, and step timings.
fn session_layers(
    dir: &Path,
    session: &SessionRun,
    before: &telemetry::MetricsSnapshot,
    after: &telemetry::MetricsSnapshot,
    outcome: &mut Outcome,
) -> Result<(), String> {
    framework_layers(before, after, outcome);
    for name in [
        names::SHARD_BATCHES,
        names::CHECKPOINT_SAVES,
        names::CHECKPOINT_BYTES,
    ] {
        outcome.set(name, counter_delta(before, after, name));
    }
    outcome.set(
        names::SHARD_BATCH_SECONDS,
        histogram_delta(before, after, names::SHARD_BATCH_SECONDS).1,
    );
    outcome.set(
        "core.select_s.ours",
        histogram_delta(before, after, &names::span_seconds(names::SPAN_SELECT)).1,
    );
    let first = session.step_ms.first().copied().unwrap_or(0.0);
    outcome.set("serve.session.first_step_s", first / 1e3);
    outcome.set(
        "serve.session.step_ms",
        median(session.step_ms.get(1..).unwrap_or(&[])),
    );

    let journal = read_journal(dir, &session.id)?;
    let iterations = journal.iterations();
    let paid: u64 = iterations.iter().map(|it| it.batch_size).sum();
    let hot: u64 = iterations.iter().map(|it| it.batch_hotspots).sum();
    outcome.set("core.batch_hotspot_ratio", hot as f64 / paid.max(1) as f64);
    let temperature = iterations.last().map_or(0.0, |it| it.temperature);
    let pinned = is_pinned(temperature);
    if pinned {
        outcome.warn(&format!(
            "session temperature {temperature} is pinned at the {TEMPERATURE_FLOOR} search bound"
        ));
    }
    outcome.set("calibration.temperature", temperature);
    outcome.set("calibration.pinned_runs", f64::from(u8::from(pinned)));
    Ok(())
}

/// Replays the session's benchmark generation in the harness, where the
/// program's kernel counters are not silenced, to attribute `session_s`.
fn replay_session_generation(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let _span = trace::span("replay.generate");
    let spec = BenchmarkSpec::iccad16_3().scaled(SESSION_SCALE);
    let before = telemetry::snapshot();
    let start = Instant::now();
    let bench = GeneratedBenchmark::generate(&spec, session_seed(args.seed, 0))
        .map_err(|e| format!("session benchmark generation: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let aerial = counter_delta(&before, &telemetry::snapshot(), names::KERNEL_AERIAL_CALLS);
    outcome.set("layout.generate_s", seconds);
    outcome.set("layout.clips", bench.len() as f64);
    outcome.set("layout.accept_ratio", accept_ratio(&bench, aerial));
    Ok(())
}
