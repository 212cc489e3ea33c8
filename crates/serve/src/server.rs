//! The HTTP application: routing, error bodies, and wiring.
//!
//! [`ServeApp::start`] bootstraps the [`crate::scorer::Scorer`], spawns the
//! [`crate::batcher::MicroBatcher`] and [`crate::session::SessionManager`],
//! and mounts the route table from the crate docs on
//! [`hotspot_telemetry::serve_http`]. Every non-2xx response on an API
//! route carries a JSON [`ErrorBody`] echoing the request id (the body's
//! `request_id`, else the `x-request-id` header, else `"-"`), so a client
//! can correlate refusals under load.
//!
//! Handler threads run silenced: request handling must never leak events
//! into the canonical journal a session step has attached to the global
//! dispatcher. Serving metrics go to an instance
//! [`MetricsRegistry`] instead, which `/metrics` renders alongside the
//! process-wide snapshot.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hotspot_telemetry::{
    self as telemetry, names, serve_http, Clock, Handler, HttpOptions, HttpServer, MetricsRegistry,
    Request, Response, SystemClock,
};

use crate::api::{ErrorBody, ReadyResponse, ScoreRequest, ScoreResponse};
use crate::batcher::{BatchOptions, MicroBatcher, SubmitError};
use crate::scorer::{BootstrapConfig, Scorer};
use crate::session::SessionManager;
use crate::ServeError;

/// Everything [`ServeApp::start`] needs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port `0` lets the OS choose (see
    /// [`ServeApp::local_addr`]).
    pub addr: String,
    /// HTTP worker threads.
    pub threads: usize,
    /// Per-read socket deadline.
    pub read_timeout: Duration,
    /// Micro-batcher tuning.
    pub batch: BatchOptions,
    /// Scorer training parameters.
    pub bootstrap: BootstrapConfig,
    /// Root directory for session state.
    pub sessions_dir: PathBuf,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            read_timeout: Duration::from_secs(5),
            batch: BatchOptions::default(),
            bootstrap: BootstrapConfig::default(),
            sessions_dir: PathBuf::from("serve-sessions"),
        }
    }
}

#[derive(Debug)]
struct AppState {
    scorer: Arc<Scorer>,
    batcher: MicroBatcher,
    sessions: SessionManager,
    registry: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
    ready: AtomicBool,
}

/// A running scoring server; shuts down on drop.
#[derive(Debug)]
pub struct ServeApp {
    server: HttpServer,
    state: Arc<AppState>,
}

impl ServeApp {
    /// Bootstraps the scorer, spawns the batcher and session runner, and
    /// binds the HTTP request loop.
    ///
    /// # Errors
    ///
    /// Propagates scorer-bootstrap failures and bind errors.
    pub fn start(options: ServeOptions) -> Result<ServeApp, ServeError> {
        let registry = Arc::new(MetricsRegistry::default());
        // Bootstrap training emits kernel telemetry; a server's boot must
        // not perturb the process-global metrics that session checkpoints
        // restore and re-save.
        let scorer = {
            let _silence = telemetry::silence_thread();
            Arc::new(Scorer::bootstrap(&options.bootstrap)?)
        };
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let batcher = MicroBatcher::start(
            Arc::clone(&scorer),
            Arc::clone(&clock),
            options.batch.clone(),
            Arc::clone(&registry),
        );
        let sessions = SessionManager::start(&options.sessions_dir, Arc::clone(&registry))
            .map_err(|e| ServeError::Internal(format!("cannot start session manager: {e}")))?;
        let state = Arc::new(AppState {
            scorer,
            batcher,
            sessions,
            registry,
            clock,
            ready: AtomicBool::new(true),
        });
        let handler_state = Arc::clone(&state);
        let handler: Handler = Arc::new(move |request| handle(&handler_state, request));
        let http_options = HttpOptions {
            threads: options.threads.max(1),
            read_timeout: options.read_timeout,
            thread_name: "hotspot-serve".to_string(),
            ..HttpOptions::default()
        };
        let server = serve_http(&options.addr, http_options, handler)
            .map_err(|e| ServeError::Internal(format!("cannot bind {}: {e}", options.addr)))?;
        Ok(ServeApp { server, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The served model — tests use this as the batch-size-1 reference.
    pub fn scorer(&self) -> Arc<Scorer> {
        Arc::clone(&self.state.scorer)
    }

    /// Stops the request loop, the batcher, and the session runner.
    pub fn shutdown(&mut self) {
        self.state.ready.store(false, Ordering::Release);
        self.server.shutdown();
        self.state.batcher.shutdown();
        self.state.sessions.shutdown();
    }
}

fn handle(state: &AppState, request: &Request) -> Response {
    // Feature extraction on handler threads emits kernel telemetry;
    // silence it for the request's duration (see the module docs).
    let _silence = telemetry::silence_thread();
    state.registry.counter(names::SERVE_HTTP_REQUESTS).incr();
    let response = route(state, request);
    if response.status >= 400 {
        state.registry.counter(names::SERVE_HTTP_ERRORS).incr();
    }
    response
}

fn route(state: &AppState, request: &Request) -> Response {
    let method = request.method.as_str();
    let path = request.route_path();
    match path {
        "/healthz" | "/readyz" | "/metrics" => {
            if method != "GET" {
                return method_not_allowed(request);
            }
            match path {
                "/healthz" => Response::text(200, "ok\n"),
                "/readyz" => readyz(state),
                _ => metrics(state),
            }
        }
        "/score" => {
            if method == "POST" {
                score(state, request)
            } else {
                method_not_allowed(request)
            }
        }
        "/session" => {
            if method == "POST" {
                create_session(state, request)
            } else {
                method_not_allowed(request)
            }
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/session/") {
                let mut parts = rest.splitn(2, '/');
                let id = parts.next().unwrap_or("");
                let tail = parts.next();
                if !id.is_empty() {
                    return match (method, tail) {
                        ("GET", None) => session_reply(request, state.sessions.status(id)),
                        ("POST", Some("step")) => session_reply(request, state.sessions.step(id)),
                        ("POST", None) | ("GET", Some("step")) => method_not_allowed(request),
                        _ => not_found(request),
                    };
                }
            }
            not_found(request)
        }
    }
}

fn readyz(state: &AppState) -> Response {
    let ready = state.ready.load(Ordering::Acquire) && state.batcher.running();
    let body = ReadyResponse {
        ready,
        model_version: state.scorer.model_version().to_string(),
        calibration_version: state.scorer.calibration_version().to_string(),
    };
    let status = if ready { 200 } else { 503 };
    Response::json(status, serde_json::to_string(&body).unwrap_or_default())
}

fn metrics(state: &AppState) -> Response {
    let mut text = telemetry::render_prometheus(&telemetry::snapshot());
    text.push_str(&telemetry::render_prometheus(&state.registry.snapshot()));
    Response::text(200, text)
}

fn score(state: &AppState, request: &Request) -> Response {
    let started = state.clock.elapsed();
    let header_id = request.header("x-request-id").unwrap_or("-").to_string();
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return error_response(400, "request body is not UTF-8", &header_id),
    };
    let parsed: ScoreRequest = match serde_json::from_str(body) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &format!("bad JSON: {e}"), &header_id),
    };
    let request_id = parsed.request_id.clone().unwrap_or(header_id);
    let mut rows = parsed.features.unwrap_or_default();
    for raster in parsed.rasters.unwrap_or_default() {
        match state
            .scorer
            .raster_features(raster.width, raster.height, &raster.pixels)
        {
            Ok(row) => rows.push(row),
            Err(e) => return error_response(e.status(), &e.to_string(), &request_id),
        }
    }
    if rows.is_empty() {
        return error_response(
            400,
            "at least one of features / rasters must be non-empty",
            &request_id,
        );
    }
    // Validate before admission control, so a malformed request is a 400
    // even when the server would otherwise shed it.
    if let Err(e) = state.scorer.check_rows(&rows) {
        return error_response(e.status(), &e.to_string(), &request_id);
    }
    let clip_count = rows.len();
    match state.batcher.score(rows) {
        Ok(Ok(scores)) => {
            state.registry.counter(names::SERVE_SCORE_REQUESTS).incr();
            state
                .registry
                .counter(names::SERVE_SCORE_CLIPS)
                .add(clip_count as u64);
            let elapsed = state.clock.elapsed().saturating_sub(started);
            state
                .registry
                .histogram(names::SERVE_SCORE_SECONDS)
                .record(elapsed.as_secs_f64());
            let response = ScoreResponse {
                request_id,
                model_version: state.scorer.model_version().to_string(),
                calibration_version: state.scorer.calibration_version().to_string(),
                scores,
            };
            Response::json(200, serde_json::to_string(&response).unwrap_or_default())
        }
        // The scorer only refuses malformed rows; shape errors are the
        // client's fault even when detected inside a coalesced batch.
        Ok(Err(message)) => error_response(400, &message, &request_id),
        Err(SubmitError::QueueFull) => {
            state
                .registry
                .counter(names::SERVE_BACKPRESSURE_REJECTED)
                .incr();
            error_response(429, "scoring queue is full; retry shortly", &request_id)
                .with_header("Retry-After", "1")
        }
        Err(SubmitError::Overloaded) => {
            state.registry.counter(names::SERVE_LOAD_SHED).incr();
            error_response(503, "server is past its in-flight cap", &request_id)
                .with_header("Retry-After", "1")
        }
        Err(SubmitError::WorkerGone) => error_response(500, "scoring worker is gone", &request_id),
    }
}

fn create_session(state: &AppState, request: &Request) -> Response {
    let header_id = request.header("x-request-id").unwrap_or("-").to_string();
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) if body.trim().is_empty() => "{}",
        Ok(body) => body,
        Err(_) => return error_response(400, "request body is not UTF-8", &header_id),
    };
    let parsed = match serde_json::from_str(body) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &format!("bad JSON: {e}"), &header_id),
    };
    session_reply(request, state.sessions.create(parsed))
}

fn session_reply(
    request: &Request,
    outcome: Result<crate::api::SessionInfo, ServeError>,
) -> Response {
    let request_id = request.header("x-request-id").unwrap_or("-");
    match outcome {
        Ok(info) => Response::json(200, serde_json::to_string(&info).unwrap_or_default()),
        Err(e) => error_response(e.status(), &e.to_string(), request_id),
    }
}

fn method_not_allowed(request: &Request) -> Response {
    let request_id = request.header("x-request-id").unwrap_or("-");
    error_response(
        405,
        &format!("method {} not allowed here", request.method),
        request_id,
    )
}

fn not_found(request: &Request) -> Response {
    let request_id = request.header("x-request-id").unwrap_or("-");
    error_response(
        404,
        &format!("no route for {}", request.route_path()),
        request_id,
    )
}

fn error_response(status: u16, error: &str, request_id: &str) -> Response {
    let body = ErrorBody {
        status,
        error: error.to_string(),
        request_id: request_id.to_string(),
    };
    Response::json(status, serde_json::to_string(&body).unwrap_or_default())
}
