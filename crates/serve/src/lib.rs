//! Hotspot-scoring-as-a-service.
//!
//! This crate turns the offline active-entropy pipeline into a long-running
//! server. It is built entirely on the workspace's own layers — the HTTP
//! request loop is [`hotspot_telemetry::serve_http`], the model is
//! [`hotspot_active::HotspotModel`], calibration is
//! [`hotspot_calibration::Temperature`], labelling fans out through
//! [`hotspot_shard::ShardedOracle`], and durability is
//! [`hotspot_store::CheckpointStore`] — no new dependencies.
//!
//! # Surface
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /score` | Features or rasters in, calibrated probability + temperature-scaled logits + BvSB / hotspot-aware uncertainty out. |
//! | `POST /session` | Starts a resumable active-learning campaign. |
//! | `POST /session/<id>/step` | Advances the campaign one sampling iteration through the sharded oracle. |
//! | `GET /session/<id>` | Campaign status. |
//! | `GET /healthz` | Liveness (process up). |
//! | `GET /readyz` | Readiness (model + calibration loaded, batcher running). |
//! | `GET /metrics` | Prometheus text: process-wide and `serve.*` series. |
//!
//! # Guarantees
//!
//! - **Batching is invisible**: the [`batcher::MicroBatcher`] coalesces
//!   concurrent requests into one forward pass, yet responses are
//!   bit-identical to batch-size-1 and arrive in per-request order.
//! - **Backpressure is explicit**: a full queue answers `429` with
//!   `Retry-After`; past the in-flight cap the server sheds with `503`.
//! - **Sessions survive the server**: every step commits a
//!   [`hotspot_store::CheckpointBundle`]; a killed and restarted server
//!   resumes the campaign with a byte-identical canonical journal and
//!   identical final metrics (pinned by `tests/session_chaos.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod api;
pub mod batcher;
pub mod client;
pub mod scorer;
pub mod server;
pub mod session;

pub use api::{
    ClipScore, ErrorBody, RasterInput, ReadyResponse, ScoreRequest, ScoreResponse, SessionInfo,
    SessionRequest,
};
pub use batcher::{BatchOptions, MicroBatcher, SubmitError};
pub use client::HttpClient;
/// The clock the [`MicroBatcher`] reads; re-exported from `hotspot_telemetry`.
pub use hotspot_telemetry::{Clock, SystemClock};
pub use scorer::{BootstrapConfig, Scorer};
pub use server::{ServeApp, ServeOptions};
pub use session::{SessionManager, SessionSpec};

use std::fmt;

/// Crate-wide error: every failure a route can surface.
#[derive(Debug)]
pub enum ServeError {
    /// The request was malformed (HTTP 400).
    BadInput(String),
    /// The referenced session does not exist (HTTP 404).
    NotFound(String),
    /// The request conflicts with session state, e.g. stepping a finished
    /// campaign (HTTP 409).
    Conflict(String),
    /// The active-learning substrate failed (HTTP 500).
    Active(hotspot_active::ActiveError),
    /// Anything else server-side (HTTP 500).
    Internal(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadInput(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Conflict(_) => 409,
            ServeError::Active(_) | ServeError::Internal(_) => 500,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadInput(detail) => write!(f, "bad input: {detail}"),
            ServeError::NotFound(detail) => write!(f, "not found: {detail}"),
            ServeError::Conflict(detail) => write!(f, "conflict: {detail}"),
            ServeError::Active(e) => write!(f, "active-learning error: {e}"),
            ServeError::Internal(detail) => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Active(e) => Some(e),
            _ => None,
        }
    }
}

/// Recovers the guarded value from a poisoned lock: the serving data
/// structures hold no invariants a panicked holder could have broken
/// half-way (every critical section is a single read or write).
pub(crate) fn recover<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_map_to_statuses() {
        assert_eq!(ServeError::BadInput(String::new()).status(), 400);
        assert_eq!(ServeError::NotFound(String::new()).status(), 404);
        assert_eq!(ServeError::Conflict(String::new()).status(), 409);
        assert_eq!(ServeError::Internal(String::new()).status(), 500);
    }
}
