//! Batching transparency over real sockets: 32 concurrent clients hammering
//! `/score` must each receive responses bit-identical to scoring their rows
//! alone, and the admission-control layers must speak proper HTTP (429/503
//! with `Retry-After`, JSON error bodies echoing the request id).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use hotspot_serve::{
    BatchOptions, BootstrapConfig, ErrorBody, HttpClient, MicroBatcher, ScoreResponse, ServeApp,
    ServeOptions, SubmitError, SystemClock,
};
use hotspot_telemetry::MetricsRegistry;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lithohd-serve-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn tiny_bootstrap() -> BootstrapConfig {
    BootstrapConfig {
        benchmark: "iccad16_2".to_string(),
        scale: 0.25,
        seed: 11,
        epochs: 2,
    }
}

/// Deterministic pseudo-random feature row for (client, request, row).
fn row(dim: usize, client: usize, request: usize, index: usize) -> Vec<f32> {
    (0..dim)
        .map(|c| (((client * 9973 + request * 131 + index * 17 + c) as f32) * 0.0137).sin())
        .collect()
}

fn score_body(request_id: &str, rows: &[Vec<f32>]) -> String {
    let features: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|v| format!("{}", *v as f64)).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!(
        r#"{{"request_id":"{request_id}","features":[{}]}}"#,
        features.join(",")
    )
}

#[test]
fn thirty_two_clients_get_bitwise_batch_size_one_responses() {
    let mut app = ServeApp::start(ServeOptions {
        threads: 8,
        batch: BatchOptions {
            max_batch: 16,
            max_delay: Duration::from_millis(3),
            ..BatchOptions::default()
        },
        bootstrap: tiny_bootstrap(),
        sessions_dir: scratch("batching-sessions"),
        ..ServeOptions::default()
    })
    .expect("start app");
    let addr = app.local_addr().to_string();
    let scorer = app.scorer();
    let dim = scorer.input_dim();

    const CLIENTS: usize = 32;
    const REQUESTS: usize = 3;
    let mut handles = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut http =
                HttpClient::connect(&addr, Duration::from_secs(30)).expect("connect client");
            let mut collected = Vec::new();
            for request in 0..REQUESTS {
                let rows: Vec<Vec<f32>> = (0..2).map(|i| row(dim, client, request, i)).collect();
                let request_id = format!("c{client}-r{request}");
                let response = http
                    .post_json("/score", &score_body(&request_id, &rows))
                    .expect("post /score");
                assert_eq!(response.status, 200, "body: {}", response.body);
                let parsed: ScoreResponse =
                    serde_json::from_str(&response.body).expect("parse score response");
                assert_eq!(parsed.request_id, request_id, "request id echo");
                assert_eq!(parsed.scores.len(), rows.len(), "per-request order/shape");
                collected.push((rows, parsed.scores));
            }
            collected
        }));
    }

    for handle in handles {
        for (rows, scores) in handle.join().expect("client thread") {
            for (row, got) in rows.iter().zip(&scores) {
                let reference = scorer
                    .score_rows(std::slice::from_ref(row))
                    .expect("reference scoring");
                let want = &reference[0];
                assert_eq!(
                    got.probability.to_bits(),
                    want.probability.to_bits(),
                    "coalesced probability differs from batch-size-1"
                );
                let got_logits: Vec<u32> = got.logits.iter().map(|v| v.to_bits()).collect();
                let want_logits: Vec<u32> = want.logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_logits, want_logits, "logit bits differ");
                let got_scaled: Vec<u32> = got.scaled_logits.iter().map(|v| v.to_bits()).collect();
                let want_scaled: Vec<u32> =
                    want.scaled_logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_scaled, want_scaled, "scaled-logit bits differ");
                assert_eq!(got.bvsb.to_bits(), want.bvsb.to_bits(), "bvsb bits differ");
                assert_eq!(
                    got.uncertainty.to_bits(),
                    want.uncertainty.to_bits(),
                    "uncertainty bits differ"
                );
            }
        }
    }

    // The serving metrics made it to /metrics in Prometheus shape.
    let mut http = HttpClient::connect(&addr, Duration::from_secs(10)).expect("connect metrics");
    let metrics = http.get("/metrics").expect("get /metrics");
    assert_eq!(metrics.status, 200);
    for series in [
        "serve_score_requests",
        "serve_batch_flushes",
        "serve_http_requests",
    ] {
        assert!(
            metrics.body.contains(series),
            "metrics output is missing {series}"
        );
    }

    app.shutdown();
}

#[test]
fn admission_control_and_error_bodies_speak_http() {
    let mut app = ServeApp::start(ServeOptions {
        threads: 2,
        batch: BatchOptions {
            max_inflight: 0, // every submission sheds deterministically
            ..BatchOptions::default()
        },
        bootstrap: tiny_bootstrap(),
        sessions_dir: scratch("admission-sessions"),
        ..ServeOptions::default()
    })
    .expect("start app");
    let addr = app.local_addr().to_string();
    let scorer = app.scorer();
    let dim = scorer.input_dim();
    let mut http = HttpClient::connect(&addr, Duration::from_secs(30)).expect("connect");

    // Past the in-flight cap: 503 + Retry-After, error body echoes the id.
    let response = http
        .post_json("/score", &score_body("rid-7", &[row(dim, 0, 0, 0)]))
        .expect("post /score");
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse error body");
    assert_eq!(body.status, 503);
    assert_eq!(body.request_id, "rid-7");

    // Wrong method on a known path: 405 JSON, id taken from the header.
    let response = http.request("GET", "/score", None).expect("GET /score");
    assert_eq!(response.status, 405);
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse 405 body");
    assert_eq!(body.status, 405);

    // Unknown path: 404 JSON.
    let response = http.get("/no-such-route").expect("get unknown");
    assert_eq!(response.status, 404);
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse 404 body");
    assert_eq!(body.status, 404);

    // Malformed JSON: 400, id echoed from the x-request-id header.
    let stream_id = "hdr-3";
    let raw = format!(
        "POST /score HTTP/1.1\r\nHost: t\r\nx-request-id: {stream_id}\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: 9\r\n\r\nnot json!"
    );
    let response = {
        use std::io::Write;
        let mut tcp = std::net::TcpStream::connect(&addr).expect("raw connect");
        tcp.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        tcp.write_all(raw.as_bytes()).expect("write raw");
        let mut buf = String::new();
        use std::io::Read;
        tcp.take(65536).read_to_string(&mut buf).ok();
        buf
    };
    assert!(response.starts_with("HTTP/1.1 400"), "got: {response}");
    assert!(
        response.contains(&format!(r#""request_id":"{stream_id}""#)),
        "400 body must echo x-request-id, got: {response}"
    );

    // Bad shape: wrong feature width is a 400 with the body's request id.
    let response = http
        .post_json("/score", r#"{"request_id":"rid-9","features":[[1.0,2.0]]}"#)
        .expect("post bad width");
    assert_eq!(response.status, 400);
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse width body");
    assert_eq!(body.request_id, "rid-9");

    // Non-finite input: 1e39 overflows f32 to infinity. Instead of a 200
    // with a meaningless probability, a 400 names the row and column, or
    // the pixel.
    let mut cells = vec!["0".to_string(); dim];
    cells[3] = "1e39".to_string();
    let response = http
        .post_json(
            "/score",
            &format!(
                r#"{{"request_id":"rid-inf","features":[[{}]]}}"#,
                cells.join(",")
            ),
        )
        .expect("post non-finite feature");
    assert_eq!(response.status, 400);
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse feature body");
    assert_eq!(body.request_id, "rid-inf");
    assert!(body.error.contains("row 0 column 3"), "{}", body.error);
    // A finite value can still overflow once standardised: (3e38 − m) / s
    // is infinite in f32 wherever the column's spread s is below about
    // 0.88, as it is in column 4 here. That is a 400 too, not a 200.
    let mut cells = vec!["0".to_string(); dim];
    cells[4] = "3e38".to_string();
    let response = http
        .post_json(
            "/score",
            &format!(
                r#"{{"request_id":"rid-big","features":[[{}]]}}"#,
                cells.join(",")
            ),
        )
        .expect("post overflowing feature");
    assert_eq!(response.status, 400);
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse overflow body");
    assert_eq!(body.request_id, "rid-big");
    assert!(body.error.contains("row 0 column 4"), "{}", body.error);
    assert!(body.error.contains("standardised"), "{}", body.error);
    let mut pixels = vec!["0.5".to_string(); 16 * 16];
    pixels[2 * 16 + 5] = "-1e39".to_string();
    let response = http
        .post_json(
            "/score",
            &format!(
                r#"{{"request_id":"rid-px","rasters":[{{"width":16,"height":16,"pixels":[{}]}}]}}"#,
                pixels.join(",")
            ),
        )
        .expect("post non-finite pixel");
    assert_eq!(response.status, 400);
    let body: ErrorBody = serde_json::from_str(&response.body).expect("parse raster body");
    assert_eq!(body.request_id, "rid-px");
    assert!(body.error.contains("x 5, y 2"), "{}", body.error);

    // Unknown campaign names: a 400 whose message lists the valid names.
    for (request, valid) in [
        (r#"{"method":"badge"}"#, "ours, ts, qp, or random"),
        (
            r#"{"benchmark":"iccad99"}"#,
            "iccad12 or iccad16_1..iccad16_4",
        ),
    ] {
        let response = http.post_json("/session", request).expect("post /session");
        assert_eq!(response.status, 400, "{request}");
        let body: ErrorBody = serde_json::from_str(&response.body).expect("parse session body");
        assert!(body.error.contains(valid), "{request}: {}", body.error);
    }

    // Queue backpressure, deterministically: a 1-slot queue behind a batcher
    // that is busy with a multi-second forward pass refuses the next job
    // with QueueFull (the HTTP layer maps this to 429 + Retry-After).
    let batcher = Arc::new(MicroBatcher::start(
        Arc::clone(&scorer),
        Arc::new(SystemClock::new()),
        BatchOptions {
            queue_depth: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_inflight: 64,
        },
        Arc::new(MetricsRegistry::default()),
    ));
    let big: Vec<Vec<f32>> = (0..20_000).map(|i| row(dim, 9, 9, i)).collect();
    let busy = {
        let batcher = Arc::clone(&batcher);
        std::thread::spawn(move || batcher.score(big).expect("big job").expect("big scores"))
    };
    std::thread::sleep(Duration::from_millis(300)); // batcher picked the big job up
    let queued = {
        let batcher = Arc::clone(&batcher);
        let row = row(dim, 8, 8, 0);
        std::thread::spawn(move || batcher.score(vec![row]).expect("queued job"))
    };
    std::thread::sleep(Duration::from_millis(100)); // the 1-slot queue is now full
    assert_eq!(
        batcher.score(vec![row(dim, 7, 7, 0)]).unwrap_err(),
        SubmitError::QueueFull,
        "third submission must hit queue backpressure"
    );
    assert_eq!(busy.join().expect("big thread").len(), 20_000);
    assert!(queued.join().expect("queued thread").is_ok());
    batcher.shutdown();

    app.shutdown();
}
