//! Serve labelling sessions are invariant in their shard worker count: a
//! campaign stepped to done in-process through `SessionManager` with one
//! worker writes the same canonical journal, byte for byte, as the same
//! campaign with two, and ends on the same accuracy and Litho#. Labelling
//! leaves nothing of the shard workers in the session directory.

use std::path::Path;
use std::sync::Arc;

use hotspot_serve::{SessionInfo, SessionManager, SessionRequest};
use hotspot_telemetry::MetricsRegistry;

const ITERATIONS: usize = 3;

/// Creates one iccad12 ×0.004 seed-7 campaign under `root` and steps it to
/// done, returning the final info and the session directory.
fn run_campaign(root: &Path, workers: usize) -> (SessionInfo, std::path::PathBuf) {
    let manager =
        SessionManager::start(root, Arc::new(MetricsRegistry::default())).expect("start manager");
    let created = manager
        .create(SessionRequest {
            benchmark: Some("iccad12".to_owned()),
            scale: Some(0.004),
            seed: Some(7),
            method: Some("ours".to_owned()),
            workers: Some(workers),
            iterations: Some(ITERATIONS),
        })
        .expect("create session");
    let mut last = created.clone();
    for expect_iteration in 1..=ITERATIONS {
        last = manager.step(&created.session).expect("step session");
        assert_eq!(last.iteration, expect_iteration);
        assert_eq!(last.done, expect_iteration == ITERATIONS);
    }
    manager.shutdown();
    (last, root.join(&created.session))
}

#[test]
fn session_outcome_is_invariant_in_the_worker_count() {
    let scratch = std::env::temp_dir().join(format!("lithohd-session-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let (one, dir_one) = run_campaign(&scratch.join("workers-1"), 1);
    let (two, dir_two) = run_campaign(&scratch.join("workers-2"), 2);

    assert_eq!(one.accuracy.expect("final accuracy"), two.accuracy.unwrap());
    assert_eq!(one.litho.expect("final litho"), two.litho.unwrap());
    let journal_one = std::fs::read(dir_one.join("journal.jsonl")).expect("journal, 1 worker");
    let journal_two = std::fs::read(dir_two.join("journal.jsonl")).expect("journal, 2 workers");
    assert!(
        !journal_one.is_empty(),
        "canonical journal must not be empty"
    );
    assert_eq!(
        journal_one, journal_two,
        "canonical journal depends on the worker count"
    );
    for dir in [&dir_one, &dir_two] {
        assert!(
            !dir.join("shards").exists(),
            "dead-shard recovery must not write shard state"
        );
    }

    std::fs::remove_dir_all(&scratch).ok();
}
