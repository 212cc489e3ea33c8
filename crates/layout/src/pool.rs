//! The process-lifetime helper threads that label generation candidates.
//!
//! [`map_chunks`] splits a batch into contiguous chunks and queues all but
//! the first for the helpers. The caller computes the first chunk itself,
//! then runs any later chunk no helper has claimed yet, so a call never
//! waits on a pool kept busy by another call. Results are read back chunk by
//! chunk in order, so the output does not depend on the core count or on
//! which thread ran which chunk.
//!
//! The helpers are spawned once, lazily, and live as long as the process.
//! Each new OS thread gets its own glibc malloc arena, whose pages stay
//! resident after the thread exits; threads spawned per call would leave a
//! server that generates repeatedly with more resident memory each time.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

use hotspot_telemetry::{silence_thread, thread_is_silenced};

/// A queued unit of work. Jobs catch their own panics, so a helper never
/// unwinds.
type Job = Box<dyn FnOnce() + Send>;

struct Pool {
    jobs: Sender<Job>,
    /// Kept, never joined: the helpers serve until the process exits. Tests
    /// check through them that a panicking job leaves every helper alive.
    helpers: Vec<JoinHandle<()>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let (jobs, queue) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let mut helpers = Vec::new();
        for i in 1..cores {
            let queue = Arc::clone(&queue);
            let spawned = thread::Builder::new()
                .name(format!("layout-gen-{i}"))
                .spawn(move || serve(&queue));
            // A host that refuses a thread gets fewer helpers; the callers
            // run what no helper takes.
            match spawned {
                Ok(handle) => helpers.push(handle),
                Err(_) => break,
            }
        }
        Pool { jobs, helpers }
    })
}

/// A helper's loop: run queued jobs until the queue closes.
fn serve(queue: &Mutex<Receiver<Job>>) {
    loop {
        // The guard is a temporary of this statement, so the queue is
        // unlocked while the job runs. No job runs under the lock, so a
        // poisoned lock still guards an intact receiver.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match next {
            Ok(job) => job(),
            Err(_) => return,
        }
    }
}

/// The threads a batch is spread over: the helpers and the caller.
pub(crate) fn workers() -> usize {
    pool().helpers.len() + 1
}

/// One queued chunk, shared between the caller and the helper's job.
/// Whoever claims it first runs it.
struct Chunk<T> {
    items: Vec<T>,
    claimed: AtomicBool,
}

impl<T> Chunk<T> {
    fn claim(&self) -> bool {
        // The flag publishes no data (items are immutable, results travel
        // over the reply channel); the swap only has to pick one claimant.
        !self.claimed.swap(true, Ordering::Relaxed)
    }
}

/// A chunk handed to the pool, and the channel its outcome comes back on.
struct Pending<T, R> {
    chunk: Arc<Chunk<T>>,
    reply: Receiver<thread::Result<Vec<R>>>,
}

impl<T, R> Pending<T, R> {
    /// This chunk's results: computed here if no helper has claimed the
    /// chunk yet, else the helper's reply. A helper's panic resumes here.
    fn join(self, work: &impl Fn(&[T]) -> Vec<R>) -> Vec<R> {
        if self.chunk.claim() {
            return work(&self.chunk.items);
        }
        match self.reply.recv() {
            Ok(Ok(results)) => results,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            // A helper that claimed the chunk replies before it drops the
            // sender, so this arm is not reached; recomputing keeps it total.
            Err(_) => work(&self.chunk.items),
        }
    }
}

/// Maps `items` through `work` in up to `chunks` contiguous chunks, spread
/// over the helper pool and the calling thread, and concatenates the
/// results in chunk order. `work` must be a pure function of its slice for
/// the result not to depend on `chunks`. Helpers take on the caller's
/// telemetry silence (see [`hotspot_telemetry::silence_thread`]), and a
/// panic in `work` resumes in the caller.
pub(crate) fn map_chunks<T, R, F>(items: Vec<T>, chunks: usize, work: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&[T]) -> Vec<R> + Send + Sync + 'static,
{
    let chunks = chunks.clamp(1, items.len().max(1));
    if chunks == 1 {
        return work(&items);
    }
    let work = Arc::new(work);
    let silenced = thread_is_silenced();
    let len = items.len();
    let mut items = items.into_iter();
    let mut next_chunk = |k: usize| -> Vec<T> {
        let size = (k + 1) * len / chunks - k * len / chunks;
        items.by_ref().take(size).collect()
    };
    let first = next_chunk(0);
    let pending: Vec<Pending<T, R>> = (1..chunks)
        .map(|k| {
            let chunk = Arc::new(Chunk {
                items: next_chunk(k),
                claimed: AtomicBool::new(false),
            });
            let (sender, reply) = mpsc::channel();
            let job_chunk = Arc::clone(&chunk);
            let job_work = Arc::clone(&work);
            let job: Job = Box::new(move || {
                if !job_chunk.claim() {
                    return;
                }
                let _silence = silenced.then(silence_thread);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| job_work(&job_chunk.items)));
                // The caller is gone only if it panicked on another chunk.
                let _ = sender.send(outcome);
            });
            // A send fails only with no helper left to receive; the caller
            // then claims the chunk itself.
            let _ = pool().jobs.send(job);
            Pending { chunk, reply }
        })
        .collect();
    let mut results = work(&first);
    for part in pending.into_iter().map(|p| p.join(&*work)) {
        results.extend(part);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubled(xs: &[u64]) -> Vec<u64> {
        xs.iter().map(|x| 2 * x).collect()
    }

    #[test]
    fn results_follow_item_order_for_any_chunk_count() {
        let expected: Vec<u64> = (0..10).map(|x| 2 * x).collect();
        for chunks in [0, 1, 2, 3, 7, 10, 25] {
            assert_eq!(
                map_chunks((0..10).collect(), chunks, doubled),
                expected,
                "{chunks} chunks"
            );
        }
        assert!(map_chunks(Vec::new(), 4, doubled).is_empty());
    }

    #[test]
    fn a_panicking_job_panics_in_the_caller_and_the_pool_survives() {
        if workers() < 2 {
            // One core: every chunk runs on the caller, so there is no
            // helper to panic.
            return;
        }
        // Chunk 0 (the caller's own) waits until chunk 1 has started, so
        // chunk 1 can only have run on a helper.
        let (started, wait) = mpsc::channel::<()>();
        let wait = Mutex::new(wait);
        let caught = panic::catch_unwind(|| {
            map_chunks(vec![0u64, 1], 2, move |xs: &[u64]| {
                if xs[0] == 1 {
                    let _ = started.send(());
                    panic!("chunk 1 failed");
                }
                let _ = wait.lock().unwrap_or_else(PoisonError::into_inner).recv();
                doubled(xs)
            })
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 1 failed"));
        assert!(pool().helpers.iter().all(|h| !h.is_finished()));
        assert_eq!(map_chunks((0..4).collect(), 4, doubled), vec![0, 2, 4, 6]);
    }
}
