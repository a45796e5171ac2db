//! The one worker pool behind every in-process serving queue.
//!
//! [`crate::MatchEngine`] and the [`crate::ShardedEngine`] router both serve
//! from a fixed set of named `std::thread` workers that drain one bounded
//! `mpsc::sync_channel` of jobs, each answered on its submitter's own reply
//! channel. The pool is generic over a per-worker state `S`, built on the
//! worker thread and reused for every job that worker serves: the engine's
//! scratch buffers, `()` for the router.
//!
//! Dropping the pool closes the queue and joins the workers **after** they
//! have answered every job already queued, so a query accepted before the drop
//! is served, never abandoned. [`crate::SwappableEngine`] relies on this to
//! drain a retired generation.

use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::engine::PendingResponse;
use crate::error::{ServiceError, ServiceResult};
use crate::query::{MatchQuery, MatchResponse};

/// One queued unit of work: the query plus the submitter's reply channel.
struct Job {
    query: MatchQuery,
    reply: SyncSender<ServiceResult<MatchResponse>>,
}

/// A fixed pool of named worker threads behind a bounded submission queue.
pub(crate) struct WorkerPool {
    /// The submission queue; taken (closed) only by `Drop`.
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// The workers' thread-name prefix, which also names the pool in errors.
    name: &'static str,
}

impl WorkerPool {
    /// Start `workers` threads (at least one) named `{name}-{i}`, behind a
    /// queue of `queue_capacity` jobs (at least one). Each worker builds its
    /// own `S` and hands it to `serve` with every query it pops.
    pub(crate) fn spawn<S, F>(
        name: &'static str,
        workers: usize,
        queue_capacity: usize,
        serve: F,
    ) -> Self
    where
        S: Default + 'static,
        F: Fn(&MatchQuery, &mut S) -> ServiceResult<MatchResponse> + Send + Sync + 'static,
    {
        let (tx, rx) = sync_channel::<Job>(queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let serve = Arc::new(serve);
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let serve = Arc::clone(&serve);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        let mut state = S::default();
                        loop {
                            // Hold the queue lock only while popping, never while
                            // serving.
                            let job = { rx.lock().unwrap().recv() };
                            // An error means the queue is closed and drained.
                            let Ok(job) = job else { break };
                            // The submitter may have dropped its handle; serving
                            // already happened, so ignore the dead channel.
                            let _ = job.reply.send(serve(&job.query, &mut state));
                        }
                    })
                    .unwrap_or_else(|e| panic!("failed to spawn a {name} worker: {e}"))
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            name,
        }
    }

    /// Number of worker threads.
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue one query, blocking while the queue is full (backpressure).
    pub(crate) fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        let (reply, rx) = sync_channel(1);
        self.queue()
            .send(Job { query, reply })
            .map_err(|_| self.gone())?;
        Ok(PendingResponse::from_channel(rx))
    }

    /// Enqueue one query without blocking: a full queue is
    /// [`ServiceError::QueueFull`].
    pub(crate) fn try_submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        let (reply, rx) = sync_channel(1);
        match self.queue().try_send(Job { query, reply }) {
            Ok(()) => Ok(PendingResponse::from_channel(rx)),
            Err(TrySendError::Full(_)) => Err(ServiceError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(self.gone()),
        }
    }

    fn queue(&self) -> &SyncSender<Job> {
        self.tx
            .as_ref()
            .expect("the queue is open until the pool drops")
    }

    /// Every worker has exited (a serving bug, not a load condition).
    fn gone(&self) -> ServiceError {
        ServiceError::internal(format!("the {} worker pool is gone", self.name))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue lets every worker answer what is already queued,
        // then exit; join them so no thread outlives what `serve` holds.
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
