//! A sweep backend for traced runs: `emgrid-batch`'s `LocalBackend`
//! contract (persist the spec, run it through `run_job` on one worker,
//! land the result on disk before the engine sees it, poll disk-first),
//! with a span around every `run_job` call.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use emgrid_batch::{JobBackend, JobPoll, SubmitRejected};
use emgrid_runtime::{JobEngine, JobId, JobOutcome, JobStatus};
use emgrid_serve::metrics::Metrics;
use emgrid_serve::runner::{run_job, RunEnv};
use emgrid_serve::{JobSpec, JobStore};

use crate::trace::Tracer;

struct Inner {
    engine: JobEngine<String>,
    store: JobStore,
    metrics: Metrics,
    checkpoint_every: usize,
    next_id: AtomicU64,
    tracer: Arc<Tracer>,
    run: u64,
    /// The span the `run_job` spans hang under.
    parent: u64,
}

#[derive(Clone)]
pub struct TracingBackend(Arc<Inner>);

impl TracingBackend {
    pub fn open(
        state: &Path,
        checkpoint_every: usize,
        tracer: Arc<Tracer>,
        run: u64,
        parent: u64,
    ) -> std::io::Result<TracingBackend> {
        Ok(TracingBackend(Arc::new(Inner {
            engine: JobEngine::new(1, 256),
            store: JobStore::open(state)?,
            metrics: Metrics::default(),
            checkpoint_every,
            next_id: AtomicU64::new(1),
            tracer,
            run,
            parent,
        })))
    }

    /// Waits until every submitted job has left its worker, so the last
    /// handle to the engine is dropped on the caller's thread.
    pub fn drain(&self) {
        for id in 1..self.0.next_id.load(Ordering::SeqCst) {
            let _ = self.0.engine.wait_terminal(id, Duration::from_secs(60));
        }
    }

    fn enqueue(&self, id: JobId, spec: JobSpec) -> Result<(), SubmitRejected> {
        let inner = Arc::clone(&self.0);
        self.0
            .engine
            .submit_with_id(id, move |ctx| {
                let env = RunEnv {
                    store: &inner.store,
                    metrics: &inner.metrics,
                    checkpoint_every: inner.checkpoint_every,
                    cache_dir: None,
                    max_netlist_bytes: 8 * 1024 * 1024,
                    max_netlist_lines: 400_000,
                    phases: None,
                };
                let outcome =
                    inner
                        .tracer
                        .span(inner.run, Some(inner.parent), "serve.run_job", |_| {
                            run_job(&spec, ctx, &env)
                        });
                match &outcome {
                    JobOutcome::Done(result) => {
                        let _ = inner.store.write_result(ctx.id, result);
                    }
                    JobOutcome::Failed(message) => {
                        let _ = inner.store.write_error(ctx.id, message);
                    }
                    JobOutcome::Cancelled => {}
                }
                outcome
            })
            .map(|_| ())
            .map_err(|_| SubmitRejected::QueueFull)
    }
}

impl JobBackend for TracingBackend {
    fn allocate_id(&self) -> JobId {
        self.0.next_id.fetch_add(1, Ordering::SeqCst)
    }

    fn reserve_above(&self, floor: JobId) {
        self.0.next_id.fetch_max(floor + 1, Ordering::SeqCst);
    }

    fn submit(&self, id: JobId, spec: &JobSpec) -> Result<(), SubmitRejected> {
        self.0
            .store
            .write_spec(id, &spec.to_json())
            .map_err(|e| SubmitRejected::Persist(e.to_string()))?;
        self.enqueue(id, spec.clone())
    }

    fn resubmit(&self, id: JobId, spec: JobSpec) -> Result<(), SubmitRejected> {
        self.enqueue(id, spec)
    }

    fn poll(&self, id: JobId) -> JobPoll {
        let store = &self.0.store;
        if store.read_result(id).is_some() {
            return JobPoll::Done;
        }
        if let Some(message) = store.read_error(id) {
            return JobPoll::Failed(message);
        }
        match self.0.engine.status(id) {
            Some(JobStatus::Cancelled) => JobPoll::Interrupted,
            Some(JobStatus::Done | JobStatus::Failed) => {
                JobPoll::Failed("outcome was not persisted".into())
            }
            Some(_) => JobPoll::Pending,
            None if store.exists(id) => JobPoll::Unscheduled,
            None => JobPoll::Missing,
        }
    }

    fn read_result(&self, id: JobId) -> Option<Vec<u8>> {
        self.0.store.read_result(id)
    }

    fn mark_sweep(&self, id: JobId, sweep: &str) {
        let _ = self.0.store.write_sweep(id, sweep);
    }

    fn shutting_down(&self) -> bool {
        false
    }
}
