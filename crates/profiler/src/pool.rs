//! A fixed worker pool with a bounded queue and graceful shutdown — the
//! concurrency substrate of `tbd serve` and the `tbd watch` HTTP front.
//!
//! Deliberately minimal and std-only: N threads block on one
//! condvar-guarded [`VecDeque`]. [`WorkerPool::submit`] never blocks —
//! when the queue is at capacity it returns [`SubmitError::QueueFull`]
//! so callers can shed load explicitly (the HTTP fronts answer `503`)
//! instead of letting requests pile up unbounded. Shutdown is *draining*:
//! every job already accepted — queued or running — completes before the
//! workers exit, so an accepted query is never silently dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`WorkerPool::submit`] rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — shed load (HTTP `503`).
    QueueFull,
    /// [`WorkerPool::shutdown`] has begun; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "worker pool queue is full"),
            SubmitError::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    in_flight: usize,
    shutting_down: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    drained: Condvar,
    completed: AtomicU64,
    rejected: AtomicU64,
}

/// A fixed pool of worker threads draining one bounded FIFO queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    capacity: usize,
    worker_count: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count)
            .field("capacity", &self.capacity)
            .field("completed", &self.completed())
            .finish()
    }
}

impl WorkerPool {
    /// Starts `workers` threads (≥ 1 enforced) behind a queue holding at
    /// most `capacity` (≥ 1 enforced) not-yet-running jobs.
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), in_flight: 0, shutting_down: false }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            capacity: capacity.max(1),
            worker_count: workers,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues `job` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when `capacity` jobs are already
    /// waiting, [`SubmitError::ShuttingDown`] after [`WorkerPool::shutdown`].
    pub fn submit<F>(&self, job: F) -> Result<(), SubmitError>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        if queue.shutting_down {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        if queue.jobs.len() >= self.capacity {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull);
        }
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs finished since the pool started.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Jobs rejected (queue full or shutting down) since the pool started.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Blocks until the queue is empty and no job is running.
    pub fn wait_idle(&self) {
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        while !queue.jobs.is_empty() || queue.in_flight > 0 {
            queue = self.shared.drained.wait(queue).expect("pool queue lock");
        }
    }

    /// Graceful shutdown: stops accepting work, lets every already
    /// accepted job (queued *and* in flight) run to completion, then
    /// joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            queue.shutting_down = true;
        }
        self.shared.work_ready.notify_all();
        let mut handles = self.handles.lock().expect("pool handles lock");
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.in_flight += 1;
                    break Some(job);
                }
                if queue.shutting_down {
                    break None;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue lock");
            }
        };
        let Some(job) = job else { return };
        job();
        let mut queue = shared.queue.lock().expect("pool queue lock");
        queue.in_flight -= 1;
        shared.completed.fetch_add(1, Ordering::Relaxed);
        let idle = queue.jobs.is_empty() && queue.in_flight == 0;
        drop(queue);
        if idle {
            shared.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs_on_all_workers() {
        let pool = WorkerPool::new(4, 128);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .expect("queue has room");
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.completed(), 100);
    }

    #[test]
    fn bounded_queue_rejects_without_blocking() {
        let pool = WorkerPool::new(1, 2);
        // Park the single worker so queued jobs stay queued.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv().expect("released");
        })
        .expect("first job accepted");
        started_rx.recv().expect("worker picked up the blocker");
        pool.submit(|| {}).expect("slot 1");
        pool.submit(|| {}).expect("slot 2");
        assert_eq!(pool.submit(|| {}), Err(SubmitError::QueueFull));
        assert_eq!(pool.rejected(), 1);
        release_tx.send(()).expect("worker alive");
        pool.wait_idle();
        assert_eq!(pool.completed(), 3);
    }

    #[test]
    fn shutdown_drains_accepted_jobs_then_rejects() {
        let pool = WorkerPool::new(2, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .expect("queue has room");
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 20, "shutdown drains the queue");
        assert_eq!(pool.submit(|| {}), Err(SubmitError::ShuttingDown));
        pool.shutdown(); // idempotent
    }
}
