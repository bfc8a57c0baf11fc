//! The fixed worker pool with a bounded job queue.
//!
//! The listener thread accepts connections and hands each one to the
//! pool; a fixed set of worker threads drains the queue. The queue is a
//! bounded `sync_channel`, so under overload `submit` fails fast and the
//! listener answers 503 instead of buffering unboundedly — back-pressure
//! is part of the contract, not an afterthought.
//!
//! Robustness (PR 6): a panic escaping the handler is caught inside the
//! worker loop — the worker counts it ([`PoolHealth`]) and keeps
//! serving. Should a worker thread die anyway, the next `submit` notices
//! the shrunken pool and respawns it, so the pool self-heals back to
//! full strength; `/stats` reports the live gauge and both counters.
//!
//! The pool is generic over the queued item so it can be unit-tested
//! with plain values, with the server instantiating `WorkerPool<TcpStream>`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Live health of a [`WorkerPool`], shared with `/stats`.
///
/// The gauge and counters are updated by the workers themselves and read
/// lock-free; the handles outlive the pool, so a stats probe racing a
/// shutdown sees a zeroed gauge rather than dangling.
#[derive(Debug, Default)]
pub struct PoolHealth {
    alive: AtomicUsize,
    panics_caught: AtomicU64,
    respawned: AtomicU64,
}

impl PoolHealth {
    /// Worker threads currently running their loop.
    pub fn alive(&self) -> usize {
        self.alive.load(Ordering::SeqCst)
    }

    /// Handler panics caught (and survived) since the pool started.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::SeqCst)
    }

    /// Workers respawned after their thread died.
    pub fn respawned(&self) -> u64 {
        self.respawned.load(Ordering::SeqCst)
    }
}

/// Everything a worker thread needs, shared so a replacement worker can
/// be spawned at any time.
struct PoolShared<T> {
    rx: Mutex<Receiver<T>>,
    handler: Box<dyn Fn(T) + Send + Sync>,
    health: Arc<PoolHealth>,
}

/// Decrements the alive gauge when a worker loop exits, however it
/// exits (clean queue-close or an unwinding thread).
struct AliveGuard<'a>(&'a PoolHealth);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.alive.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A panic payload that deliberately kills a worker *thread* (not just
/// a job), bypassing the in-loop catch. Only tests throw it — it is the
/// lever for proving the self-heal path replaces dead workers.
#[cfg(test)]
pub(crate) struct WorkerAbort;

fn worker_loop<T: Send>(shared: &PoolShared<T>) {
    let _alive = AliveGuard(&shared.health);
    loop {
        // Hold the receiver lock only for the dequeue, not while running
        // the handler. A poisoned lock (a worker killed mid-dequeue) is
        // recovered, not propagated: the channel itself stays sound.
        let item = shared
            .rx
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .recv();
        let Ok(item) = item else {
            return; // queue closed: shut down
        };
        ldiv_guard::fault::queue_entry();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (shared.handler)(item))) {
            // The job is lost but the worker survives; the connection
            // handler has its own boundary that answers 500 before a
            // panic ever reaches this catch.
            shared.health.panics_caught.fetch_add(1, Ordering::SeqCst);
            #[cfg(test)]
            if payload.downcast_ref::<WorkerAbort>().is_some() {
                return; // simulate a dying worker thread
            }
            let _ = payload;
        }
    }
}

/// A fixed pool of worker threads draining one bounded queue.
///
/// Dropping the pool closes the queue and joins every worker, so
/// in-flight items finish before the pool disappears.
pub struct WorkerPool<T: Send + 'static> {
    tx: Option<SyncSender<T>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    target_workers: usize,
    queue_depth: usize,
    shared: Arc<PoolShared<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads, each running `handler` on queued items.
    /// At most `queue_depth` items wait unclaimed (≥ 1; a depth of 0
    /// would make every submit a rendezvous and defeat the queue).
    pub fn new<F>(workers: usize, queue_depth: usize, handler: F) -> Self
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let queue_depth = queue_depth.max(1);
        let (tx, rx) = mpsc::sync_channel::<T>(queue_depth);
        let shared = Arc::new(PoolShared {
            rx: Mutex::new(rx),
            handler: Box::new(handler),
            health: Arc::new(PoolHealth::default()),
        });
        let threads = (0..workers)
            .map(|i| Self::spawn_worker(&shared, i))
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers: Mutex::new(threads),
            target_workers: workers,
            queue_depth,
            shared,
        }
    }

    fn spawn_worker(shared: &Arc<PoolShared<T>>, i: usize) -> JoinHandle<()> {
        // Count the worker alive from the moment it exists; the guard
        // inside the loop takes over the decrement.
        shared.health.alive.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("ldiv-worker-{i}"))
            .spawn(move || worker_loop(&shared))
            .expect("spawn worker thread")
    }

    /// Enqueues an item without blocking. Returns the item back when the
    /// queue is full (the caller turns this into 503) or the pool is
    /// shutting down. Submitting to a shrunken pool first respawns the
    /// dead workers, so the pool heals itself on the very next request.
    pub fn submit(&self, item: T) -> Result<(), T> {
        if self.shared.health.alive() < self.target_workers {
            self.heal();
        }
        match &self.tx {
            None => Err(item),
            Some(tx) => match tx.try_send(item) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(item)) | Err(TrySendError::Disconnected(item)) => Err(item),
            },
        }
    }

    /// Replaces every worker whose thread has exited, restoring the pool
    /// to full strength. Called automatically from [`submit`](Self::submit); public so
    /// an embedding can heal eagerly.
    pub fn heal(&self) {
        if self.tx.is_none() {
            return; // shutting down: do not resurrect workers
        }
        let mut workers = self
            .workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (i, handle) in workers.iter_mut().enumerate() {
            if handle.is_finished() {
                let dead = std::mem::replace(handle, Self::spawn_worker(&self.shared, i));
                let _ = dead.join();
                self.shared.health.respawned.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Live health counters, shared with `/stats`. The handle stays
    /// valid after the pool is gone (it then reads a zero gauge).
    pub fn health(&self) -> Arc<PoolHealth> {
        Arc::clone(&self.shared.health)
    }

    /// Number of worker threads the pool maintains.
    pub fn worker_count(&self) -> usize {
        self.target_workers
    }

    /// Capacity of the job queue.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.tx.take(); // close the queue: workers drain, then exit
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for worker in workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    #[test]
    fn all_submitted_jobs_run_across_workers() {
        let sum = Arc::new(AtomicUsize::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            WorkerPool::new(4, 16, move |v: usize| {
                sum.fetch_add(v, Ordering::SeqCst);
            })
        };
        assert_eq!(pool.health().alive(), 4);
        for v in 1..=100 {
            while pool.submit(v).is_err() {
                std::thread::yield_now(); // queue momentarily full
            }
        }
        let health = pool.health();
        drop(pool); // joins workers, so every job has run
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
        assert_eq!(health.alive(), 0, "gauge reads zero after shutdown");
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        // One worker parked on a gate; the queue (depth 2) then fills and
        // the next submits bounce back.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::new(1, 2, move |_v: usize| {
                let (lock, cvar) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
            })
        };
        // First item is picked up by the (now blocked) worker; two more
        // sit in the queue. Give the worker a moment to claim the first.
        pool.submit(0).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut queued = 0;
        while queued < 2 && std::time::Instant::now() < deadline {
            if pool.submit(1).is_ok() {
                queued += 1;
            } else {
                std::thread::yield_now();
            }
        }
        assert_eq!(queued, 2, "queue should accept its depth");
        // Worker blocked + queue full: the pool must now refuse.
        let mut rejected = false;
        for _ in 0..3 {
            if let Err(returned) = pool.submit(9) {
                assert_eq!(returned, 9);
                rejected = true;
                break;
            }
        }
        assert!(rejected, "full queue must bounce submissions");
        // Open the gate so drop() can join.
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    #[test]
    fn minimums_are_enforced() {
        let pool = WorkerPool::new(0, 0, |_: usize| {});
        assert_eq!(pool.worker_count(), 1);
        assert_eq!(pool.queue_depth(), 1);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new(2, 8, move |v: usize| {
                if v == 13 {
                    panic!("injected job panic");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        for v in [1usize, 13, 2, 13, 3] {
            while pool.submit(v).is_err() {
                std::thread::yield_now();
            }
        }
        let health = pool.health();
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 3, "clean jobs all ran");
        assert_eq!(health.panics_caught(), 2);
        assert_eq!(health.respawned(), 0, "the catch kept both workers");
    }

    #[test]
    fn a_dead_worker_is_respawned_on_the_next_submit() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new(2, 8, move |v: usize| {
                if v == usize::MAX {
                    std::panic::panic_any(WorkerAbort);
                }
                done.fetch_add(v, Ordering::SeqCst);
            })
        };
        let health = pool.health();
        pool.submit(usize::MAX).unwrap(); // kills one worker thread
        let deadline = Instant::now() + Duration::from_secs(5);
        while health.alive() == 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(health.alive(), 1, "the aborted worker is gone");
        // The next submit notices and heals back to full strength.
        while pool.submit(5).is_err() {
            std::thread::yield_now();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while health.alive() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(health.alive(), 2, "pool healed to full strength");
        assert_eq!(health.respawned(), 1);
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }
}
