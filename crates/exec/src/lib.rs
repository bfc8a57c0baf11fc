//! Intra-run parallel execution for the `ldiversity` workspace.
//!
//! The server (`ldiv-server`) parallelizes *across* requests; this crate
//! parallelizes *within* one anonymization run. It is deliberately tiny
//! and std-only: a scoped fork-join [`Executor`] with a configurable
//! thread budget, plus the two deterministic building blocks every hot
//! path in the workspace needs —
//!
//! * [`Executor::join`] — fork-join over two closures (Mondrian's
//!   subtree recursion);
//! * [`Executor::map_chunks`] / [`Executor::map`] — an ordered parallel
//!   map over slices (Hilbert index computation, per-group reductions,
//!   chunked CSV parsing);
//! * [`Executor::sum_chunked`] — an `f64` reduction whose summation
//!   order depends **only** on a caller-fixed chunk size, never on the
//!   thread count.
//!
//! # The determinism contract
//!
//! Every parallel path in the workspace must publish **byte-identical**
//! output to its sequential counterpart (`threads = 1`) — the server's
//! publication cache, the wire format and the differential test suite
//! all rely on it. The executor is designed so that holding the contract
//! is the path of least resistance:
//!
//! * `join(a, b)` always returns `(a(), b())` in argument order, whether
//!   or not `b` ran on another thread;
//! * `map`/`map_chunks` return results in input order, regardless of
//!   which worker computed which chunk;
//! * `sum_chunked` fixes the chunk boundaries from the chunk size alone
//!   and adds the per-chunk partial sums in chunk order, so the
//!   floating-point result is bit-identical for any thread budget —
//!   including 1.
//!
//! What the executor cannot do is make a data-dependent algorithm
//! deterministic; callers keep the obligation of merging forked results
//! in a fixed order (which `join`'s tuple and `map`'s ordering make
//! automatic).
//!
//! # Thread budget
//!
//! [`Executor::new`] takes the budget directly; `0` means the machine's
//! parallelism ([`std::thread::available_parallelism`]). The budget is a
//! *global* cap for the executor and all its clones: an executor with
//! budget `t` never has more than `t` threads doing work at once, no
//! matter how deeply `join` recursion nests, because helper threads are
//! accounted by a shared permit counter.
//!
//! ```
//! use ldiv_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let items: Vec<u64> = (0..100_000).collect();
//! let par = exec.sum_chunked(&items, 4096, |&x| x as f64);
//! let seq = Executor::sequential().sum_chunked(&items, 4096, |&x| x as f64);
//! assert_eq!(par.to_bits(), seq.to_bits()); // bit-identical, not just close
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard ceiling on the thread budget; far above any sane `--threads`
/// value, it only guards against typos like `--threads 100000`.
pub const MAX_THREADS: usize = 64;

/// The panic payload [`Deadline::check`] unwinds with when the budget
/// has elapsed.
///
/// Cooperative cancellation rides the existing panic plumbing: the
/// executor's loops call [`Executor::checkpoint`] between chunks, and an
/// expired deadline unwinds the whole fork tree (scoped threads included,
/// permits restored by the guards) without threading a `Result` through
/// every hot loop. A robustness boundary — `ldiv_guard::guarded` —
/// catches the unwind, downcasts to this type and converts it into the
/// structured `DeadlineExceeded` error. The unwind is raised with
/// [`std::panic::resume_unwind`], so it does **not** invoke the panic
/// hook (no backtrace noise on an ordinary timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

/// An absolute time budget for one anonymization run.
///
/// A `Deadline` is anchored to a wall-clock [`Instant`] when created, so
/// every clone — the `Params` copy handed to each shard, every
/// `params.executor()` call along the run — expires at the *same*
/// moment; nothing re-anchors mid-run. The default ([`Deadline::none`])
/// never expires and checks are a single `Option` test, so runs without
/// a budget pay nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline {
    due: Option<Instant>,
}

impl Deadline {
    /// The unlimited deadline: never expires.
    pub const fn none() -> Self {
        Deadline { due: None }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            due: Some(Instant::now() + budget),
        }
    }

    /// A deadline `ms` milliseconds from now; `0` means unlimited.
    pub fn within_ms(ms: u64) -> Self {
        if ms == 0 {
            Deadline::none()
        } else {
            Deadline::within(Duration::from_millis(ms))
        }
    }

    /// The absolute expiry instant, when one is set.
    pub fn due(&self) -> Option<Instant> {
        self.due
    }

    /// Whether a budget is set at all.
    pub fn is_limited(&self) -> bool {
        self.due.is_some()
    }

    /// Whether the budget has elapsed.
    pub fn expired(&self) -> bool {
        matches!(self.due, Some(due) if Instant::now() >= due)
    }

    /// Time left before expiry: `None` when unlimited, zero when
    /// already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.due
            .map(|due| due.saturating_duration_since(Instant::now()))
    }

    /// Cooperative cancellation point: unwinds with [`DeadlineExceeded`]
    /// when the budget has elapsed, otherwise returns immediately. The
    /// unwind bypasses the panic hook (`resume_unwind`), so an ordinary
    /// timeout prints nothing.
    pub fn check(&self) {
        if self.expired() {
            std::panic::resume_unwind(Box::new(DeadlineExceeded));
        }
    }
}

/// A scoped fork-join executor with a fixed thread budget.
///
/// Cloning is cheap and shares the budget: a clone handed into a forked
/// subtree draws helper permits from the same pool, so the global cap
/// holds across arbitrarily nested forks.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    /// Helper-thread permits (`threads - 1` at rest). `join` and the map
    /// loops take a permit per helper thread they spawn and return it
    /// when the helper finishes, so concurrent forks share the budget
    /// instead of multiplying it.
    permits: Arc<AtomicUsize>,
    /// The run's time budget; checked between chunks and at every fork.
    deadline: Deadline,
}

impl Default for Executor {
    /// The machine's parallelism — equivalent to `Executor::new(0)`.
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// An executor with the given thread budget. `0` means the
    /// machine's available parallelism. The resolved budget is clamped
    /// to `1..=`[`MAX_THREADS`].
    pub fn new(threads: u32) -> Self {
        let resolved = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads as usize
        }
        .clamp(1, MAX_THREADS);
        Executor {
            threads: resolved,
            permits: Arc::new(AtomicUsize::new(resolved - 1)),
            deadline: Deadline::none(),
        }
    }

    /// This executor with a time budget attached. Clones share the
    /// deadline (it is an absolute instant), so a budget set at the
    /// request edge governs every nested fork of the run.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The run's time budget (unlimited by default).
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Cooperative cancellation point for code the executor cannot see
    /// inside — e.g. Mondrian's sequential recursion between forks.
    /// Unwinds with [`DeadlineExceeded`] when the budget has elapsed;
    /// free (a single `Option` test) when no deadline is set.
    pub fn checkpoint(&self) {
        self.deadline.check();
    }

    /// The sequential executor (budget 1): every `join` and `map` runs
    /// inline on the calling thread. This is the reference behaviour the
    /// parallel paths must reproduce byte-for-byte.
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// The resolved thread budget (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor may ever fan out (`threads > 1`).
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs both closures, possibly in parallel, and returns their
    /// results in argument order.
    ///
    /// When a helper permit is available `b` runs on a scoped thread
    /// while the calling thread runs `a`; otherwise both run inline,
    /// `a` first. Either way the result is exactly `(a(), b())`, so the
    /// caller's merge order — and therefore its output — is identical
    /// to the sequential run. Panics in either closure propagate.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        self.checkpoint();
        if !self.try_acquire() {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        let guard = PermitGuard {
            exec: self,
            count: 1,
        };
        // Carry the caller's trace position onto the helper thread so
        // spans recorded inside `b` parent correctly (one relaxed load
        // when tracing is disarmed).
        let trace_ctx = ldiv_obs::context();
        let out = std::thread::scope(|scope| {
            let hb = scope.spawn(move || ldiv_obs::with_context(&trace_ctx, b));
            let ra = a();
            let rb = match hb.join() {
                Ok(rb) => rb,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            (ra, rb)
        });
        drop(guard);
        out
    }

    /// Applies `f` to fixed-size chunks of `items` (the last chunk may
    /// be short), in parallel, returning the per-chunk results **in
    /// chunk order**. Chunk boundaries depend only on `chunk_size`, so
    /// any reduction the caller performs over the returned vector is
    /// independent of the thread budget.
    pub fn map_chunks<T, U>(
        &self,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(&[T]) -> U + Sync,
    ) -> Vec<U>
    where
        T: Sync,
        U: Send,
    {
        let chunk_size = chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        if n_chunks <= 1 || !self.is_parallel() {
            return items
                .chunks(chunk_size)
                .map(|c| {
                    self.checkpoint();
                    f(c)
                })
                .collect();
        }

        // Claim helper permits up to (threads - 1), but never more than
        // would leave a worker idle. The calling thread always works too.
        // The guard returns every claimed permit even when a worker
        // panic unwinds out of the scope below.
        let want_helpers = (self.threads - 1).min(n_chunks - 1);
        let mut guard = PermitGuard {
            exec: self,
            count: 0,
        };
        while guard.count < want_helpers && self.try_acquire() {
            guard.count += 1;
        }
        let helpers = guard.count;
        if helpers == 0 {
            return items
                .chunks(chunk_size)
                .map(|c| {
                    self.checkpoint();
                    f(c)
                })
                .collect();
        }

        let slots: Vec<Mutex<Option<U>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let worker = {
            let slots = &slots;
            let next = &next;
            let f = &f;
            move || loop {
                self.checkpoint();
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let lo = i * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                let value = f(&items[lo..hi]);
                *slots[i].lock().expect("chunk slot poisoned") = Some(value);
            }
        };
        // Helper threads adopt the caller's trace position; the calling
        // thread already holds it.
        let trace_ctx = ldiv_obs::context();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| scope.spawn(|| ldiv_obs::with_context(&trace_ctx, worker)))
                .collect();
            worker();
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        drop(guard);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("chunk slot poisoned")
                    .expect("every chunk claimed exactly once")
            })
            .collect()
    }

    /// An ordered parallel map: `f` over every item, results in input
    /// order. Chunk granularity is chosen automatically — use this for
    /// per-item work whose *results* are merged positionally (never for
    /// order-sensitive floating-point accumulation; that is what
    /// [`sum_chunked`](Executor::sum_chunked) is for).
    pub fn map<T, U>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U>
    where
        T: Sync,
        U: Send,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let chunk = items.len().div_ceil(self.threads * 4).max(1);
        let mut out = Vec::with_capacity(items.len());
        for part in self.map_chunks(items, chunk, |c| c.iter().map(&f).collect::<Vec<U>>()) {
            out.extend(part);
        }
        out
    }

    /// Sums `term` over `items` with a **fixed** reduction shape:
    /// per-chunk partial sums (chunk boundaries from `chunk_size` alone)
    /// added together in chunk order. The result is bit-identical for
    /// every thread budget, which is what keeps parallel KL-divergence
    /// equal to the sequential value down to the last ulp.
    pub fn sum_chunked<T: Sync>(
        &self,
        items: &[T],
        chunk_size: usize,
        term: impl Fn(&T) -> f64 + Sync,
    ) -> f64 {
        self.map_chunks(items, chunk_size, |part| {
            part.iter().map(&term).sum::<f64>()
        })
        .into_iter()
        .sum()
    }
}

/// Returns `count` taken helper permits even if the spawning scope
/// panics — without it, a caught panic would permanently shrink the
/// executor's budget and silently sequentialize later work.
struct PermitGuard<'a> {
    exec: &'a Executor,
    count: usize,
}

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        for _ in 0..self.count {
            self.exec.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_resolution_and_clamping() {
        assert_eq!(Executor::new(1).threads(), 1);
        assert!(!Executor::new(1).is_parallel());
        assert_eq!(Executor::new(6).threads(), 6);
        assert!(Executor::new(6).is_parallel());
        assert_eq!(Executor::new(1_000_000).threads(), MAX_THREADS);
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::sequential().threads(), 1);
    }

    #[test]
    fn join_returns_in_argument_order() {
        for exec in [Executor::sequential(), Executor::new(4)] {
            let (a, b) = exec.join(|| "left", || "right");
            assert_eq!((a, b), ("left", "right"));
        }
    }

    #[test]
    fn nested_joins_respect_the_budget_and_restore_permits() {
        let exec = Executor::new(3);
        let before = exec.permits.load(Ordering::SeqCst);
        // A fork tree deeper than the budget: inner joins fall back to
        // inline execution once permits run out, and results still merge
        // in argument order.
        fn tree(exec: &Executor, depth: u32, label: u64) -> Vec<u64> {
            if depth == 0 {
                return vec![label];
            }
            let (mut lo, hi) = exec.join(
                || tree(exec, depth - 1, label * 2),
                || tree(exec, depth - 1, label * 2 + 1),
            );
            lo.extend(hi);
            lo
        }
        let got = tree(&exec, 5, 1);
        let expect: Vec<u64> = (32..64).collect();
        assert_eq!(got, expect);
        assert_eq!(exec.permits.load(Ordering::SeqCst), before);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u32> = (0..10_000).collect();
        for exec in [Executor::sequential(), Executor::new(8)] {
            let got = exec.map(&items, |&x| x * 2);
            assert_eq!(got, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
        assert!(Executor::new(8).map(&[] as &[u32], |&x| x).is_empty());
    }

    #[test]
    fn map_chunks_boundaries_are_thread_independent() {
        let items: Vec<u32> = (0..1000).collect();
        let shape = |exec: &Executor| exec.map_chunks(&items, 64, |c| (c.len(), c[0]));
        let seq = shape(&Executor::sequential());
        let par = shape(&Executor::new(7));
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 16);
        assert_eq!(seq[15], (1000 - 15 * 64, 15 * 64));
    }

    #[test]
    fn sum_chunked_is_bit_identical_across_budgets() {
        // Values chosen so naive reordering visibly changes the sum in
        // the last ulps: wide magnitude spread.
        let items: Vec<f64> = (0..50_000)
            .map(|i| ((i * 2654435761u64) % 1_000_003) as f64 * 1e-7 + 1e3 / (i + 1) as f64)
            .collect();
        let reference = Executor::sequential().sum_chunked(&items, 4096, |&x| x.sin());
        for threads in [2u32, 3, 8] {
            let got = Executor::new(threads).sum_chunked(&items, 4096, |&x| x.sin());
            assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn deadline_defaults_to_unlimited_and_checks_are_free() {
        let d = Deadline::none();
        assert!(!d.is_limited());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        d.check(); // no-op, must not unwind
        assert_eq!(Deadline::within_ms(0), Deadline::none());
        let exec = Executor::new(4);
        assert!(!exec.deadline().is_limited());
        exec.checkpoint();
    }

    #[test]
    fn expired_deadline_unwinds_with_the_typed_payload() {
        let d = Deadline::within(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.is_limited() && d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let caught = std::panic::catch_unwind(|| d.check()).unwrap_err();
        assert!(caught.downcast_ref::<DeadlineExceeded>().is_some());
    }

    #[test]
    fn executor_loops_observe_the_deadline_and_restore_permits() {
        let items: Vec<u32> = (0..10_000).collect();
        for threads in [1u32, 4] {
            let exec = Executor::new(threads).with_deadline(Deadline::within(Duration::ZERO));
            std::thread::sleep(Duration::from_millis(2));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.map_chunks(&items, 64, |c| c.len());
            }))
            .unwrap_err();
            assert!(
                caught.downcast_ref::<DeadlineExceeded>().is_some(),
                "threads = {threads}"
            );
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.join(|| (), || ());
            }))
            .unwrap_err();
            assert!(caught.downcast_ref::<DeadlineExceeded>().is_some());
            // The unwinds returned every claimed permit.
            assert_eq!(exec.permits.load(Ordering::SeqCst), exec.threads() - 1);
        }
    }

    #[test]
    fn generous_deadline_does_not_disturb_results() {
        let items: Vec<u32> = (0..5_000).collect();
        let exec = Executor::new(4).with_deadline(Deadline::within(Duration::from_secs(600)));
        assert_eq!(
            exec.map(&items, |&x| x + 1),
            items.iter().map(|&x| x + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn panics_propagate_from_forked_work() {
        let exec = Executor::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.join(|| (), || panic!("forked panic"));
        }));
        assert!(caught.is_err());
        // The permit taken by the panicking join is returned.
        assert_eq!(exec.permits.load(Ordering::SeqCst), exec.threads() - 1);

        let items: Vec<u32> = (0..100).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.map(&items, |&x| if x == 57 { panic!("map panic") } else { x });
        }));
        assert!(caught.is_err());
        // Map helpers' permits are returned too: the executor still fans
        // out after a caught panic instead of silently running sequential.
        assert_eq!(exec.permits.load(Ordering::SeqCst), exec.threads() - 1);
    }
}
