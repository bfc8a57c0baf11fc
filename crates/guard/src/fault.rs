//! The fault-injection harness (`LDIV_FAULT` for the `ldiv` binary).
//!
//! Chaos testing needs a way to make the *real* service paths fail on
//! demand: a mechanism that panics mid-request, a run that dawdles past
//! its deadline, a worker pool whose queue backs up into 503s. The
//! injection points are compiled in unconditionally — they live on the
//! entry paths of every mechanism and the pool's dequeue — but cost a
//! single relaxed atomic load while disarmed, so production runs pay
//! nothing measurable.
//!
//! A plan is armed by [`install`]: the `ldiv` binary installs the plan
//! its `LDIV_FAULT` variable names once at startup, and `tests/chaos.rs`
//! flips faults on and off around a live in-process server. Directives
//! compose with commas: `slow:50,panic:mondrian`.
//!
//! | Directive | Effect at the injection point |
//! |---|---|
//! | `panic:<name>` | [`mechanism_entry`] panics when the mechanism is `<name>` |
//! | `panic:*` | [`mechanism_entry`] panics for every mechanism |
//! | `slow:<ms>` | [`mechanism_entry`] sleeps `<ms>` in deadline-aware slices |
//! | `queue_stall` | [`queue_entry`] (pool dequeue) stalls [`QUEUE_STALL_MS`] |

use ldiv_exec::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a `queue_stall` directive parks the pool's dequeue per job
/// — long enough for a concurrent burst to overflow a small queue into
/// 503s, short enough that a drain still completes promptly.
pub const QUEUE_STALL_MS: u64 = 250;

/// Slice width for `slow:<ms>` sleeps: the injected slowness checks the
/// run's deadline between slices, so a slowed run still surfaces its
/// 504 within one slice of the configured budget.
const SLOW_SLICE_MS: u64 = 10;

/// One fault directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the mechanism entry point; `None` matches every
    /// mechanism (`panic:*`), `Some(name)` only that registry name.
    Panic(Option<String>),
    /// Sleep this many milliseconds at the mechanism entry point.
    Slow(u64),
    /// Stall the worker pool's dequeue so the bounded queue backs up.
    QueueStall,
}

/// A parsed fault specification: zero or more directives, all of which
/// apply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses a comma-separated directive list (`panic:*`, `slow:25`,
    /// `queue_stall`). Empty input parses to the empty (disarmed) plan;
    /// an unknown or malformed directive is an error naming it.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "queue_stall" {
                faults.push(Fault::QueueStall);
            } else if let Some(name) = part.strip_prefix("panic:") {
                if name.is_empty() {
                    return Err(format!("'{part}': panic needs a mechanism name or '*'"));
                }
                faults.push(Fault::Panic((name != "*").then(|| name.to_string())));
            } else if let Some(ms) = part.strip_prefix("slow:") {
                let ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("'{part}': slow needs an integer millisecond count"))?;
                faults.push(Fault::Slow(ms));
            } else {
                return Err(format!(
                    "'{part}': expected panic:<name|*>, slow:<ms> or queue_stall"
                ));
            }
        }
        Ok(FaultPlan { faults })
    }

    /// A single-directive plan (convenience for tests).
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan {
            faults: vec![fault],
        }
    }

    /// Whether the plan holds no directives.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn panics_for(&self, name: &str) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::Panic(None) => true,
            Fault::Panic(Some(target)) => target == name,
            _ => false,
        })
    }

    fn slow_ms(&self) -> Option<u64> {
        self.faults.iter().find_map(|f| match f {
            Fault::Slow(ms) => Some(*ms),
            _ => None,
        })
    }

    fn stalls_queue(&self) -> bool {
        self.faults.contains(&Fault::QueueStall)
    }
}

// The armed flag is the fast path: injection points bail on one relaxed
// load when no plan is installed. The plan itself sits behind a mutex
// (poison-proof — this is the robustness crate).
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Installs (or with `None` clears) the process-wide fault plan; an
/// empty plan disarms too.
pub fn install(plan: Option<FaultPlan>) {
    let plan = plan.filter(|p| !p.is_empty()).map(Arc::new);
    let mut slot = PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    ARMED.store(plan.is_some(), Ordering::SeqCst);
    *slot = plan;
}

/// The currently armed plan, if any.
pub fn current() -> Option<Arc<FaultPlan>> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    PLAN.lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone()
}

/// The injection point every mechanism hosts at the top of its
/// `anonymize`: applies `slow:<ms>` (sleeping in slices that honour the
/// run's deadline via `exec`), then `panic:<name>`/`panic:*`. A no-op
/// unless a plan is armed.
pub fn mechanism_entry(name: &str, exec: &Executor) {
    let Some(plan) = current() else { return };
    if let Some(ms) = plan.slow_ms() {
        let mut left = ms;
        while left > 0 {
            exec.checkpoint();
            let step = left.min(SLOW_SLICE_MS);
            std::thread::sleep(Duration::from_millis(step));
            left -= step;
        }
        exec.checkpoint();
    }
    if plan.panics_for(name) {
        panic!("injected fault: mechanism '{name}' (LDIV_FAULT)");
    }
}

/// The injection point on the worker pool's dequeue path: a
/// `queue_stall` directive parks the worker [`QUEUE_STALL_MS`] per job
/// so a concurrent burst overflows the bounded queue into 503s. A no-op
/// unless a plan is armed.
pub fn queue_entry() {
    let Some(plan) = current() else { return };
    if plan.stalls_queue() {
        std::thread::sleep(Duration::from_millis(QUEUE_STALL_MS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_exec::{Deadline, Executor};
    use std::time::Instant;

    // The plan is process-global; every test that arms one serializes
    // here and disarms before releasing the lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn with_plan(plan: FaultPlan, body: impl FnOnce()) {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        install(Some(plan));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        install(None);
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn parsing_accepts_the_documented_grammar() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert_eq!(
            FaultPlan::parse("panic:*").unwrap(),
            FaultPlan::single(Fault::Panic(None))
        );
        assert_eq!(
            FaultPlan::parse("panic:mondrian").unwrap(),
            FaultPlan::single(Fault::Panic(Some("mondrian".into())))
        );
        assert_eq!(
            FaultPlan::parse(" slow:25 , queue_stall ").unwrap(),
            FaultPlan {
                faults: vec![Fault::Slow(25), Fault::QueueStall]
            }
        );
        for bad in ["panic:", "slow:abc", "explode", "slow:-3"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn disarmed_entry_points_are_no_ops() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        install(None);
        mechanism_entry("tp", &Executor::sequential());
        queue_entry();
    }

    #[test]
    fn panic_directive_targets_by_name_and_wildcard() {
        with_plan(FaultPlan::parse("panic:mondrian").unwrap(), || {
            mechanism_entry("tp", &Executor::sequential()); // not targeted
            let caught =
                std::panic::catch_unwind(|| mechanism_entry("mondrian", &Executor::sequential()));
            assert!(caught.is_err());
        });
        with_plan(FaultPlan::parse("panic:*").unwrap(), || {
            for name in ["tp", "tds", "anatomy"] {
                let caught =
                    std::panic::catch_unwind(|| mechanism_entry(name, &Executor::sequential()));
                assert!(caught.is_err(), "{name}");
            }
        });
    }

    #[test]
    fn slow_directive_honours_the_deadline() {
        with_plan(FaultPlan::parse("slow:5000").unwrap(), || {
            let exec =
                Executor::sequential().with_deadline(Deadline::within(Duration::from_millis(40)));
            let start = Instant::now();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mechanism_entry("tp", &exec)
            }));
            assert!(caught.is_err(), "slow run must hit the deadline");
            assert!(
                start.elapsed() < Duration::from_millis(1000),
                "cancellation must interrupt the injected sleep, took {:?}",
                start.elapsed()
            );
        });
    }

    #[test]
    fn install_overrides_and_clears() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        install(Some(FaultPlan::parse("queue_stall").unwrap()));
        assert!(current().unwrap().stalls_queue());
        install(Some(FaultPlan::default())); // empty plan disarms too
        assert!(current().is_none());
        install(None);
        assert!(current().is_none());
    }
}
