//! Robustness layer for the `ldiversity` workspace.
//!
//! The mechanisms are served over HTTP to untrusted callers
//! (`ldiv-server`); a single panic inside one must never take a pool
//! worker, the publication cache or the whole process with it, and a
//! runaway run must be cancellable. This crate is the thin seam the
//! service stack threads those guarantees through:
//!
//! * [`guarded`] — the panic-isolation boundary: runs a fallible job
//!   under [`std::panic::catch_unwind`] and converts an unwind into a
//!   structured [`LdivError`] — [`LdivError::DeadlineExceeded`] when the
//!   payload is the executor's [`DeadlineExceeded`] cancellation token,
//!   [`LdivError::Internal`] for everything else;
//! * [`fault`] — the fault-injection harness (`panic:<mechanism>`,
//!   `panic:*`, `slow:<ms>`, `queue_stall`), compiled in unconditionally
//!   but costing one relaxed load when disarmed, driving the chaos suite
//!   in `tests/chaos.rs` and the `ldiv` binary's `LDIV_FAULT`;
//! * [`signals`] — process shutdown intent: a SIGINT/SIGTERM handler
//!   setting one atomic flag the `serve` loop polls to trigger the
//!   stop-accept → drain → join sequence.
//!
//! The crate sits between `ldiv-api` and the mechanism crates: every
//! mechanism hosts a [`fault::mechanism_entry`] injection point, the
//! server and CLI wrap their jobs in [`guarded`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ldiv_api::LdivError;
use ldiv_exec::DeadlineExceeded;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod fault;
pub mod signals;

/// Runs `job` inside a panic-isolation boundary.
///
/// A clean return passes through untouched. An unwind is converted into
/// a structured error instead of propagating:
///
/// * the executor's [`DeadlineExceeded`] cancellation payload becomes
///   [`LdivError::DeadlineExceeded`] (the server maps it to 504);
/// * any other panic becomes [`LdivError::Internal`] tagged with
///   `label` and the panic message (the server maps it to 500).
///
/// `label` names the boundary in the error ("anonymize", "sweep:tds",
/// …) so an operator can tell *which* job blew up from the JSON alone.
///
/// The job's own error type passes through as itself: any `E` that an
/// [`LdivError`] converts into (a store route keeps its typed
/// not-found error); only a caught unwind is converted.
pub fn guarded<T, E: From<LdivError>>(
    label: &str,
    job: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(result) => result,
        Err(payload) => {
            let err = classify_panic(label, payload.as_ref());
            // Surface the failure on the active trace (if any) so a
            // `/trace` reader sees *why* a request's span tree stops.
            match &err {
                LdivError::DeadlineExceeded => {
                    ldiv_obs::annotate("deadline", label.to_string());
                }
                LdivError::Internal(msg) => ldiv_obs::annotate("panic", msg.clone()),
                _ => {}
            }
            Err(err.into())
        }
    }
}

/// Classifies a caught panic payload the way [`guarded`] does — exposed
/// for boundaries that hold the payload themselves (a joined thread, a
/// worker-pool catch).
pub fn classify_panic(label: &str, payload: &(dyn Any + Send)) -> LdivError {
    if payload.downcast_ref::<DeadlineExceeded>().is_some() {
        return LdivError::DeadlineExceeded;
    }
    LdivError::Internal(format!("panic in {label}: {}", panic_message(payload)))
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// literal or a formatted string; anything else is opaque).
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_exec::{Deadline, Executor};
    use std::time::Duration;

    #[test]
    fn guarded_passes_clean_results_through() {
        assert_eq!(guarded::<_, LdivError>("ok", || Ok(41 + 1)), Ok(42));
        let err = guarded::<u32, _>("err", || Err(LdivError::InvalidL(0))).unwrap_err();
        assert_eq!(err, LdivError::InvalidL(0));
    }

    #[test]
    fn guarded_converts_panics_to_internal_with_the_label() {
        let err = guarded::<(), LdivError>("boom-job", || panic!("injected {}", 7)).unwrap_err();
        match err {
            LdivError::Internal(msg) => {
                assert!(
                    msg.contains("boom-job") && msg.contains("injected 7"),
                    "{msg}"
                );
            }
            other => panic!("wrong class: {other:?}"),
        }
    }

    #[test]
    fn guarded_converts_deadline_unwinds_to_the_typed_error() {
        let exec = Executor::new(1).with_deadline(Deadline::within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let err = guarded::<(), LdivError>("deadline", || {
            exec.checkpoint();
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, LdivError::DeadlineExceeded);
    }

    #[test]
    fn guarded_catches_deadline_unwinds_from_forked_threads() {
        // The unwind crosses a scoped-thread join inside the executor
        // and must still classify as DeadlineExceeded at the boundary.
        let items: Vec<u32> = (0..100_000).collect();
        let exec = Executor::new(4).with_deadline(Deadline::within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let err = guarded("forked", || {
            let v = exec.map_chunks(&items, 64, |c| c.len());
            Ok::<_, LdivError>(v.len())
        })
        .unwrap_err();
        assert_eq!(err, LdivError::DeadlineExceeded);
    }

    #[test]
    fn panic_message_handles_all_payload_shapes() {
        assert_eq!(panic_message(&"literal"), "literal");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
