//! Single-flight coalescing of identical in-flight runs.
//!
//! A burst of identical requests — the exact shape of a popular
//! published dataset — used to anonymize the same table once *per
//! concurrent request*: every miss that arrived while the first was
//! still computing missed again and recomputed. This module keys an
//! in-flight job table by the same [`CacheKey`] the publication cache
//! uses. The first miss becomes the **leader** and computes; every
//! concurrent duplicate becomes a **follower**, parks on a `Condvar`
//! under a `coalesce:wait` span, and receives a clone of the leader's
//! rendered result — byte-identical bodies, one run.
//!
//! Failure propagation is the load-bearing part. A leader that panics
//! or unwinds on an expired deadline must never strand its followers:
//! the leader's closure runs under `catch_unwind`, the payload is
//! classified through [`ldiv_guard::classify_panic`] (the same mapping
//! the request boundaries use — deadline unwinds become
//! `DeadlineExceeded`/504, anything else `Internal`/500), the classified
//! error is published to every follower, and only then is the panic
//! resumed so the leader's own `guarded` boundary sees exactly what it
//! would have seen without coalescing. Followers therefore always wake
//! with a result — never a hang — and errors are per-request values,
//! never cached.
//!
//! Flights are removed from the table *after* the leader has stored its
//! result in the publication cache (the compute closure inserts before
//! returning), so a request that misses the table finds the cache warm.
//! The residual race — probe the cache, miss, and win the key just as
//! the previous leader retires — is closed by the callers' compute
//! closures re-probing the cache under leadership.

use crate::cache::CacheKey;
use ldiv_api::LdivError;
use ldiv_guard::classify_panic;
use ldiv_wire::Json;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How [`SingleFlight::join`] resolved a key.
pub enum Outcome {
    /// This request was the leader: it ran the closure itself.
    Led(Result<Json, LdivError>),
    /// This request was a follower: it parked and received a clone of
    /// the leader's result (callers count these into
    /// `ldiv_coalesced_total`).
    Joined(Result<Json, LdivError>),
}

/// One in-flight computation: the slot followers park on.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

struct FlightState {
    /// `None` while the leader is computing; the published result after.
    result: Option<Result<Json, LdivError>>,
    /// Followers currently parked on `done`.
    waiters: usize,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState {
                result: None,
                waiters: 0,
            }),
            done: Condvar::new(),
        }
    }
}

/// The in-flight job table: at most one computation per [`CacheKey`] at
/// any instant.
pub struct SingleFlight {
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl Default for SingleFlight {
    fn default() -> Self {
        Self::new()
    }
}

impl SingleFlight {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Poison recovery, like the publication cache: a panic while the
    /// map lock was held must not wedge every later request. Map
    /// mutations are single insert/remove calls, so the state is
    /// consistent between statements.
    fn lock_map(&self) -> MutexGuard<'_, HashMap<CacheKey, Arc<Flight>>> {
        self.inflight
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_flight<'a>(&self, flight: &'a Flight) -> MutexGuard<'a, FlightState> {
        flight
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Keys with a computation currently in flight.
    pub fn in_flight(&self) -> usize {
        self.lock_map().len()
    }

    /// Followers currently parked across all flights — the gauge the
    /// storm tests (and `/stats`) read to know a fan-in has formed.
    pub fn waiting(&self) -> usize {
        let flights: Vec<Arc<Flight>> = self.lock_map().values().cloned().collect();
        flights
            .iter()
            .map(|flight| self.lock_flight(flight).waiters)
            .sum()
    }

    /// Runs `compute` for `key` exactly once across concurrent callers.
    ///
    /// The first caller for a key leads: its closure runs (under
    /// `catch_unwind`), its result is published to every concurrent
    /// caller of the same key, and a panic is re-raised afterwards so
    /// the leader's own isolation boundary classifies it exactly as it
    /// would have without coalescing. Later callers that arrive while
    /// the flight is open park under a `coalesce:wait` span and wake
    /// with a clone of the published result. `label` names the boundary
    /// for panic classification (mirrors the `guarded` label the route
    /// uses).
    pub fn join(
        &self,
        label: &str,
        key: &CacheKey,
        compute: impl FnOnce() -> Result<Json, LdivError>,
    ) -> Outcome {
        let existing = {
            let mut map = self.lock_map();
            match map.get(key) {
                Some(flight) => Some(Arc::clone(flight)),
                None => {
                    map.insert(key.clone(), Arc::new(Flight::new()));
                    None
                }
            }
        };

        let Some(flight) = existing else {
            return Outcome::Led(self.lead(label, key, compute));
        };

        // Follower: park until the leader publishes. The wait is
        // unbounded by design — the leader *always* publishes, because
        // its panics are caught and classified before being resumed, so
        // a deadline or fault on the leader surfaces here as a
        // per-follower 504/500 rather than a hang.
        let _wait = ldiv_obs::span("coalesce:wait");
        let mut state = self.lock_flight(&flight);
        state.waiters += 1;
        while state.result.is_none() {
            state = flight
                .done
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        state.waiters -= 1;
        Outcome::Joined(state.result.clone().expect("woken with a result"))
    }

    /// The leader path: compute, publish to followers, then surface the
    /// closure's own outcome (resuming its panic if it had one).
    fn lead(
        &self,
        label: &str,
        key: &CacheKey,
        compute: impl FnOnce() -> Result<Json, LdivError>,
    ) -> Result<Json, LdivError> {
        let outcome = catch_unwind(AssertUnwindSafe(compute));
        let published = match &outcome {
            Ok(result) => result.clone(),
            Err(payload) => Err(classify_panic(label, payload.as_ref())),
        };
        // Retire the flight before publishing: a new request that misses
        // the table from here on re-probes the warm cache (the compute
        // closure inserted before returning) instead of joining a
        // finished flight.
        let flight = self.lock_map().remove(key);
        if let Some(flight) = flight {
            let mut state = self.lock_flight(&flight);
            state.result = Some(published);
            flight.done.notify_all();
        }
        match outcome {
            Ok(result) => result,
            Err(payload) => resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn key(tag: u64) -> CacheKey {
        CacheKey {
            dataset: tag,
            mechanism: "test".into(),
            params: "l=2;fanout=2;shards=1".into(),
        }
    }

    #[test]
    fn concurrent_joins_run_the_closure_once() {
        let flights = SingleFlight::new();
        let runs = AtomicUsize::new(0);
        let results: Vec<(bool, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let flights = &flights;
                    let runs = &runs;
                    scope.spawn(move || {
                        let outcome = flights.join("test", &key(1), || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the
                            // other threads to arrive and park.
                            std::thread::sleep(Duration::from_millis(150));
                            Ok(Json::obj().field("v", 7u32))
                        });
                        match outcome {
                            Outcome::Led(r) => (true, r.unwrap().render()),
                            Outcome::Joined(r) => (false, r.unwrap().render()),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let leaders = results.iter().filter(|(led, _)| *led).count();
        // Exactly one leader per generation of the key; stragglers that
        // arrived after the flight retired would lead a new one, but the
        // 150 ms hold makes that window unreachable here.
        assert_eq!(leaders, 1, "exactly one leader must compute");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        for (_, body) in &results {
            assert_eq!(body, &results[0].1, "followers must get identical bytes");
        }
        assert_eq!(flights.in_flight(), 0);
        assert_eq!(flights.waiting(), 0);
    }

    #[test]
    fn distinct_keys_do_not_serialize() {
        let flights = SingleFlight::new();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let flights = &flights;
                    let runs = &runs;
                    scope.spawn(move || {
                        flights.join("test", &key(i), || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            Ok(Json::obj().field("k", i as i64))
                        })
                    })
                })
                .collect();
            for h in handles {
                let _ = h.join().unwrap();
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 4, "distinct keys all run");
    }

    #[test]
    fn leader_panic_reaches_followers_as_a_classified_error() {
        let flights = SingleFlight::new();
        let follower_errors: Vec<LdivError> = std::thread::scope(|scope| {
            let leader = {
                let flights = &flights;
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        flights.join("storm", &key(9), || {
                            std::thread::sleep(Duration::from_millis(150));
                            panic!("leader exploded");
                        })
                    }));
                    assert!(outcome.is_err(), "the leader's panic must resume");
                })
            };
            // Give the leader time to open the flight before joining.
            std::thread::sleep(Duration::from_millis(40));
            let followers: Vec<_> = (0..3)
                .map(|_| {
                    let flights = &flights;
                    scope.spawn(move || {
                        match flights
                            .join("storm", &key(9), || panic!("a follower must never compute"))
                        {
                            Outcome::Joined(Err(e)) => e,
                            other => panic!(
                                "follower expected a propagated error, got {:?}",
                                match other {
                                    Outcome::Led(r) => ("led", r),
                                    Outcome::Joined(r) => ("joined", r),
                                }
                            ),
                        }
                    })
                })
                .collect();
            let errors = followers.into_iter().map(|h| h.join().unwrap()).collect();
            leader.join().unwrap();
            errors
        });
        for e in &follower_errors {
            match e {
                LdivError::Internal(msg) => {
                    assert!(msg.contains("leader exploded"), "{msg}");
                    assert!(msg.contains("storm"), "label missing from {msg}");
                }
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        // Errors are never cached and the flight is gone: the next join
        // for the same key leads a fresh computation.
        match flights.join("storm", &key(9), || Ok(Json::obj().field("ok", true))) {
            Outcome::Led(Ok(_)) => {}
            _ => panic!("a retry after a failed flight must lead"),
        }
    }
}
