//! `ldiv-server` — the concurrent anonymization service.
//!
//! The paper frames l-diverse publication as a one-shot offline
//! computation; this crate turns the workspace's unified
//! [`Mechanism`](ldiv_api::Mechanism) registry into a service that can
//! sit in front of many consumers: a std-only HTTP/1.1 server
//! ([`Server`]) with a fixed worker pool and bounded connection queue
//! ([`WorkerPool`]), an LRU publication cache keyed by dataset content
//! fingerprint + mechanism + canonical parameters ([`LruCache`]), and a
//! deterministic JSON wire format ([`wire`]) shared with the CLI's
//! `--format json` outputs.
//!
//! # Quick start
//!
//! ```no_run
//! use ldiv_server::{Server, ServerConfig};
//!
//! // Any registry works; the facade's `standard_registry()` has all six
//! // mechanisms. Port 0 picks an ephemeral port.
//! let registry = ldiv_api::MechanismRegistry::new();
//! let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! // ... POST /anonymize, /sweep; GET /healthz, /mechanisms, /stats ...
//! server.shutdown();
//! ```
//!
//! # Design notes
//!
//! * **Back-pressure over buffering.** The connection queue is bounded;
//!   overload answers `503` immediately instead of growing a backlog.
//! * **Content-addressed caching.** Requests are keyed by what they
//!   *mean* — the dataset's canonical fingerprint
//!   ([`Table::fingerprint`](ldiv_microdata::Table::fingerprint)), the
//!   resolved mechanism name, and
//!   [`Params::canonical`](ldiv_api::Params::canonical) — so identical
//!   uploads hit regardless of client or file name, and any change to a
//!   cell, parameter or mechanism misses.
//! * **Single-flight misses.** Concurrent identical cache misses
//!   coalesce ([`SingleFlight`]): one leader anonymizes, followers park
//!   and receive the same rendered result (or the leader's classified
//!   error) — a duplicate-request storm costs one run, not fan-in runs.
//! * **Sweep parallelism is scoped.** `/sweep` fans across mechanisms
//!   with scoped threads rather than re-entering the worker pool, so a
//!   sweep can never deadlock the queue that delivered it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod coalesce;
pub mod http;
pub mod jobs;
pub mod listener;
pub mod wire;

pub use cache::{CacheKey, CacheStats, LruCache};
pub use coalesce::SingleFlight;
pub use http::{Request, Response};
pub use jobs::{PoolHealth, WorkerPool};
pub use listener::{handle_request, AppState, Server, ServerConfig};
