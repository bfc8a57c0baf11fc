//! `ldiv-wire` — the wire formats every response in the workspace is
//! expressed in.
//!
//! Two faces of one value model:
//!
//! * **JSON text** ([`Json`]) — deterministic, insertion-ordered
//!   rendering plus a bounded parser. This is the cache-key surface, the
//!   golden-fixture surface, and the default client surface; it moved
//!   here from `ldiv-server` so non-server consumers (the CLI, the bench
//!   harness, the binary codec) no longer reach through the service
//!   crate for a value type.
//! * **LDVW binary blocks** ([`encode`] / [`decode`]) — a compact,
//!   versioned, length-prefixed binary encoding of the same values for
//!   cached-path throughput. The decoder is one-pass, bounds-checked,
//!   and returns typed [`WireError`]s: it never panics and never
//!   allocates from a declared length it has not verified against the
//!   input (a length lie costs an error, not memory).
//!
//! The two faces are differentially equivalent by construction:
//! `decode(encode(x)) == x` for every value the workspace renders, and
//! `decode(bytes).render()` reproduces the canonical JSON text byte for
//! byte. `tests/wire_equivalence.rs` and the golden `.bin` twins gate
//! that property across every mechanism, shard count and store path.
//!
//! # Block layout (version 1)
//!
//! ```text
//! offset 0   magic      b"LDVW"            (4 bytes)
//! offset 4   version    0x01               (1 byte)
//! offset 5   length     payload byte count (u32 little-endian)
//! offset 9   payload    one tagged value
//! ```
//!
//! Values are tagged (`null` 0x00, `false` 0x01, `true` 0x02, int 0x03,
//! float 0x04, string 0x05, array 0x06, object 0x07); integers use
//! zigzag LEB128 varints, floats are 8 little-endian IEEE-754 bytes,
//! strings/arrays/objects carry LEB128 lengths/counts. Non-finite
//! floats encode as `null`, mirroring the JSON renderer, so the two
//! faces can never disagree about a value.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod block;
mod json;

pub use block::{
    decode, encode, inspect, stats, validate, BlockStats, WireError, HEADER_LEN, MAGIC,
    MAX_WIRE_DEPTH, VERSION,
};
pub use json::Json;
