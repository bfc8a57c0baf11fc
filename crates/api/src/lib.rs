//! The unified anonymization contract of the `ldiversity` workspace.
//!
//! The paper's evaluation compares five publication methods — TP/TP+
//! (§5), Anatomy (§2), Mondrian (§6.2), Hilbert suppression and TDS —
//! which historically each exposed their own entry point with its own
//! output shape. This crate defines the seam they all plug into:
//!
//! * [`Mechanism`] — the object-safe trait every publication method
//!   implements (`ldiv-core`, `ldiv-anatomy`, `ldiv-multidim`,
//!   `ldiv-hilbert`, `ldiv-tds` each provide impls);
//! * [`Publication`] — the normalized output: an l-diverse
//!   [`Partition`](ldiv_microdata::Partition) plus a per-group
//!   generalization [`Payload`] (suppressed stars, covering boxes,
//!   anatomy QIT/ST, or a global recoding), so
//!   `ldiv-metrics` can account stars and the Eq. (2) KL-divergence
//!   uniformly over any mechanism;
//! * [`Params`] — the shared parameter bag (`l`, taxonomy fanout);
//! * [`MechanismRegistry`] — string-keyed dispatch (`"tp"`, `"tp+"`,
//!   `"anatomy"`, `"mondrian"`, `"hilbert"`, `"tds"`);
//! * [`LdivError`] — the workspace-wide error type with CLI exit-code
//!   discipline.
//!
//! This crate depends only on `ldiv-microdata`; the populated standard
//! registry and the `Anonymizer` builder front door live in the facade
//! crate `ldiversity`, which can see every mechanism implementation.
//!
//! ```
//! use ldiv_api::{LdivError, Mechanism, Params, Publication};
//! use ldiv_microdata::{samples, Partition, Table};
//!
//! /// A toy mechanism: publish the whole table as one suppressed group.
//! struct OneGroup;
//!
//! impl Mechanism for OneGroup {
//!     fn name(&self) -> &str {
//!         "one-group"
//!     }
//!
//!     fn anonymize(&self, table: &Table, params: &Params) -> Result<Publication, LdivError> {
//!         params.validate_for(table)?;
//!         let partition =
//!             Partition::new_unchecked(vec![(0..table.len() as u32).collect()]);
//!         Ok(Publication::suppressed(self.name(), table, partition))
//!     }
//! }
//!
//! let table = samples::hospital();
//! let publication = OneGroup.anonymize(&table, &Params::new(2)).unwrap();
//! assert!(publication.is_l_diverse(&table, 2));
//! assert_eq!(publication.star_count(), 30); // everything suppressed
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod mechanism;
mod params;
mod publication;
mod recoding;
mod registry;
pub mod repair;

pub use error::LdivError;
pub use ldiv_exec::Deadline;
pub use mechanism::Mechanism;
pub use params::{Params, MAX_SHARDS};
pub use publication::{AnatomyTables, AttrRange, Payload, Publication, SensitiveEntry};
pub use recoding::Recoding;
pub use registry::MechanismRegistry;
