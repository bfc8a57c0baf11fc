//! Canonical content fingerprints for tables and schemas.
//!
//! The server's publication cache keys requests by *dataset content*, not
//! by file name or upload order, so two identical CSV bodies hit the same
//! cache line. The fingerprint is a 64-bit FNV-1a hash over a canonical
//! byte serialization of the schema (attribute names, domain sizes,
//! labels) followed by every row's QI codes and SA code. Any change to
//! the schema, a single cell, or the row order changes the digest.
//!
//! FNV-1a is not cryptographic; it is a cache key, chosen because it is
//! dependency-free, deterministic across platforms and processes (unlike
//! `std::collections::hash_map::DefaultHasher`, whose seed is
//! randomized), and fast enough to re-hash multi-thousand-row uploads on
//! every request.

use crate::{Schema, Table, Value};

/// Incremental 64-bit FNV-1a hasher over canonical bytes.
///
/// Deterministic across processes and platforms, unlike the std
/// `DefaultHasher`. Every `write_*` helper length-prefixes or
/// fixed-width-encodes its input so distinct field sequences cannot
/// collide by concatenation (e.g. `("ab", "c")` vs `("a", "bc")`).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u32` in fixed-width little-endian form.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds a domain code.
    pub fn write_value(&mut self, v: Value) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u32(s.len() as u32);
        self.write_bytes(s.as_bytes())
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

pub(crate) fn hash_schema(h: &mut Fnv1a, schema: &Schema) {
    h.write_u32(schema.dimensionality() as u32);
    for attr in schema
        .qi_attributes()
        .iter()
        .chain(std::iter::once(schema.sensitive()))
    {
        h.write_str(attr.name());
        h.write_u32(attr.domain_size());
        for code in 0..attr.domain_size() {
            h.write_str(&attr.label(code as Value));
        }
    }
}

pub(crate) fn hash_table(table: &Table) -> u64 {
    let mut h = Fnv1a::new();
    hash_schema(&mut h, table.schema());
    h.write_u32(table.len() as u32);
    for (_, qi, sa) in table.rows() {
        for &v in qi {
            h.write_value(v);
        }
        h.write_value(sa);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, Attribute, TableBuilder};

    #[test]
    fn fingerprint_is_stable_across_calls_and_clones() {
        let t = samples::hospital();
        assert_eq!(t.fingerprint(), t.fingerprint());
        assert_eq!(t.clone().fingerprint(), t.fingerprint());
    }

    /// The memo changes neither equality nor the value: a clone made
    /// before the first call, and one made after it, equal the table and
    /// report its hash.
    #[test]
    fn a_clone_equals_its_table_whether_or_not_the_memo_is_filled() {
        let t = samples::hospital();
        let early = t.clone();
        assert_eq!(early, t);
        let hashed = t.fingerprint();
        assert_eq!(hashed, hash_table(&t));
        let late = t.clone();
        assert_eq!(early, t);
        assert_eq!(late, t);
        assert_eq!(early.fingerprint(), hashed);
        assert_eq!(late.fingerprint(), hashed);
        // A derived table hashes its own cells, not its source's.
        let sub = t.select_rows(&[0, 1]);
        assert_eq!(sub.fingerprint(), hash_table(&sub));
        let projected = t.project(&[0]).unwrap();
        assert_eq!(projected.fingerprint(), hash_table(&projected));
    }

    #[test]
    fn any_cell_schema_or_order_change_moves_the_fingerprint() {
        let t = samples::hospital();
        let base = t.fingerprint();

        // One flipped SA code.
        let mut b = TableBuilder::new(t.schema().clone());
        for (row, qi, sa) in t.rows() {
            let sa = if row == 3 { (sa + 1) % 2 } else { sa };
            b.push_row_unchecked(qi, sa);
        }
        assert_ne!(b.build().fingerprint(), base);

        // Same cells, different row order.
        let mut b = TableBuilder::new(t.schema().clone());
        for (_, qi, sa) in t.rows().collect::<Vec<_>>().into_iter().rev() {
            b.push_row_unchecked(qi, sa);
        }
        assert_ne!(b.build().fingerprint(), base);

        // Same cells, renamed attribute.
        let renamed = Schema::new(
            t.schema()
                .qi_attributes()
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    if i == 0 {
                        Attribute::new("renamed", a.domain_size())
                    } else {
                        a.clone()
                    }
                })
                .collect(),
            t.schema().sensitive().clone(),
        )
        .unwrap();
        let mut b = TableBuilder::new(renamed);
        for (_, qi, sa) in t.rows() {
            b.push_row_unchecked(qi, sa);
        }
        assert_ne!(b.build().fingerprint(), base);
    }

    #[test]
    fn length_prefixing_prevents_concatenation_collisions() {
        let mut a = Fnv1a::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
