use crate::{MicrodataError, Value};
use serde::{Deserialize, Serialize};

/// A categorical attribute: a name plus the cardinality of its domain.
///
/// Values of the attribute are dense codes `0..domain_size`. Optional
/// human-readable labels can be attached for display and CSV round-trips.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    name: String,
    domain_size: u32,
    /// Optional display labels, one per code. Empty when codes are shown raw.
    labels: Vec<String>,
}

impl Attribute {
    /// Creates an attribute with raw integer codes `0..domain_size`.
    pub fn new(name: impl Into<String>, domain_size: u32) -> Self {
        Attribute {
            name: name.into(),
            domain_size,
            labels: Vec::new(),
        }
    }

    /// Creates an attribute whose codes carry display labels.
    ///
    /// The domain size is the number of labels.
    pub fn with_labels(name: impl Into<String>, labels: Vec<String>) -> Self {
        Attribute {
            name: name.into(),
            domain_size: labels.len() as u32,
            labels,
        }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cardinality of the attribute's domain.
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }

    /// Display label for a code, falling back to the code's decimal form.
    pub fn label(&self, code: Value) -> String {
        self.labels
            .get(code as usize)
            .cloned()
            .unwrap_or_else(|| code.to_string())
    }

    /// The display labels, one per code; empty when codes are shown raw.
    pub(crate) fn labels(&self) -> &[String] {
        &self.labels
    }
}

/// The shape of a microdata table: `d` QI attributes plus one SA.
///
/// Mirrors Section 3 of the paper: `T` has QI attributes `A_1..A_d` and a
/// sensitive attribute `B`, all categorical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    qi: Vec<Attribute>,
    sensitive: Attribute,
}

impl Schema {
    /// Creates a schema, validating that there is at least one QI attribute
    /// and that every domain is non-empty.
    pub fn new(qi: Vec<Attribute>, sensitive: Attribute) -> Result<Self, MicrodataError> {
        if qi.is_empty() {
            return Err(MicrodataError::InvalidSchema(
                "schema needs at least one QI attribute".into(),
            ));
        }
        for a in qi.iter().chain(std::iter::once(&sensitive)) {
            if a.domain_size == 0 {
                return Err(MicrodataError::InvalidSchema(format!(
                    "attribute '{}' has an empty domain",
                    a.name
                )));
            }
            if a.domain_size > Value::MAX as u32 + 1 {
                return Err(MicrodataError::InvalidSchema(format!(
                    "attribute '{}' domain size {} exceeds the value type",
                    a.name, a.domain_size
                )));
            }
        }
        Ok(Schema { qi, sensitive })
    }

    /// Number of QI attributes (the paper's `d`, the table dimensionality).
    pub fn dimensionality(&self) -> usize {
        self.qi.len()
    }

    /// The QI attributes, in column order.
    pub fn qi_attributes(&self) -> &[Attribute] {
        &self.qi
    }

    /// A single QI attribute.
    pub fn qi_attribute(&self, i: usize) -> &Attribute {
        &self.qi[i]
    }

    /// The sensitive attribute.
    pub fn sensitive(&self) -> &Attribute {
        &self.sensitive
    }

    /// Cardinality of the SA domain — an upper bound on the paper's `m`
    /// (the number of SA values actually present in a table).
    pub fn sa_domain_size(&self) -> u32 {
        self.sensitive.domain_size
    }

    /// Projects the schema onto a subset of QI attribute indices, keeping
    /// the SA. Used to build the paper's `SAL-d` / `OCC-d` families.
    pub fn project(&self, qi_indices: &[usize]) -> Result<Schema, MicrodataError> {
        let mut qi = Vec::with_capacity(qi_indices.len());
        for &i in qi_indices {
            let a = self.qi.get(i).ok_or_else(|| {
                MicrodataError::InvalidSchema(format!("projection index {i} out of range"))
            })?;
            qi.push(a.clone());
        }
        Schema::new(qi, self.sensitive.clone())
    }

    /// Product of all QI domain sizes: the size of the QI space. Saturates.
    pub fn qi_space_size(&self) -> u128 {
        self.qi
            .iter()
            .fold(1u128, |acc, a| acc.saturating_mul(a.domain_size as u128))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_schema() -> Schema {
        Schema::new(
            vec![Attribute::new("age", 4), Attribute::new("zip", 3)],
            Attribute::new("disease", 5),
        )
        .unwrap()
    }

    #[test]
    fn dimensionality_counts_qi_only() {
        assert_eq!(small_schema().dimensionality(), 2);
    }

    #[test]
    fn empty_qi_rejected() {
        let err = Schema::new(vec![], Attribute::new("sa", 2)).unwrap_err();
        assert!(matches!(err, MicrodataError::InvalidSchema(_)));
    }

    #[test]
    fn empty_domain_rejected() {
        let err = Schema::new(vec![Attribute::new("a", 0)], Attribute::new("sa", 2)).unwrap_err();
        assert!(matches!(err, MicrodataError::InvalidSchema(_)));
    }

    #[test]
    fn labels_round_trip() {
        let a = Attribute::with_labels("gender", vec!["M".into(), "F".into()]);
        assert_eq!(a.domain_size(), 2);
        assert_eq!(a.label(1), "F");
        assert_eq!(a.labels(), ["M", "F"]);
    }

    #[test]
    fn unlabeled_attribute_prints_codes() {
        let a = Attribute::new("age", 10);
        assert_eq!(a.label(7), "7");
    }

    #[test]
    fn projection_preserves_sa_and_order() {
        let s = small_schema();
        let p = s.project(&[1]).unwrap();
        assert_eq!(p.dimensionality(), 1);
        assert_eq!(p.qi_attribute(0).name(), "zip");
        assert_eq!(p.sensitive().name(), "disease");
    }

    #[test]
    fn projection_out_of_range_fails() {
        assert!(small_schema().project(&[5]).is_err());
    }

    #[test]
    fn qi_space_size_multiplies() {
        assert_eq!(small_schema().qi_space_size(), 12);
    }
}
