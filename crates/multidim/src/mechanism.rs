//! The unified-API face of Mondrian.

use crate::boxes::BoxTable;
use crate::mondrian::mondrian_partition_with;
use ldiv_api::{LdivError, Mechanism, Params, Publication};
use ldiv_microdata::Table;

/// l-diversity-gated Mondrian through the unified [`Mechanism`] trait
/// (registry name `"mondrian"`).
///
/// The publication carries the *native* multi-dimensional boxes payload;
/// callers wanting the suppression rendering for star comparisons can
/// generalize the partition themselves (`table.generalize(partition)`),
/// exactly as the §6.2 comparison does.
pub struct MondrianMechanism;

impl Mechanism for MondrianMechanism {
    fn name(&self) -> &str {
        "mondrian"
    }

    fn description(&self) -> &str {
        "recursive median kd-splits gated by l-eligibility, boxes payload (§6.2, ref. [27])"
    }

    fn anonymize(&self, table: &Table, params: &Params) -> Result<Publication, LdivError> {
        params.validate_for(table)?;
        // The boxes payload is native here; skip mondrian_publish's
        // suppression rendering, which this path would throw away. Both
        // the recursion and the covering boxes honour the run's thread
        // budget (identical output for every budget).
        let exec = params.executor();
        ldiv_guard::fault::mechanism_entry(self.name(), &exec);
        let partition = mondrian_partition_with(table, params.l, &exec);
        let boxed = BoxTable::from_partition_with(table, &partition, &exec);
        let splits = partition.group_count().saturating_sub(1);
        let imprecision = boxed.imprecision();
        let mut publication = boxed.to_publication("mondrian");
        debug_assert_eq!(publication.partition().groups(), partition.groups());
        publication.push_note(format!("{splits} median splits, imprecision {imprecision}"));
        Ok(publication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mondrian::mondrian_partition;
    use ldiv_api::Payload;
    use ldiv_microdata::samples;

    #[test]
    fn mechanism_face_matches_mondrian_publish() {
        let t = samples::hospital();
        let p = mondrian_partition(&t, 2);
        let boxed = BoxTable::from_partition(&t, &p);
        let publication = MondrianMechanism.anonymize(&t, &Params::new(2)).unwrap();
        assert_eq!(publication.mechanism(), "mondrian");
        assert_eq!(publication.partition().groups(), p.groups());
        publication.validate(&t, 2).unwrap();
        match publication.payload() {
            Payload::Boxes(boxes) => assert_eq!(boxes.len(), boxed.groups().len()),
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn infeasible_inputs_error_cleanly() {
        let t = samples::hospital();
        assert!(MondrianMechanism.anonymize(&t, &Params::new(7)).is_err());
    }
}
