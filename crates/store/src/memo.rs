//! The per-process table memo behind [`DatasetStore::load_table`].
//!
//! Segments are immutable and a manifest only ever grows by one segment
//! per append, so a dataset's table as of one segment list is the head
//! of its table under every later manifest that starts with that list.
//!
//! [`DatasetStore::load_table`]: crate::DatasetStore::load_table

use crate::SegmentInfo;
use ldiv_microdata::Table;
use std::fmt;
use std::sync::Arc;

/// The memo's bound in table values (rows × columns, QI and SA): 16 Mi
/// two-byte codes, 32 MiB.
const MEMO_VALUES: usize = 1 << 24;

struct Entry {
    dataset: u64,
    segments: Vec<SegmentInfo>,
    table: Arc<Table>,
}

/// Verified tables by dataset, least recently used first.
pub(crate) struct TableMemo {
    /// Most table values held at once ([`MEMO_VALUES`] outside tests).
    bound: usize,
    entries: Vec<Entry>,
}

impl Default for TableMemo {
    fn default() -> Self {
        TableMemo {
            bound: MEMO_VALUES,
            entries: Vec::new(),
        }
    }
}

impl TableMemo {
    /// The memoized table of `dataset` and the length of its segment
    /// list, when that list is a prefix of `segments`.
    pub(crate) fn prefix_of(
        &self,
        dataset: u64,
        segments: &[SegmentInfo],
    ) -> Option<(usize, Arc<Table>)> {
        self.entries
            .iter()
            .find(|e| e.dataset == dataset && segments.starts_with(&e.segments))
            .map(|e| (e.segments.len(), Arc::clone(&e.table)))
    }

    /// Holds `table` as `dataset`'s table as of `segments`, in place of
    /// the dataset's previous entry, and makes it the most recently used;
    /// then evicts least recently used datasets until the memo is within
    /// its bound. A table larger than the whole bound is not held. Every
    /// successful load inserts, hit or miss, so recency is that of loads.
    pub(crate) fn insert(&mut self, dataset: u64, segments: Vec<SegmentInfo>, table: Arc<Table>) {
        self.entries.retain(|e| e.dataset != dataset);
        if values(&table) > self.bound {
            return;
        }
        self.entries.push(Entry {
            dataset,
            segments,
            table,
        });
        let mut held: usize = self.entries.iter().map(|e| values(&e.table)).sum();
        while held > self.bound {
            held -= values(&self.entries.remove(0).table);
        }
    }
}

impl fmt::Debug for TableMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableMemo")
            .field("datasets", &self.entries.len())
            .finish_non_exhaustive()
    }
}

fn values(table: &Table) -> usize {
    table.len() * (table.dimensionality() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldiv_microdata::samples;

    fn segments(fingerprints: &[u64]) -> Vec<SegmentInfo> {
        fingerprints
            .iter()
            .enumerate()
            .map(|(index, &fingerprint)| SegmentInfo {
                index,
                fingerprint,
                rows: 1,
            })
            .collect()
    }

    fn held(memo: &TableMemo) -> Vec<u64> {
        memo.entries.iter().map(|e| e.dataset).collect()
    }

    #[test]
    fn a_hit_needs_the_held_list_to_be_a_prefix() {
        let mut memo = TableMemo::default();
        let table = Arc::new(samples::hospital());
        memo.insert(7, segments(&[1, 2]), Arc::clone(&table));
        let (done, hit) = memo.prefix_of(7, &segments(&[1, 2, 3])).unwrap();
        assert_eq!(done, 2);
        assert!(Arc::ptr_eq(&hit, &table));
        assert_eq!(memo.prefix_of(7, &segments(&[1, 2])).unwrap().0, 2);
        assert!(memo.prefix_of(7, &segments(&[1])).is_none());
        assert!(memo.prefix_of(7, &segments(&[1, 4, 3])).is_none());
        assert!(memo.prefix_of(8, &segments(&[1, 2, 3])).is_none());
        // A new load of the dataset replaces its entry.
        memo.insert(7, segments(&[1, 4]), table);
        assert!(memo.prefix_of(7, &segments(&[1, 2, 3])).is_none());
        assert_eq!(held(&memo), [7]);
    }

    #[test]
    fn the_least_recently_used_dataset_is_evicted_first() {
        let table = Arc::new(samples::hospital());
        let mut memo = TableMemo {
            bound: 3 * values(&table),
            entries: Vec::new(),
        };
        for dataset in [1, 2, 3] {
            memo.insert(dataset, segments(&[dataset]), Arc::clone(&table));
        }
        memo.insert(1, segments(&[1]), Arc::clone(&table));
        memo.insert(4, segments(&[4]), Arc::clone(&table));
        assert_eq!(held(&memo), [3, 1, 4]);
        // A table larger than the bound is not held, and its dataset's
        // older entry goes with the load that replaced it.
        let big = Arc::new(samples::hospital().select_rows(&[0; 40]));
        memo.insert(3, segments(&[3, 5]), big);
        assert_eq!(held(&memo), [1, 4]);
    }
}
