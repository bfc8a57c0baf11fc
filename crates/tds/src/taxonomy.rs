//! Taxonomy trees over ordered categorical domains, and cuts through them.

use ldiv_api::Recoding;
use ldiv_microdata::Value;

/// One node of a taxonomy: a contiguous range of domain values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Covered value range `[lo, hi)`.
    pub lo: u32,
    /// Exclusive upper end of the range.
    pub hi: u32,
    /// Child node ids (empty for leaves).
    pub children: Vec<usize>,
    /// Parent node id (`usize::MAX` for the root).
    pub parent: usize,
}

impl Node {
    /// Number of domain values covered.
    pub fn width(&self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the node is a single value.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A taxonomy tree over the ordered domain `0..domain_size` of one
/// attribute. Node 0 is the root (the whole domain).
///
/// The paper's datasets come without published hierarchies, so the
/// generator builds *balanced* trees: every internal node splits its range
/// into up to `fanout` near-equal parts. This mirrors how TDS is normally
/// instantiated on interval-like attributes (Age, Education years) and
/// degrades gracefully to root→leaves for tiny domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    nodes: Vec<Node>,
    /// Leaf node id per domain value.
    leaf_of: Vec<usize>,
}

impl Taxonomy {
    /// Builds a balanced taxonomy with the given fanout (≥ 2).
    pub fn balanced(domain_size: u32, fanout: u32) -> Self {
        assert!(domain_size >= 1, "empty domain");
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut nodes = vec![Node {
            lo: 0,
            hi: domain_size,
            children: Vec::new(),
            parent: usize::MAX,
        }];
        let mut leaf_of = vec![0usize; domain_size as usize];
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            let (lo, hi) = (nodes[id].lo, nodes[id].hi);
            let width = hi - lo;
            if width <= 1 {
                leaf_of[lo as usize] = id;
                continue;
            }
            let parts = fanout.min(width);
            let base = width / parts;
            let extra = width % parts;
            let mut start = lo;
            for p in 0..parts {
                let len = base + u32::from(p < extra);
                let child = Node {
                    lo: start,
                    hi: start + len,
                    children: Vec::new(),
                    parent: id,
                };
                start += len;
                let cid = nodes.len();
                nodes.push(child);
                nodes[id].children.push(cid);
                stack.push(cid);
            }
            debug_assert_eq!(start, hi);
        }
        Taxonomy { nodes, leaf_of }
    }

    /// All nodes (node 0 is the root).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// The leaf covering a value.
    pub fn leaf_of(&self, v: Value) -> usize {
        self.leaf_of[v as usize]
    }

    /// Domain size.
    pub fn domain_size(&self) -> u32 {
        self.nodes[0].hi
    }
}

/// A cut through every attribute's taxonomy: for each attribute, a set of
/// nodes whose ranges tile the domain. Values map to the unique cut node
/// covering them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Cut node ids per attribute.
    chosen: Vec<Vec<usize>>,
    /// `node_of[attr][value]` = cut node id covering the value.
    node_of: Vec<Vec<usize>>,
}

impl Cut {
    /// The fully generalized cut (each attribute at its root).
    pub fn full(taxonomies: &[Taxonomy]) -> Self {
        let chosen: Vec<Vec<usize>> = taxonomies.iter().map(|_| vec![0]).collect();
        let node_of = taxonomies
            .iter()
            .map(|t| vec![0usize; t.domain_size() as usize])
            .collect();
        Cut { chosen, node_of }
    }

    /// Cut node covering a value of an attribute.
    #[inline]
    pub fn node_of(&self, attr: usize, v: Value) -> usize {
        self.node_of[attr][v as usize]
    }

    /// Cut nodes of one attribute.
    pub fn nodes(&self, attr: usize) -> &[usize] {
        &self.chosen[attr]
    }

    /// Replaces `node` in attribute `attr`'s cut with its children.
    /// Panics if the node is not in the cut or is a leaf.
    pub fn specialize(&mut self, taxonomies: &[Taxonomy], attr: usize, node: usize) {
        let pos = self.chosen[attr]
            .iter()
            .position(|&n| n == node)
            .expect("node not in cut");
        let children = taxonomies[attr].node(node).children.clone();
        assert!(!children.is_empty(), "cannot specialize a leaf");
        self.chosen[attr].swap_remove(pos);
        for &c in &children {
            let n = taxonomies[attr].node(c);
            for v in n.lo..n.hi {
                self.node_of[attr][v as usize] = c;
            }
            self.chosen[attr].push(c);
        }
    }

    /// Converts the cut into a [`Recoding`]: one bucket per cut node,
    /// bucket ids dense per attribute.
    pub fn to_recoding(&self, taxonomies: &[Taxonomy]) -> Recoding {
        let bucket_of = self
            .chosen
            .iter()
            .enumerate()
            .map(|(attr, nodes)| {
                let mut assign = vec![0u32; taxonomies[attr].domain_size() as usize];
                for (bucket, &nid) in nodes.iter().enumerate() {
                    let n = taxonomies[attr].node(nid);
                    for v in n.lo..n.hi {
                        assign[v as usize] = bucket as u32;
                    }
                }
                assign
            })
            .collect();
        Recoding::new(bucket_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_tree_tiles_the_domain() {
        for (size, fanout) in [(7u32, 2u32), (79, 4), (2, 2), (1, 2), (9, 3)] {
            let t = Taxonomy::balanced(size, fanout);
            // Every value has a leaf, and each internal node's children
            // tile its range.
            for v in 0..size {
                let leaf = t.node(t.leaf_of(v as Value));
                assert_eq!((leaf.lo, leaf.hi), (v, v + 1));
            }
            for (id, n) in t.nodes().iter().enumerate() {
                if n.is_leaf() {
                    continue;
                }
                let mut covered: Vec<(u32, u32)> = n
                    .children
                    .iter()
                    .map(|&c| (t.node(c).lo, t.node(c).hi))
                    .collect();
                covered.sort_unstable();
                assert_eq!(covered.first().unwrap().0, n.lo, "node {id}");
                assert_eq!(covered.last().unwrap().1, n.hi);
                for w in covered.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap in node {id}");
                }
            }
        }
    }

    #[test]
    fn fanout_caps_children() {
        let t = Taxonomy::balanced(79, 4);
        for n in t.nodes() {
            assert!(n.children.len() <= 4);
        }
    }

    #[test]
    fn cut_specialization_updates_mapping() {
        let taxes = vec![Taxonomy::balanced(6, 2)];
        let mut cut = Cut::full(&taxes);
        assert_eq!(cut.node_of(0, 5), 0);
        cut.specialize(&taxes, 0, 0);
        assert_eq!(cut.nodes(0).len(), 2);
        // Values 0..3 and 3..6 now map to the two children.
        assert_ne!(cut.node_of(0, 0), cut.node_of(0, 5));
        assert_eq!(cut.node_of(0, 0), cut.node_of(0, 2));
    }

    #[test]
    fn recoding_round_trip() {
        let taxes = vec![Taxonomy::balanced(6, 2), Taxonomy::balanced(2, 2)];
        let mut cut = Cut::full(&taxes);
        cut.specialize(&taxes, 0, 0);
        let rec = cut.to_recoding(&taxes);
        assert_eq!(rec.bucket_count(0), 2);
        assert_eq!(rec.bucket_count(1), 1);
        assert_eq!(rec.bucket_width(0, 0), 3);
        assert_eq!(rec.bucket_width(1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "leaf")]
    fn specializing_leaf_panics() {
        let taxes = vec![Taxonomy::balanced(2, 2)];
        let mut cut = Cut::full(&taxes);
        cut.specialize(&taxes, 0, 0); // root → two leaves
        let leaf = cut.nodes(0)[0];
        cut.specialize(&taxes, 0, leaf);
    }
}
