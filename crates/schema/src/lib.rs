//! # xsm-schema — XML schema data model
//!
//! This crate provides the data model used throughout the Bellflower clustered
//! schema-matching system (a reproduction of Smiljanic et al., *Using Element
//! Clustering to Increase the Efficiency of XML Schema Matching*, ICDE 2006):
//!
//! * [`SchemaTree`] — an arena-backed rooted, ordered, labelled tree representing one
//!   XML schema (Def. 1 of the paper restricted to trees),
//! * [`SchemaNode`] — an element or attribute declaration with a name, an optional
//!   [`datatype::XsdType`], and a cardinality,
//! * [`labeling::TreeLabeling`] — the Kaplan–Milo style node labels (parent, depth,
//!   pre-order interval) from which the matcher and the clusterer compute tree
//!   (path-length) distances, built in linear time,
//! * [`parser`] — hand-written parsers for a pragmatic subset of DTD and XML Schema
//!   (XSD), plus the minimal XML tokenizer they share,
//! * [`datatype`] — the XSD built-in datatypes a node may declare.
//!
//! The crate has no I/O besides the parsers taking `&str` input; loading files is the
//! responsibility of `xsm-repo`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datatype;
pub mod error;
pub mod labeling;
pub mod node;
pub mod parser;
pub mod path;
pub mod stats;
pub mod tree;

pub use datatype::XsdType;
pub use error::SchemaError;
pub use labeling::TreeLabeling;
pub use node::{Cardinality, NodeId, NodeKind, SchemaNode};
pub use path::NodePath;
pub use tree::{SchemaTree, TreeBuilder};

/// Identifier of a tree within a forest / repository.
///
/// The repository in the paper is "a collection of a large number of trees, i.e. a
/// forest"; `TreeId` is how the rest of the system refers to one member of that forest.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TreeId(pub u32);

impl TreeId {
    /// Index form for vector-indexed storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TreeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A node address that is unique across a whole repository: tree + node within tree.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct GlobalNodeId {
    /// The tree the node belongs to.
    pub tree: TreeId,
    /// The node within that tree.
    pub node: NodeId,
}

impl GlobalNodeId {
    /// Convenience constructor.
    #[inline]
    pub fn new(tree: TreeId, node: NodeId) -> Self {
        Self { tree, node }
    }
}

impl std::fmt::Display for GlobalNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.tree, self.node)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn tree_id_display_and_index() {
        let t = TreeId(7);
        assert_eq!(t.to_string(), "t7");
        assert_eq!(t.index(), 7);
    }

    #[test]
    fn global_node_id_ordering_groups_by_tree() {
        let a = GlobalNodeId::new(TreeId(1), NodeId(9));
        let b = GlobalNodeId::new(TreeId(2), NodeId(0));
        assert!(a < b);
        assert_eq!(a.to_string(), "t1:n9");
    }
}
