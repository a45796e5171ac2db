//! Error types for schema construction and parsing.

use std::fmt;

/// Errors produced while building trees or parsing schema documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A node id referenced a node that does not exist in the tree.
    UnknownNode(u32),
    /// Attempted to attach a child to a node of a tree that already has a different root.
    MultipleRoots,
    /// The tree has no root (empty tree used where a rooted tree is required).
    EmptyTree,
    /// An operation would have created a cycle (parent set to a descendant).
    WouldCycle,
    /// Parse error with position (byte offset) and message.
    Parse {
        /// Byte offset in the input where the error was detected.
        offset: usize,
        /// Human readable description.
        message: String,
    },
    /// The document parsed correctly but declared no usable schema content.
    EmptyDocument,
    /// Recursion (a type or element referring to itself) beyond the supported depth.
    RecursionLimit {
        /// Name of the offending element or type.
        name: String,
    },
    /// A node would sit deeper than the tree depth limit.
    TooDeep {
        /// The limit, [`crate::parser::MAX_TREE_DEPTH`].
        limit: u32,
    },
}

impl SchemaError {
    /// Construct a parse error.
    pub fn parse(offset: usize, message: impl Into<String>) -> Self {
        SchemaError::Parse {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownNode(id) => write!(f, "unknown node id n{id}"),
            SchemaError::MultipleRoots => write!(f, "schema tree already has a root"),
            SchemaError::EmptyTree => write!(f, "schema tree is empty"),
            SchemaError::WouldCycle => write!(f, "operation would create a cycle"),
            SchemaError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SchemaError::EmptyDocument => write!(f, "document contains no schema content"),
            SchemaError::RecursionLimit { name } => {
                write!(
                    f,
                    "recursive definition of '{name}' exceeds expansion limit"
                )
            }
            SchemaError::TooDeep { limit } => {
                write!(f, "node would be deeper than the tree depth limit {limit}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SchemaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            SchemaError::UnknownNode(3).to_string(),
            "unknown node id n3"
        );
        assert_eq!(
            SchemaError::MultipleRoots.to_string(),
            "schema tree already has a root"
        );
        assert_eq!(
            SchemaError::parse(12, "unexpected '<'").to_string(),
            "parse error at byte 12: unexpected '<'"
        );
        assert_eq!(
            SchemaError::RecursionLimit {
                name: "book".into()
            }
            .to_string(),
            "recursive definition of 'book' exceeds expansion limit"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&SchemaError::EmptyTree);
    }
}
