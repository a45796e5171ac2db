//! Parsers turning schema documents into [`crate::SchemaTree`] forests.
//!
//! The Bellflower repository in the paper was assembled from "1700 non-recursive DTDs
//! and XML schemas" crawled from the web. To be able to ingest such a corpus, this
//! module provides hand-written, dependency-free parsers for a pragmatic subset of:
//!
//! * **DTD** ([`dtd`]) — `<!ELEMENT …>` content models and `<!ATTLIST …>` declarations,
//! * **XSD** ([`xsd`]) — global/local `xs:element`, `xs:complexType`, `xs:sequence` /
//!   `xs:choice` / `xs:all`, `xs:attribute` and named-type references,
//! * the minimal XML tokenizer ([`xml`]) the XSD parser is built on.
//!
//! The parsers aim to recover the *tree shape and names* of the schemas (which is all
//! the matching algorithms consume), not to be validating parsers. Recursive element
//! definitions are expanded up to a small depth limit and then cut, matching the
//! paper's use of *non-recursive* schemas. One document can produce several trees
//! ("one schema can have multiple roots, each represented with one tree").

pub mod dtd;
pub mod xml;
pub mod xsd;

use crate::error::Result;
use crate::tree::SchemaTree;

/// Maximum expansion depth for (accidentally) recursive definitions.
pub const MAX_EXPANSION_DEPTH: usize = 24;

/// Maximum depth of any node of a [`SchemaTree`] (root = 0). Checked wherever a
/// depth is set, so it bounds every parent climb, such as the labelling's LCA.
pub const MAX_TREE_DEPTH: u32 = 1024;

/// The schema dialect of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// A Document Type Definition.
    Dtd,
    /// A W3C XML Schema document.
    Xsd,
}

/// Guess the dialect of a schema document from its content.
pub fn sniff_dialect(input: &str) -> Dialect {
    let head: String = input.chars().take(2048).collect();
    if head.contains("<!ELEMENT") || head.contains("<!ATTLIST") {
        Dialect::Dtd
    } else if head.contains(":schema") || head.contains("<schema") {
        Dialect::Xsd
    } else {
        // Fall back on file-extension-free heuristics: XSD documents are XML.
        if head.trim_start().starts_with('<') && !head.contains("<!ELEMENT") {
            Dialect::Xsd
        } else {
            Dialect::Dtd
        }
    }
}

/// Parse a schema document of unknown dialect into a forest of trees.
pub fn parse_schema(name: &str, input: &str) -> Result<Vec<SchemaTree>> {
    match sniff_dialect(input) {
        Dialect::Dtd => dtd::parse_dtd(name, input),
        Dialect::Xsd => xsd::parse_xsd(name, input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_recognises_dtd() {
        assert_eq!(
            sniff_dialect("<!ELEMENT book (title, author)>"),
            Dialect::Dtd
        );
    }

    #[test]
    fn sniff_recognises_xsd() {
        assert_eq!(
            sniff_dialect("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\"/>"),
            Dialect::Xsd
        );
        assert_eq!(
            sniff_dialect("<schema><element name=\"a\"/></schema>"),
            Dialect::Xsd
        );
    }

    #[test]
    fn parse_schema_dispatches_on_dialect() {
        let dtd = "<!ELEMENT book (title)> <!ELEMENT title (#PCDATA)>";
        let forest = parse_schema("books.dtd", dtd).unwrap();
        assert_eq!(forest.len(), 1);
        assert!(forest[0].find_by_name("title").is_some());

        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="book">
              <xs:complexType><xs:sequence>
                <xs:element name="title" type="xs:string"/>
              </xs:sequence></xs:complexType>
            </xs:element>
        </xs:schema>"#;
        let forest = parse_schema("books.xsd", xsd).unwrap();
        assert_eq!(forest.len(), 1);
        assert!(forest[0].find_by_name("title").is_some());
    }
}
