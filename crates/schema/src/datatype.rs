//! XSD built-in datatypes.
//!
//! The paper's Bellflower matcher compares names only; datatypes are parsed from
//! DTD/XSD documents, carried on schema nodes and stored in repository snapshots.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A pragmatic subset of the XML Schema built-in simple types, plus the coarse
/// categories DTDs can express (`CDATA`, `ID`, `IDREF`, enumerations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum XsdType {
    String,
    NormalizedString,
    Token,
    Boolean,
    Decimal,
    Integer,
    NonNegativeInteger,
    PositiveInteger,
    Long,
    Int,
    Short,
    Byte,
    UnsignedInt,
    Float,
    Double,
    Date,
    Time,
    DateTime,
    Duration,
    GYear,
    GMonth,
    GDay,
    AnyUri,
    QName,
    Id,
    IdRef,
    Enumeration,
    Base64Binary,
    HexBinary,
    AnyType,
}

impl XsdType {
    /// The canonical `xs:` local name of the type.
    pub fn xsd_name(self) -> &'static str {
        use XsdType::*;
        match self {
            String => "string",
            NormalizedString => "normalizedString",
            Token => "token",
            Boolean => "boolean",
            Decimal => "decimal",
            Integer => "integer",
            NonNegativeInteger => "nonNegativeInteger",
            PositiveInteger => "positiveInteger",
            Long => "long",
            Int => "int",
            Short => "short",
            Byte => "byte",
            UnsignedInt => "unsignedInt",
            Float => "float",
            Double => "double",
            Date => "date",
            Time => "time",
            DateTime => "dateTime",
            Duration => "duration",
            GYear => "gYear",
            GMonth => "gMonth",
            GDay => "gDay",
            AnyUri => "anyURI",
            QName => "QName",
            Id => "ID",
            IdRef => "IDREF",
            Enumeration => "enumeration",
            Base64Binary => "base64Binary",
            HexBinary => "hexBinary",
            AnyType => "anyType",
        }
    }

    /// All type variants (useful for the synthetic generator and property tests).
    pub fn all() -> &'static [XsdType] {
        use XsdType::*;
        &[
            String,
            NormalizedString,
            Token,
            Boolean,
            Decimal,
            Integer,
            NonNegativeInteger,
            PositiveInteger,
            Long,
            Int,
            Short,
            Byte,
            UnsignedInt,
            Float,
            Double,
            Date,
            Time,
            DateTime,
            Duration,
            GYear,
            GMonth,
            GDay,
            AnyUri,
            QName,
            Id,
            IdRef,
            Enumeration,
            Base64Binary,
            HexBinary,
            AnyType,
        ]
    }
}

impl fmt::Display for XsdType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xs:{}", self.xsd_name())
    }
}

impl FromStr for XsdType {
    type Err = ();

    /// Parse an XSD type name. Accepts an optional namespace prefix (`xs:`, `xsd:`,
    /// any prefix really) and is case-insensitive, because real-world schemas are
    /// sloppy. DTD attribute types (`CDATA`, `ID`, `IDREF`, `NMTOKEN`) map onto the
    /// closest XSD equivalent. Unknown names map to an error, which callers usually
    /// turn into [`XsdType::AnyType`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let local = s.rsplit(':').next().unwrap_or(s).trim();
        let lower = local.to_ascii_lowercase();
        use XsdType::*;
        Ok(match lower.as_str() {
            "string" | "cdata" => String,
            "normalizedstring" => NormalizedString,
            "token" | "nmtoken" | "nmtokens" => Token,
            "boolean" | "bool" => Boolean,
            "decimal" => Decimal,
            "integer" | "nonpositiveinteger" | "negativeinteger" => Integer,
            "nonnegativeinteger" | "unsignedlong" | "unsignedshort" | "unsignedbyte" => {
                NonNegativeInteger
            }
            "positiveinteger" => PositiveInteger,
            "long" => Long,
            "int" => Int,
            "short" => Short,
            "byte" => Byte,
            "unsignedint" => UnsignedInt,
            "float" => Float,
            "double" => Double,
            "date" => Date,
            "time" => Time,
            "datetime" => DateTime,
            "duration" => Duration,
            "gyear" | "gyearmonth" => GYear,
            "gmonth" | "gmonthday" => GMonth,
            "gday" => GDay,
            "anyuri" => AnyUri,
            "qname" => QName,
            "id" => Id,
            "idref" | "idrefs" | "entity" | "entities" => IdRef,
            "enumeration" | "notation" => Enumeration,
            "base64binary" => Base64Binary,
            "hexbinary" => HexBinary,
            "anytype" | "anysimpletype" => AnyType,
            _ => return Err(()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_and_without_prefix() {
        assert_eq!("xs:string".parse::<XsdType>().unwrap(), XsdType::String);
        assert_eq!(
            "xsd:dateTime".parse::<XsdType>().unwrap(),
            XsdType::DateTime
        );
        assert_eq!("integer".parse::<XsdType>().unwrap(), XsdType::Integer);
        assert_eq!("CDATA".parse::<XsdType>().unwrap(), XsdType::String);
        assert_eq!("IDREF".parse::<XsdType>().unwrap(), XsdType::IdRef);
        assert!("notatype".parse::<XsdType>().is_err());
    }

    #[test]
    fn display_uses_xs_prefix() {
        assert_eq!(XsdType::PositiveInteger.to_string(), "xs:positiveInteger");
        assert_eq!(XsdType::AnyUri.to_string(), "xs:anyURI");
    }
}
