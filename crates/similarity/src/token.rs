//! Element-name tokenization and token-set similarity.
//!
//! Real-world schema element names are compound: `authorName`, `author_name`,
//! `AuthorName2`, `author-name`. Splitting them into word tokens before comparison is
//! the single most effective trick in name matching (COMA, Cupid and LSD all do it).

use crate::fuzzy::compare_lower_fuzzy;

/// Split an element name into lowercase word tokens.
///
/// Boundaries: case changes (`authorName` → `author`, `name`), underscores, hyphens,
/// dots, spaces and digit/letter transitions (`address2` → `address`, `2`). Empty
/// tokens are dropped. Tokens are fully lowercased here — the one normalization
/// boundary — so downstream measures compare them without case-folding again.
pub fn tokenize(name: &str) -> Vec<String> {
    if name.is_ascii() && !crate::simd::force_scalar() {
        // Byte-level twin driven by the shufti classifier; bit-identical on
        // ASCII input (pinned by the proptest below).
        return crate::simd::tokenize_ascii(name);
    }
    tokenize_scalar(name)
}

/// The scalar reference tokenizer (all inputs, any script).
pub(crate) fn tokenize_scalar(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let chars: Vec<char> = name.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '_' || c == '-' || c == '.' || c == ' ' || c == '/' || c == ':' {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            continue;
        }
        let boundary = if current.is_empty() {
            false
        } else {
            let prev = chars[i - 1];
            // lower→Upper boundary (camelCase), letter→digit, digit→letter,
            // and Upper→Upper followed by lower (e.g. "XMLParser" → "XML", "Parser").
            (prev.is_lowercase() && c.is_uppercase())
                || (prev.is_alphabetic() && c.is_numeric())
                || (prev.is_numeric() && c.is_alphabetic())
                || (prev.is_uppercase()
                    && c.is_uppercase()
                    && chars.get(i + 1).map(|n| n.is_lowercase()).unwrap_or(false))
        };
        if boundary && !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
        current.extend(c.to_lowercase());
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Token-set similarity: greedy best-match average of per-token fuzzy similarities,
/// symmetric by averaging both directions. Identical token sets score 1.0.
pub fn token_set_similarity(a: &str, b: &str) -> f64 {
    let ta = tokenize(a);
    let tb = tokenize(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    // Tokens are already lowercase (the tokenizer is the normalization boundary),
    // so the per-token kernel skips the case-fold the public entry point performs.
    let dir = |from: &[String], to: &[String]| -> f64 {
        from.iter()
            .map(|x| {
                to.iter()
                    .map(|y| compare_lower_fuzzy(x, y))
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            / from.len() as f64
    };
    (dir(&ta, &tb) + dir(&tb, &ta)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tokenize_camel_snake_kebab() {
        assert_eq!(tokenize("authorName"), vec!["author", "name"]);
        assert_eq!(tokenize("author_name"), vec!["author", "name"]);
        assert_eq!(tokenize("author-name"), vec!["author", "name"]);
        assert_eq!(tokenize("AuthorName"), vec!["author", "name"]);
        assert_eq!(tokenize("author name"), vec!["author", "name"]);
    }

    #[test]
    fn tokenize_digits_and_acronyms() {
        assert_eq!(tokenize("address2"), vec!["address", "2"]);
        assert_eq!(tokenize("XMLSchema"), vec!["xml", "schema"]);
        assert_eq!(tokenize("ISBN10Code"), vec!["isbn", "10", "code"]);
    }

    #[test]
    fn tokenize_edge_cases() {
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("___"), Vec::<String>::new());
        assert_eq!(tokenize("x"), vec!["x"]);
        assert_eq!(tokenize("ns:book"), vec!["ns", "book"]);
    }

    #[test]
    fn token_set_similarity_reorders_tokens() {
        // Same tokens, different order and style → identical.
        assert_eq!(token_set_similarity("firstName", "name_first"), 1.0);
        assert_eq!(
            token_set_similarity("authorName", "name-of-author").round(),
            1.0f64.round()
        );
        assert!(token_set_similarity("authorName", "author") > 0.7);
        assert!(token_set_similarity("bookTitle", "shelfCode") < 0.5);
    }

    #[test]
    fn token_set_similarity_empty_inputs() {
        assert_eq!(token_set_similarity("", ""), 1.0);
        assert_eq!(token_set_similarity("", "abc"), 0.0);
        assert_eq!(token_set_similarity("_-_", "abc"), 0.0);
    }

    proptest! {
        #[test]
        fn ascii_tokenizer_equals_scalar(name in "[ -~]{0,24}") {
            // Full printable-ASCII range: separators, glue punctuation, digits
            // and case transitions must split identically on both paths.
            prop_assert_eq!(crate::simd::tokenize_ascii(&name), tokenize_scalar(&name));
        }

        #[test]
        fn tokens_are_lowercase_and_nonempty(name in "[a-zA-Z0-9_\\-\\. ]{0,20}") {
            for t in tokenize(&name) {
                prop_assert!(!t.is_empty());
                prop_assert_eq!(t.to_lowercase(), t);
            }
        }

        #[test]
        fn token_similarity_unit_interval_symmetric(a in "[a-zA-Z_]{0,14}", b in "[a-zA-Z_]{0,14}") {
            let s = token_set_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - token_set_similarity(&b, &a)).abs() < 1e-9);
        }
    }
}
