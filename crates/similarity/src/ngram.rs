//! Character q-gram extraction.
//!
//! [`qgrams`] is the allocating reference for the padded grams a repository
//! index posts; the zero-allocation form that builds name features is
//! [`crate::features::for_each_gram`], which yields exactly the same grams.

/// Extract the multiset of character q-grams of `s` (lowercased, padded with `#`
/// sentinels so short strings still yield grams).
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q must be at least 1");
    let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
        .chain(crate::simd::lowercase(s).chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect();
    if padded.len() < q {
        return Vec::new();
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qgram_extraction_with_padding() {
        let grams = qgrams("ab", 3);
        assert_eq!(grams, vec!["##a", "#ab", "ab#", "b##"]);
        assert_eq!(qgrams("", 2).len(), 1); // "##" from padding only
        assert_eq!(qgrams("x", 1), vec!["x"]);
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_panics() {
        qgrams("abc", 0);
    }
}
