//! Damerau–Levenshtein edit distance (OSA variant) and its normalization.
//!
//! The string-taking entry point [`damerau_levenshtein`] collects the inputs into
//! `char` buffers once and delegates to the slice-taking
//! [`damerau_levenshtein_chars`]. This dynamic program is the one reference the
//! bit-parallel kernels in [`crate::features`] and [`crate::simd`] are held to.

/// Damerau–Levenshtein distance in its *optimal string alignment* (OSA) form:
/// substitution, insertion, deletion and transposition of two adjacent characters.
/// These are exactly the four edit operations the paper attributes to
/// `CompareStringFuzzy`.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    damerau_levenshtein_chars(&a, &b)
}

/// [`damerau_levenshtein`] over pre-collected character slices: the classic
/// three-row dynamic program (rows `i-2`, `i-1`, `i`).
pub fn damerau_levenshtein_chars(a: &[char], b: &[char]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut row0 = vec![0; m + 1];
    let mut row1: Vec<usize> = (0..=m).collect();
    let mut row2 = vec![0; m + 1];
    for i in 1..=n {
        row2[0] = i;
        for j in 1..=m {
            let cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            let mut best = (row1[j] + 1).min(row2[j - 1] + 1).min(row1[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(row0[j - 2] + 1);
            }
            row2[j] = best;
        }
        std::mem::swap(&mut row0, &mut row1);
        std::mem::swap(&mut row1, &mut row2);
    }
    row1[m]
}

/// Normalize an edit distance to a similarity in `[0,1]`:
/// `1 - distance / max(len_a, len_b)`, with identical empty strings scoring 1.
pub fn normalized_similarity(distance: usize, len_a: usize, len_b: usize) -> f64 {
    let max_len = len_a.max(len_b);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - (distance as f64 / max_len as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn damerau_counts_transposition_as_one() {
        assert_eq!(damerau_levenshtein("ca", "ac"), 1);
        assert_eq!(damerau_levenshtein("author", "auhtor"), 1);
        assert_eq!(damerau_levenshtein("abc", "abc"), 0);
        assert_eq!(damerau_levenshtein("", "xyz"), 3);
    }

    #[test]
    fn normalized_similarity_bounds() {
        assert_eq!(normalized_similarity(0, 0, 0), 1.0);
        assert_eq!(normalized_similarity(0, 4, 4), 1.0);
        assert_eq!(normalized_similarity(4, 4, 4), 0.0);
        assert_eq!(normalized_similarity(2, 4, 4), 0.5);
    }

    #[test]
    fn unicode_is_handled_per_scalar_value() {
        assert_eq!(damerau_levenshtein("börse", "borse"), 1);
    }

    proptest! {
        #[test]
        fn lev_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert_eq!(damerau_levenshtein(&a, &b), damerau_levenshtein(&b, &a));
        }

        #[test]
        fn lev_identity(a in "[a-z]{0,16}") {
            prop_assert_eq!(damerau_levenshtein(&a, &a), 0);
        }

        #[test]
        fn lev_bounded_by_max_len(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let d = damerau_levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }

        #[test]
        fn normalized_in_unit_interval(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let s = normalized_similarity(damerau_levenshtein(&a, &b), a.len(), b.len());
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
