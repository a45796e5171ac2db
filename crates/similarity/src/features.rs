//! Precomputed name features and zero-allocation similarity kernels.
//!
//! The string-taking measures in this crate re-derive everything on every call:
//! they lowercase both inputs, collect `Vec<char>`s and allocate one `String` per
//! q-gram. Repository element names are immutable after index construction, so all
//! of that is compute-once data. This module splits the paper's measure
//! ([`crate::fuzzy::compare_string_fuzzy`]) into
//!
//! 1. a **feature build** ([`NameFeatures::build`]) that runs once per name and
//!    precomputes the lowercased text, its `char`s, the bit-parallel match vectors
//!    and the interned, sorted q-gram signature an inverted index posts, and
//! 2. a **kernel** ([`fuzzy_features`] over [`damerau_features`]) that scores two
//!    feature sets without allocating: the edit distance of names of ≤ 64
//!    characters runs Hyyrö's bit-parallel algorithm in a handful of `u64`
//!    operations per text character, longer names run its blocked form.
//!    Both are portable `u64` code, so `XSM_FORCE_SCALAR` leaves them in place.
//!
//! The kernel is *bit-identical* to its string-path counterpart evaluated on the
//! lowercased inputs, the dynamic program in [`crate::edit`] — asserted by the
//! property suite in `tests/feature_equivalence.rs` — so swapping a pipeline onto
//! the feature path cannot change any result, only its cost.

use std::collections::HashMap;

use crate::edit::normalized_similarity;
use crate::simd::{BlockPeq, BlockScratch};

/// Maximum pattern length (in characters) served by the single-word bit-parallel
/// edit-distance kernel; when both names are longer, the blocked multi-word kernel
/// ([`crate::simd::hyyro_osa_blocked`]) scores them.
pub const BITPARALLEL_MAX_CHARS: usize = 64;

/// Interns character q-grams to dense `u32` ids shared across a name corpus.
///
/// One interner is built per repository (inside `xsm-repo`'s `FeatureStore`); every
/// [`NameFeatures::build`] against it maps the name's grams onto the shared id space,
/// so two signatures can be intersected by merging sorted integers instead of hashing
/// strings. Ids are dense (`0..len`), which also lets an inverted index store its
/// posting lists in a plain `Vec`.
#[derive(Debug, Clone, Default)]
pub struct GramInterner {
    q: usize,
    map: HashMap<String, u32>,
}

impl GramInterner {
    /// An empty interner for grams of length `q` (`q >= 1`).
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        GramInterner {
            q,
            map: HashMap::new(),
        }
    }

    /// The gram length this interner was built for.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of distinct grams interned so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no gram has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The id of `gram`, interning it if unseen.
    pub fn intern(&mut self, gram: &str) -> u32 {
        if let Some(&id) = self.map.get(gram) {
            return id;
        }
        let id = self.map.len() as u32;
        self.map.insert(gram.to_string(), id);
        id
    }

    /// The id of `gram` if it has been interned, without mutating the interner
    /// (the read-only query-side path).
    pub fn lookup(&self, gram: &str) -> Option<u32> {
        self.map.get(gram).copied()
    }

    /// The interned grams in id order (`table[id] == gram`). This is the
    /// serialization-stable view of the interner: unlike iterating the internal
    /// map, the returned order is the dense id space itself.
    pub fn gram_table(&self) -> Vec<String> {
        let mut table = vec![String::new(); self.map.len()];
        for (gram, &id) in &self.map {
            table[id as usize] = gram.clone();
        }
        table
    }

    /// Rebuild an interner from a [`GramInterner::gram_table`] dump: gram `i` of
    /// `grams` gets id `i`, reproducing the exact id space the table was taken
    /// from. Duplicate grams in `grams` are a caller bug (the later entry wins
    /// and the id space develops holes), so the table must come from a trusted
    /// dump, not hostile input.
    pub fn from_table(q: usize, grams: Vec<String>) -> Self {
        assert!(q >= 1, "q must be at least 1");
        let map = grams
            .into_iter()
            .enumerate()
            .map(|(id, gram)| (gram, id as u32))
            .collect();
        GramInterner { q, map }
    }
}

/// `#`-padded character sequence of a lowercased name, exactly as
/// [`crate::ngram::qgrams`] pads it: `q - 1` sentinels on each side.
fn padded_chars(lower: &str, q: usize) -> Vec<char> {
    std::iter::repeat_n('#', q - 1)
        .chain(lower.chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect()
}

/// Visit the padded q-grams of an **already-lowercased** name in order, reusing one
/// string buffer instead of allocating a `String` per gram. Yields exactly the grams
/// of [`crate::ngram::qgrams`] applied to the same name (`q >= 1`).
pub fn for_each_gram(lower: &str, q: usize, mut f: impl FnMut(&str)) {
    assert!(q >= 1, "q must be at least 1");
    if lower.is_ascii() && !crate::simd::force_scalar() {
        // Byte-window fast path: padding and every window are pure ASCII, so
        // each q-byte window is a valid &str with no per-window char copy.
        let mut padded = Vec::with_capacity(lower.len() + 2 * (q - 1));
        padded.resize(q - 1, b'#');
        padded.extend_from_slice(lower.as_bytes());
        padded.resize(padded.len() + q - 1, b'#');
        if padded.len() < q {
            return;
        }
        for window in padded.windows(q) {
            f(std::str::from_utf8(window).expect("ascii window"));
        }
        return;
    }
    let padded = padded_chars(lower, q);
    if padded.len() < q {
        return;
    }
    let mut gram = String::with_capacity(q * 4);
    for window in padded.windows(q) {
        gram.clear();
        gram.extend(window.iter());
        f(&gram);
    }
}

/// Bit-parallel match vectors of a pattern: for each distinct character, the bitmask
/// of its positions. Sorted by character for branch-free binary-search lookup.
fn build_peq(chars: &[char]) -> Box<[(char, u64)]> {
    if chars.is_empty() || chars.len() > BITPARALLEL_MAX_CHARS {
        return Box::new([]);
    }
    let mut peq: Vec<(char, u64)> = Vec::with_capacity(chars.len());
    for (i, &c) in chars.iter().enumerate() {
        match peq.binary_search_by_key(&c, |&(pc, _)| pc) {
            Ok(pos) => peq[pos].1 |= 1u64 << i,
            Err(pos) => peq.insert(pos, (c, 1u64 << i)),
        }
    }
    peq.into_boxed_slice()
}

#[inline]
fn peq_lookup(peq: &[(char, u64)], c: char) -> u64 {
    match peq.binary_search_by_key(&c, |&(pc, _)| pc) {
        Ok(pos) => peq[pos].1,
        Err(_) => 0,
    }
}

/// Everything the similarity kernels need about one name, computed once.
///
/// Gram signatures are sorted, deduplicated `u32` ids from a shared
/// [`GramInterner`], with the per-gram multiplicities kept in a parallel array.
#[derive(Debug, Clone)]
pub struct NameFeatures {
    /// The lowercased name (`String::to_lowercase`, matching every kernel's
    /// case-insensitivity convention).
    pub lower: Box<str>,
    /// Unicode scalar values of [`NameFeatures::lower`], materialised **on
    /// first use** by a character-level kernel: the gram/Dice path (the serving
    /// engine's pruning stage) never touches them, and on a snapshot load the
    /// match vectors arrive precomputed, so eagerly unpacking every name into
    /// `char`s would be pure startup cost. A fresh [`NameFeatures::build`]
    /// still fills them immediately — it needs them to build `peq` anyway.
    chars: std::sync::OnceLock<Box<[char]>>,
    /// Character count of [`NameFeatures::lower`] (cheap, always available —
    /// length filters must not force the lazy `chars`).
    char_len: u32,
    /// The original name as given, kept **only when lowercasing changed it** — a
    /// name table identifies a name by its exact spelling, but for the common
    /// already-lowercase corpus name `lower` *is* the original and storing a
    /// byte-identical copy per name would only bloat repository-wide feature
    /// stores.
    original: Option<Box<str>>,
    /// The gram signature and its multiplicities in one allocation: the first
    /// half holds the sorted, deduplicated interned gram ids, the second half
    /// the multiplicity of each id (same order). Feature stores hold one
    /// `NameFeatures` per distinct repository name, so one box instead of two
    /// parallel ones cuts allocator traffic on build and snapshot load.
    grams: Box<[u32]>,
    /// Total number of gram occurrences (`Σ gram_counts`).
    gram_total: u32,
    /// Myers match vectors of `chars` (empty when the name is empty or longer than
    /// [`BITPARALLEL_MAX_CHARS`]).
    peq: Box<[(char, u64)]>,
    /// Packed per-gram positions, parallel to [`NameFeatures::gram_sig`]:
    /// `first_occurrence << 16 | last_occurrence` (both clamped to `u16`) in the
    /// padded gram stream. Feeds the positional q-gram filter in `xsm-repo`.
    /// Empty on snapshot-loaded features ([`NameFeatures::from_parts`]) — only
    /// fresh builds, which are the only index-construction path, carry it.
    gram_pos: Box<[u32]>,
    /// Blocked match table for names past [`BITPARALLEL_MAX_CHARS`], built on
    /// first use by a blocked kernel. Lazy for the same reason `chars` is: the
    /// gram pruning stage never needs it, and snapshot loads should not pay for
    /// names that are never edit-scored.
    block_peq: std::sync::OnceLock<BlockPeq>,
}

impl NameFeatures {
    /// Build the features of `name`, interning unseen grams into `interner`.
    /// This is the corpus-side constructor: every name of a repository is built
    /// against the same interner so all signatures share one id space.
    pub fn build(name: &str, interner: &mut GramInterner) -> Self {
        let q = interner.q();
        Self::build_inner(name, &mut |gram| interner.intern(gram), q)
    }

    /// Build features for a *query* name against a frozen interner.
    ///
    /// Grams the interner has never seen are assigned fresh ids past
    /// `interner.len()`, locally unique within this name. Such ids collide with no
    /// corpus id, so comparing this feature set against any corpus-built feature set
    /// is exact; comparing two *query*-built sets against each other is not
    /// meaningful (their private ids may clash) — queries are only ever scored
    /// against the corpus.
    pub fn build_query(name: &str, interner: &GramInterner) -> Self {
        let base = interner.len() as u32;
        let mut local: HashMap<String, u32> = HashMap::new();
        Self::build_inner(
            name,
            &mut |gram| match interner.lookup(gram) {
                Some(id) => id,
                None => {
                    let next = base + local.len() as u32;
                    *local.entry(gram.to_string()).or_insert(next)
                }
            },
            interner.q(),
        )
    }

    fn build_inner(name: &str, intern: &mut dyn FnMut(&str) -> u32, q: usize) -> Self {
        let lower = crate::simd::lowercase(name);
        let chars: Box<[char]> = lower.chars().collect();
        let peq = build_peq(&chars);

        let mut occurrences: Vec<(u32, u32)> = Vec::new();
        let mut pos = 0u32;
        for_each_gram(&lower, q, |gram| {
            occurrences.push((intern(gram), pos));
            pos += 1;
        });
        occurrences.sort_unstable();
        let mut sig: Vec<u32> = Vec::with_capacity(occurrences.len());
        let mut counts: Vec<u32> = Vec::with_capacity(occurrences.len());
        let mut gram_pos: Vec<u32> = Vec::with_capacity(occurrences.len());
        for &(id, p) in &occurrences {
            let p16 = p.min(0xFFFF);
            if sig.last() == Some(&id) {
                *counts.last_mut().expect("counts parallel to sig") += 1;
                // Occurrences of one id arrive position-sorted, so the low
                // half only ever grows toward the last occurrence.
                let packed = gram_pos.last_mut().expect("pos parallel to sig");
                *packed = (*packed & 0xFFFF_0000) | p16;
            } else {
                sig.push(id);
                counts.push(1);
                gram_pos.push((p16 << 16) | p16);
            }
        }
        sig.extend_from_slice(&counts);
        NameFeatures {
            original: (name != lower).then(|| name.into()),
            lower: lower.into_boxed_str(),
            char_len: chars.len() as u32,
            chars: std::sync::OnceLock::from(chars),
            grams: sig.into_boxed_slice(),
            gram_total: occurrences.len() as u32,
            peq,
            gram_pos: gram_pos.into_boxed_slice(),
            block_peq: std::sync::OnceLock::new(),
        }
    }

    /// Number of characters of the (lowercased) name.
    pub fn char_len(&self) -> usize {
        self.char_len as usize
    }

    /// Unicode scalar values of [`NameFeatures::lower`], materialising them on
    /// first call (thread-safe; concurrent first calls race benignly on one
    /// `OnceLock`).
    pub fn chars(&self) -> &[char] {
        self.chars.get_or_init(|| {
            // `bytes()` knows its exact length, so the ASCII path allocates the
            // boxed slice once; `chars()` has no useful size hint.
            if self.lower.is_ascii() {
                self.lower.bytes().map(char::from).collect()
            } else {
                self.lower.chars().collect()
            }
        })
    }

    /// Total number of q-gram occurrences the name produced (multiset size).
    pub fn gram_total(&self) -> usize {
        self.gram_total as usize
    }

    /// The original name when lowercasing changed it; `None` means
    /// [`NameFeatures::lower`] *is* the original.
    pub fn original(&self) -> Option<&str> {
        self.original.as_deref()
    }

    /// Sorted, deduplicated interned ids of the name's padded q-grams.
    pub fn gram_sig(&self) -> &[u32] {
        &self.grams[..self.grams.len() / 2]
    }

    /// Multiplicity of each gram in [`NameFeatures::gram_sig`] (parallel array).
    pub fn gram_counts(&self) -> &[u32] {
        &self.grams[self.grams.len() / 2..]
    }

    /// The Myers match vectors: for each distinct character of the name, the
    /// bitmask of its positions, sorted by character. Empty when the name is
    /// empty or longer than the bit-parallel limit.
    pub fn peq_pairs(&self) -> &[(char, u64)] {
        &self.peq
    }

    /// Packed positions (`first << 16 | last`, clamped to `u16`) of each gram in
    /// [`NameFeatures::gram_sig`], in the padded gram stream. Empty on features
    /// reassembled by [`NameFeatures::from_parts`].
    pub fn gram_positions(&self) -> &[u32] {
        &self.gram_pos
    }

    /// The blocked Myers match table for names past [`BITPARALLEL_MAX_CHARS`],
    /// materialised on first call (thread-safe, like [`NameFeatures::chars`]).
    /// Snapshot-loaded features build it here too, from the lazily unpacked
    /// chars — nothing extra is serialized.
    pub fn block_peq(&self) -> &BlockPeq {
        self.block_peq.get_or_init(|| BlockPeq::build(self.chars()))
    }

    /// Reassemble features from previously dumped parts (a snapshot load path).
    ///
    /// The parts must come from an earlier [`NameFeatures`] built against the
    /// same interner id space: `grams` is the even-length concatenation of the
    /// sorted, deduplicated gram signature and its parallel multiplicities
    /// ([`NameFeatures::gram_sig`] then [`NameFeatures::gram_counts`]), `peq`
    /// exactly the dump of [`NameFeatures::peq_pairs`]. Cheap derived fields
    /// (`char_len`, `gram_total`) are recomputed here; `chars` stays lazy — the
    /// match vectors arrive in `peq`, so nothing needs the char slice until a
    /// character-level kernel runs.
    pub fn from_parts(
        lower: Box<str>,
        original: Option<Box<str>>,
        grams: Box<[u32]>,
        peq: Box<[(char, u64)]>,
    ) -> Self {
        debug_assert!(grams.len() % 2 == 0, "grams must be sig ++ counts");
        let char_len = if lower.is_ascii() {
            lower.len()
        } else {
            lower.chars().count()
        } as u32;
        let gram_total = grams[grams.len() / 2..].iter().sum();
        NameFeatures {
            lower,
            char_len,
            chars: std::sync::OnceLock::new(),
            original,
            grams,
            gram_total,
            peq,
            gram_pos: Box::new([]),
            block_peq: std::sync::OnceLock::new(),
        }
    }
}

/// Reusable scratch buffers for the kernels that need per-call working memory (the
/// blocked kernel's per-block state). One instance per worker thread makes
/// steady-state scoring allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    blocks: BlockScratch,
}

/// Hyyrö's 2003 bit-parallel Damerau–Levenshtein (OSA) distance: Myers' 1999
/// Levenshtein recurrence plus a transposition vector carried between text
/// positions. Pattern of `m <= 64` characters (as match vectors `peq`), text
/// streamed char by char: `O(|text|)` words of work.
fn hyyro_osa(peq: &[(char, u64)], m: usize, text: &[char]) -> usize {
    debug_assert!((1..=BITPARALLEL_MAX_CHARS).contains(&m));
    let mut pv: u64 = !0;
    let mut mv: u64 = 0;
    let mut d0: u64 = 0;
    let mut pm_prev: u64 = 0;
    let mut score = m;
    let last = 1u64 << (m - 1);
    for &c in text {
        let pm = peq_lookup(peq, c);
        let tr = (((!d0) & pm) << 1) & pm_prev;
        d0 = ((((pm & pv).wrapping_add(pv)) ^ pv) | pm | mv) | tr;
        let hp = mv | !(d0 | pv);
        let hn = d0 & pv;
        if hp & last != 0 {
            score += 1;
        }
        if hn & last != 0 {
            score -= 1;
        }
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        pv = hn | !(d0 | hp);
        mv = hp & d0;
        pm_prev = pm;
    }
    score
}

/// Damerau–Levenshtein (OSA) distance over precomputed features (lowercased
/// characters): Hyyrö bit-parallel when either name fits in
/// [`BITPARALLEL_MAX_CHARS`] characters (the distance is symmetric, so either side
/// may serve as the pattern), blocked Hyyrö beyond. Equals
/// `edit::damerau_levenshtein(a.lower, b.lower)`.
pub fn damerau_features(a: &NameFeatures, b: &NameFeatures, scratch: &mut SimScratch) -> usize {
    if a.char_len == 0 {
        return b.char_len();
    }
    if b.char_len == 0 {
        return a.char_len();
    }
    if a.char_len() <= BITPARALLEL_MAX_CHARS {
        hyyro_osa(&a.peq, a.char_len(), b.chars())
    } else if b.char_len() <= BITPARALLEL_MAX_CHARS {
        hyyro_osa(&b.peq, b.char_len(), a.chars())
    } else {
        // Both sides past the single-word limit: blocked Hyyrö, with the
        // shorter side as the pattern (fewer blocks per text character).
        let (p, t) = if a.char_len() <= b.char_len() {
            (a, b)
        } else {
            (b, a)
        };
        crate::simd::hyyro_osa_blocked(p.block_peq(), p.char_len(), t.chars(), &mut scratch.blocks)
    }
}

/// The paper's kernel over features: normalized Damerau–Levenshtein, bit-identical
/// to [`crate::fuzzy::compare_string_fuzzy`] on the original names.
pub fn fuzzy_features(a: &NameFeatures, b: &NameFeatures, scratch: &mut SimScratch) -> f64 {
    if a.lower.is_empty() && b.lower.is_empty() {
        return 1.0;
    }
    if a.lower == b.lower {
        return 1.0;
    }
    let d = damerau_features(a, b, scratch);
    normalized_similarity(d, a.char_len(), b.char_len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::damerau_levenshtein;
    use crate::fuzzy::compare_string_fuzzy;

    fn pair(a: &str, b: &str, q: usize) -> (NameFeatures, NameFeatures) {
        let mut interner = GramInterner::new(q);
        (
            NameFeatures::build(a, &mut interner),
            NameFeatures::build(b, &mut interner),
        )
    }

    #[test]
    fn interner_dedupes_and_is_stable() {
        let mut interner = GramInterner::new(3);
        assert!(interner.is_empty());
        let id = interner.intern("abc");
        assert_eq!(interner.intern("abc"), id);
        assert_ne!(interner.intern("abd"), id);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.lookup("abc"), Some(id));
        assert_eq!(interner.lookup("zzz"), None);
        assert_eq!(interner.q(), 3);
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_interner_panics() {
        GramInterner::new(0);
    }

    #[test]
    fn features_capture_the_name() {
        let mut interner = GramInterner::new(3);
        let f = NameFeatures::build("AuthorName", &mut interner);
        assert_eq!(&*f.lower, "authorname");
        assert_eq!(f.char_len(), 10);
        assert_eq!(f.original(), Some("AuthorName"));
        // "authorname" padded with ## on both sides → 12 grams of length 3.
        assert_eq!(f.gram_total(), 12);
        assert!(
            f.gram_sig().windows(2).all(|w| w[0] < w[1]),
            "sorted, deduped"
        );
    }

    #[test]
    fn kernels_match_string_paths_on_known_values() {
        let mut scratch = SimScratch::default();
        for (a, b) in [
            ("author", "authorName"),
            ("kitten", "sitting"),
            ("", ""),
            ("", "abc"),
            ("ca", "ac"),
            ("Book", "bOOK"),
            ("naïve", "naive"),
            ("first_name", "nameFirst"),
        ] {
            let (fa, fb) = pair(a, b, 3);
            let (la, lb) = (a.to_lowercase(), b.to_lowercase());
            assert_eq!(
                damerau_features(&fa, &fb, &mut scratch),
                damerau_levenshtein(&la, &lb),
                "damerau {a} {b}"
            );
            assert_eq!(
                fuzzy_features(&fa, &fb, &mut scratch).to_bits(),
                compare_string_fuzzy(a, b).to_bits(),
                "fuzzy {a} {b}"
            );
        }
    }

    #[test]
    fn blocked_kernel_used_beyond_64_chars() {
        let long_a = "a".repeat(70) + "xyz";
        let long_b = "a".repeat(70) + "xzy";
        let (fa, fb) = pair(&long_a, &long_b, 3);
        let mut scratch = SimScratch::default();
        assert_eq!(
            damerau_features(&fa, &fb, &mut scratch),
            damerau_levenshtein(&long_a, &long_b)
        );
        // Mixed: one short, one long still takes the bit-parallel path, with
        // the short side as the pattern whichever argument it is.
        let (fs, fl) = pair("short", &long_a, 3);
        assert_eq!(
            damerau_features(&fs, &fl, &mut scratch),
            damerau_levenshtein("short", &long_a)
        );
        assert_eq!(
            damerau_features(&fl, &fs, &mut scratch),
            damerau_levenshtein(&long_a, "short")
        );
    }

    #[test]
    fn exactly_64_chars_uses_bit_parallel_correctly() {
        let a64: String = ('a'..='z').cycle().take(64).collect();
        let mut b64: String = a64.clone();
        b64.replace_range(10..11, "Z");
        let (fa, fb) = pair(&a64, &b64.to_lowercase(), 3);
        let mut scratch = SimScratch::default();
        assert_eq!(fa.char_len(), 64);
        assert_eq!(
            damerau_features(&fa, &fb, &mut scratch),
            damerau_levenshtein(&a64, &b64.to_lowercase())
        );
    }

    #[test]
    fn query_features_score_exactly_against_corpus_features() {
        let mut interner = GramInterner::new(3);
        let corpus: Vec<NameFeatures> = ["authorName", "title", "emailAddress"]
            .iter()
            .map(|n| NameFeatures::build(n, &mut interner))
            .collect();
        // "authorNameX" has grams the interner never saw; they get private ids
        // past the corpus id space.
        let q = NameFeatures::build_query("authorNameX", &interner);
        let unseen = q
            .gram_sig()
            .iter()
            .filter(|&&id| id as usize >= interner.len())
            .count();
        assert_eq!(unseen, 3, "meX, eX#, X##");
        let mut scratch = SimScratch::default();
        for f in &corpus {
            let name: String = f.lower.to_string();
            assert_eq!(
                fuzzy_features(&q, f, &mut scratch).to_bits(),
                compare_string_fuzzy("authorNameX", &name).to_bits()
            );
        }
    }
}
