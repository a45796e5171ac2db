//! Vectorized and word-parallel hot-path kernels.
//!
//! This module concentrates every unsafe / architecture-specific kernel in the
//! crate behind a small, safe API with a hard **bit-identity** contract: each
//! kernel here is observationally identical to the scalar reference it
//! replaces, and the equivalence is pinned by proptests
//! (`tests/simd_equivalence.rs`) plus a forced-scalar CI leg.
//!
//! Three kernel families live here:
//!
//! 1. **Blocked Hyyrö** ([`hyyro_osa_blocked`]): the multi-word extension of
//!    the single-`u64` bit-parallel edit-distance kernel in `features.rs`. The
//!    pattern is split into ⌈m/64⌉ blocks; each text character propagates a
//!    horizontal carry `hin ∈ {-1, 0, +1}` bottom-up through the blocks (the
//!    vertical layout of Myers 1999 §4 / Hyyrö 2003). Names longer than
//!    `BITPARALLEL_MAX_CHARS` stay word-parallel on every tier; the O(m·n)
//!    DP in `edit.rs` is only their reference.
//! 2. **ScanCount accumulation** ([`accumulate_run`]): the dense `u8`
//!    counter increment over in-window posting runs. The x86-64 path uses a
//!    branchless, software-prefetched loop over unchecked loads/stores; the
//!    portable path is the original scalar loop.
//! 3. **ASCII fast paths** ([`lowercase`], [`classify`], `tokenize_ascii`):
//!    SSE2 16-byte-at-a-time ASCII lowercasing and shufti-style (two
//!    `pshufb` nibble tables) byte classification for gram extraction and
//!    tokenization. Any non-ASCII lane aborts the whole string to the
//!    scalar Unicode path — no prefix splitting, because Unicode lowercasing
//!    is context-dependent (e.g. Greek final sigma).
//!
//! Dispatch discipline: CPU features are detected at runtime with
//! `is_x86_feature_detected!`; setting `XSM_FORCE_SCALAR` (to anything but
//! `""`/`0`/`false`/`off`) pins every dispatching call site to the scalar
//! reference so both paths can be compared bit-for-bit on any host.
#![allow(unsafe_code)]

use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Dispatch control
// ---------------------------------------------------------------------------

/// True when the `XSM_FORCE_SCALAR` environment variable requests that every
/// dispatching call site use the scalar reference implementation.
///
/// Unset, empty, `0`, `false`, and `off` (case-insensitive, trimmed) all mean
/// "not forced"; any other value forces scalar. The value is read once per
/// process.
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("XSM_FORCE_SCALAR") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "false" || v == "off")
        }
        Err(_) => false,
    })
}

/// Name of the widest kernel tier the dispatcher will use on this host.
///
/// One of `"forced-scalar"`, `"ssse3"`, `"sse2"`, or `"scalar"`. Exposed for
/// metrics and bench provenance; the blocked Myers/Hyyrö kernels are portable
/// `u64` word-parallel code and are active regardless of this tier.
pub fn active_kernel() -> &'static str {
    if force_scalar() {
        return "forced-scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("ssse3") {
            return "ssse3";
        }
        if is_x86_feature_detected!("sse2") {
            return "sse2";
        }
    }
    "scalar"
}

/// True when at least one runtime-detected SIMD tier is active (i.e. the
/// host supports it and `XSM_FORCE_SCALAR` is not set).
pub fn simd_active() -> bool {
    !matches!(active_kernel(), "scalar" | "forced-scalar")
}

// ---------------------------------------------------------------------------
// Blocked Myers / Hyyrö bit-parallel edit distance
// ---------------------------------------------------------------------------

/// Per-character match-bit table for a pattern of arbitrary length, split
/// into ⌈m/64⌉ `u64` blocks (block `b` covers pattern rows `64b..64b+63`).
///
/// Rows are stored row-major per distinct character: `masks[i*blocks..]`
/// holds the block vector for `chars[i]`. Characters are sorted so lookup is
/// a binary search, mirroring the single-word `peq` table in `features.rs`.
#[derive(Debug, Clone)]
pub struct BlockPeq {
    chars: Box<[char]>,
    masks: Box<[u64]>,
    blocks: usize,
}

impl BlockPeq {
    /// Builds the blocked match table for `pattern`.
    pub fn build(pattern: &[char]) -> Self {
        let m = pattern.len();
        let blocks = m.div_ceil(64).max(1);
        let mut distinct: Vec<char> = pattern.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut masks = vec![0u64; distinct.len() * blocks];
        for (row, &c) in pattern.iter().enumerate() {
            let idx = distinct.binary_search(&c).expect("char is present");
            masks[idx * blocks + row / 64] |= 1u64 << (row % 64);
        }
        BlockPeq {
            chars: distinct.into_boxed_slice(),
            masks: masks.into_boxed_slice(),
            blocks,
        }
    }

    /// Number of 64-row blocks the pattern occupies.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Block vector for character `c`, or `None` if `c` is not in the
    /// pattern (an all-zero row).
    #[inline]
    pub fn lookup(&self, c: char) -> Option<&[u64]> {
        let i = self.chars.binary_search(&c).ok()?;
        Some(&self.masks[i * self.blocks..(i + 1) * self.blocks])
    }
}

/// Reusable per-block state for the blocked kernels, so repeated comparisons
/// against one pattern allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    pv: Vec<u64>,
    mv: Vec<u64>,
    d0: Vec<u64>,
    pmp: Vec<u64>,
}

/// Damerau (OSA, adjacent-transposition) distance via the blocked Hyyrö
/// algorithm.
///
/// `peq` must be built from the pattern, `m` is the pattern length in chars
/// (must be ≥ 1 and match the table), `text` is the other string. Vertical
/// layout: each text character walks the blocks bottom-up, carrying the
/// horizontal delta `hin`; the running score is maintained at the last row
/// of the last block. On top of that blocked Myers shell each block carries
/// its `d0` and previous-column `pm` vectors, with the transposition term
/// crossing block boundaries through `tr_carry`. Bit-identical to
/// `edit::damerau_levenshtein_chars`.
pub fn hyyro_osa_blocked(
    peq: &BlockPeq,
    m: usize,
    text: &[char],
    scratch: &mut BlockScratch,
) -> usize {
    debug_assert!(m >= 1);
    let blocks = peq.blocks;
    scratch.pv.clear();
    scratch.pv.resize(blocks, !0u64);
    scratch.mv.clear();
    scratch.mv.resize(blocks, 0u64);
    scratch.d0.clear();
    scratch.d0.resize(blocks, 0u64);
    scratch.pmp.clear();
    scratch.pmp.resize(blocks, 0u64);
    let last = 1u64 << ((m - 1) % 64);
    let mut score = m as isize;
    for &tc in text {
        let rows = peq.lookup(tc);
        let mut hin: i64 = 1;
        let mut tr_carry = 0u64;
        for b in 0..blocks {
            let pm_raw = rows.map_or(0, |r| r[b]);
            let pv0 = scratch.pv[b];
            let mv0 = scratch.mv[b];
            let x = (!scratch.d0[b]) & pm_raw;
            let tr = ((x << 1) | tr_carry) & scratch.pmp[b];
            tr_carry = x >> 63;
            let mut pm = pm_raw;
            if hin < 0 {
                pm |= 1;
            }
            let d0 = ((((pm & pv0).wrapping_add(pv0)) ^ pv0) | pm | mv0) | tr;
            let mut hp = mv0 | !(d0 | pv0);
            let mut hn = d0 & pv0;
            let hout: i64 = if b + 1 == blocks {
                if hp & last != 0 {
                    1
                } else if hn & last != 0 {
                    -1
                } else {
                    0
                }
            } else {
                ((hp >> 63) as i64) - ((hn >> 63) as i64)
            };
            hp <<= 1;
            hn <<= 1;
            if hin > 0 {
                hp |= 1;
            } else if hin < 0 {
                hn |= 1;
            }
            scratch.pv[b] = hn | !(d0 | hp);
            scratch.mv[b] = hp & d0;
            scratch.d0[b] = d0;
            scratch.pmp[b] = pm_raw;
            hin = hout;
        }
        score += hin as isize;
    }
    score as usize
}

// ---------------------------------------------------------------------------
// ScanCount accumulation
// ---------------------------------------------------------------------------

/// Scalar reference for [`accumulate_run`]: for each dense id in `run`,
/// bump its `u8` counter (saturating) and push it onto `touched` the first
/// time its counter leaves zero.
pub fn accumulate_run_scalar(run: &[u32], counts: &mut [u8], touched: &mut Vec<u32>) {
    for &dense in run {
        let count = &mut counts[dense as usize];
        if *count == 0 {
            touched.push(dense);
        }
        *count = count.saturating_add(1);
    }
}

/// Counter accumulation over one posting run, dispatched to a
/// software-prefetched branchless loop on x86-64.
///
/// Bit-identical to [`accumulate_run_scalar`], including panic semantics:
/// if any id in `run` is out of bounds for `counts`, the scalar path runs
/// and panics at the same element.
#[inline]
pub fn accumulate_run(run: &[u32], counts: &mut [u8], touched: &mut Vec<u32>) {
    if force_scalar() {
        return accumulate_run_scalar(run, counts, touched);
    }
    #[cfg(target_arch = "x86_64")]
    {
        // The fast path needs every index in bounds up front; the max scan
        // vectorizes well and keeps the unchecked loop sound. Fall back to
        // the scalar loop (and its panic) otherwise.
        if run.len() >= 16 {
            let max = run.iter().copied().max().unwrap_or(0) as usize;
            if max < counts.len() {
                // SAFETY: every run element indexes within counts (checked
                // above) and touched has capacity for run.len() new entries.
                unsafe { accumulate_run_x86(run, counts, touched) };
                return;
            }
        }
    }
    accumulate_run_scalar(run, counts, touched)
}

/// Branchless, prefetched accumulation core.
///
/// The scalar loop's cost is the first-touch branch (one hard-to-predict
/// branch per posting) plus bounds checks; here the touched push is a
/// branchless unconditional store with a flag-incremented cursor, and the
/// prefetch hides counter-load latency once the dense space outgrows L1/L2
/// — exactly the high-volume regime the ScanCount merge serves.
///
/// # Safety
/// Every element of `run` must be `< counts.len()`.
#[cfg(target_arch = "x86_64")]
unsafe fn accumulate_run_x86(run: &[u32], counts: &mut [u8], touched: &mut Vec<u32>) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    const LOOKAHEAD: usize = 24;
    touched.reserve(run.len());
    let base = counts.as_mut_ptr();
    let tp = touched.as_mut_ptr();
    let mut t = touched.len();
    for (i, &dense) in run.iter().enumerate() {
        if i + LOOKAHEAD < run.len() {
            // SAFETY: the prefetch target is a valid in-bounds counter; a
            // prefetch is a hint and cannot fault regardless.
            unsafe {
                let ahead = *run.get_unchecked(i + LOOKAHEAD) as usize;
                _mm_prefetch::<_MM_HINT_T0>(base.add(ahead) as *const i8);
            }
        }
        let d = dense as usize;
        // SAFETY: d < counts.len() (caller contract); t < touched capacity
        // because at most run.len() pushes happen and we reserved that many.
        unsafe {
            let c = *base.add(d);
            *tp.add(t) = dense;
            t += (c == 0) as usize;
            *base.add(d) = c.saturating_add(1);
        }
    }
    // SAFETY: exactly t initialized elements are in the buffer.
    unsafe { touched.set_len(t) };
}

// ---------------------------------------------------------------------------
// ASCII lowercase
// ---------------------------------------------------------------------------

/// Lowercases `name`, using a 16-byte-at-a-time SSE2 ASCII path when the
/// string is pure ASCII. Any non-ASCII lane aborts the whole string to
/// `str::to_lowercase` (Unicode lowercasing is context-dependent, so no
/// prefix splitting). Bit-identical to `name.to_lowercase()`.
pub fn lowercase(name: &str) -> String {
    if force_scalar() {
        return name.to_lowercase();
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sse2") {
            let bytes = name.as_bytes();
            let mut out = vec![0u8; bytes.len()];
            // SAFETY: sse2 support was just detected.
            if unsafe { lower_ascii_sse2(bytes, &mut out) } {
                // SAFETY: byte-wise ASCII lowercasing of valid UTF-8
                // (verified all-ASCII) yields valid UTF-8.
                return unsafe { String::from_utf8_unchecked(out) };
            }
            return name.to_lowercase();
        }
    }
    name.to_lowercase()
}

/// Writes the ASCII-lowercased bytes of `src` into `dst` (same length).
/// Returns `false` (dst contents unspecified) if any byte is non-ASCII.
///
/// # Safety
/// Requires SSE2 (guaranteed on x86-64, but kept as a `target_feature` fn
/// for uniformity with the other kernels).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn lower_ascii_sse2(src: &[u8], dst: &mut [u8]) -> bool {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cmpgt_epi8, _mm_cmplt_epi8, _mm_loadu_si128, _mm_movemask_epi8,
        _mm_or_si128, _mm_set1_epi8, _mm_storeu_si128,
    };
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len();
    let mut i = 0;
    // SAFETY (whole block): loads/stores stay within src/dst, which have
    // equal length n; i + 16 <= n is checked before each 16-byte step.
    unsafe {
        let a = _mm_set1_epi8(b'A' as i8 - 1);
        let z = _mm_set1_epi8(b'Z' as i8 + 1);
        let bit = _mm_set1_epi8(0x20);
        while i + 16 <= n {
            let v = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            if _mm_movemask_epi8(v) != 0 {
                return false;
            }
            let ge = _mm_cmpgt_epi8(v, a);
            let le = _mm_cmplt_epi8(v, z);
            let mask = _mm_and_si128(_mm_and_si128(ge, le), bit);
            let lowered = _mm_or_si128(v, mask);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, lowered);
            i += 16;
        }
    }
    while i < n {
        let b = src[i];
        if b >= 0x80 {
            return false;
        }
        dst[i] = b.to_ascii_lowercase();
        i += 1;
    }
    true
}

// ---------------------------------------------------------------------------
// Shufti-style byte classification
// ---------------------------------------------------------------------------

/// Classification bit: ASCII uppercase letter.
pub const CLASS_UPPER: u8 = 0x01 | 0x02;
/// Classification bits: ASCII lowercase letter.
pub const CLASS_LOWER: u8 = 0x04 | 0x08;
/// Classification bit: ASCII digit.
pub const CLASS_DIGIT: u8 = 0x10;
/// Classification bits: token separators (space, `-`, `.`, `/`, `_`, `:`).
pub const CLASS_SEP: u8 = 0x20 | 0x40 | 0x80;

/// Low-nibble shufti table: `LO_TABLE[b & 15] & HI_TABLE[b >> 4]` yields the
/// class bits for byte `b` (bytes ≥ 0x80 classify as 0 because their high
/// nibble row is 0 — and `pshufb` with the index high bit set zeroes the
/// lane, matching).
const LO_TABLE: [u8; 16] = [
    0x3A, 0x1F, 0x1F, 0x1F, 0x1F, 0x1F, 0x1F, 0x1F, 0x1F, 0x1F, 0x8F, 0x05, 0x05, 0x25, 0x25, 0x65,
];
/// High-nibble shufti table; see [`LO_TABLE`].
const HI_TABLE: [u8; 16] = [
    0x00, 0x00, 0x20, 0x90, 0x01, 0x42, 0x04, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Class bits for one byte (scalar shufti lookup). Bits land in
/// [`CLASS_UPPER`] / [`CLASS_LOWER`] / [`CLASS_DIGIT`] / [`CLASS_SEP`];
/// everything else (including non-ASCII) classifies as 0.
#[inline]
pub fn classify(b: u8) -> u8 {
    if b >= 0x80 {
        return 0;
    }
    LO_TABLE[(b & 0x0F) as usize] & HI_TABLE[(b >> 4) as usize]
}

/// Classifies `bytes` into `classes` (same length) using `pshufb` nibble
/// tables, 16 bytes per step.
///
/// # Safety
/// Requires SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn classify_ssse3(bytes: &[u8], classes: &mut [u8]) {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8, _mm_srli_epi16,
        _mm_storeu_si128,
    };
    debug_assert_eq!(bytes.len(), classes.len());
    let n = bytes.len();
    let mut i = 0;
    // SAFETY (whole block): loads/stores stay within bytes/classes, which
    // have equal length n; i + 16 <= n is checked before each step.
    unsafe {
        let lo_tbl = _mm_loadu_si128(LO_TABLE.as_ptr() as *const __m128i);
        let hi_tbl = _mm_loadu_si128(HI_TABLE.as_ptr() as *const __m128i);
        let low_mask = _mm_set1_epi8(0x0F);
        while i + 16 <= n {
            let v = _mm_loadu_si128(bytes.as_ptr().add(i) as *const __m128i);
            let lo = _mm_and_si128(v, low_mask);
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(v), low_mask);
            // Bytes >= 0x80 classify as 0 because HI_TABLE[8..=15] is 0.
            let cls = _mm_and_si128(_mm_shuffle_epi8(lo_tbl, lo), _mm_shuffle_epi8(hi_tbl, hi));
            _mm_storeu_si128(classes.as_mut_ptr().add(i) as *mut __m128i, cls);
            i += 16;
        }
    }
    while i < n {
        classes[i] = classify(bytes[i]);
        i += 1;
    }
}

/// Fills `classes` with the class bits of `bytes`, SSSE3-accelerated when
/// available. `classes` is resized to match `bytes`.
pub fn classify_bytes(bytes: &[u8], classes: &mut Vec<u8>) {
    classes.clear();
    classes.resize(bytes.len(), 0);
    #[cfg(target_arch = "x86_64")]
    {
        if !force_scalar() && is_x86_feature_detected!("ssse3") {
            // SAFETY: ssse3 support was just detected.
            unsafe { classify_ssse3(bytes, classes) };
            return;
        }
    }
    for (c, &b) in classes.iter_mut().zip(bytes) {
        *c = classify(b);
    }
}

/// ASCII tokenizer on class bits — the byte-level twin of `token::tokenize`
/// for pure-ASCII names. Caller guarantees `name.is_ascii()`.
pub(crate) fn tokenize_ascii(name: &str) -> Vec<String> {
    debug_assert!(name.is_ascii());
    let bytes = name.as_bytes();
    let mut classes = Vec::new();
    classify_bytes(bytes, &mut classes);
    let mut tokens = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &cls) in classes.iter().enumerate() {
        if cls & CLASS_SEP != 0 {
            if let Some(s) = start.take() {
                tokens.push(lower_token(&bytes[s..i]));
            }
            continue;
        }
        if start.is_some() {
            // The previous byte is always part of the current token here:
            // separators reset `start`, and class-0 bytes join the token.
            let prev = classes[i - 1];
            let boundary = (prev & CLASS_LOWER != 0 && cls & CLASS_UPPER != 0)
                || (prev & (CLASS_UPPER | CLASS_LOWER) != 0 && cls & CLASS_DIGIT != 0)
                || (prev & CLASS_DIGIT != 0 && cls & (CLASS_UPPER | CLASS_LOWER) != 0)
                || (prev & CLASS_UPPER != 0
                    && cls & CLASS_UPPER != 0
                    && classes.get(i + 1).is_some_and(|&n| n & CLASS_LOWER != 0));
            if boundary {
                tokens.push(lower_token(&bytes[start.unwrap()..i]));
                start = Some(i);
            }
        } else {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        tokens.push(lower_token(&bytes[s..]));
    }
    tokens
}

fn lower_token(bytes: &[u8]) -> String {
    std::str::from_utf8(bytes)
        .expect("ascii slice")
        .to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::damerau_levenshtein;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn classify_matches_reference_predicates_for_all_bytes() {
        for b in 0u8..=255 {
            let c = classify(b);
            assert_eq!(c & CLASS_UPPER != 0, b.is_ascii_uppercase(), "byte {b:#x}");
            assert_eq!(c & CLASS_LOWER != 0, b.is_ascii_lowercase(), "byte {b:#x}");
            assert_eq!(c & CLASS_DIGIT != 0, b.is_ascii_digit(), "byte {b:#x}");
            let is_sep = matches!(b, b' ' | b'-' | b'.' | b'/' | b'_' | b':');
            assert_eq!(c & CLASS_SEP != 0, is_sep, "byte {b:#x}");
            let known = CLASS_UPPER | CLASS_LOWER | CLASS_DIGIT | CLASS_SEP;
            assert_eq!(c & !known, 0, "byte {b:#x} has stray bits");
        }
    }

    #[test]
    fn classify_bytes_simd_matches_scalar_on_all_alignments() {
        let data: Vec<u8> = (0u8..=255).chain(0..=255).collect();
        for start in 0..17 {
            let slice = &data[start..];
            let mut got = Vec::new();
            classify_bytes(slice, &mut got);
            let expect: Vec<u8> = slice.iter().map(|&b| classify(b)).collect();
            assert_eq!(got, expect, "offset {start}");
        }
    }

    #[test]
    fn blocked_osa_matches_dp_across_block_widths() {
        let long_a = "abab".repeat(40); // 160 chars, transposition-rich
        let mut long_b = "abab".repeat(40);
        long_b.replace_range(6..8, "ba");
        let cases = [
            ("ca", "ac"),
            ("abcdef", "abdcef"),
            (&*long_a, &*long_b),
            (&*long_a, "baba"),
        ];
        let mut scratch = BlockScratch::default();
        for (a, b) in cases {
            let ac = chars(a);
            let peq = BlockPeq::build(&ac);
            let got = hyyro_osa_blocked(&peq, ac.len(), &chars(b), &mut scratch);
            assert_eq!(got, damerau_levenshtein(a, b), "{a} vs {b}");
        }
    }

    #[test]
    fn accumulate_run_matches_scalar() {
        // A repeating run (scalar fallback: duplicates break strict ascent)
        // and a strictly ascending one (the blocked fast path), at lengths
        // that leave every possible block tail.
        for len in [0usize, 7, 16, 17, 23, 24, 300] {
            let repeating: Vec<u32> = (0..len as u32).map(|i| (i * 7) % 64).collect();
            let ascending: Vec<u32> = (0..len as u32).map(|i| i * 3).collect();
            for run in [repeating, ascending] {
                let size = 3 * len + 64;
                let mut c1 = vec![0u8; size];
                let mut t1 = Vec::new();
                accumulate_run_scalar(&run, &mut c1, &mut t1);
                let mut c2 = vec![0u8; size];
                let mut t2 = Vec::new();
                accumulate_run(&run, &mut c2, &mut t2);
                assert_eq!(c1, c2, "len={len}");
                assert_eq!(t1, t2, "len={len}");
            }
        }
    }

    #[test]
    fn lowercase_matches_std() {
        for s in [
            "",
            "AuthorName",
            "PUBLISHER_ADDRESS_LINE_ONE_WITH_MANY_CHARS",
            "straße",
            "ΣΊΣΥΦΟΣ",
            "mixedÅscii and more",
        ] {
            assert_eq!(lowercase(s), s.to_lowercase(), "{s}");
        }
    }

    #[test]
    fn tokenize_ascii_handles_compound_names() {
        assert_eq!(tokenize_ascii("authorName"), vec!["author", "name"]);
        assert_eq!(tokenize_ascii("ISBN10Code"), vec!["isbn", "10", "code"]);
        assert_eq!(tokenize_ascii("ns:book"), vec!["ns", "book"]);
        assert_eq!(tokenize_ascii("___"), Vec::<String>::new());
    }
}
