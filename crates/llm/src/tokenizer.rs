//! Approximate tokenizer.
//!
//! Real LLM APIs bill and truncate by BPE tokens. For the simulation we use
//! a cheap approximation — whitespace/punctuation pieces, with long words
//! split every four characters — which is within ~20% of GPT-style BPE
//! counts on English prose and is deterministic and dependency-free.
//!
//! There is one walk over the text, `truncate_tokens`: it finds where a
//! token budget cuts the text *and* how many tokens the kept head holds, so
//! a model that truncates to its context window and then bills the prompt
//! reads the prompt's bytes once. [`count_tokens`] is that walk with no
//! budget. The walk's state between two characters is two counts, the
//! tokens so far and the characters of the word run it is in, so it can
//! stop at the end of a prefix (`walk_state`) and resume there
//! (`truncate_tokens_from`): a model that has walked a preamble its
//! prompts share walks only what follows it.
//!
//! The walk takes the text 64 bytes at a time. An all-ASCII block that the
//! budget covers is counted from two bitmasks, its word bytes and its
//! space bytes, which four 16-byte SSE2 compares build on x86_64; a word
//! run that crosses the block's edge carries its length into the next
//! block. Three cases are walked byte by byte, so a cut lands where it
//! always did: the tail under 64 bytes, a block holding a byte ≥ 0x80 (a
//! multi-byte character), and the block in which the budget runs out. On
//! other targets every block is walked byte by byte.
//!
//! Prompts are text from outside the program, so nothing here indexes or
//! slices by position: the lints below hold that.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::unreachable, clippy::panic)
)]

/// Counts approximate tokens in `text`.
pub fn count_tokens(text: &str) -> usize {
    truncate_tokens(text, usize::MAX).1
}

/// What a byte means to the tokenizer, from [`BYTE_CLASS`]. `SPACE`
/// separates pieces and `PUNCT` is a piece of its own. A word run is made
/// of `WORD` bytes, each the first byte of a character (an ASCII
/// alphanumeric or a UTF-8 lead byte), and the `CONT`inuation bytes that
/// follow a lead byte; every fourth character of a run starts a new piece.
/// `WORD` and `CONT` are the two largest, so `class >= WORD` is a byte of a
/// word run.
const SPACE: u8 = 0;
const PUNCT: u8 = 1;
const WORD: u8 = 2;
const CONT: u8 = 3;

const BYTE_CLASS: [u8; 256] = {
    let mut table = [PUNCT; 256];
    let mut rest: &mut [u8] = &mut table;
    let mut byte = 0u8;
    while let [class, tail @ ..] = rest {
        if byte.is_ascii_whitespace() {
            *class = SPACE;
        } else if byte.is_ascii_alphanumeric() || byte >= 0xC0 {
            *class = WORD;
        } else if byte >= 0x80 {
            *class = CONT;
        }
        rest = tail;
        byte = byte.wrapping_add(1);
    }
    table
};

/// The class of `byte`. The table has an entry for every `u8`, so the
/// lookup never misses (and compiles to a plain load).
fn class_of(byte: u8) -> u8 {
    BYTE_CLASS.get(usize::from(byte)).copied().unwrap_or(PUNCT)
}

/// Characters per word piece.
const PIECE_CHARS: usize = 4;

/// Bytes per block of the block path.
const BLOCK: usize = 64;

/// Truncates `text` to at most `max_tokens` tokens, preserving the head,
/// and counts the tokens of what is kept — in one pass. The text comes
/// back unchanged (trailing whitespace included) when it fits.
pub(crate) fn truncate_tokens(text: &str, max_tokens: usize) -> (&str, usize) {
    truncate_tokens_from(text, 0, 0, 0, max_tokens)
}

/// The walk's state after the whole of `text` with no budget: its tokens,
/// and the characters of the word run it ends in (zero outside one). What
/// [`truncate_tokens_from`] resumes from.
pub(crate) fn walk_state(text: &str) -> (usize, usize) {
    // With no budget the walk never cuts; a cut would read as a state
    // over every budget, which resumes nothing.
    walk(text.as_bytes(), 0, 0, usize::MAX).unwrap_or((usize::MAX, 0))
}

/// [`truncate_tokens`] of `text`, resumed at byte `at` from the walk's
/// state there, `(tokens, run)` = [`walk_state`] of `text[..at]`: the head
/// is not read again. A state already over the budget, or an `at` that is
/// no char boundary of `text`, takes the whole walk.
pub(crate) fn truncate_tokens_from(
    text: &str,
    at: usize,
    tokens: usize,
    run: usize,
    max_tokens: usize,
) -> (&str, usize) {
    let Some(rest) = text.get(at..).filter(|_| tokens <= max_tokens) else {
        return truncate_tokens(text, max_tokens);
    };
    match walk(rest.as_bytes(), tokens, run, max_tokens) {
        Ok((tokens, _)) => (text, tokens),
        Err(cut) => (head_before(text, at + cut), max_tokens),
    }
}

/// The head kept when the piece starting at byte `piece` is one too many:
/// the text before it, less the whitespace that separated the two. A piece
/// starts at an ASCII byte or a UTF-8 lead byte, so `piece` is a char
/// boundary and the split always succeeds.
fn head_before(text: &str, piece: usize) -> &str {
    let head = text.get(..piece).unwrap_or_default();
    head.trim_end_matches(|c: char| c.is_ascii_whitespace())
}

/// The walk over `bytes` entered with `tokens ≤ max_tokens` tokens and
/// `run` word characters behind it: `Ok` with the state after the last
/// byte, or `Err` with the offset of the first piece over the budget.
fn walk(
    bytes: &[u8],
    mut tokens: usize,
    mut run: usize,
    max_tokens: usize,
) -> Result<(usize, usize), usize> {
    for (n, block) in bytes.chunks(BLOCK).enumerate() {
        // A whole ASCII block the budget covers is counted from its masks.
        if let Some((pieces, next_run)) = block_pieces(block, run) {
            if pieces <= max_tokens - tokens {
                tokens += pieces;
                run = next_run;
                continue;
            }
        }
        // The byte walk: the tail, a block with a byte ≥ 0x80, and the
        // block the budget runs out in. Straight-line per byte (`&` and
        // `|` on the flags, the run reset by a multiply): where words end
        // is unpredictable, so the only branch is the one taken once, at
        // the cut.
        for (i, &byte) in block.iter().enumerate() {
            let class = class_of(byte);
            let starts_piece =
                (class == PUNCT) | ((class == WORD) & run.is_multiple_of(PIECE_CHARS));
            tokens += usize::from(starts_piece);
            if tokens > max_tokens {
                return Err(n * BLOCK + i);
            }
            // A word byte adds a character, a continuation byte keeps the
            // count, anything else ends the run.
            run = (run + usize::from(class == WORD)) * usize::from(class >= WORD);
        }
    }
    Ok((tokens, run))
}

/// The pieces that start in a whole all-ASCII `block` entered with `run`
/// word characters behind it, and the run it leaves; `None` for a short
/// block, one holding a byte ≥ 0x80, or a target without the masks.
fn block_pieces(block: &[u8], run: usize) -> Option<(usize, usize)> {
    let (word, space) = ascii_masks(block.try_into().ok()?)?;
    // Bit i of each mask is byte i. A punctuation byte is a piece, and so
    // is the first byte of a word run that starts here.
    let punct = !(word | space);
    let mut starts = word & !(word << 1);
    if run > 0 {
        // A run going on from the block before starts nothing at bit 0;
        // its next piece is where its character count reaches a multiple
        // of four, if it gets that far.
        starts &= !1;
        let next = (PIECE_CHARS - run % PIECE_CHARS) % PIECE_CHARS;
        if next < word.trailing_ones() as usize {
            starts |= 1 << next;
        }
    }
    // Every fourth byte after a piece start, while the run lasts: the
    // byte and the three before it are word bytes (the start itself is
    // one already).
    let four = word & (word << 1) & (word << 2) & (word << 3);
    let mut pieces = punct | starts;
    while starts != 0 {
        starts = (starts << PIECE_CHARS) & four;
        pieces |= starts;
    }
    let next_run = if word == u64::MAX {
        run + BLOCK
    } else {
        word.leading_ones() as usize
    };
    Some((pieces.count_ones() as usize, next_run))
}

/// The word and space masks of an all-ASCII block (bit i is byte i): ASCII
/// alphanumerics, and [`u8::is_ascii_whitespace`] bytes. `None` when a
/// byte is ≥ 0x80.
#[cfg(target_arch = "x86_64")]
fn ascii_masks(block: &[u8; BLOCK]) -> Option<(u64, u64)> {
    // SAFETY: SSE2 is part of the x86_64 baseline: every x86_64 CPU has it.
    unsafe { sse2_masks(block) }
}

#[cfg(not(target_arch = "x86_64"))]
fn ascii_masks(_: &[u8; BLOCK]) -> Option<(u64, u64)> {
    None
}

/// [`ascii_masks`] from four 16-byte compares.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn sse2_masks(block: &[u8; BLOCK]) -> Option<(u64, u64)> {
    use std::arch::x86_64::*;
    let splat = |byte: u8| _mm_set1_epi8(byte as i8);
    // Bytes in `lo..=hi`: after subtracting `lo`, exactly those are at
    // most `hi - lo` as unsigned bytes.
    let within = |v: __m128i, lo: u8, hi: u8| {
        let shifted = _mm_sub_epi8(v, splat(lo));
        _mm_cmpeq_epi8(_mm_min_epu8(shifted, splat(hi - lo)), shifted)
    };
    // A 64-byte block is four 16-byte quarters; the `else` never runs.
    let &[q0, q1, q2, q3] = block.as_chunks::<16>().0 else {
        return None;
    };
    let vectors = [q0, q1, q2, q3].map(|quarter| {
        let v = u128::from_le_bytes(quarter);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    });
    // A byte ≥ 0x80 has its top bit set; one such byte sends the block
    // to the byte walk before any mask is built.
    let [v0, v1, v2, v3] = vectors;
    let top = _mm_or_si128(_mm_or_si128(v0, v1), _mm_or_si128(v2, v3));
    if _mm_movemask_epi8(top) != 0 {
        return None;
    }
    let (mut word, mut space) = (0u64, 0u64);
    for (k, &v) in vectors.iter().enumerate() {
        // Setting bit 5 folds upper-case letters onto lower-case ones.
        let alnum = _mm_or_si128(
            within(v, b'0', b'9'),
            within(_mm_or_si128(v, splat(0x20)), b'a', b'z'),
        );
        // `\t \n \x0C \r` and the space; the vertical tab is punctuation.
        let white = _mm_or_si128(
            _mm_cmpeq_epi8(v, splat(b' ')),
            _mm_andnot_si128(_mm_cmpeq_epi8(v, splat(0x0B)), within(v, b'\t', b'\r')),
        );
        word |= u64::from(_mm_movemask_epi8(alnum) as u16) << (16 * k);
        space |= u64::from(_mm_movemask_epi8(white) as u16) << (16 * k);
    }
    Some((word, space))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokenizer as first written: an iterator over the `(start, len)`
    /// byte spans of the token pieces. Kept as the reference the one-pass
    /// walk is checked against.
    fn piece_spans(text: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
        let bytes = text.as_bytes();
        let mut i = 0usize;
        std::iter::from_fn(move || {
            // Skip whitespace.
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                return None;
            }
            let start = i;
            let b = bytes[i];
            if b.is_ascii_alphanumeric() || b >= 0x80 {
                // Word piece: up to 4 chars of a word run.
                let mut taken = 0;
                while i < bytes.len() && taken < 4 {
                    let c = bytes[i];
                    if c.is_ascii_alphanumeric() || c >= 0x80 {
                        // Advance one UTF-8 character.
                        let ch_len = utf8_len(c);
                        i += ch_len;
                        taken += 1;
                    } else {
                        break;
                    }
                }
            } else {
                // Punctuation: one token per character.
                i += 1;
            }
            Some((start, i - start))
        })
    }

    fn utf8_len(first_byte: u8) -> usize {
        match first_byte {
            b if b < 0x80 => 1,
            b if b >= 0xF0 => 4,
            b if b >= 0xE0 => 3,
            _ => 2,
        }
    }

    /// Reference truncation: the head of `text` holding at most
    /// `max_tokens` pieces.
    fn reference_truncate(text: &str, max_tokens: usize) -> &str {
        let mut remaining = max_tokens;
        let mut end = 0usize;
        for (piece_start, piece_len) in piece_spans(text) {
            if remaining == 0 {
                return &text[..end];
            }
            remaining -= 1;
            end = piece_start + piece_len;
        }
        text
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(count_tokens("the cat sat"), 3);
    }

    #[test]
    fn long_words_split() {
        // "population" = 10 chars → 3 pieces (4+4+2).
        assert_eq!(count_tokens("population"), 3);
        // One 200-byte word spans three whole blocks and a tail.
        let word = "Q4x9".repeat(50);
        assert_eq!(count_tokens(&word), 50);
        for max in 0..=51 {
            let kept = reference_truncate(&word, max);
            assert_eq!(truncate_tokens(&word, max), (kept, max.min(50)), "{max}");
        }
    }

    #[test]
    fn punctuation_counts() {
        assert_eq!(count_tokens("a, b."), 4); // a , b .
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   \n\t "), 0);
    }

    #[test]
    fn unicode_does_not_panic_or_split_chars() {
        let s = "Zürich Köln Москва";
        let n = count_tokens(s);
        assert!(n >= 3);
        // Truncation must never split a UTF-8 character.
        for max in 0..=n {
            let (t, kept) = truncate_tokens(s, max);
            assert!(s.starts_with(t));
            assert_eq!(kept, max);
        }
    }

    #[test]
    fn truncate_preserves_head() {
        let s = "one two three four";
        assert_eq!(truncate_tokens(s, 2), ("one two", 2));
        assert_eq!(truncate_tokens(s, 100), (s, 5)); // "three" is two pieces
        assert_eq!(truncate_tokens(s, 0), ("", 0));
        // Text that fits keeps its trailing whitespace.
        assert_eq!(truncate_tokens("one two \n", 2), ("one two \n", 2));
        assert_eq!(truncate_tokens(" \n", 0), (" \n", 0));
    }

    #[test]
    fn byte_classes_match_the_reference_predicates() {
        for b in 0..=255u8 {
            let class = BYTE_CLASS[b as usize];
            if b.is_ascii_whitespace() {
                assert_eq!(class, SPACE, "{b:#x}");
            } else if b.is_ascii_alphanumeric() || b >= 0x80 {
                // A word byte; `char` boundaries tell lead from continuation.
                assert_eq!(class == CONT, (0x80..0xC0).contains(&b), "{b:#x}");
                assert!(class >= WORD, "{b:#x}");
            } else {
                assert_eq!(class, PUNCT, "{b:#x}");
            }
        }
    }

    /// Text built from the fragments whose handling differs: ASCII words
    /// short and longer than four, 2/3/4-byte characters alone and in
    /// runs, punctuation runs, every ASCII whitespace byte, and the
    /// vertical tab (whitespace to `char`, punctuation to the tokenizer).
    fn mixed_text() -> impl Strategy<Value = String> {
        const FRAGMENTS: &[&str] = &[
            "a",
            "the",
            "population",
            "Q4x9",
            "ü",
            "Zürich",
            "Москва",
            "東京都庁舎",
            "😀",
            "😀😀😀😀😀",
            "a😀é東b",
            ",",
            "?!...",
            "'",
            "\"A:\"",
            " ",
            "   ",
            "\n",
            "\t\r\n",
            "\u{c}",
            "\u{b}",
            "\u{0}",
            "\u{7f}",
        ];
        proptest::collection::vec(0..FRAGMENTS.len(), 0..24)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    /// Arbitrary UTF-8: each character's width (one to four bytes) is
    /// drawn first, then a scalar value of that width.
    fn any_text() -> impl Strategy<Value = String> {
        let any_char = proptest::strategy::BoxedStrategy::from_fn(|rng| {
            let (lo, hi) = [
                (0, 0x80),
                (0x80, 0x800),
                (0x800, 0x1_0000),
                (0x1_0000, 0x11_0000),
            ][rng.below(4) as usize];
            // A surrogate is no scalar value; it stands for U+FFFD.
            char::from_u32((lo + rng.below(hi - lo)) as u32).unwrap_or('\u{fffd}')
        });
        proptest::collection::vec(any_char, 0..40).prop_map(|chars| chars.into_iter().collect())
    }

    /// Texts of up to 400 bytes whose 64-byte blocks are mostly all ASCII:
    /// ASCII words of 1–70 characters, so that runs cross a block edge at
    /// every offset mod 4 and span whole blocks; every separator class
    /// (each ASCII whitespace byte, the vertical tab, NUL, DEL,
    /// punctuation); and now and then a multi-byte character, which sends
    /// its block to the byte walk.
    fn block_seam_text() -> impl Strategy<Value = String> {
        const SEPARATORS: &[&str] = &[
            " ", "\t", "\n", "\u{c}", "\r", "\u{b}", "\u{0}", "\u{7f}", ",", ".", "'", "-", "  ",
            ". \n\n",
        ];
        const WIDE: &[char] = &['ü', '東', '😀', '⌁'];
        const ALNUM: &[u8] = b"abqxyzAQZ0189";
        proptest::strategy::BoxedStrategy::from_fn(|rng| {
            let len = rng.below(401) as usize;
            let mut text = String::new();
            while text.len() < len {
                match rng.below(16) {
                    0 => text.push(WIDE[rng.below(WIDE.len() as u64) as usize]),
                    1..=6 => text.push_str(SEPARATORS[rng.below(SEPARATORS.len() as u64) as usize]),
                    _ => {
                        let longest = if rng.below(2) == 0 { 8 } else { 70 };
                        for _ in 0..=rng.below(longest) {
                            text.push(ALNUM[rng.below(ALNUM.len() as u64) as usize] as char);
                        }
                    }
                }
            }
            while text.len() > len {
                text.pop();
            }
            text
        })
    }

    proptest! {
        #[test]
        fn block_seams_count_and_cut_as_the_reference(text in block_seam_text()) {
            let n = piece_spans(&text).count();
            prop_assert_eq!(count_tokens(&text), n, "{:?}", text);
            for max in 0..=n + 1 {
                let kept = reference_truncate(&text, max);
                prop_assert_eq!(
                    truncate_tokens(&text, max),
                    (kept, piece_spans(kept).count()),
                    "max {} of {:?}", max, text
                );
            }
        }

        #[test]
        fn truncation_of_arbitrary_utf8_splits_no_char(text in any_text()) {
            let n = piece_spans(&text).count();
            for max in 0..=n + 1 {
                let (kept, tokens) = truncate_tokens(&text, max);
                prop_assert!(text.is_char_boundary(kept.len()) && text.starts_with(kept));
                let reference = reference_truncate(&text, max);
                prop_assert_eq!(
                    (kept, tokens),
                    (reference, piece_spans(reference).count()),
                    "max {} of {:?}", max, text
                );
            }
        }

        /// Resuming at any char boundary from the walk's state there
        /// cuts and counts as the whole walk, under every budget: one that
        /// runs out inside the prefix, one that ends at its last token,
        /// and every one after.
        #[test]
        fn a_resumed_walk_equals_the_whole_walk(text in mixed_text()) {
            let n = piece_spans(&text).count();
            for at in (0..=text.len()).filter(|&at| text.is_char_boundary(at)) {
                let (tokens, run) = walk_state(&text[..at]);
                prop_assert_eq!(tokens, piece_spans(&text[..at]).count());
                for max in 0..=n + 1 {
                    prop_assert_eq!(
                        truncate_tokens_from(&text, at, tokens, run, max),
                        truncate_tokens(&text, max),
                        "split {} max {} of {:?}", at, max, text
                    );
                }
            }
        }

        /// The same over texts whose blocks take the mask path, split at
        /// every char boundary (so a resumed walk's blocks start at every
        /// offset of the whole walk's), under the budgets around the
        /// prefix's last token and around the whole text's.
        #[test]
        fn a_resumed_walk_over_ascii_blocks_equals_the_whole_walk(text in block_seam_text()) {
            let n = count_tokens(&text);
            for at in (0..=text.len()).filter(|&at| text.is_char_boundary(at)) {
                let (tokens, run) = walk_state(&text[..at]);
                let around = [tokens.saturating_sub(1), tokens, tokens + 1];
                for max in [0, n, n + 1, usize::MAX].into_iter().chain(around) {
                    prop_assert_eq!(
                        truncate_tokens_from(&text, at, tokens, run, max),
                        truncate_tokens(&text, max),
                        "split {} max {} of {:?}", at, max, text
                    );
                }
            }
        }

        #[test]
        fn one_pass_walk_equals_the_reference_iterator(text in mixed_text()) {
            let n = piece_spans(&text).count();
            prop_assert_eq!(count_tokens(&text), n);
            for max in 0..=n + 1 {
                let kept = reference_truncate(&text, max);
                prop_assert_eq!(
                    truncate_tokens(&text, max),
                    (kept, piece_spans(kept).count()),
                    "max {} of {:?}", max, text
                );
            }
        }
    }
}
