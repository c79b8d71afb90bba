//! Approximate tokenizer.
//!
//! Real LLM APIs bill and truncate by BPE tokens. For the simulation we use
//! a cheap approximation — whitespace/punctuation pieces, with long words
//! split every four characters — which is within ~20% of GPT-style BPE
//! counts on English prose and is deterministic and dependency-free.
//!
//! There is one walk over the text, [`truncate_tokens`]: it finds where a
//! token budget cuts the text *and* how many tokens the kept head holds, so
//! a model that truncates to its context window and then bills the prompt
//! reads the prompt's bytes once. [`count_tokens`] is that walk with no
//! budget.

/// Counts approximate tokens in `text`.
pub fn count_tokens(text: &str) -> usize {
    truncate_tokens(text, usize::MAX).1
}

/// What a byte means to the tokenizer, from [`BYTE_CLASS`]. `SPACE`
/// separates pieces and `PUNCT` is a piece of its own. A word run is made
/// of `WORD` bytes, each the first byte of a character (an ASCII
/// alphanumeric or a UTF-8 lead byte), and the `CONT`inuation bytes that
/// follow a lead byte; every fourth character of a run starts a new piece.
const SPACE: u8 = 0;
const PUNCT: u8 = 1;
const WORD: u8 = 2;
const CONT: u8 = 3;

const BYTE_CLASS: [u8; 256] = {
    let mut table = [PUNCT; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_whitespace() {
            table[b] = SPACE;
        } else if byte.is_ascii_alphanumeric() || byte >= 0xC0 {
            table[b] = WORD;
        } else if byte >= 0x80 {
            table[b] = CONT;
        }
        b += 1;
    }
    table
};

/// Characters per word piece.
const PIECE_CHARS: usize = 4;

/// Truncates `text` to at most `max_tokens` tokens, preserving the head,
/// and counts the tokens of what is kept — in one pass. The text comes
/// back unchanged (trailing whitespace included) when it fits.
pub fn truncate_tokens(text: &str, max_tokens: usize) -> (&str, usize) {
    let bytes = text.as_bytes();
    let mut tokens = 0usize;
    // Characters of the word run so far, zero outside one.
    let mut run = 0usize;
    // Straight-line per byte: where words end is unpredictable, so the
    // only branch is the one taken once, at the cut.
    for (i, &byte) in bytes.iter().enumerate() {
        let class = BYTE_CLASS[byte as usize];
        let starts_piece = class == PUNCT || (class == WORD && run.is_multiple_of(PIECE_CHARS));
        tokens += usize::from(starts_piece);
        if tokens > max_tokens {
            // One piece too many: cut where the piece before it ended.
            let mut end = i;
            while end > 0 && BYTE_CLASS[bytes[end - 1] as usize] == SPACE {
                end -= 1;
            }
            return (&text[..end], max_tokens);
        }
        run = match class {
            WORD => run + 1,
            CONT => run,
            _ => 0,
        };
    }
    (text, tokens)
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

    proptest! {
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
