//! Token counting.
//!
//! A deterministic approximation of BPE tokenization: whitespace-separated
//! words contribute roughly `ceil(len/4)` tokens (long words split into
//! multiple pieces, as real tokenizers do), and standalone punctuation or
//! digits contribute one token per run. The absolute scale is close enough
//! to `cl100k_base` on English prose (±15%) that simulated dollar costs
//! land in the right ballpark.

/// Counts the tokens in `text`.
///
/// Empty or whitespace-only text counts zero tokens. One pass over the
/// bytes: an ASCII byte is classified by [`CLASSES`], and only a non-ASCII
/// character is decoded, to be classified by `char::is_whitespace` /
/// `char::is_alphanumeric`, so NBSP, NEL, `é` or `٣` count as they would
/// in a char-by-char walk. Each token is billed at the character that
/// opens it: the first of a punctuation run, and the 1st, 5th, 9th… of an
/// alphanumeric run, which so costs `ceil(len/4)`.
pub fn count(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut total = 0usize;
    // The open alphanumeric run's length, and the previous character's
    // class.
    let mut run = 0usize;
    let mut prev = SPACE;
    let mut i = 0;
    while i < bytes.len() {
        let mut class = CLASSES[usize::from(bytes[i])];
        if class == NON_ASCII {
            let c = text[i..]
                .chars()
                .next()
                .expect("a non-ASCII byte at i opens a char");
            i += c.len_utf8();
            class = char_class(c);
        } else {
            i += 1;
        }
        let alnum = class == ALNUM;
        total += usize::from(alnum && run.is_multiple_of(4))
            + usize::from(class == PUNCT && prev != PUNCT);
        run = if alnum { run + 1 } else { 0 };
        prev = class;
    }
    total
}

// How the tokenizer sees one character: whitespace separates words; in a
// word, each alphanumeric run costs `ceil(len/4)` tokens and each
// punctuation run one.
const SPACE: u8 = 0;
const PUNCT: u8 = 1;
const ALNUM: u8 = 2;
/// A byte of a multi-byte character: the character is decoded.
const NON_ASCII: u8 = 3;

/// The class of every byte. `char::is_whitespace` counts U+000B (vertical
/// tab), which `u8::is_ascii_whitespace` does not.
static CLASSES: [u8; 256] = {
    let mut table = [NON_ASCII; 256];
    let mut b = 0;
    while b < 128 {
        let byte = b as u8;
        table[b] = match byte {
            b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ' => SPACE,
            _ if byte.is_ascii_alphanumeric() => ALNUM,
            _ => PUNCT,
        };
        b += 1;
    }
    table
};

/// The class of a non-ASCII character.
fn char_class(c: char) -> u8 {
    if c.is_whitespace() {
        SPACE
    } else if c.is_alphanumeric() {
        ALNUM
    } else {
        PUNCT
    }
}

/// Tokens of framing (role headers, separators) billed per prompt part.
pub const PART_FRAMING: usize = 4;

/// Counts tokens for a prompt assembled from multiple parts, adding the
/// per-part framing overhead.
pub fn count_parts(parts: &[&str]) -> usize {
    parts.iter().map(|p| count(p) + PART_FRAMING).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char tokenizer [`count`] replaced: the reference its
    /// byte pass is checked against.
    fn reference_count(text: &str) -> usize {
        text.split_whitespace().map(reference_word_tokens).sum()
    }

    fn reference_word_tokens(word: &str) -> usize {
        let mut tokens = 0usize;
        let mut alpha_len = 0usize;
        let mut prev_punct = false;
        for c in word.chars() {
            if c.is_alphanumeric() {
                alpha_len += 1;
                prev_punct = false;
            } else {
                if alpha_len > 0 {
                    tokens += alpha_len.div_ceil(4).max(1);
                    alpha_len = 0;
                }
                if !prev_punct {
                    tokens += 1;
                }
                prev_punct = true;
            }
        }
        if alpha_len > 0 {
            tokens += alpha_len.div_ceil(4).max(1);
        }
        tokens.max(1)
    }

    /// Characters on both sides of every class boundary: ASCII letters,
    /// digits and punctuation, all six ASCII whitespace bytes
    /// `char::is_whitespace` accepts plus the separators it does not
    /// (U+001C..U+001F), and non-ASCII whitespace, letters, digits and
    /// punctuation.
    const ALPHABET: &[char] = &[
        'a', 'Z', 'q', '0', '7', '.', ',', '-', '_', '\'', '"', '(', '\t', '\n', '\u{0B}',
        '\u{0C}', '\r', ' ', '\u{1C}', '\u{1F}', '\u{A0}', '\u{85}', '\u{2028}', '\u{3000}', 'é',
        'ß', '日', '٣', '“', '…', '\u{7F}', '\0',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn byte_pass_counts_like_the_char_walk(
            picks in prop::collection::vec(0..ALPHABET.len(), 0..40)
        ) {
            let text: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
            prop_assert_eq!(count(&text), reference_count(&text));
        }
    }

    #[test]
    fn vertical_tab_separates_words_and_nbsp_and_nel_too() {
        for sep in ['\u{0B}', '\u{A0}', '\u{85}'] {
            let text = format!("abcde{sep}fg");
            assert_eq!(count(&text), 3, "{sep:?}");
            assert_eq!(count(&text), reference_count(&text));
        }
        assert_eq!(count("a\u{1C}b"), reference_count("a\u{1C}b"));
    }

    #[test]
    fn empty_text_is_zero_tokens() {
        assert_eq!(count(""), 0);
        assert_eq!(count("   \n\t "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(count("a"), 1);
        assert_eq!(count("the"), 1);
        assert_eq!(count("the cat sat"), 3);
    }

    #[test]
    fn long_words_split_into_pieces() {
        // 12 letters -> 3 pieces.
        assert_eq!(count("unbelievable"), 3);
        // 8 letters -> 2 pieces.
        assert_eq!(count("neighbor"), 2);
    }

    #[test]
    fn punctuation_costs_tokens() {
        assert_eq!(count("end."), 2);
        assert_eq!(count("a,b"), 3);
        // A run of punctuation is one token.
        assert_eq!(count("wait..."), 2);
    }

    #[test]
    fn prose_scale_is_plausible() {
        let text = "The Federal Trade Commission received 1,135,291 identity \
                    theft reports in 2024, up from 86,250 in 2001.";
        let n = count(text);
        // ~18 words + numbers/punct: expect roughly 25-40 tokens.
        assert!((25..=40).contains(&n), "got {n}");
    }

    #[test]
    fn parts_add_framing_overhead() {
        assert_eq!(count_parts(&["a", "b"]), count("a") + count("b") + 8);
    }

    #[test]
    fn count_is_monotonic_in_concatenation() {
        let a = "identity theft reports";
        let b = "rose sharply in 2024";
        assert!(count(&format!("{a} {b}")) >= count(a).max(count(b)));
    }
}
