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
/// Empty or whitespace-only text counts zero tokens. Each token is billed
/// at the character that opens it: the first of a punctuation run, and the
/// 1st, 5th, 9th… of an alphanumeric run, which so costs `ceil(len/4)`.
///
/// On x86_64 an all-ASCII 64-byte block is classified at once into an
/// alphanumeric and a punctuation bitmask ([`block_masks`]) and counted by
/// mask arithmetic ([`Counter::block`]). Every other byte — a block holding
/// a non-ASCII byte, the tail, all of the text on other architectures —
/// takes the byte pass ([`Counter::step`]): an ASCII byte is classified by
/// [`CLASSES`], and only a non-ASCII character is decoded, to be
/// classified by `char::is_whitespace` / `char::is_alphanumeric`, so NBSP,
/// NEL, `é` or `٣` count as they would in a char-by-char walk.
pub fn count(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut counter = Counter {
        total: 0,
        run: 0,
        prev: SPACE,
    };
    let mut i = 0;
    #[cfg(target_arch = "x86_64")]
    while let Some(block) = bytes.get(i..i + BLOCK) {
        let end = i + BLOCK;
        match block_masks(block) {
            Some((alnum, punct)) => {
                counter.block(alnum, punct);
                i = end;
            }
            // A character may straddle the block's end: the byte pass
            // stops after it.
            None => {
                while i < end {
                    i = counter.step(text, i);
                }
            }
        }
    }
    while i < bytes.len() {
        i = counter.step(text, i);
    }
    counter.total
}

/// The bytes [`count`] classifies at once.
#[cfg(target_arch = "x86_64")]
const BLOCK: usize = 64;

/// The running state of [`count`].
struct Counter {
    total: usize,
    /// The open alphanumeric run's length.
    run: usize,
    /// The previous character's class.
    prev: u8,
}

impl Counter {
    /// Counts the character at byte `i` of `text`; returns the byte after
    /// it.
    fn step(&mut self, text: &str, mut i: usize) -> usize {
        let mut class = CLASSES[usize::from(text.as_bytes()[i])];
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
        self.total += usize::from(alnum && self.run.is_multiple_of(4))
            + usize::from(class == PUNCT && self.prev != PUNCT);
        self.run = if alnum { self.run + 1 } else { 0 };
        self.prev = class;
        i
    }

    /// Counts a 64-byte block from its masks (bit `k` for byte `k`): one
    /// token per punctuation byte whose predecessor is not punctuation,
    /// and one per alphanumeric byte at run offset 0 mod 4. A run's bytes
    /// are found by adding its start bit to the alphanumeric mask: the
    /// carry clears exactly that run. Runs are grouped by the residue of
    /// their start mod 4, and a group's tokens are its run bytes of that
    /// residue. The run open at the block's start began `run` bytes
    /// before it, at residue `-run mod 4`.
    #[cfg(target_arch = "x86_64")]
    fn block(&mut self, alnum: u64, punct: u64) {
        /// The bits of index 0 mod 4.
        const RESIDUE_0: u64 = 0x1111_1111_1111_1111;
        let open = self.run > 0;
        let after_punct = punct << 1 | u64::from(self.prev == PUNCT);
        let mut tokens = (punct & !after_punct).count_ones();
        let starts = alnum & !(alnum << 1 | u64::from(open));
        let carried = alnum & u64::from(open);
        let carried_residue = self.run.wrapping_neg() % 4;
        for residue in 0..4 {
            let lane = RESIDUE_0 << residue;
            let mut group = starts & lane;
            if residue == carried_residue {
                group |= carried;
            }
            let runs = alnum & (alnum ^ alnum.wrapping_add(group));
            tokens += (runs & lane).count_ones();
        }
        self.total += tokens as usize;
        // A block-long run extends the open one (`run` is 0 when none is).
        self.run = match alnum.leading_ones() {
            64 => self.run + 64,
            ones => ones as usize,
        };
        self.prev = if alnum >> 63 == 1 {
            ALNUM
        } else if punct >> 63 == 1 {
            PUNCT
        } else {
            SPACE
        };
    }
}

/// The alphanumeric and punctuation masks of a 64-byte block (bit `k` for
/// byte `k`; a byte in neither is whitespace), or `None` when a byte is
/// not ASCII. Sixteen bytes at a time with SSE2: every byte is below 0x80,
/// so signed byte compares order them as unsigned.
#[cfg(target_arch = "x86_64")]
fn block_masks(block: &[u8]) -> Option<(u64, u64)> {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_cmpeq_epi8, _mm_cmpgt_epi8, _mm_cmplt_epi8, _mm_loadu_si128,
        _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
    };
    let (mut alnum, mut punct) = (0u64, 0u64);
    for (k, chunk) in block.chunks_exact(16).enumerate() {
        // SAFETY: SSE2 is part of every x86_64 target, so its intrinsics
        // are always available; `_mm_loadu_si128` reads exactly the 16
        // bytes of `chunk` and needs no alignment.
        let (ascii, a, s) = unsafe {
            let within = |v: __m128i, lo: u8, hi: u8| {
                _mm_and_si128(
                    _mm_cmpgt_epi8(v, _mm_set1_epi8(lo as i8 - 1)),
                    _mm_cmplt_epi8(v, _mm_set1_epi8(hi as i8 + 1)),
                )
            };
            let v = _mm_loadu_si128(chunk.as_ptr().cast::<__m128i>());
            let letter = within(_mm_or_si128(v, _mm_set1_epi8(0x20)), b'a', b'z');
            let digit = within(v, b'0', b'9');
            // `\t` `\n` U+000B U+000C `\r`, and the space.
            let space = _mm_or_si128(
                within(v, 0x09, 0x0D),
                _mm_cmpeq_epi8(v, _mm_set1_epi8(0x20)),
            );
            (
                _mm_movemask_epi8(v) == 0,
                _mm_movemask_epi8(_mm_or_si128(letter, digit)),
                _mm_movemask_epi8(space),
            )
        };
        if !ascii {
            return None;
        }
        let (a, s) = (u64::from(a as u16), u64::from(s as u16));
        alnum |= a << (16 * k);
        punct |= (!(a | s) & 0xFFFF) << (16 * k);
    }
    Some((alnum, punct))
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

    /// ASCII-weighted pieces for texts long enough to fill 64-byte
    /// blocks: words, long alphanumeric runs, punctuation runs, every
    /// whitespace byte, and now and then a non-ASCII character.
    const PIECES: &[&str] = &[
        "a",
        "Z",
        "q",
        "0",
        "7",
        "ab",
        "word",
        "tokens",
        "abcdefgh",
        "reports2024",
        "unbelievable",
        ".",
        ",",
        "...",
        "-",
        "_",
        "'",
        "\"(",
        "!?",
        " ",
        " ",
        " ",
        "  ",
        "\t",
        "\n",
        "\r\n",
        "\u{0B}",
        "\u{0C}",
        "\u{1C}",
        "\u{7F}",
        "\0",
        "é",
        "日",
        "\u{A0}",
        "\u{2028}",
        "“",
        "٣",
    ];

    /// The ASCII pieces of [`PIECES`] come first.
    const ASCII_PIECES: usize = 31;

    /// A text of up to 600 bytes from `picks`: a pick of `(p, i)` takes
    /// piece `i` of the whole list when `p` is 0, of its ASCII part
    /// otherwise.
    fn ascii_weighted(picks: &[(u32, usize)]) -> String {
        let mut text = String::new();
        for &(p, i) in picks {
            let pool = if p > 0 {
                &PIECES[..ASCII_PIECES]
            } else {
                PIECES
            };
            text.push_str(pool[i % pool.len()]);
            if text.len() >= 600 {
                break;
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn block_pass_counts_like_the_char_walk(
            picks in prop::collection::vec((0u32..32, 0..PIECES.len()), 0..300),
            cut in 0usize..600,
        ) {
            let text = ascii_weighted(&picks);
            let cut = (0..=cut.min(text.len())).rev().find(|&c| text.is_char_boundary(c)).unwrap_or(0);
            // Every length from 0 to 600 bytes, blocks cut anywhere.
            for text in [&text[..], &text[..cut]] {
                prop_assert_eq!(count(text), reference_count(text), "{:?}", text);
            }
        }
    }

    #[test]
    fn block_boundaries_count_like_the_char_walk() {
        let mut texts: Vec<String> = Vec::new();
        // Alphanumeric runs of 64, 65 and 200 bytes, at every offset
        // against a block boundary, and a run spanning blocks after a
        // carried run.
        for len in [63, 64, 65, 66, 67, 127, 128, 129, 130, 131, 200] {
            for lead in 0..8 {
                texts.push(format!("{}{}", " ".repeat(lead), "a".repeat(len)));
                texts.push(format!("{}{} b", "x.".repeat(lead), "7".repeat(len)));
            }
        }
        // Words straddling the boundary at byte 64 at every offset.
        for lead in 56..72 {
            texts.push(format!("{} straddling words, on and on", "q".repeat(lead)));
            texts.push(format!("{}abcdefghij klm", " ".repeat(lead)));
        }
        // Punctuation runs across a boundary.
        for lead in 58..66 {
            texts.push(format!("{}{}end", "w ".repeat(lead / 2), ".".repeat(12)));
            texts.push(format!("{}--,..!x", "z".repeat(lead)));
        }
        // A non-ASCII character at bytes 62 to 66: the block it falls in
        // takes the byte pass, a character straddling byte 64 included.
        for at in 62..=66 {
            for c in ['é', '日', '\u{A0}', '“', '٣'] {
                let text = format!(
                    "{}{c}{}",
                    "ab ".repeat(at / 3) + &"c".repeat(at % 3),
                    "de".repeat(60)
                );
                assert_eq!(text.find(c), Some(at));
                texts.push(text);
            }
        }
        // Whole blocks of one class.
        texts.push(" ".repeat(192));
        texts.push(".".repeat(192));
        texts.push("\u{0B}".repeat(130));
        // Each again with a tail, so the block after the boundary is
        // counted from masks too.
        let tail = " and the rest, of it".repeat(8);
        for text in &texts {
            for text in [text.clone(), format!("{text}{tail}")] {
                assert_eq!(count(&text), reference_count(&text), "{text:?}");
            }
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
