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
/// Empty or whitespace-only text counts zero tokens.
pub fn count(text: &str) -> usize {
    let mut total = 0usize;
    for word in text.split_whitespace() {
        total += word_tokens(word);
    }
    total
}

fn word_tokens(word: &str) -> usize {
    // Split a "word" into alphanumeric and punctuation runs; each
    // alphanumeric run costs ceil(len/4) with a minimum of 1, punctuation
    // runs cost 1 token each.
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
