//! Deterministic text embeddings.
//!
//! A feature-hashing embedder. Its features are defined on words: a word
//! is a maximal run of `char::is_alphanumeric` characters, lowered by
//! ASCII case only. Each word adds ±1.0 at `noise::hash_str(word)` and
//! each adjacent pair of words adds ±0.5 at `noise::hash_str("{a} {b}")`;
//! a hash's bucket is the hash modulo the dimension and its sign is bit
//! 32. The vector is then L2-normalized. Texts sharing vocabulary land
//! close in cosine space, which is all the Context-description retrieval
//! and vector indexes need.
//!
//! [`Embedder::embed`] computes these features in one pass over the
//! text's bytes, building no word or pair string.

use crate::noise;

/// A deterministic feature-hashing embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    dims: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder { dims: 128 }
    }
}

/// For each ASCII byte: its lowercase form when it is alphanumeric, and
/// 0 when it separates words (NUL is not alphanumeric, so 0 is free).
static ASCII_WORD: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0;
    while b < 128 {
        if (b as u8).is_ascii_alphanumeric() {
            table[b] = (b as u8).to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

impl Embedder {
    /// Creates an embedder with `dims` dimensions (minimum 8).
    pub fn new(dims: usize) -> Self {
        Embedder { dims: dims.max(8) }
    }

    /// Embeds text into an L2-normalized vector. Empty text embeds to the
    /// zero vector.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0f32; self.dims];
        let bytes = text.as_bytes();
        // The previous word's FNV-1a state. A pair's hash is that state
        // continued over " " and then over this word, so the word's and
        // the pair's states advance together, byte by byte. Every bump is
        // ±1.0 or ±0.5, so sums are exact and the order in which features
        // land does not change a bit.
        let mut previous: Option<u64> = None;
        let mut i = 0;
        while i < bytes.len() {
            if let Some(skip) = separator_len(text, i) {
                i += skip;
                continue;
            }
            let mut word = noise::FNV_OFFSET;
            let mut pair = noise::fnv1a(previous.unwrap_or(0), b" ");
            while let Some(&b) = bytes.get(i) {
                if b < 0x80 {
                    let lower = ASCII_WORD[usize::from(b)];
                    if lower == 0 {
                        break;
                    }
                    word = noise::fnv1a(word, &[lower]);
                    pair = noise::fnv1a(pair, &[lower]);
                    i += 1;
                } else {
                    let c = char_at(text, i);
                    if !c.is_alphanumeric() {
                        break;
                    }
                    let char_bytes = &bytes[i..i + c.len_utf8()];
                    word = noise::fnv1a(word, char_bytes);
                    pair = noise::fnv1a(pair, char_bytes);
                    i += c.len_utf8();
                }
            }
            self.bump(&mut v, noise::splitmix64(word), 1.0);
            if previous.is_some() {
                self.bump(&mut v, noise::splitmix64(pair), 0.5);
            }
            previous = Some(word);
        }
        normalize(&mut v);
        v
    }

    fn bump(&self, v: &mut [f32], h: u64, weight: f32) {
        // `h % dims` is `h & (dims - 1)` when `dims` is a power of two.
        let idx = if self.dims.is_power_of_two() {
            (h & (self.dims as u64 - 1)) as usize
        } else {
            (h % self.dims as u64) as usize
        };
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[idx] += sign * weight;
    }
}

/// The `char` starting at byte `i` of `text`, a char boundary below its
/// length.
fn char_at(text: &str, i: usize) -> char {
    text[i..]
        .chars()
        .next()
        .expect("i is below the text's length")
}

/// The byte length of the character at byte `i` when it separates words,
/// `None` when it starts one.
fn separator_len(text: &str, i: usize) -> Option<usize> {
    let b = text.as_bytes()[i];
    if b < 0x80 {
        return (ASCII_WORD[usize::from(b)] == 0).then_some(1);
    }
    let c = char_at(text, i);
    (!c.is_alphanumeric()).then_some(c.len_utf8())
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity of two vectors (0 when either is zero or lengths
/// differ).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, norm(a), b, norm(b))
}

/// The L2 norm of `a`, as [`cosine`] computes it: a sequential sum of
/// squares, then its square root.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// [`cosine`] given each vector's [`norm`], so a vector compared many
/// times has its norm computed once. Bit-equal to [`cosine`] when `na`
/// and `nb` are `norm(a)` and `norm(b)`.
pub fn cosine_with_norms(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    if a.len() != b.len() || a.is_empty() {
        return 0.0;
    }
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Squared Euclidean distance (used by k-means clustering).
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_deterministic_and_normalized() {
        let e = Embedder::default();
        let a = e.embed("identity theft reports in 2024");
        let b = e.embed("identity theft reports in 2024");
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let e = Embedder::default();
        let q = e.embed("number of identity theft reports in 2024");
        let close = e.embed("identity theft reports by year, 2001 to 2024");
        let far = e.embed("quarterly natural gas pipeline maintenance schedule");
        assert!(cosine(&q, &close) > cosine(&q, &far));
        assert!(cosine(&q, &close) > 0.2);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = Embedder::default();
        let z = e.embed("");
        assert!(z.iter().all(|x| *x == 0.0));
        assert_eq!(cosine(&z, &z), 0.0);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let e = Embedder::default();
        let v = e.embed("hello world");
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cosine_handles_mismatched_lengths() {
        assert_eq!(cosine(&[1.0], &[1.0, 0.0]), 0.0);
        assert_eq!(cosine(&[], &[]), 0.0);
    }

    /// `cosine` as it was before the norms were split out: three
    /// sequential reductions per call.
    fn parent_cosine(a: &[f32], b: &[f32]) -> f32 {
        if a.len() != b.len() || a.is_empty() {
            return 0.0;
        }
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    mod norm_identity {
        use super::*;
        use proptest::prelude::*;

        const CASES: u32 = if cfg!(debug_assertions) { 512 } else { 16384 };

        /// Components of several magnitudes, often zero; vectors built
        /// from them are not normalized.
        fn component() -> impl Strategy<Value = f32> {
            prop_oneof![
                Just(0.0f32),
                Just(-0.0f32),
                -1.0f32..1.0,
                -1e3f32..1e3,
                1e-4f32..1e-2,
            ]
        }

        fn vector() -> impl Strategy<Value = Vec<f32>> {
            prop_oneof![
                prop::collection::vec(component(), 0..12),
                prop::collection::vec(component(), 128..129),
                prop::collection::vec(Just(0.0f32), 0..130),
                "[a-z ]{0,40}".prop_map(|text| Embedder::default().embed(&text)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(CASES))]
            #[test]
            fn stored_norms_give_the_parents_bits(a in vector(), b in vector()) {
                let parent = parent_cosine(&a, &b).to_bits();
                prop_assert_eq!(cosine_with_norms(&a, norm(&a), &b, norm(&b)).to_bits(), parent);
                prop_assert_eq!(cosine(&a, &b).to_bits(), parent);
                // `b` cut or zero-padded to `a`'s length, both ways round.
                let same: Vec<f32> = (0..a.len()).map(|i| b.get(i).copied().unwrap_or(0.0)).collect();
                for (x, y) in [(&a, &same), (&same, &a)] {
                    prop_assert_eq!(
                        cosine_with_norms(x, norm(x), y, norm(y)).to_bits(),
                        parent_cosine(x, y).to_bits()
                    );
                }
            }
        }
    }

    mod bigrams {
        use super::*;
        use proptest::prelude::*;

        const CASES: u32 = if cfg!(debug_assertions) { 1024 } else { 16384 };

        /// `Embedder::embed` as it was written with a lowercased `String`
        /// per word, a `format!`ed string per bigram and a `%` per bump:
        /// the oracle for the one-pass walk.
        fn embed_oracle(e: &Embedder, text: &str) -> Vec<f32> {
            let mut v = vec![0f32; e.dims];
            let mut bump = |h: u64, weight: f32| {
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[(h % e.dims as u64) as usize] += sign * weight;
            };
            let words: Vec<String> = text
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty())
                .map(|w| w.to_ascii_lowercase())
                .collect();
            for w in &words {
                bump(noise::hash_str(w), 1.0);
            }
            for pair in words.windows(2) {
                bump(noise::hash_str(&format!("{} {}", pair[0], pair[1])), 0.5);
            }
            normalize(&mut v);
            v
        }

        /// A word: lower-case, upper-case runs, digits run into letters,
        /// non-ASCII alphanumerics (an Arabic-Indic digit, a titlecase
        /// digraph, a capital whose lowercase is longer, CJK) that ASCII
        /// lowercasing leaves alone, and words over 64 bytes.
        fn word() -> impl Strategy<Value = String> {
            prop_oneof![
                "[a-z]{1,6}",
                "[A-Z]{2,12}",
                "[A-Za-zÉé]{1,4}[0-9]{1,3}[A-Za-zÉ]{0,2}",
                "[a-zA-Z0-9éÉ日ß٣ǅİ]{1,8}",
                "[a-zA-Z0-9٣ǅİ日]{40,90}",
            ]
        }

        /// ASCII separators and non-ASCII ones: a combining accent, a
        /// no-break space, an em dash.
        fn separator() -> impl Strategy<Value = String> {
            prop_oneof!["[ ,.-]{1,2}", "[ \u{301}\u{a0}—]{1,3}", "\u{301}"]
        }

        /// Mixed text of the pieces above, random character soup, and
        /// texts over 2,000 characters (the index prefix's length).
        fn text() -> impl Strategy<Value = String> {
            prop_oneof![
                "[a-zA-Z0-9 ,.éÉ日ß٣ǅİ\u{301}\u{a0}—-]{0,60}",
                prop::collection::vec((separator(), word()), 0..12)
                    .prop_map(|pieces| pieces.into_iter().flat_map(|(s, w)| [s, w]).collect()),
                "[a-zA-Z0-9 ٣ǅİ日\u{301}\u{a0}—]{1990,2100}",
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(CASES))]
            #[test]
            fn features_are_bit_identical(text in text(), dims in 8usize..200) {
                let e = Embedder::new(dims);
                let got: Vec<u32> = e.embed(&text).iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = embed_oracle(&e, &text).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn l2_sq_is_zero_iff_equal() {
        let e = Embedder::default();
        let a = e.embed("alpha beta");
        let b = e.embed("gamma delta epsilon");
        assert_eq!(l2_sq(&a, &a), 0.0);
        assert!(l2_sq(&a, &b) > 0.0);
    }

    #[test]
    fn dims_respects_minimum() {
        assert_eq!(Embedder::new(2).embed("x").len(), 8);
        assert_eq!(Embedder::new(64).embed("x").len(), 64);
    }
}
