//! Deterministic text embeddings.
//!
//! A feature-hashing embedder: lowercase word unigrams and bigrams are
//! hashed into a fixed-dimension vector with signed contributions, then
//! L2-normalized. Texts sharing vocabulary land close in cosine space,
//! which is all the Context-description retrieval and vector indexes need.

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

impl Embedder {
    /// Creates an embedder with `dims` dimensions (minimum 8).
    pub fn new(dims: usize) -> Self {
        Embedder { dims: dims.max(8) }
    }

    /// Embeds text into an L2-normalized vector. Empty text embeds to the
    /// zero vector.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0f32; self.dims];
        let words: Vec<String> = text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .map(|w| w.to_ascii_lowercase())
            .collect();
        for w in &words {
            self.bump(&mut v, w, 1.0);
        }
        for pair in words.windows(2) {
            self.bump(&mut v, &format!("{} {}", pair[0], pair[1]), 0.5);
        }
        normalize(&mut v);
        v
    }

    fn bump(&self, v: &mut [f32], feature: &str, weight: f32) {
        let h = noise::hash_str(feature);
        let idx = (h % self.dims as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[idx] += sign * weight;
    }
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
