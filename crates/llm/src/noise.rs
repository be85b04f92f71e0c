//! Deterministic noise channel.
//!
//! Every stochastic decision in the simulator — does a model misjudge this
//! document? which wrong row does a faulty extraction return? — derives
//! from a 64-bit hash of the decision's identity (seed, model, instruction,
//! subject). Replays are exact; changing the seed re-rolls everything.

/// SplitMix64: a fast, well-distributed 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a string into a 64-bit key (FNV-1a, then mixed).
pub fn hash_str(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

/// Combines hash keys into one (order-sensitive).
pub fn combine(parts: &[u64]) -> u64 {
    let mut acc: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    for p in parts {
        acc = splitmix64(acc ^ p.rotate_left(17));
    }
    acc
}

/// Maps a key to a uniform float in `[0, 1)`.
pub fn unit_f64(key: u64) -> f64 {
    // Use the top 53 bits for a uniform double.
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic Bernoulli draw: true with probability `p`.
pub fn decide(key: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    unit_f64(key) < p
}

/// Deterministic choice of an index in `0..n`.
pub fn choose(key: u64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (splitmix64(key) % (n as u64)) as usize
}

/// A tiny deterministic keyed RNG for sequences of draws.
#[derive(Debug, Clone)]
pub struct KeyedRng {
    state: u64,
}

impl KeyedRng {
    /// Seeds the generator from a key.
    pub fn new(key: u64) -> Self {
        KeyedRng {
            state: splitmix64(key ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Next uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Picks a random element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty());
        &items[self.below(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_distinct() {
        assert_eq!(hash_str("abc"), hash_str("abc"));
        assert_ne!(hash_str("abc"), hash_str("abd"));
        assert_ne!(hash_str(""), hash_str("a"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_eq!(combine(&[1, 2, 3]), combine(&[1, 2, 3]));
    }

    #[test]
    fn unit_values_are_in_range_and_spread() {
        let mut below_half = 0;
        for i in 0..1000u64 {
            let u = unit_f64(i);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below_half += 1;
            }
        }
        // Roughly uniform: 50% +/- 10%.
        assert!((400..=600).contains(&below_half), "{below_half}");
    }

    #[test]
    fn decide_matches_probability_empirically() {
        let hits = (0..10_000u64)
            .filter(|i| decide(combine(&[7, *i]), 0.2))
            .count();
        assert!((1700..=2300).contains(&hits), "{hits}");
        assert!(!decide(1, 0.0));
        assert!(decide(1, 1.0));
    }

    #[test]
    fn keyed_rng_replays() {
        let mut a = KeyedRng::new(42);
        let mut b = KeyedRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = KeyedRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut rng = KeyedRng::new(7);
        for _ in 0..1000 {
            let v = rng.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            let f = rng.range_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
            assert!(rng.below(5) < 5);
        }
    }

    #[test]
    fn choose_covers_all_indices() {
        let mut seen = [false; 5];
        for i in 0..200u64 {
            seen[choose(i, 5)] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(choose(9, 0), 0);
    }
}
