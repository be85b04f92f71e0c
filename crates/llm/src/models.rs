//! The simulated model catalog.
//!
//! Three tiers mirror the price/quality spread of the GPT-4o family the
//! paper evaluated with: a flagship model, a mini model, and a nano model.
//! Prices are per million tokens; error rates drive the noise channel; the
//! latency model is `base + in_tokens·per_in + out_tokens·per_out` seconds.

use std::fmt;

/// Identifier of a simulated model tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// Highest quality, highest price ("sim-4o").
    Flagship,
    /// Mid quality/price ("sim-4o-mini").
    Mini,
    /// Cheapest, noisiest ("sim-4o-nano").
    Nano,
}

impl ModelId {
    /// All tiers, best-first.
    pub const ALL: [ModelId; 3] = [ModelId::Flagship, ModelId::Mini, ModelId::Nano];

    /// The model's API-style name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Flagship => "sim-4o",
            ModelId::Mini => "sim-4o-mini",
            ModelId::Nano => "sim-4o-nano",
        }
    }

    /// Parses an API-style name.
    pub fn parse(name: &str) -> Option<ModelId> {
        match name {
            "sim-4o" => Some(ModelId::Flagship),
            "sim-4o-mini" => Some(ModelId::Mini),
            "sim-4o-nano" => Some(ModelId::Nano),
            _ => None,
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Pricing, latency, and quality parameters for one model tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Which tier this spec describes.
    pub id: ModelId,
    /// Dollars per million input tokens.
    pub input_price: f64,
    /// Dollars per million output tokens.
    pub output_price: f64,
    /// Fixed per-call latency in seconds (network + prefill overhead).
    pub latency_base_s: f64,
    /// Seconds per input token (prefill).
    pub latency_per_input_token_s: f64,
    /// Seconds per output token (decode).
    pub latency_per_output_token_s: f64,
    /// Error probability on easy semantic judgements (difficulty 0).
    pub easy_error: f64,
    /// Error probability on hard judgements (difficulty 1).
    pub hard_error: f64,
}

impl ModelSpec {
    /// Error probability at a difficulty in `[0, 1]` (linear interpolation,
    /// clamped).
    pub fn error_at(&self, difficulty: f64) -> f64 {
        let d = difficulty.clamp(0.0, 1.0);
        self.easy_error + (self.hard_error - self.easy_error) * d
    }

    /// Dollar cost of a call.
    pub fn cost(&self, input_tokens: usize, output_tokens: usize) -> f64 {
        (input_tokens as f64) * self.input_price / 1e6
            + (output_tokens as f64) * self.output_price / 1e6
    }

    /// Simulated latency of a call in seconds.
    pub fn latency(&self, input_tokens: usize, output_tokens: usize) -> f64 {
        self.latency_base_s
            + (input_tokens as f64) * self.latency_per_input_token_s
            + (output_tokens as f64) * self.latency_per_output_token_s
    }
}

/// The set of models available to the runtime and optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCatalog {
    specs: Vec<ModelSpec>,
}

impl Default for ModelCatalog {
    fn default() -> Self {
        ModelCatalog {
            specs: vec![
                ModelSpec {
                    id: ModelId::Flagship,
                    input_price: 2.50,
                    output_price: 10.00,
                    latency_base_s: 1.1,
                    latency_per_input_token_s: 0.0011,
                    latency_per_output_token_s: 0.030,
                    easy_error: 0.002,
                    hard_error: 0.06,
                },
                ModelSpec {
                    id: ModelId::Mini,
                    input_price: 0.15,
                    output_price: 0.60,
                    latency_base_s: 0.7,
                    latency_per_input_token_s: 0.0007,
                    latency_per_output_token_s: 0.020,
                    easy_error: 0.015,
                    hard_error: 0.22,
                },
                ModelSpec {
                    id: ModelId::Nano,
                    input_price: 0.05,
                    output_price: 0.20,
                    latency_base_s: 0.5,
                    latency_per_input_token_s: 0.0005,
                    latency_per_output_token_s: 0.015,
                    easy_error: 0.05,
                    hard_error: 0.38,
                },
            ],
        }
    }
}

impl ModelCatalog {
    /// The spec for a tier.
    pub fn spec(&self, id: ModelId) -> &ModelSpec {
        self.specs
            .iter()
            .find(|s| s.id == id)
            .expect("catalog contains every ModelId")
    }

    /// All specs, best tier first.
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in ModelId::ALL {
            assert_eq!(ModelId::parse(id.name()), Some(id));
        }
        assert_eq!(ModelId::parse("gpt-5"), None);
    }

    #[test]
    fn tiers_are_price_ordered() {
        let cat = ModelCatalog::default();
        let f = cat.spec(ModelId::Flagship);
        let m = cat.spec(ModelId::Mini);
        let n = cat.spec(ModelId::Nano);
        assert!(f.input_price > m.input_price && m.input_price > n.input_price);
        assert!(f.easy_error < m.easy_error && m.easy_error < n.easy_error);
        assert!(f.hard_error < m.hard_error && m.hard_error < n.hard_error);
    }

    #[test]
    fn cost_scales_with_tokens() {
        let cat = ModelCatalog::default();
        let f = cat.spec(ModelId::Flagship);
        let c = f.cost(1_000_000, 0);
        assert!((c - 2.50).abs() < 1e-9);
        let c = f.cost(0, 500_000);
        assert!((c - 5.00).abs() < 1e-9);
    }

    #[test]
    fn error_interpolates_and_clamps() {
        let cat = ModelCatalog::default();
        let n = cat.spec(ModelId::Nano);
        assert!((n.error_at(0.0) - n.easy_error).abs() < 1e-12);
        assert!((n.error_at(1.0) - n.hard_error).abs() < 1e-12);
        assert!((n.error_at(2.0) - n.hard_error).abs() < 1e-12);
        let mid = n.error_at(0.5);
        assert!(mid > n.easy_error && mid < n.hard_error);
    }

    #[test]
    fn latency_increases_with_output() {
        let cat = ModelCatalog::default();
        let f = cat.spec(ModelId::Flagship);
        assert!(f.latency(100, 100) > f.latency(100, 10));
        assert!(f.latency(1000, 10) > f.latency(100, 10));
    }
}
