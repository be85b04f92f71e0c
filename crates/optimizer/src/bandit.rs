//! UCB1 multi-armed bandit.
//!
//! Abacus gathers statistics on (operator, model) performance with a
//! bandit-driven sampling phase: arms whose quality is still uncertain get
//! pulled more, arms that are clearly good or clearly bad stop consuming
//! sample budget. This module is the allocation policy; the sampler in
//! [`crate::sampler`] supplies the rewards.

/// One bandit arm's running statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArmStats {
    /// Number of pulls.
    pub pulls: u64,
    /// Sum of observed rewards.
    pub reward_sum: f64,
}

impl ArmStats {
    /// Mean observed reward (0 when never pulled).
    pub fn mean(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.reward_sum / self.pulls as f64
        }
    }
}

/// The UCB exploration constant: the classic √2.
const EXPLORATION: f64 = std::f64::consts::SQRT_2;

/// A UCB1 bandit over a fixed set of arms.
#[derive(Debug, Clone)]
pub struct Ucb1 {
    arms: Vec<ArmStats>,
    total_pulls: u64,
}

impl Ucb1 {
    /// Creates a bandit with `n_arms` arms.
    pub fn new(n_arms: usize) -> Self {
        Ucb1 {
            arms: vec![ArmStats::default(); n_arms],
            total_pulls: 0,
        }
    }

    /// Selects the next arm to pull: any never-pulled arm first (in index
    /// order, deterministic), then the arm maximizing the UCB index.
    pub fn select(&self) -> usize {
        if let Some(idx) = self.arms.iter().position(|a| a.pulls == 0) {
            return idx;
        }
        let ln_t = (self.total_pulls.max(1) as f64).ln();
        let mut best = 0usize;
        let mut best_index = f64::NEG_INFINITY;
        for (i, arm) in self.arms.iter().enumerate() {
            let bonus = EXPLORATION * (ln_t / arm.pulls as f64).sqrt();
            let index = arm.mean() + bonus;
            if index > best_index {
                best_index = index;
                best = i;
            }
        }
        best
    }

    /// Records a reward for an arm.
    pub fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.arms.len(), "arm out of range");
        self.arms[arm].pulls += 1;
        self.arms[arm].reward_sum += reward.clamp(0.0, 1.0);
        self.total_pulls += 1;
    }

    /// The arm's running stats.
    pub fn stats(&self, arm: usize) -> &ArmStats {
        &self.arms[arm]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_llm::noise::KeyedRng;

    #[test]
    fn explores_every_arm_first() {
        let mut bandit = Ucb1::new(3);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let arm = bandit.select();
            seen.push(arm);
            bandit.update(arm, 0.5);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn converges_to_best_arm() {
        // Arm rewards: 0.2, 0.8, 0.5 (deterministic Bernoulli streams).
        let mut bandit = Ucb1::new(3);
        let probs = [0.2, 0.8, 0.5];
        let mut rng = KeyedRng::new(42);
        let mut pulls = [0usize; 3];
        for _ in 0..400 {
            let arm = bandit.select();
            pulls[arm] += 1;
            let reward = if rng.chance(probs[arm]) { 1.0 } else { 0.0 };
            bandit.update(arm, reward);
        }
        assert!(
            pulls[1] > pulls[0] * 2,
            "best arm should dominate: {pulls:?}"
        );
        assert!(
            pulls[1] > pulls[2],
            "best arm should beat middle: {pulls:?}"
        );
        assert!((bandit.stats(1).mean() - 0.8).abs() < 0.15);
    }

    #[test]
    fn rewards_clamp_to_unit_interval() {
        let mut bandit = Ucb1::new(1);
        bandit.update(0, 5.0);
        bandit.update(0, -3.0);
        assert!((bandit.stats(0).mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arm out of range")]
    fn update_checks_bounds() {
        let mut bandit = Ucb1::new(2);
        bandit.update(5, 1.0);
    }
}
