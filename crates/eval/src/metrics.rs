//! Evaluation metrics.

use std::collections::HashSet;

/// Precision / recall / F1 for a retrieved set against a truth set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Prf {
    /// Fraction of returned items that are relevant.
    pub precision: f64,
    /// Fraction of relevant items that were returned.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Computes precision/recall/F1. Conventions: empty-returned has precision
/// 0 unless the truth is also empty (then everything is 1).
pub fn f1_score<S: AsRef<str>>(returned: &[S], truth: &[S]) -> Prf {
    let truth_set: HashSet<&str> = truth.iter().map(AsRef::as_ref).collect();
    let returned_set: HashSet<&str> = returned.iter().map(AsRef::as_ref).collect();
    if truth_set.is_empty() && returned_set.is_empty() {
        return Prf {
            precision: 1.0,
            recall: 1.0,
            f1: 1.0,
        };
    }
    let hits = returned_set.intersection(&truth_set).count() as f64;
    let precision = if returned_set.is_empty() {
        0.0
    } else {
        hits / returned_set.len() as f64
    };
    let recall = if truth_set.is_empty() {
        0.0
    } else {
        hits / truth_set.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Prf {
        precision,
        recall,
        f1,
    }
}

/// Relative error of `answer` against `truth`, as a fraction (0.02 = 2%).
/// A missing/garbage answer scores 1.0 (100% error), matching how the
/// paper treats trials that return nothing usable.
pub fn percent_error(answer: Option<f64>, truth: f64) -> f64 {
    match answer {
        Some(a) if a.is_finite() && truth != 0.0 => ((a - truth) / truth).abs().min(1.0),
        _ => 1.0,
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_retrieval() {
        let prf = f1_score(&["a", "b"], &["a", "b"]);
        assert_eq!(
            prf,
            Prf {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0
            }
        );
    }

    #[test]
    fn partial_retrieval() {
        // Returned 2, one right; truth has 4.
        let prf = f1_score(&["a", "x"], &["a", "b", "c", "d"]);
        assert!((prf.precision - 0.5).abs() < 1e-12);
        assert!((prf.recall - 0.25).abs() < 1e-12);
        assert!((prf.f1 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(f1_score::<&str>(&[], &[]).f1, 1.0);
        assert_eq!(f1_score(&[], &["a"]).f1, 0.0);
        assert_eq!(f1_score(&["a"], &[]).f1, 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let prf = f1_score(&["a", "a", "a"], &["a", "b"]);
        assert!((prf.precision - 1.0).abs() < 1e-12);
        assert!((prf.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percent_error_basics() {
        assert!((percent_error(Some(13.0), 13.0)).abs() < 1e-12);
        assert!((percent_error(Some(11.0), 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(percent_error(None, 10.0), 1.0);
        assert_eq!(percent_error(Some(f64::NAN), 10.0), 1.0);
        // Errors cap at 100%.
        assert_eq!(percent_error(Some(1e9), 1.0), 1.0);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
