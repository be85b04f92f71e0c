//! The reference work every host time is measured against.
//!
//! The sandbox this benchmark runs on does not hold its speed: the same
//! work, pinned to one CPU, reads 20 to 35% apart between runs minutes
//! apart, and half as much again an hour later. That is wider than the
//! widest bound a benchmark may set, so unscaled numbers cannot tell a
//! regression from a busy neighbour.
//!
//! So the harness interleaves a fixed piece of its *own* work — this
//! module — with the program's: after every segment of the timed region,
//! every set-up and every restart pass it times one [`run`], about a
//! millisecond. A host time is then reported as
//! `measured × REFERENCE_S ÷ reference time measured next to it`: the
//! time the work would have taken on a host that runs the reference in
//! exactly [`REFERENCE_S`]. Over ten seeds this took `cold_scan` from
//! 19–34% to 4–5% and `live_point` from 21–27% to 2–4%; the clock's own
//! readings are printed and recorded beside every scaled one.
//!
//! The reference does what the runtime does between simulated LLM calls:
//! it formats strings, hashes them, files them in an ordered map, sorts,
//! and frees everything. It calls nothing in the program under test, so
//! a change to the program cannot move it, and it must never change
//! itself: every recorded number is in its units.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// About what [`run`] takes on the sandbox on a quiet day. Reported host
/// times are scaled to a host on which it takes exactly this long.
pub const REFERENCE_S: f64 = 0.0007;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Formats `n` keys, hashes each byte by byte, files them in an ordered
/// map, then sorts the keys by length and folds everything into one
/// number so none of it can be optimised away.
fn file_and_sort(n: u64) -> u64 {
    let mut filed = BTreeMap::new();
    let mut hash = FNV_OFFSET;
    for i in 0..n {
        let key = format!("doc-{:05}-{}", (i * 2_654_435_761) % 10_007, i % 7);
        for byte in key.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        filed.insert(key, hash);
    }
    let mut keys: Vec<&String> = filed.keys().collect();
    keys.sort_by_key(|key| std::cmp::Reverse(key.len()));
    hash ^ keys.len() as u64 ^ filed.values().fold(0, |a, b| a ^ b)
}

/// Runs the reference once and returns its wall seconds.
pub fn run() -> f64 {
    let start = Instant::now();
    black_box(file_and_sort(2400));
    start.elapsed().as_secs_f64()
}

/// A reference reading for a lone measurement (a set-up, either side of
/// a restart pass) that has no neighbours to average a noisy one out
/// with: the lower quartile of fifteen runs. The first run or two after a
/// large build pay for the memory it just freed, and one in ten is
/// interrupted; the fast quartile is the reference at the speed the
/// host is actually running.
pub fn settled() -> f64 {
    let runs: Vec<f64> = (0..15).map(|_| run()).collect();
    crate::stats::percentile(&runs, 0.25)
}

/// `measured`, as it would read on a host that runs the reference in
/// [`REFERENCE_S`], given that the reference took `reference_s` next to
/// the measurement.
pub fn scaled(measured: f64, reference_s: f64) -> f64 {
    measured * (REFERENCE_S / reference_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_work() {
        assert_eq!(file_and_sort(50), file_and_sort(50));
        assert_ne!(file_and_sort(50), file_and_sort(51));
        assert!(run() > 0.0);
    }

    #[test]
    fn scaling_is_relative_to_the_nominal_reference() {
        assert_eq!(scaled(10.0, REFERENCE_S), 10.0);
        // A host running the reference twice as slowly halves the reading.
        assert!((scaled(10.0, 2.0 * REFERENCE_S) - 5.0).abs() < 1e-12);
    }
}
