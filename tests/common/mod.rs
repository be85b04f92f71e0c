//! File-damage helpers shared by the durability and cache suites.

use std::fs;
use std::path::Path;

/// Flips one byte of a file in place (torn-media simulation). The index
/// wraps modulo the file length. Panics on an empty or missing file.
pub fn corrupt_byte(path: &Path, index: usize) {
    let mut bytes = fs::read(path).expect("read file to corrupt");
    assert!(!bytes.is_empty(), "cannot corrupt an empty file");
    let i = index % bytes.len();
    bytes[i] ^= 0x5a;
    fs::write(path, bytes).expect("write corrupted file");
}

/// Drops the last `n` bytes of a file (truncated-write simulation).
/// Truncating more than the file holds leaves it empty.
#[allow(dead_code)] // Only the durability suite truncates.
pub fn truncate_tail(path: &Path, n: usize) {
    let bytes = fs::read(path).expect("read file to truncate");
    let keep = bytes.len().saturating_sub(n);
    fs::write(path, &bytes[..keep]).expect("write truncated file");
}
