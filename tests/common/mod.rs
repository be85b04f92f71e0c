//! File-damage helpers and generators shared by the durability, cache
//! and codec suites.

use std::fs;
use std::path::Path;

/// Flips one byte of a file in place (torn-media simulation). The index
/// wraps modulo the file length. Panics on an empty or missing file.
#[allow(dead_code)] // The codec suite edits bodies, not files.
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

/// Arbitrary ledger records: tenants with the characters the record
/// codec escapes or splits on, and dollars of any bit pattern.
#[allow(dead_code)] // The cache suite writes no ledger.
pub fn ledger_records() -> impl proptest::strategy::Strategy<Value = aida::serve::LedgerRecord> {
    use aida::serve::{LedgerRecord, TenantId};
    use proptest::prelude::*;
    let tenant = "[a-z\t\\\\ ]{1,10}";
    prop_oneof![
        tenant.prop_map(|t| LedgerRecord::Admit {
            tenant: TenantId::new(t)
        }),
        (
            (tenant, any::<u64>()),
            (0u64..100_000, 0u64..64),
            (0u64..16, 0u64..16)
        )
            .prop_map(|((t, bits), (tokens, calls), (hits, coalesced))| {
                LedgerRecord::Spend {
                    tenant: TenantId::new(t),
                    usd: f64::from_bits(bits),
                    tokens,
                    calls,
                    cache_hits: hits,
                    cache_coalesced: coalesced,
                }
            }),
    ]
}
