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

/// The records of a runtime's log, read segment by segment (each file is
/// named by its first sequence number: `<base>.<hex16>.log`).
#[allow(dead_code)] // Only the suites that read a runtime's log.
pub fn log_records(rt: &aida::core::Runtime) -> Vec<aida::llm::snapshot::LogRecord> {
    let segments = rt
        .log()
        .expect("a delta-mode runtime")
        .lock()
        .segment_paths();
    let mut records = Vec::new();
    for path in segments {
        let name = path.to_string_lossy().into_owned();
        let hex = name.trim_end_matches(".log").rsplit('.').next().unwrap();
        let first = u64::from_str_radix(hex, 16).unwrap();
        let bytes = fs::read(&path).unwrap();
        records.extend(aida::llm::snapshot::read_records(&bytes, first).records);
    }
    records
}

/// Replaces a runtime's log with `records`' stores, links and payloads,
/// written through a log of their own from the first sequence number the
/// manifest's snapshots do not cover on (checksums hold).
#[allow(dead_code)] // Only the suites that forge a runtime's log.
pub fn write_log(rt: &aida::core::Runtime, records: &[aida::llm::snapshot::LogRecord]) {
    use aida::llm::snapshot::Log;
    let log = rt.log().expect("a delta-mode runtime").lock();
    for path in log.segment_paths() {
        fs::remove_file(path).unwrap();
    }
    let base = match rt.config().state_path.as_ref() {
        Some(state) => state.clone(),
        None => rt.config().cache_path.clone().unwrap(),
    };
    let mut forged = Log::open(base);
    forged.recover().unwrap();
    for r in records {
        forged
            .stage(r.store, r.linked, |out| out.push_str(&r.payload))
            .unwrap();
    }
    forged.commit(None).unwrap();
}
