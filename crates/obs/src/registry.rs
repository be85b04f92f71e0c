//! The single source of truth for metric names.
//!
//! Every counter, histogram, gauge, and health-series name used anywhere
//! in the workspace is declared here as a constant. Lint rule O1
//! (`crates/lint`) rejects string-literal metric names at
//! `counter_add`/`histogram_record`/`gauge_set` call sites outside this
//! file, so a typo'd or duplicated name cannot silently fork a series.
//!
//! Names are grouped by owner crate; `docs/observability.md` carries the
//! full catalog with units.

// --- counters: aida-llm ---------------------------------------------------

/// Billed LLM calls (successful attempts), all models.
pub const LLM_CALLS: &str = "llm.calls";
/// Fault-injected failed attempts that were billed and retried.
pub const LLM_FAULT_RETRIES: &str = "llm.fault_retries";
/// Semantic-cache exact/semantic hits.
pub const CACHE_HIT: &str = "cache.hit";
/// A batch's duplicate calls coalesced onto one upstream request.
pub const CACHE_COALESCED: &str = "cache.coalesced";
/// Semantic-cache misses (paid upstream calls).
pub const CACHE_MISS: &str = "cache.miss";

// --- counters: aida-core --------------------------------------------------

/// Periodic runtime state checkpoints written.
pub const CHECKPOINT_SAVES: &str = "checkpoint.saves";
/// Checkpoint attempts that failed (serialization or commit error).
pub const CHECKPOINT_ERRORS: &str = "checkpoint.errors";
/// Bytes written by checkpoints (full snapshots + delta frames).
pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes_written";
/// Incremental delta frames appended between full snapshots.
pub const CHECKPOINT_DELTA_FRAMES: &str = "checkpoint.delta_frames";
/// Contexts restored from a state file at cold start.
pub const STATE_RESTORED_CONTEXTS: &str = "state.restored_contexts";
/// SQL statements executed against the catalog.
pub const SQL_STATEMENTS: &str = "sql.statements";
/// ContextManager served a materialized context above threshold.
pub const CONTEXT_REUSE_HITS: &str = "context.reuse_hits";
/// No materialized context cleared the similarity threshold.
pub const CONTEXT_REUSE_MISSES: &str = "context.reuse_misses";
/// `split_computes` plan rewrites applied.
pub const REWRITES_SPLIT_COMPUTES: &str = "rewrites.split_computes";
/// `merge_searches` plan rewrites applied.
pub const REWRITES_MERGE_SEARCHES: &str = "rewrites.merge_searches";

// --- counters: aida-semops ------------------------------------------------

/// Records dropped by the aggregation context-window guard.
pub const AGG_TRUNCATED_RECORDS: &str = "agg.truncated_records";

// --- counters: aida-serve -------------------------------------------------

/// Ledger WAL records appended (admissions + spends).
pub const WAL_APPENDS: &str = "wal.appends";
/// Ledger WAL append failures (fsync/write error or injected crash).
pub const WAL_APPEND_ERRORS: &str = "wal.append_errors";
/// Ledger WAL compactions performed.
pub const WAL_COMPACTIONS: &str = "wal.compactions";
/// Compactions deferred off the query path to the ops-interval hook.
pub const WAL_COMPACTIONS_DEFERRED: &str = "wal.compactions_deferred";
/// Ops-interval compactions that failed (I/O error or injected crash;
/// dispatch stops, exactly like an append failure).
pub const WAL_COMPACTION_ERRORS: &str = "wal.compaction_errors";
/// WAL tail segments sealed into immutable segment files.
pub const WAL_SEGMENTS_SEALED: &str = "wal.segments_sealed";
/// Physical fsyncs issued by the ledger WAL (appends + batch flushes).
pub const WAL_FSYNCS: &str = "wal.fsyncs";
/// Group-commit batches flushed (one fsync per batch).
pub const WAL_GROUP_FLUSHES: &str = "wal.group_flushes";
/// Ledger WAL records replayed during recovery.
pub const WAL_REPLAYED_RECORDS: &str = "wal.replayed_records";
/// Corrupt/unparseable WAL records skipped during recovery.
pub const WAL_SKIPPED_RECORDS: &str = "wal.skipped_records";
/// Torn tails physically truncated during recovery.
pub const WAL_DROPPED_TAILS: &str = "wal.dropped_tails";
/// SLO burn-rate alerts tripped across all tenants.
pub const SLO_ALERTS: &str = "slo.alerts";
/// Connections accepted by the network front door.
pub const NET_CONNS_OPENED: &str = "net.conns_opened";
/// Connections fully closed by the front door.
pub const NET_CONNS_CLOSED: &str = "net.conns_closed";
/// Complete request frames decoded off the wire.
pub const NET_FRAMES_IN: &str = "net.frames_in";
/// Response frames queued toward clients.
pub const NET_FRAMES_OUT: &str = "net.frames_out";
/// Header + payload bytes read off the fabric.
pub const NET_BYTES_IN: &str = "net.bytes_in";
/// Bytes accepted by fabric writes.
pub const NET_BYTES_OUT: &str = "net.bytes_out";
/// Typed wire-protocol errors, all kinds.
pub const NET_WIRE_ERRORS: &str = "net.wire_errors";
/// Request bodies resolved from an interned plan hash.
pub const NET_PLAN_HASH_HITS: &str = "net.plan_hash_hits";
/// Autoscaler scale-up moves committed.
pub const AUTOSCALE_UPS: &str = "autoscale.ups";
/// Autoscaler scale-down moves committed.
pub const AUTOSCALE_DOWNS: &str = "autoscale.downs";

// --- histograms -----------------------------------------------------------

/// Input+output tokens per billed LLM call.
pub const LLM_TOKENS_PER_CALL: &str = "llm.tokens_per_call";
/// Per-operator output/input row ratio.
pub const OPERATOR_SELECTIVITY: &str = "operator.selectivity";

// --- gauges ---------------------------------------------------------------

/// Admission-queue depth sampled at arrival/dispatch points.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Active virtual workers after each autoscaler move.
pub const SERVE_WORKERS: &str = "serve.workers";
/// Semantic-cache resident bytes after each insert/eviction.
pub const CACHE_BYTES: &str = "cache.bytes";

// --- health time-series (obs::timeseries keys) ----------------------------
//
// Per-tenant series are suffixed `<name>/<tenant>`; use [`tenant_series`]
// to build the key so the separator stays in one place.

/// End-to-end query latency in virtual seconds (per tenant).
pub const HEALTH_LATENCY_S: &str = "serve.latency_s";
/// Dollars billed per completed query (per tenant).
pub const HEALTH_COST_USD: &str = "serve.cost_usd";
/// Queue wait in virtual seconds (per tenant).
pub const HEALTH_QUEUE_WAIT_S: &str = "serve.queue_wait_s";
/// Cache outcome per completion: 1 for any hit, 0 for none (per tenant).
pub const HEALTH_CACHE_HIT: &str = "serve.cache_hit";
/// Admission-queue depth samples (service-wide).
pub const HEALTH_QUEUE_DEPTH: &str = "serve.queue_depth_ts";

/// Builds a memo's counter name `memo.<memo>.<field>`. Every
/// `aida_llm::memo::Memo` reports four fields, each only once it is
/// nonzero: `hits` and `misses` (lookups that found an entry or did
/// not), `clears` (inserts that emptied a memo at its budget first) and
/// `entries` (entries resident when the trace was taken).
pub fn memo_counter(memo: &str, field: &str) -> String {
    format!("memo.{memo}.{field}")
}

/// Builds the per-tenant series key `<name>/<tenant>`.
pub fn tenant_series(name: &str, tenant: &str) -> String {
    format!("{name}/{tenant}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let all = [
            LLM_CALLS,
            LLM_FAULT_RETRIES,
            CACHE_HIT,
            CACHE_COALESCED,
            CACHE_MISS,
            CHECKPOINT_SAVES,
            CHECKPOINT_ERRORS,
            CHECKPOINT_BYTES,
            CHECKPOINT_DELTA_FRAMES,
            STATE_RESTORED_CONTEXTS,
            SQL_STATEMENTS,
            CONTEXT_REUSE_HITS,
            CONTEXT_REUSE_MISSES,
            REWRITES_SPLIT_COMPUTES,
            REWRITES_MERGE_SEARCHES,
            AGG_TRUNCATED_RECORDS,
            WAL_APPENDS,
            WAL_APPEND_ERRORS,
            WAL_COMPACTIONS,
            WAL_COMPACTIONS_DEFERRED,
            WAL_COMPACTION_ERRORS,
            WAL_SEGMENTS_SEALED,
            WAL_FSYNCS,
            WAL_GROUP_FLUSHES,
            WAL_REPLAYED_RECORDS,
            WAL_SKIPPED_RECORDS,
            WAL_DROPPED_TAILS,
            SLO_ALERTS,
            NET_CONNS_OPENED,
            NET_CONNS_CLOSED,
            NET_FRAMES_IN,
            NET_FRAMES_OUT,
            NET_BYTES_IN,
            NET_BYTES_OUT,
            NET_WIRE_ERRORS,
            NET_PLAN_HASH_HITS,
            AUTOSCALE_UPS,
            AUTOSCALE_DOWNS,
            LLM_TOKENS_PER_CALL,
            OPERATOR_SELECTIVITY,
            SERVE_QUEUE_DEPTH,
            SERVE_WORKERS,
            CACHE_BYTES,
            HEALTH_LATENCY_S,
            HEALTH_COST_USD,
            HEALTH_QUEUE_WAIT_S,
            HEALTH_CACHE_HIT,
            HEALTH_QUEUE_DEPTH,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(seen.insert(name), "duplicate metric name: {name}");
        }
    }

    #[test]
    fn tenant_series_key_shape() {
        assert_eq!(
            tenant_series(HEALTH_LATENCY_S, "acme"),
            "serve.latency_s/acme"
        );
    }
}
