//! Per-tenant configuration and accounting, plus the append-only
//! tenant-ledger WAL that makes quotas, spend attribution, and
//! cache-credit balances exact across service restarts.

use crate::request::TenantId;
use aida_llm::snapshot::{self, esc, unesc, FailPlan, SnapshotError};
use aida_obs::SloTarget;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-tenant service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Weighted-round-robin share (≥ 1): a weight-3 tenant is dispatched
    /// three times as often as a weight-1 tenant under contention.
    pub weight: u32,
    /// Dollar quota: once the tenant's attributed spend reaches this, new
    /// requests are shed with [`RejectReason::BudgetExhausted`]
    /// (`None` = unlimited).
    ///
    /// [`RejectReason::BudgetExhausted`]: crate::RejectReason::BudgetExhausted
    pub dollar_quota: Option<f64>,
    /// Token quota (`None` = unlimited).
    pub token_quota: Option<u64>,
    /// Declared service-level objectives. Unlike quotas, SLOs never shed
    /// traffic — they are evaluated against the windowed health series at
    /// the end of each [`QueryService::run`] and surface as burn-rate
    /// verdicts in the report.
    ///
    /// [`QueryService::run`]: crate::QueryService::run
    pub slo: SloTarget,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            dollar_quota: None,
            token_quota: None,
            slo: SloTarget::none(),
        }
    }
}

impl TenantConfig {
    /// A config with the given WRR weight.
    pub fn weighted(weight: u32) -> TenantConfig {
        TenantConfig {
            weight: weight.max(1),
            ..TenantConfig::default()
        }
    }

    /// Sets the dollar quota.
    pub fn dollars(mut self, quota: f64) -> TenantConfig {
        self.dollar_quota = Some(quota);
        self
    }

    /// Sets the token quota.
    pub fn tokens(mut self, quota: u64) -> TenantConfig {
        self.token_quota = Some(quota);
        self
    }

    /// Declares a p99 latency objective in virtual seconds.
    pub fn p99_latency(mut self, seconds: f64) -> TenantConfig {
        self.slo = self.slo.p99_latency(seconds);
        self
    }

    /// Declares a $/query objective.
    pub fn usd_per_query(mut self, dollars: f64) -> TenantConfig {
        self.slo = self.slo.usd_per_query(dollars);
        self
    }
}

/// Spend attributed to one tenant (accumulated from per-query
/// `UsageSnapshot::delta_since` deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spend {
    /// Dollars.
    pub usd: f64,
    /// Tokens (input + output).
    pub tokens: u64,
    /// Billed LLM calls.
    pub calls: u64,
    /// Semantic-cache hits attributed to this tenant (calls the tenant
    /// issued that were served from the shared cache for free).
    pub cache_hits: u64,
    /// Semantic-cache coalesced waiters attributed to this tenant.
    pub cache_coalesced: u64,
}

impl Spend {
    /// Accumulates one query's delta.
    pub fn add(&mut self, usd: f64, tokens: u64, calls: u64) {
        self.usd += usd;
        self.tokens += tokens;
        self.calls += calls;
    }

    /// Accumulates one query's semantic-cache savings.
    fn add_cache(&mut self, hits: u64, coalesced: u64) {
        self.cache_hits += hits;
        self.cache_coalesced += coalesced;
    }
}

/// The service's tenant ledger: configs + attributed spend.
#[derive(Debug, Clone, Default)]
pub struct TenantLedger {
    configs: BTreeMap<TenantId, TenantConfig>,
    spend: BTreeMap<TenantId, Spend>,
}

impl TenantLedger {
    /// Creates an empty ledger.
    pub fn new() -> TenantLedger {
        TenantLedger::default()
    }

    /// Registers (or reconfigures) a tenant.
    pub fn register(&mut self, tenant: TenantId, config: TenantConfig) {
        self.configs.insert(tenant, config);
    }

    /// Whether the tenant is registered.
    pub fn knows(&self, tenant: &TenantId) -> bool {
        self.configs.contains_key(tenant)
    }

    /// The tenant's config (default for unregistered tenants).
    pub fn config(&self, tenant: &TenantId) -> TenantConfig {
        self.configs.get(tenant).cloned().unwrap_or_default()
    }

    /// Registered tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = (&TenantId, &TenantConfig)> {
        self.configs.iter()
    }

    /// The tenant's attributed spend so far.
    pub fn spend(&self, tenant: &TenantId) -> Spend {
        self.spend.get(tenant).copied().unwrap_or_default()
    }

    /// Every tenant with attributed spend, in id order.
    pub fn spends(&self) -> impl Iterator<Item = (&TenantId, &Spend)> {
        self.spend.iter()
    }

    /// Applies one durable ledger record. Replaying a WAL through this
    /// reproduces the exact spend state the records were written under.
    fn apply(&mut self, record: &LedgerRecord) {
        match record {
            // Admissions carry no spend; they make the WAL a complete
            // audit trail of what entered the service.
            LedgerRecord::Admit { .. } => {}
            LedgerRecord::Spend {
                tenant,
                usd,
                tokens,
                calls,
                cache_hits,
                cache_coalesced,
            } => {
                self.charge(tenant, *usd, *tokens, *calls);
                self.credit_cache(tenant, *cache_hits, *cache_coalesced);
            }
        }
    }

    /// Attributes one query's meter delta to a tenant.
    pub fn charge(&mut self, tenant: &TenantId, usd: f64, tokens: u64, calls: u64) {
        self.spend
            .entry(tenant.clone())
            .or_default()
            .add(usd, tokens, calls);
    }

    /// Attributes one query's semantic-cache savings to a tenant. Cache
    /// hits are free, so they adjust no quota — but the ledger records
    /// who benefited from the shared cache.
    pub fn credit_cache(&mut self, tenant: &TenantId, hits: u64, coalesced: u64) {
        self.spend
            .entry(tenant.clone())
            .or_default()
            .add_cache(hits, coalesced);
    }

    /// Dollar headroom under the tenant's quota: `quota - spend`,
    /// floored at zero. `None` when the tenant has no dollar quota —
    /// unlimited headroom, which the static bound gate treats as
    /// nothing to violate.
    pub fn remaining_usd(&self, tenant: &TenantId) -> Option<f64> {
        let quota = self.config(tenant).dollar_quota?;
        Some((quota - self.spend(tenant).usd).max(0.0))
    }

    /// Checks the tenant's quotas against its attributed spend, returning
    /// the violated quota if any. This is the pre-admission gate: a tenant
    /// at or over quota has every new request shed before it can consume
    /// a queue slot or a worker.
    pub fn over_quota(&self, tenant: &TenantId) -> Option<crate::RejectReason> {
        let config = self.config(tenant);
        let spend = self.spend(tenant);
        if let Some(quota) = config.dollar_quota {
            if spend.usd >= quota {
                return Some(crate::RejectReason::BudgetExhausted {
                    spent_usd: spend.usd,
                    quota_usd: quota,
                });
            }
        }
        if let Some(quota) = config.token_quota {
            if spend.tokens >= quota {
                return Some(crate::RejectReason::TokensExhausted {
                    spent_tokens: spend.tokens,
                    quota_tokens: quota,
                });
            }
        }
        None
    }
}

// ---- tenant-ledger WAL -------------------------------------------------

/// One durable ledger event. A completed query writes a single
/// [`LedgerRecord::Spend`] carrying both the meter delta and the cache
/// credits, so charge and credit land atomically — a crash can lose an
/// entire record, never half of one.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerRecord {
    /// A request passed admission (audit trail; no spend).
    Admit {
        /// The admitted tenant.
        tenant: TenantId,
    },
    /// One completed query's attributed spend and cache credits.
    Spend {
        /// The charged tenant.
        tenant: TenantId,
        /// Dollars attributed.
        usd: f64,
        /// Tokens attributed.
        tokens: u64,
        /// Billed LLM calls attributed.
        calls: u64,
        /// Semantic-cache hits credited.
        cache_hits: u64,
        /// Semantic-cache coalesced waiters credited.
        cache_coalesced: u64,
    },
}

impl LedgerRecord {
    /// Encodes the record as a tab-separated WAL payload (newline-free;
    /// the WAL layer adds the sequence number and checksum).
    pub fn encode(&self) -> String {
        match self {
            LedgerRecord::Admit { tenant } => {
                let mut out = String::from("admit\t");
                esc(tenant.as_str(), &mut out);
                out
            }
            LedgerRecord::Spend {
                tenant,
                usd,
                tokens,
                calls,
                cache_hits,
                cache_coalesced,
            } => {
                let mut out = String::from("spend\t");
                esc(tenant.as_str(), &mut out);
                out.push_str(&format!(
                    "\t{:016x}\t{tokens}\t{calls}\t{cache_hits}\t{cache_coalesced}",
                    usd.to_bits()
                ));
                out
            }
        }
    }

    /// Decodes a WAL payload. Dollars round-trip via `f64::to_bits`, so
    /// a replayed ledger is bit-identical to the one that wrote it.
    pub fn decode(payload: &str) -> Result<LedgerRecord, SnapshotError> {
        let fail = |msg: &str| SnapshotError::Format(msg.to_string());
        let fields: Vec<&str> = payload.split('\t').collect();
        match fields.first() {
            Some(&"admit") if fields.len() == 2 => Ok(LedgerRecord::Admit {
                tenant: TenantId::new(unesc(fields[1])?),
            }),
            Some(&"spend") if fields.len() == 7 => Ok(LedgerRecord::Spend {
                tenant: TenantId::new(unesc(fields[1])?),
                usd: u64::from_str_radix(fields[2], 16)
                    .map(f64::from_bits)
                    .map_err(|_| fail("bad usd bits"))?,
                tokens: fields[3].parse().map_err(|_| fail("bad tokens"))?,
                calls: fields[4].parse().map_err(|_| fail("bad calls"))?,
                cache_hits: fields[5].parse().map_err(|_| fail("bad cache_hits"))?,
                cache_coalesced: fields[6].parse().map_err(|_| fail("bad cache_coalesced"))?,
            }),
            _ => Err(fail("unknown ledger record")),
        }
    }
}

/// What [`LedgerWal::recover`] reconstructed at startup.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalRecovery {
    /// Whether a compacted ledger snapshot was loaded first.
    pub snapshot_loaded: bool,
    /// WAL records replayed into the ledger.
    pub replayed: u64,
    /// WAL records skipped because the compacted snapshot already covers
    /// them (a crash between snapshot-commit and WAL-truncate leaves
    /// such records behind; skipping keeps replay idempotent).
    pub skipped: u64,
    /// Whether a torn/corrupt suffix was truncated — physically, so
    /// post-recovery appends start on a fresh line rather than merging
    /// into the torn record. Damage inside a sealed segment also drops
    /// every later segment and the active tail.
    pub dropped_tail: bool,
    /// Sealed segment files whose intact records were replayed.
    pub sealed_segments: u64,
    /// The next sequence number new appends will use.
    pub next_seq: u64,
}

/// Lifetime I/O counters for one [`LedgerWal`] (monotone; diff two
/// snapshots for a per-run delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Data-file fsyncs issued (appends, batch flushes, compactions;
    /// directory fsyncs excluded).
    pub fsyncs: u64,
    /// Group-commit batches flushed (one fsync each).
    pub group_flushes: u64,
    /// Tail files sealed into immutable segments.
    pub segments_sealed: u64,
}

const LEDGER_MAGIC: &str = "aida-ledger v1";

/// The append-only tenant-ledger WAL. Every admit and every completed
/// query appends one checksummed, sequence-numbered record; on startup
/// [`LedgerWal::recover`] loads the compacted snapshot (the WAL path's
/// `.ledger` sibling), replays every sealed segment in sequence order,
/// then replays the intact active tail, so quotas and spend are exact
/// across restarts.
///
/// # Log structure
///
/// With [`LedgerWal::segment_records`] set, the active tail file is
/// sealed into an immutable sibling named `<wal>.<first_seq:hex16>.seg`
/// once it holds that many records (hex-16 names sort in sequence
/// order). Compaction then folds the durable state into the snapshot and
/// deletes only sealed segment files — the active tail is never
/// rewritten, so compaction cost is independent of concurrent appends
/// (tail records the snapshot already covers replay as `skipped`).
/// Without segmentation the WAL is a single file and compaction
/// truncates it, as before.
#[derive(Debug)]
pub struct LedgerWal {
    path: PathBuf,
    snapshot_path: PathBuf,
    next_seq: u64,
    records_in_wal: usize,
    /// Records physically in the active tail file (covered-by-snapshot
    /// records included) — the seal threshold counts these.
    records_in_tail: usize,
    /// Sequence number of the tail's first record (names the segment the
    /// tail becomes when sealed).
    tail_first_seq: u64,
    compact_threshold: usize,
    segment_max_records: usize,
    stats: WalStats,
    plan: Option<Arc<FailPlan>>,
}

impl LedgerWal {
    /// Opens a WAL at `path` (nothing is read until
    /// [`LedgerWal::recover`]). The compacted snapshot lives beside it
    /// with a `.ledger` suffix.
    pub fn open(path: impl Into<PathBuf>) -> LedgerWal {
        let path = path.into();
        let mut os = path.as_os_str().to_owned();
        os.push(".ledger");
        LedgerWal {
            snapshot_path: PathBuf::from(os),
            path,
            next_seq: 0,
            records_in_wal: 0,
            records_in_tail: 0,
            tail_first_seq: 0,
            compact_threshold: 256,
            segment_max_records: 0,
            stats: WalStats::default(),
            plan: None,
        }
    }

    /// Seals the active tail into an immutable `.seg` segment once it
    /// holds this many records (0 = never seal; single-file WAL).
    pub fn segment_records(mut self, records: usize) -> LedgerWal {
        self.segment_max_records = records;
        self
    }

    /// Installs a crash-injection plan on every durable write this WAL
    /// performs (durability suite only).
    pub fn with_fail_plan(mut self, plan: Arc<FailPlan>) -> LedgerWal {
        self.plan = Some(plan);
        self
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime I/O counters (fsyncs, group flushes, seals).
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Whether the replayable WAL has reached the compaction threshold.
    /// The query path checks this to *count* deferred compactions; the
    /// ops-interval hook acts on it.
    pub fn compaction_due(&self) -> bool {
        self.compact_threshold > 0 && self.records_in_wal >= self.compact_threshold
    }

    /// The sealed-segment path for a tail whose first record is `seq`.
    fn segment_path(&self, first_seq: u64) -> PathBuf {
        let mut os = self.path.as_os_str().to_owned();
        os.push(format!(".{first_seq:016x}.seg"));
        PathBuf::from(os)
    }

    /// Sealed segment files beside the WAL, sorted by first sequence
    /// number (the hex-16 name embeds it, so lexical order is replay
    /// order).
    fn sealed_segments(&self) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let parent = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let Some(stem) = self
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
        else {
            return Ok(Vec::new());
        };
        let entries = match std::fs::read_dir(parent) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name
                .strip_prefix(stem.as_str())
                .and_then(|rest| rest.strip_prefix('.'))
                .and_then(|rest| rest.strip_suffix(".seg"))
            else {
                continue;
            };
            if hex.len() != 16 {
                continue;
            }
            let Ok(seq) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            out.push((seq, entry.path()));
        }
        out.sort_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Rebuilds `ledger` from disk: applies the compacted snapshot (if
    /// any), replays every sealed segment in sequence order, then
    /// replays the intact active tail — skipping records the snapshot
    /// already covers. A torn suffix is physically truncated so
    /// subsequent appends never merge into the torn record; damage
    /// inside a sealed segment additionally drops every later segment
    /// and the tail, so two recoveries in a row trust the same prefix.
    /// A corrupt snapshot is a typed error (the caller decides whether
    /// to start cold).
    pub fn recover(&mut self, ledger: &mut TenantLedger) -> Result<WalRecovery, SnapshotError> {
        let mut recovery = WalRecovery::default();
        let mut base_seq = 0u64;
        match std::fs::read_to_string(&self.snapshot_path) {
            Ok(text) => {
                let (seq, spends) = decode_ledger_snapshot(&text)?;
                base_seq = seq;
                for (tenant, spend) in spends {
                    ledger.charge(&tenant, spend.usd, spend.tokens, spend.calls);
                    ledger.credit_cache(&tenant, spend.cache_hits, spend.cache_coalesced);
                }
                recovery.snapshot_loaded = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        self.next_seq = base_seq;
        self.records_in_wal = 0;
        self.records_in_tail = 0;

        // Replay stops trusting the log at the first violation; once a
        // sealed segment is damaged or out of sequence, every later
        // segment and the tail are dropped *physically*, so the next
        // recovery reconstructs the identical state.
        let mut last_seq: Option<u64> = None;
        let mut poisoned = false;
        for (_, seg_path) in self.sealed_segments().map_err(SnapshotError::Io)? {
            if poisoned {
                std::fs::remove_file(&seg_path).map_err(SnapshotError::Io)?;
                continue;
            }
            let replay = snapshot::wal_replay(&seg_path)?;
            // Within a file wal_replay enforces increasing sequence
            // numbers, so a cross-file break can only show at the first
            // record: a segment that does not continue the chain is not
            // ours — drop it whole.
            let continues = replay
                .records
                .first()
                .is_none_or(|(seq, _)| last_seq.is_none_or(|last| *seq > last));
            if !continues {
                std::fs::remove_file(&seg_path).map_err(SnapshotError::Io)?;
                recovery.dropped_tail = true;
                poisoned = true;
                continue;
            }
            for (seq, payload) in &replay.records {
                if *seq < base_seq {
                    recovery.skipped += 1;
                } else {
                    let record = LedgerRecord::decode(payload)?;
                    ledger.apply(&record);
                    recovery.replayed += 1;
                    self.records_in_wal += 1;
                }
                last_seq = Some(*seq);
                self.next_seq = *seq + 1;
            }
            recovery.sealed_segments += 1;
            if replay.dropped_tail {
                let file = std::fs::OpenOptions::new().write(true).open(&seg_path)?;
                file.set_len(replay.valid_len)?;
                file.sync_all()?;
                recovery.dropped_tail = true;
                poisoned = true;
            }
        }

        if poisoned {
            truncate_durably(&self.path, 0)?;
            self.tail_first_seq = self.next_seq;
            recovery.next_seq = self.next_seq;
            return Ok(recovery);
        }
        let replay = snapshot::wal_replay(&self.path)?;
        let continues = replay
            .records
            .first()
            .is_none_or(|(seq, _)| last_seq.is_none_or(|last| *seq > last));
        if !continues {
            truncate_durably(&self.path, 0)?;
            recovery.dropped_tail = true;
            self.tail_first_seq = self.next_seq;
            recovery.next_seq = self.next_seq;
            return Ok(recovery);
        }
        if replay.dropped_tail {
            // Physically truncate the torn tail, not just logically skip
            // it: a later append would otherwise land on the torn line,
            // fail its checksum on the next replay, and drop every
            // acknowledged record written after this recovery.
            truncate_durably(&self.path, replay.valid_len)?;
            recovery.dropped_tail = true;
        }
        self.tail_first_seq = replay
            .records
            .first()
            .map_or(self.next_seq, |(seq, _)| *seq);
        for (seq, payload) in &replay.records {
            if *seq < base_seq {
                recovery.skipped += 1;
            } else {
                let record = LedgerRecord::decode(payload)?;
                ledger.apply(&record);
                recovery.replayed += 1;
                self.records_in_wal += 1;
            }
            self.records_in_tail += 1;
            self.next_seq = *seq + 1;
        }
        recovery.next_seq = self.next_seq;
        Ok(recovery)
    }

    /// Appends one record durably, returning its sequence number. On an
    /// error the record may or may not have landed (exactly the crash
    /// model); the caller must stop appending and recover via
    /// [`LedgerWal::recover`] before trusting the ledger again.
    pub fn append(&mut self, record: &LedgerRecord) -> std::io::Result<u64> {
        let seq = self.next_seq;
        snapshot::wal_append(&self.path, seq, &record.encode(), self.plan.as_deref())?;
        self.stats.fsyncs += 1;
        self.next_seq = seq + 1;
        self.records_in_wal += 1;
        self.records_in_tail += 1;
        self.maybe_seal()?;
        Ok(seq)
    }

    /// Appends a batch of records under a SINGLE fsync (group commit),
    /// returning the first record's sequence number. Either a prefix of
    /// the batch survives a tear or the whole batch lands; on an error
    /// the caller must stop appending and recover, exactly as for
    /// [`LedgerWal::append`].
    pub fn append_batch(&mut self, records: &[LedgerRecord]) -> std::io::Result<u64> {
        let first = self.next_seq;
        if records.is_empty() {
            return Ok(first);
        }
        let payloads: Vec<String> = records.iter().map(|r| r.encode()).collect();
        snapshot::wal_append_batch(&self.path, first, &payloads, self.plan.as_deref())?;
        self.stats.fsyncs += 1;
        self.stats.group_flushes += 1;
        self.next_seq = first + records.len() as u64;
        self.records_in_wal += records.len();
        self.records_in_tail += records.len();
        self.maybe_seal()?;
        Ok(first)
    }

    /// Seals the active tail into an immutable segment if it has reached
    /// the segment size. Sealing renames the fsynced tail (records stay
    /// durable throughout); the next append recreates the tail file.
    fn maybe_seal(&mut self) -> std::io::Result<bool> {
        if self.segment_max_records == 0 || self.records_in_tail < self.segment_max_records {
            return Ok(false);
        }
        let sealed = self.segment_path(self.tail_first_seq);
        snapshot::wal_seal_segment(&self.path, &sealed, self.plan.as_deref())?;
        self.stats.fsyncs += 1;
        self.stats.segments_sealed += 1;
        self.records_in_tail = 0;
        self.tail_first_seq = self.next_seq;
        Ok(true)
    }

    /// Writes the ledger's current state into the compacted snapshot
    /// (atomic commit), then reclaims log space. A crash between the two
    /// steps is safe: recovery skips WAL records the snapshot already
    /// covers.
    ///
    /// `ledger` must reflect every record appended so far — with a
    /// group-commit buffer in front of this WAL, flush it first, or the
    /// snapshot would claim coverage of spends whose records never
    /// landed.
    ///
    /// Segmented WALs delete sealed segment files only and leave the
    /// active tail in place (its covered records replay as skipped);
    /// single-file WALs truncate, as before.
    pub fn compact(&mut self, ledger: &TenantLedger) -> std::io::Result<bool> {
        let framed = encode_ledger_snapshot(self.next_seq, ledger);
        snapshot::commit_atomic(&self.snapshot_path, &framed, self.plan.as_deref())?;
        self.stats.fsyncs += 1;
        if self.segment_max_records == 0 {
            // Durable truncate: `fs::write(path, "")` alone leaves the
            // zero-length state unsynced, so after a power cut the WAL's
            // on-disk length is undefined — stale pre-compaction bytes
            // could coexist with post-compaction appends in whatever
            // order the filesystem flushed them. fsyncing the truncation
            // pins the empty state before any new append lands.
            let wal = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&self.path)?;
            wal.sync_all()?;
            self.stats.fsyncs += 1;
            self.records_in_tail = 0;
            self.tail_first_seq = self.next_seq;
        } else {
            for (_, seg) in self.sealed_segments()? {
                std::fs::remove_file(seg)?;
            }
            snapshot::sync_parent_dir(&self.path)?;
        }
        self.records_in_wal = 0;
        Ok(true)
    }
}

/// Truncates `path` to `len` bytes and fsyncs, so the dropped suffix is
/// gone durably — not just until the next power cut. Missing files are
/// fine (an empty tail needs no truncation).
fn truncate_durably(path: &Path, len: u64) -> std::io::Result<()> {
    let file = match std::fs::OpenOptions::new().write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    file.set_len(len)?;
    file.sync_all()
}

fn encode_ledger_snapshot(next_seq: u64, ledger: &TenantLedger) -> String {
    let mut body = format!("Q\t{next_seq}\n");
    for (tenant, spend) in ledger.spends() {
        body.push_str("S\t");
        esc(tenant.as_str(), &mut body);
        body.push_str(&format!(
            "\t{:016x}\t{}\t{}\t{}\t{}\n",
            spend.usd.to_bits(),
            spend.tokens,
            spend.calls,
            spend.cache_hits,
            spend.cache_coalesced
        ));
    }
    snapshot::encode_file(LEDGER_MAGIC, &body)
}

fn decode_ledger_snapshot(text: &str) -> Result<(u64, Vec<(TenantId, Spend)>), SnapshotError> {
    let fail = |msg: &str| SnapshotError::Format(msg.to_string());
    let body = snapshot::decode_file(LEDGER_MAGIC, text)?;
    let mut lines = body.lines();
    let next_seq = lines
        .next()
        .and_then(|line| line.strip_prefix("Q\t"))
        .and_then(|raw| raw.parse::<u64>().ok())
        .ok_or_else(|| fail("bad sequence line"))?;
    let mut spends = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.first() != Some(&"S") || fields.len() != 7 {
            return Err(fail("bad spend line"));
        }
        let tenant = TenantId::new(unesc(fields[1])?);
        let spend = Spend {
            usd: u64::from_str_radix(fields[2], 16)
                .map(f64::from_bits)
                .map_err(|_| fail("bad usd bits"))?,
            tokens: fields[3].parse().map_err(|_| fail("bad tokens"))?,
            calls: fields[4].parse().map_err(|_| fail("bad calls"))?,
            cache_hits: fields[5].parse().map_err(|_| fail("bad cache_hits"))?,
            cache_coalesced: fields[6].parse().map_err(|_| fail("bad cache_coalesced"))?,
        };
        spends.push((tenant, spend));
    }
    Ok((next_seq, spends))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LedgerWal {
        /// Sets the auto-compaction threshold (records in the WAL).
        pub(crate) fn compact_threshold(mut self, records: usize) -> LedgerWal {
            self.compact_threshold = records;
            self
        }

        /// Compacts if the replayable WAL has reached the threshold.
        /// Returns whether a compaction ran.
        fn maybe_compact(&mut self, ledger: &TenantLedger) -> std::io::Result<bool> {
            if !self.compaction_due() {
                return Ok(false);
            }
            self.compact(ledger)
        }
    }

    #[test]
    fn quotas_gate_on_attributed_spend() {
        let mut ledger = TenantLedger::new();
        let acme: TenantId = "acme".into();
        ledger.register(acme.clone(), TenantConfig::weighted(2).dollars(1.0));
        assert!(ledger.over_quota(&acme).is_none());
        ledger.charge(&acme, 0.6, 1000, 2);
        assert!(ledger.over_quota(&acme).is_none());
        ledger.charge(&acme, 0.4, 800, 1);
        match ledger.over_quota(&acme) {
            Some(crate::RejectReason::BudgetExhausted {
                spent_usd,
                quota_usd,
            }) => {
                assert!((spent_usd - 1.0).abs() < 1e-12);
                assert_eq!(quota_usd, 1.0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(ledger.spend(&acme).calls, 3);
    }

    #[test]
    fn token_quota_is_independent() {
        let mut ledger = TenantLedger::new();
        let t: TenantId = "t".into();
        ledger.register(t.clone(), TenantConfig::default().tokens(100));
        ledger.charge(&t, 0.0, 100, 1);
        assert!(matches!(
            ledger.over_quota(&t),
            Some(crate::RejectReason::TokensExhausted { .. })
        ));
    }

    #[test]
    fn unregistered_tenants_get_defaults() {
        let ledger = TenantLedger::new();
        let ghost: TenantId = "ghost".into();
        assert!(!ledger.knows(&ghost));
        assert_eq!(ledger.config(&ghost).weight, 1);
        assert!(ledger.over_quota(&ghost).is_none());
    }

    #[test]
    fn weight_floor_is_one() {
        assert_eq!(TenantConfig::weighted(0).weight, 1);
    }

    #[test]
    fn slo_targets_ride_on_the_config_without_gating_admission() {
        let config = TenantConfig::default()
            .p99_latency(30.0)
            .usd_per_query(0.01);
        assert_eq!(config.slo.p99_latency_s, Some(30.0));
        assert_eq!(config.slo.usd_per_query, Some(0.01));
        // SLOs never shed: the quota gate ignores them entirely.
        let mut ledger = TenantLedger::new();
        let acme: TenantId = "acme".into();
        ledger.register(acme.clone(), config);
        ledger.charge(&acme, 100.0, 1_000_000, 50);
        assert!(ledger.over_quota(&acme).is_none());
    }

    fn wal_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aida-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn spend_record(tenant: &TenantId, usd: f64) -> LedgerRecord {
        LedgerRecord::Spend {
            tenant: tenant.clone(),
            usd,
            tokens: 120,
            calls: 3,
            cache_hits: 2,
            cache_coalesced: 1,
        }
    }

    #[test]
    fn wal_replay_reproduces_bit_identical_spend() {
        let d = wal_dir("replay");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        ledger.register(acme.clone(), TenantConfig::weighted(2).dollars(1.0));
        let mut wal = LedgerWal::open(d.join("tenants.wal"));
        for record in [
            LedgerRecord::Admit {
                tenant: acme.clone(),
            },
            spend_record(&acme, 0.123456789),
            spend_record(&acme, 0.000000071),
        ] {
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }

        let mut restarted = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal"));
        let recovery = wal2.recover(&mut restarted).unwrap();
        assert_eq!(recovery.replayed, 3);
        assert!(!recovery.dropped_tail);
        assert_eq!(wal2.next_seq(), wal.next_seq());
        // Bit-identical dollars, not just approximately equal.
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        assert_eq!(restarted.spend(&acme), ledger.spend(&acme));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn record_codec_round_trips() {
        let r = spend_record(&"team a\twith\ttabs".into(), -0.5);
        assert_eq!(LedgerRecord::decode(&r.encode()).unwrap(), r);
        let a = LedgerRecord::Admit {
            tenant: "bolt".into(),
        };
        assert_eq!(LedgerRecord::decode(&a.encode()).unwrap(), a);
        assert!(LedgerRecord::decode("refund\tacme\t1").is_err());
    }

    #[test]
    fn compaction_is_crash_idempotent() {
        let d = wal_dir("compact");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal")).compact_threshold(3);
        for i in 0..3 {
            let record = spend_record(&acme, 0.01 * (i + 1) as f64);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        // Simulate a crash between snapshot-commit and WAL-truncate: run
        // the compaction, then restore the pre-truncate WAL bytes.
        let wal_bytes = std::fs::read(wal.path()).unwrap();
        assert!(wal.maybe_compact(&ledger).unwrap());
        std::fs::write(wal.path(), &wal_bytes).unwrap();

        let mut restarted = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal"));
        let recovery = wal2.recover(&mut restarted).unwrap();
        assert!(recovery.snapshot_loaded);
        // Every leftover record predates the snapshot: skipped, so the
        // spend is applied exactly once.
        assert_eq!(recovery.skipped, 3);
        assert_eq!(recovery.replayed, 0);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn recovery_truncates_torn_tail_so_later_appends_survive_a_second_restart() {
        use aida_llm::snapshot::CrashPoint;
        let d = wal_dir("torn-repair");
        let acme: TenantId = "acme".into();
        let mut wal = LedgerWal::open(d.join("tenants.wal"));
        wal.append(&spend_record(&acme, 0.25)).unwrap();
        wal.append(&spend_record(&acme, 0.5)).unwrap();
        let plan = Arc::new(FailPlan::new(CrashPoint::WalTornAppend).torn_keep(9));
        let mut torn = LedgerWal::open(d.join("tenants.wal")).with_fail_plan(plan);
        let mut scratch = TenantLedger::new();
        torn.recover(&mut scratch).unwrap();
        assert!(torn.append(&spend_record(&acme, 1.0)).is_err());

        // Restart 1: recovery drops the torn tail (and removes it from
        // disk), so the acknowledged post-recovery append below lands on
        // its own line.
        let mut ledger = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal"));
        let recovery = wal2.recover(&mut ledger).unwrap();
        assert!(recovery.dropped_tail);
        assert_eq!(recovery.replayed, 2);
        let post = spend_record(&acme, 2.0);
        wal2.append(&post).unwrap();
        ledger.apply(&post);

        // Restart 2: the post-recovery record replays intact instead of
        // being swallowed with the remnants of the torn one.
        let mut ledger2 = TenantLedger::new();
        let mut wal3 = LedgerWal::open(d.join("tenants.wal"));
        let recovery2 = wal3.recover(&mut ledger2).unwrap();
        assert!(!recovery2.dropped_tail);
        assert_eq!(recovery2.replayed, 3);
        assert_eq!(
            ledger2.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn segments_seal_and_recovery_replays_them_in_order() {
        let d = wal_dir("segments");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        for i in 0..5 {
            let record = spend_record(&acme, 0.01 * (i + 1) as f64);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        // 5 appends at segment size 2: two sealed segments + 1-record tail.
        assert_eq!(wal.stats().segments_sealed, 2);
        assert!(d.join("tenants.wal.0000000000000000.seg").is_file());
        assert!(d.join("tenants.wal.0000000000000002.seg").is_file());
        assert!(d.join("tenants.wal").is_file());

        let mut restarted = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        let recovery = wal2.recover(&mut restarted).unwrap();
        assert_eq!(recovery.sealed_segments, 2);
        assert_eq!(recovery.replayed, 5);
        assert!(!recovery.dropped_tail);
        assert_eq!(wal2.next_seq(), 5);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );

        // Post-recovery appends continue the chain and survive another
        // restart.
        let post = spend_record(&acme, 1.0);
        restarted.apply(&post);
        wal2.append(&post).unwrap();
        let mut again = TenantLedger::new();
        let recovery2 = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .recover(&mut again)
            .unwrap();
        assert_eq!(recovery2.replayed, 6);
        assert_eq!(
            again.spend(&acme).usd.to_bits(),
            restarted.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn batch_append_costs_one_fsync_and_replays_bit_identical() {
        let d = wal_dir("batch");
        let acme: TenantId = "acme".into();
        let bolt: TenantId = "bolt".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal"));
        let batch = vec![
            LedgerRecord::Admit {
                tenant: acme.clone(),
            },
            spend_record(&acme, 0.123456789),
            spend_record(&bolt, 0.000000071),
        ];
        for record in &batch {
            ledger.apply(record);
        }
        assert_eq!(wal.append_batch(&batch).unwrap(), 0);
        let stats = wal.stats();
        assert_eq!(stats.fsyncs, 1, "one sync_all for the whole batch");
        assert_eq!(stats.group_flushes, 1);
        assert_eq!(wal.next_seq(), 3);

        let mut restarted = TenantLedger::new();
        let recovery = LedgerWal::open(d.join("tenants.wal"))
            .recover(&mut restarted)
            .unwrap();
        assert_eq!(recovery.replayed, 3);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        assert_eq!(
            restarted.spend(&bolt).usd.to_bits(),
            ledger.spend(&bolt).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn segmented_compaction_deletes_sealed_files_and_leaves_the_tail() {
        let d = wal_dir("seg-compact");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .compact_threshold(4);
        for i in 0..5 {
            let record = spend_record(&acme, 0.01 * (i + 1) as f64);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        assert!(wal.maybe_compact(&ledger).unwrap());
        // Sealed segments are reclaimed; the 1-record active tail stays.
        assert!(!d.join("tenants.wal.0000000000000000.seg").exists());
        assert!(!d.join("tenants.wal.0000000000000002.seg").exists());
        assert!(d.join("tenants.wal").is_file());
        assert!(std::fs::metadata(d.join("tenants.wal")).unwrap().len() > 0);

        // The tail's leftover record is covered by the snapshot: skipped,
        // so spend applies exactly once.
        let mut restarted = TenantLedger::new();
        let recovery = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .recover(&mut restarted)
            .unwrap();
        assert!(recovery.snapshot_loaded);
        assert_eq!(recovery.replayed, 0);
        assert_eq!(recovery.skipped, 1);
        assert_eq!(recovery.next_seq, 5);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn segmented_compaction_is_crash_idempotent() {
        let d = wal_dir("seg-compact-crash");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .compact_threshold(4);
        for i in 0..4 {
            let record = spend_record(&acme, 0.01 * (i + 1) as f64);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        // Simulate a crash between snapshot-commit and segment deletion:
        // compact, then restore the sealed segment files.
        let seg_a = d.join("tenants.wal.0000000000000000.seg");
        let seg_b = d.join("tenants.wal.0000000000000002.seg");
        let bytes_a = std::fs::read(&seg_a).unwrap();
        let bytes_b = std::fs::read(&seg_b).unwrap();
        assert!(wal.maybe_compact(&ledger).unwrap());
        std::fs::write(&seg_a, &bytes_a).unwrap();
        std::fs::write(&seg_b, &bytes_b).unwrap();

        let mut restarted = TenantLedger::new();
        let recovery = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .recover(&mut restarted)
            .unwrap();
        assert!(recovery.snapshot_loaded);
        assert_eq!(recovery.skipped, 4);
        assert_eq!(recovery.replayed, 0);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn damage_in_a_sealed_segment_drops_everything_after_it() {
        let d = wal_dir("seg-damage");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        for i in 0..5 {
            let record = spend_record(&acme, 0.01 * (i + 1) as f64);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        // Corrupt the first segment's second record: replay trusts only
        // record 0 and must drop the rest of the log — the later segment
        // and the tail — physically.
        let seg_a = d.join("tenants.wal.0000000000000000.seg");
        let seg_b = d.join("tenants.wal.0000000000000002.seg");
        let mut bytes = std::fs::read(&seg_a).unwrap();
        let split = bytes.iter().position(|b| *b == b'\n').unwrap();
        let flip = split + 10;
        bytes[flip] ^= 0x5a;
        std::fs::write(&seg_a, &bytes).unwrap();

        let mut restarted = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        let recovery = wal2.recover(&mut restarted).unwrap();
        assert_eq!(recovery.replayed, 1);
        assert!(recovery.dropped_tail);
        assert_eq!(wal2.next_seq(), 1);
        assert!(!seg_b.exists(), "later segment must be dropped");
        assert_eq!(std::fs::metadata(d.join("tenants.wal")).unwrap().len(), 0);

        // A second recovery reconstructs the identical state, and
        // post-recovery appends replay intact.
        let post = spend_record(&acme, 2.0);
        restarted.apply(&post);
        wal2.append(&post).unwrap();
        let mut again = TenantLedger::new();
        let recovery2 = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .recover(&mut again)
            .unwrap();
        assert!(!recovery2.dropped_tail);
        assert_eq!(recovery2.replayed, 2);
        assert_eq!(
            again.spend(&acme).usd.to_bits(),
            restarted.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn seal_crash_leaves_records_durable_in_the_tail() {
        use aida_llm::snapshot::CrashPoint;
        let d = wal_dir("seal-crash");
        let acme: TenantId = "acme".into();
        let plan = Arc::new(FailPlan::new(CrashPoint::WalSegmentSeal));
        let mut wal = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .with_fail_plan(plan);
        let mut ledger = TenantLedger::new();
        let first = spend_record(&acme, 0.25);
        ledger.apply(&first);
        wal.append(&first).unwrap();
        // The second append lands durably, then the seal crashes.
        let second = spend_record(&acme, 0.5);
        ledger.apply(&second);
        let err = wal.append(&second).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        assert!(err.to_string().contains("injected crash"), "{err}");

        // Recovery finds both records in the (unsealed) tail: the crash
        // lost the rename, never the acknowledged data.
        let mut restarted = TenantLedger::new();
        let recovery = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .recover(&mut restarted)
            .unwrap();
        assert_eq!(recovery.sealed_segments, 0);
        assert_eq!(recovery.replayed, 2);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn cache_credits_accumulate_without_touching_quota() {
        let mut ledger = TenantLedger::new();
        let acme: TenantId = "acme".into();
        ledger.register(acme.clone(), TenantConfig::default().dollars(1.0));
        ledger.credit_cache(&acme, 5, 2);
        ledger.credit_cache(&acme, 3, 0);
        let spend = ledger.spend(&acme);
        assert_eq!(spend.cache_hits, 8);
        assert_eq!(spend.cache_coalesced, 2);
        // Hits are free: the quota gate never fires on cache traffic.
        assert!(ledger.over_quota(&acme).is_none());
    }
}
