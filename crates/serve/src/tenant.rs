//! Per-tenant configuration and accounting, plus the tenant ledger's
//! store in the service's log, which makes quotas, spend attribution,
//! and cache-credit balances exact across service restarts.

use crate::request::TenantId;
use aida_llm::snapshot::{
    self, esc, push_hex16, push_u64, FailPlan, Fields, Log, LogStats, SharedLog, SnapshotError,
    StoreId,
};
use aida_llm::{ModelCatalog, UsageSnapshot};
use aida_obs::SloTarget;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
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

/// Spend attributed to one tenant: the sum of its queries' spends, each
/// read off the query's receipt when it settles.
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
    /// Semantic-cache batch duplicates coalesced for this tenant.
    pub cache_coalesced: u64,
}

impl Spend {
    /// What one query spent: its receipt, priced under `catalog`.
    pub fn of(receipt: &UsageSnapshot, catalog: &ModelCatalog) -> Spend {
        Spend {
            usd: receipt.cost(catalog),
            tokens: receipt.total_tokens(),
            calls: receipt.total_calls(),
            cache_hits: receipt.cache_hits,
            cache_coalesced: receipt.cache_coalesced,
        }
    }

    /// Counters saturate: a replayed ledger is input, and no record or
    /// snapshot line may panic recovery by overflowing one.
    fn add(&mut self, other: Spend) {
        self.usd += other.usd;
        self.tokens = self.tokens.saturating_add(other.tokens);
        self.calls = self.calls.saturating_add(other.calls);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_coalesced = self.cache_coalesced.saturating_add(other.cache_coalesced);
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

    /// Applies one durable ledger record. Replaying the log through this
    /// reproduces the exact spend state the records were written under.
    /// Admissions carry no spend; they make the log a complete audit
    /// trail of what entered the service.
    fn apply(&mut self, record: &LedgerRecord) {
        if let (tenant, Some(spend)) = record.parts() {
            self.charge(tenant, spend);
        }
    }

    /// Attributes one query's spend to a tenant: its charge and its
    /// semantic-cache credits, together. Cache hits are free, so they
    /// adjust no quota — but the ledger records who benefited from the
    /// shared cache.
    pub fn charge(&mut self, tenant: &TenantId, spend: Spend) {
        // The id is cloned only on a tenant's first charge.
        match self.spend.get_mut(tenant) {
            Some(total) => total.add(spend),
            None => {
                let mut total = Spend::default();
                total.add(spend);
                self.spend.insert(tenant.clone(), total);
            }
        }
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
/// [`LedgerRecord::Spend`] carrying both the query's charge and its cache
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
        /// Semantic-cache batch duplicates credited.
        cache_coalesced: u64,
    },
}

impl LedgerRecord {
    /// Encodes the record as a tab-separated WAL payload (newline-free;
    /// the WAL layer adds the sequence number and checksum).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`LedgerRecord::encode`]'s payload to `out`.
    fn encode_into(&self, out: &mut String) {
        let (tenant, spend) = self.parts();
        out.push_str(["admit\t", "spend\t"][usize::from(spend.is_some())]);
        esc(tenant.as_str(), out);
        if let Some(spend) = spend {
            push_spend(out, &spend);
        }
    }

    /// The record's tenant and, for a spend record, what it charges.
    fn parts(&self) -> (&TenantId, Option<Spend>) {
        match self {
            LedgerRecord::Admit { tenant } => (tenant, None),
            LedgerRecord::Spend {
                tenant,
                usd,
                tokens,
                calls,
                cache_hits,
                cache_coalesced,
            } => {
                let spend = Spend {
                    usd: *usd,
                    tokens: *tokens,
                    calls: *calls,
                    cache_hits: *cache_hits,
                    cache_coalesced: *cache_coalesced,
                };
                (tenant, Some(spend))
            }
        }
    }

    /// Decodes a WAL payload. Dollars round-trip via `f64::to_bits`, so
    /// a replayed ledger is bit-identical to the one that wrote it.
    pub fn decode(payload: &str) -> Result<LedgerRecord, SnapshotError> {
        let mut fields = Fields::new(payload.split('\t'));
        let kind = fields.field()?;
        let tenant = TenantId::new(fields.text()?);
        let record = match kind {
            "admit" => LedgerRecord::Admit { tenant },
            "spend" => {
                let spend = read_spend(&mut fields)?;
                LedgerRecord::Spend {
                    tenant,
                    usd: spend.usd,
                    tokens: spend.tokens,
                    calls: spend.calls,
                    cache_hits: spend.cache_hits,
                    cache_coalesced: spend.cache_coalesced,
                }
            }
            _ => return Err(SnapshotError::Format("unknown ledger record".into())),
        };
        fields.end()?;
        Ok(record)
    }
}

/// Appends the five spend fields a ledger record and a ledger snapshot
/// line both end with, each after a tab: dollars by their bits, then
/// tokens, calls, cache hits and coalesced batch duplicates.
fn push_spend(out: &mut String, spend: &Spend) {
    out.push('\t');
    push_hex16(out, spend.usd.to_bits());
    for n in [
        spend.tokens,
        spend.calls,
        spend.cache_hits,
        spend.cache_coalesced,
    ] {
        out.push('\t');
        push_u64(out, n);
    }
}

/// Reads what [`push_spend`] wrote.
fn read_spend<'a>(
    fields: &mut Fields<impl Iterator<Item = &'a str>>,
) -> Result<Spend, SnapshotError> {
    Ok(Spend {
        usd: fields.f64_bits("bad usd bits")?,
        tokens: fields.num("bad tokens")?,
        calls: fields.num("bad calls")?,
        cache_hits: fields.num("bad cache_hits")?,
        cache_coalesced: fields.num("bad cache_coalesced")?,
    })
}

/// What [`LedgerWal::recover`] reconstructed at startup.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalRecovery {
    /// Whether the manifest named a ledger snapshot, loaded first.
    pub snapshot_loaded: bool,
    /// Ledger records replayed into the ledger.
    pub replayed: u64,
    /// Ledger records the snapshot already covers (their segments stay
    /// while another store's records in them are pending).
    pub skipped: u64,
    /// Whether recovery cut a refused suffix off the log's files.
    pub dropped_tail: bool,
    /// Full segment files the log holds after recovery.
    pub sealed_segments: u64,
    /// The next sequence number new records will use.
    pub next_seq: u64,
}

/// Lifetime I/O counters of the log a [`LedgerWal`] writes to: its
/// `fsyncs` count every data-file fsync of that log, so with the ledger
/// in the runtime's log every data-file fsync of the service.
pub type WalStats = LogStats;

const LEDGER_MAGIC: &str = "aida-ledger v2";

/// The tenant ledger's store in a [`Log`]: every admit and every
/// completed query stages one record, and [`LedgerWal::recover`] loads
/// the snapshot the manifest names and replays the records after it, so
/// quotas and spend are exact across restarts. Opened on its own, the
/// ledger is the only store of a log at its path; attached to a service
/// whose runtime has a log ([`aida_core::Runtime::log`]) it joins that
/// one, sharing its commits. Either way it writes its own snapshots
/// ([`LedgerWal::compact`]), and its path holds them.
pub struct LedgerWal {
    path: PathBuf,
    log: SharedLog,
    /// Whether `log` is a runtime's, recovered when the runtime was built.
    joined: bool,
    segment_records: usize,
    compact_threshold: usize,
    /// Records staged since the ledger's last snapshot.
    since_snapshot: usize,
    plan: Option<Arc<FailPlan>>,
}

impl LedgerWal {
    /// A ledger whose log is at `path` (nothing is read until
    /// [`LedgerWal::recover`]).
    pub fn open(path: impl Into<PathBuf>) -> LedgerWal {
        let path = path.into();
        let mut log = Log::open(&path);
        log.set_store_path(StoreId::Ledger, &path);
        LedgerWal {
            log: Arc::new(Mutex::new(log)),
            path,
            joined: false,
            segment_records: 0,
            compact_threshold: 256,
            since_snapshot: 0,
            plan: None,
        }
    }

    /// Opens a new log segment once the active one holds this many
    /// records, of every store (0 = one segment until a compaction).
    pub fn segment_records(mut self, records: usize) -> LedgerWal {
        self.segment_records = records;
        self.log.lock().set_segment_records(records);
        self
    }

    /// Installs a crash-injection plan on every durable write this WAL
    /// performs (durability suite only).
    pub fn with_fail_plan(mut self, plan: Arc<FailPlan>) -> LedgerWal {
        self.plan = Some(plan);
        self
    }

    /// Joins `log`, a runtime's, instead of the log at the path, which
    /// then only names the ledger's snapshots (as
    /// [`QueryService::attach_wal`](crate::QueryService::attach_wal) does).
    pub fn join(mut self, log: &SharedLog) -> LedgerWal {
        (self.log, self.joined) = (Arc::clone(log), true);
        let mut log = self.log.lock();
        log.set_store_path(StoreId::Ledger, &self.path);
        log.set_segment_records(self.segment_records);
        drop(log);
        self
    }

    /// How many ledger records may wait staged before a commit (0 or 1:
    /// every record commits).
    pub(crate) fn set_group_commit(&self, records: usize) {
        self.log.lock().set_group_commit(records);
    }

    /// The sequence number the next record will use.
    pub fn next_seq(&self) -> u64 {
        self.log.lock().next_seq()
    }

    /// Lifetime I/O counters of the ledger's log.
    pub fn stats(&self) -> WalStats {
        self.log.lock().stats()
    }

    /// Whether the ledger has staged enough records since its snapshot
    /// to compact.
    pub fn compaction_due(&self) -> bool {
        self.compact_threshold > 0 && self.since_snapshot >= self.compact_threshold
    }

    /// Rebuilds `ledger` from disk: the snapshot the manifest names, then
    /// the ledger records of the log after it. A ledger on its own log
    /// recovers the log first (cutting a torn tail off); a joined one
    /// takes what the runtime's recovery read, or its refusal. A snapshot
    /// or record that does not decode is a typed error, and so is a
    /// joined ledger whose path holds a log of its own.
    pub fn recover(&mut self, ledger: &mut TenantLedger) -> Result<WalRecovery, SnapshotError> {
        if self.joined && Log::open(&self.path).exists()? {
            let msg = format!("the ledger at {} is in its own log", self.path.display());
            return Err(SnapshotError::Format(msg));
        }
        let mut log = self.log.lock();
        match (self.joined, log.refused()) {
            (true, Some(e)) => return Err(e),
            (true, None) => {}
            (false, _) => log.recover()?,
        }
        let mut recovery = WalRecovery::default();
        let mut recovered = TenantLedger::new();
        if let Some(path) = log.snapshot_path(StoreId::Ledger) {
            decode_ledger_snapshot(&std::fs::read_to_string(path)?, &mut recovered)?;
            recovery.snapshot_loaded = true;
        }
        let covered = log.covered(StoreId::Ledger);
        for record in log.take_records(&[StoreId::Ledger]) {
            if record.seq < covered {
                recovery.skipped += 1;
            } else {
                recovered.apply(&LedgerRecord::decode(&record.payload)?);
                recovery.replayed += 1;
            }
        }
        self.since_snapshot = recovery.replayed as usize;
        for (tenant, spend) in recovered.spends() {
            ledger.charge(tenant, *spend);
        }
        recovery.dropped_tail = log.dropped_tail();
        recovery.sealed_segments = (log.segment_paths().len() as u64).saturating_sub(1);
        recovery.next_seq = log.next_seq();
        Ok(recovery)
    }

    /// Stages one record and commits once the group bound is reached
    /// (at once, without group commit), returning its sequence number.
    /// Under group commit an admission, which carries no spend, waits
    /// for the next spend record: the staged spend never exceeds the
    /// bound, and a checkpoint of the query the admission starts carries
    /// it. On an error the record may or may not have landed (exactly
    /// the crash model); the caller must stop appending and recover via
    /// [`LedgerWal::recover`] before trusting the ledger again.
    pub fn append(&mut self, record: &LedgerRecord) -> std::io::Result<u64> {
        let seq = self.stage(record)?;
        let mut log = self.log.lock();
        if log.commit_due(matches!(record, LedgerRecord::Admit { .. })) {
            log.commit(self.plan.as_deref())?;
        }
        Ok(seq)
    }

    /// Stages a batch of records and commits them under a SINGLE fsync,
    /// returning the first record's sequence number. Either a prefix of
    /// the batch survives a tear or the whole batch lands; on an error
    /// the caller must stop appending and recover, exactly as for
    /// [`LedgerWal::append`].
    pub fn append_batch(&mut self, records: &[LedgerRecord]) -> std::io::Result<u64> {
        let first = self.next_seq();
        for record in records {
            self.stage(record)?;
        }
        self.flush()?;
        Ok(first)
    }

    fn stage(&mut self, record: &LedgerRecord) -> std::io::Result<u64> {
        let mut log = self.log.lock();
        let seq = log.next_seq();
        log.stage(StoreId::Ledger, false, |out| record.encode_into(out))?;
        self.since_snapshot += 1;
        Ok(seq)
    }

    /// Commits the staged records.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.log.lock().commit(self.plan.as_deref()).map(drop)
    }

    /// Commits the staged records, then writes `ledger` — which must
    /// hold every record appended so far — as the ledger's next snapshot,
    /// current with one manifest commit ([`Log::rewrite`]). A crash
    /// before the manifest rename leaves the previous snapshot and log.
    pub fn compact(&mut self, ledger: &TenantLedger) -> std::io::Result<bool> {
        let snapshot = vec![(StoreId::Ledger, encode_ledger_snapshot(ledger))];
        self.log.lock().rewrite(snapshot, self.plan.as_deref())?;
        self.since_snapshot = 0;
        Ok(true)
    }
}

fn encode_ledger_snapshot(ledger: &TenantLedger) -> String {
    let mut body = String::new();
    for (tenant, spend) in ledger.spends() {
        body.push_str("S\t");
        esc(tenant.as_str(), &mut body);
        push_spend(&mut body, spend);
        body.push('\n');
    }
    snapshot::encode_file(LEDGER_MAGIC, &body)
}

/// Charges the spend lines of a ledger snapshot to `ledger`.
fn decode_ledger_snapshot(text: &str, ledger: &mut TenantLedger) -> Result<(), SnapshotError> {
    for line in snapshot::decode_file(LEDGER_MAGIC, text)?.lines() {
        let mut fields = Fields::new(line.split('\t'));
        if fields.field()? != "S" {
            return Err(SnapshotError::Format("bad spend line".into()));
        }
        let tenant = TenantId::new(fields.text()?);
        ledger.charge(&tenant, read_spend(&mut fields)?);
        fields.end()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LedgerWal {
        /// Sets the auto-compaction threshold (records since the
        /// ledger's snapshot).
        pub(crate) fn compact_threshold(mut self, records: usize) -> LedgerWal {
            self.compact_threshold = records;
            self
        }

        /// The log's segment files.
        fn segments(&self) -> Vec<PathBuf> {
            self.log.lock().segment_paths()
        }

        /// Compacts if the ledger has reached the threshold. Returns
        /// whether a compaction ran.
        fn maybe_compact(&mut self, ledger: &TenantLedger) -> std::io::Result<bool> {
            if !self.compaction_due() {
                return Ok(false);
            }
            self.compact(ledger)
        }
    }

    /// A query's dollars, tokens and calls, with no cache credits.
    fn usd(usd: f64, tokens: u64, calls: u64) -> Spend {
        Spend {
            usd,
            tokens,
            calls,
            ..Spend::default()
        }
    }

    #[test]
    fn quotas_gate_on_attributed_spend() {
        let mut ledger = TenantLedger::new();
        let acme: TenantId = "acme".into();
        ledger.register(acme.clone(), TenantConfig::weighted(2).dollars(1.0));
        assert!(ledger.over_quota(&acme).is_none());
        ledger.charge(&acme, usd(0.6, 1000, 2));
        assert!(ledger.over_quota(&acme).is_none());
        ledger.charge(&acme, usd(0.4, 800, 1));
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
        ledger.charge(&t, usd(0.0, 100, 1));
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
        ledger.charge(&acme, usd(100.0, 1_000_000, 50));
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
        // A field after the last is not ignored.
        assert!(LedgerRecord::decode(&format!("{}\t7", r.encode())).is_err());
    }

    #[test]
    fn replayed_counters_saturate_instead_of_overflowing() {
        let mut ledger = TenantLedger::new();
        let acme: TenantId = "acme".into();
        for _ in 0..2 {
            ledger.apply(&spend_record(&acme, 1.0));
            ledger.charge(&acme, usd(0.0, u64::MAX, u64::MAX));
        }
        assert_eq!(ledger.spend(&acme).tokens, u64::MAX);
        assert_eq!(ledger.spend(&acme).calls, u64::MAX);
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
        // Simulate a crash between the manifest commit and the deletion
        // of the segment it covers: compact, then restore the segment.
        let segment = wal.segments().remove(0);
        let bytes = std::fs::read(&segment).unwrap();
        assert!(wal.maybe_compact(&ledger).unwrap());
        assert!(wal.segments().is_empty(), "the snapshot covers the log");
        std::fs::write(&segment, &bytes).unwrap();

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
        let plan = Arc::new(FailPlan::new(CrashPoint::LogTornCommit).torn_keep(9));
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
    fn segments_roll_and_recovery_replays_them_in_order() {
        let d = wal_dir("segments");
        let acme: TenantId = "acme".into();
        let mut ledger = TenantLedger::new();
        let mut wal = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        for i in 0..5 {
            let record = spend_record(&acme, 0.01 * (i + 1) as f64);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        // 5 commits of one record at segment size 2: two full segments
        // and the active one.
        assert_eq!(wal.stats().rolls, 2);
        for first in ["0000000000000000", "0000000000000002", "0000000000000004"] {
            assert!(d.join(format!("tenants.wal.{first}.log")).is_file());
        }

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

        // Post-recovery appends continue the sequence and survive another
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
        assert_eq!(stats.ledger_commits, 1);
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
    fn compaction_deletes_the_segments_its_snapshot_covers() {
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
        let segments = wal.segments();
        assert_eq!(segments.len(), 3);
        assert!(wal.maybe_compact(&ledger).unwrap());
        assert!(segments.iter().all(|s| !s.exists()));
        assert!(d.join("tenants.wal.0000000000000001").is_file());

        // Restored from the snapshot alone; the next record continues the
        // sequence in a new segment.
        let mut restarted = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        let recovery = wal2.recover(&mut restarted).unwrap();
        assert!(recovery.snapshot_loaded);
        assert_eq!((recovery.replayed, recovery.skipped), (0, 0));
        assert_eq!(recovery.next_seq, 5);
        assert_eq!(
            restarted.spend(&acme).usd.to_bits(),
            ledger.spend(&acme).usd.to_bits()
        );
        wal2.append(&spend_record(&acme, 1.0)).unwrap();
        assert!(d.join("tenants.wal.0000000000000005.log").is_file());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn damage_in_a_full_segment_drops_everything_after_it() {
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
        // record 0 and must drop the rest of the log — the later
        // segments — physically.
        let segments = wal.segments();
        let mut bytes = std::fs::read(&segments[0]).unwrap();
        let split = bytes.iter().position(|b| *b == b'\n').unwrap();
        bytes[split + 40] ^= 0x5a;
        std::fs::write(&segments[0], &bytes).unwrap();

        let mut restarted = TenantLedger::new();
        let mut wal2 = LedgerWal::open(d.join("tenants.wal")).segment_records(2);
        let recovery = wal2.recover(&mut restarted).unwrap();
        assert_eq!(recovery.replayed, 1);
        assert!(recovery.dropped_tail);
        assert_eq!(wal2.next_seq(), 1);
        assert!(
            segments[1..].iter().all(|s| !s.exists()),
            "later segments go"
        );
        assert_eq!(
            std::fs::metadata(&segments[0]).unwrap().len(),
            split as u64 + 1
        );

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
    fn a_roll_crash_loses_only_the_record_in_flight() {
        use aida_llm::snapshot::CrashPoint;
        let d = wal_dir("roll-crash");
        let acme: TenantId = "acme".into();
        // The first roll opens the first segment.
        let plan = Arc::new(FailPlan::nth(CrashPoint::LogSegmentRoll, 1));
        let mut wal = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .with_fail_plan(plan);
        let mut ledger = TenantLedger::new();
        for usd in [0.25, 0.5] {
            let record = spend_record(&acme, usd);
            ledger.apply(&record);
            wal.append(&record).unwrap();
        }
        // The third record opens a new segment: the file is created, then
        // the process dies before the record is in it.
        let err = wal.append(&spend_record(&acme, 1.0)).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(d.join("tenants.wal.0000000000000002.log").is_file());

        let mut restarted = TenantLedger::new();
        let recovery = LedgerWal::open(d.join("tenants.wal"))
            .segment_records(2)
            .recover(&mut restarted)
            .unwrap();
        assert_eq!(recovery.replayed, 2);
        assert_eq!(recovery.next_seq, 2);
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
        for (cache_hits, cache_coalesced) in [(5, 2), (3, 0)] {
            let credit = Spend {
                cache_hits,
                cache_coalesced,
                ..Spend::default()
            };
            ledger.charge(&acme, credit);
        }
        let spend = ledger.spend(&acme);
        assert_eq!(spend.cache_hits, 8);
        assert_eq!(spend.cache_coalesced, 2);
        // Hits are free: the quota gate never fires on cache traffic.
        assert!(ledger.over_quota(&acme).is_none());
    }
}
