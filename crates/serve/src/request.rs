//! The session/request model: tenants, priorities, query requests, and
//! typed admission rejections.

use std::fmt;

/// Identifies one tenant (a paying user or team multiplexed onto the
/// shared runtime).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// Creates a tenant id.
    pub fn new(id: impl Into<String>) -> TenantId {
        TenantId(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(id: &str) -> TenantId {
        TenantId::new(id)
    }
}

/// Scheduling priority within a tenant's queue (higher pops first;
/// FIFO within a level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background / best-effort.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive.
    High,
}

impl Priority {
    /// Queue-slot index (0 = highest priority).
    pub(crate) fn slot(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Wire-protocol code (see `net`): 0 = low, 1 = normal, 2 = high.
    pub fn code(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Decodes a wire-protocol code; anything else is `None`.
    pub fn from_code(code: u8) -> Option<Priority> {
        match code {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }
}

/// One query submitted to the service: a `compute` instruction against a
/// named registered Context, on behalf of a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Submission sequence number (unique; assigned by the driver or by
    /// the caller). Ties on `arrival_s` resolve by `seq`.
    pub seq: u64,
    /// The requesting tenant.
    pub tenant: TenantId,
    /// Name of a Context registered with the service.
    pub context: String,
    /// The `compute` instruction to run.
    pub instruction: String,
    /// Scheduling priority within the tenant's queue.
    pub priority: Priority,
    /// Maximum virtual seconds the request may wait in the queue before
    /// it is shed instead of dispatched.
    pub deadline_s: Option<f64>,
    /// Virtual instant the request reached the service (open-loop: set
    /// by the workload driver; live: when the front door decoded the
    /// frame).
    pub arrival_s: f64,
    /// Virtual instant the *client* sent the request. In batch replay
    /// this equals `arrival_s`; over the live front door it precedes it
    /// by the wire's ingest delay.
    pub submitted_s: f64,
}

impl QueryRequest {
    /// Creates a normal-priority request arriving at t = 0.
    pub fn new(
        tenant: impl Into<TenantId>,
        context: impl Into<String>,
        instruction: impl Into<String>,
    ) -> QueryRequest {
        QueryRequest {
            seq: 0,
            tenant: tenant.into(),
            context: context.into(),
            instruction: instruction.into(),
            priority: Priority::Normal,
            deadline_s: None,
            arrival_s: 0.0,
            submitted_s: 0.0,
        }
    }

    /// Sets the arrival instant (and, for batch replay, the submit
    /// instant with it — a replayed request has no wire delay).
    pub fn at(mut self, arrival_s: f64) -> QueryRequest {
        self.arrival_s = arrival_s;
        self.submitted_s = arrival_s;
        self
    }

    /// Sets the client-side submit instant independently of arrival
    /// (live traffic: submit precedes arrival by the ingest delay).
    pub fn submitted(mut self, submitted_s: f64) -> QueryRequest {
        self.submitted_s = submitted_s;
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: Priority) -> QueryRequest {
        self.priority = priority;
        self
    }

    /// Sets the queueing deadline.
    pub fn deadline(mut self, deadline_s: f64) -> QueryRequest {
        self.deadline_s = Some(deadline_s);
        self
    }
}

impl From<String> for TenantId {
    fn from(id: String) -> TenantId {
        TenantId(id)
    }
}

/// Why a request was shed instead of executed. Every rejection is typed
/// so clients can distinguish "try later" (queue pressure) from "stop
/// sending" (budget) without parsing strings.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The admission queue is at capacity (backpressure / load shedding).
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The tenant's dollar quota is exhausted.
    BudgetExhausted {
        /// Dollars the tenant has spent so far.
        spent_usd: f64,
        /// The tenant's quota.
        quota_usd: f64,
    },
    /// The tenant's token quota is exhausted.
    TokensExhausted {
        /// Tokens the tenant has spent so far.
        spent_tokens: u64,
        /// The tenant's quota.
        quota_tokens: u64,
    },
    /// The request waited in the queue past its deadline.
    DeadlineExpired {
        /// Virtual seconds the request waited.
        waited_s: f64,
        /// The request's deadline.
        deadline_s: f64,
    },
    /// The request names a Context the service doesn't know.
    UnknownContext {
        /// The unknown name.
        name: String,
    },
    /// The request names a tenant the service doesn't know (strict mode).
    UnknownTenant,
}

impl RejectReason {
    /// Stable lowercase kind label (counter keys, JSONL).
    pub fn kind(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::BudgetExhausted { .. } => "budget_exhausted",
            RejectReason::TokensExhausted { .. } => "tokens_exhausted",
            RejectReason::DeadlineExpired { .. } => "deadline_expired",
            RejectReason::UnknownContext { .. } => "unknown_context",
            RejectReason::UnknownTenant => "unknown_tenant",
        }
    }

    /// Whether a client that backs off and retries can expect a
    /// different answer. Queue pressure and queue-wait deadline expiry
    /// are transient; exhausted quotas and unknown names are not.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            RejectReason::QueueFull { .. } | RejectReason::DeadlineExpired { .. }
        )
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            RejectReason::BudgetExhausted {
                spent_usd,
                quota_usd,
            } => write!(f, "budget exhausted (${spent_usd:.4} of ${quota_usd:.4})"),
            RejectReason::TokensExhausted {
                spent_tokens,
                quota_tokens,
            } => write!(f, "tokens exhausted ({spent_tokens} of {quota_tokens})"),
            RejectReason::DeadlineExpired {
                waited_s,
                deadline_s,
            } => write!(
                f,
                "deadline expired (waited {waited_s:.1}s > {deadline_s:.1}s)"
            ),
            RejectReason::UnknownContext { name } => write!(f, "unknown context {name:?}"),
            RejectReason::UnknownTenant => write!(f, "unknown tenant"),
        }
    }
}

/// A request the service refused, with when and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Shed {
    /// The refused request's sequence number.
    pub seq: u64,
    /// The refused request's tenant.
    pub tenant: TenantId,
    /// Virtual instant of the rejection.
    pub at_s: f64,
    /// The typed reason.
    pub reason: RejectReason,
}

/// One served query: placement, latency, and attributed spend.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request's sequence number.
    pub seq: u64,
    /// The tenant served.
    pub tenant: TenantId,
    /// Virtual worker that served the query.
    pub worker: usize,
    /// Client-side submit instant (equals `arrival_s` in batch replay).
    pub submitted_s: f64,
    /// Instant the request reached the service.
    pub arrival_s: f64,
    /// Instant the request passed admission into the queue.
    pub admit_s: f64,
    /// Virtual instant execution began.
    pub start_s: f64,
    /// Virtual instant execution finished.
    pub end_s: f64,
    /// Dollars this query cost (from its receipt).
    pub cost_usd: f64,
    /// Tokens this query consumed (from its receipt).
    pub tokens: u64,
    /// Billed LLM calls (from its receipt).
    pub llm_calls: u64,
    /// Context-reuse hits observed during this query.
    pub reuse_hits: u64,
    /// Context-reuse misses observed during this query.
    pub reuse_misses: u64,
    /// Semantic-cache hits observed during this query (LLM calls served
    /// from the shared cache at zero marginal spend).
    pub cache_hits: u64,
    /// Semantic-cache batch duplicates observed during this query (a
    /// batch's repeated calls folded into its first one's computation).
    pub cache_coalesced: u64,
    /// Semantic-cache misses observed during this query (calls that went
    /// through to the simulated LLM).
    pub cache_misses: u64,
    /// Whether the query produced a non-null answer.
    pub answered: bool,
}

impl Completion {
    /// End-to-end latency the *client* observed (submit → completion)
    /// in virtual seconds. In batch replay `submitted_s == arrival_s`,
    /// so this is the classic arrival-to-completion number; live runs
    /// fold the wire's ingest delay in, and both paths feed the same
    /// report and SLO evaluation.
    pub fn latency_s(&self) -> f64 {
        self.end_s - self.submitted_s
    }

    /// Time spent waiting in the queue (admission → execution start).
    pub fn queue_wait_s(&self) -> f64 {
        self.start_s - self.admit_s
    }

    /// Front-door delay (submit → admission): zero in batch replay,
    /// wire propagation + decode over the live listener.
    pub fn ingest_s(&self) -> f64 {
        self.admit_s - self.submitted_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_sets_fields() {
        let r = QueryRequest::new("acme", "legal", "find the reports")
            .at(3.5)
            .priority(Priority::High)
            .deadline(60.0);
        assert_eq!(r.tenant.as_str(), "acme");
        assert_eq!(r.arrival_s, 3.5);
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.deadline_s, Some(60.0));
    }

    #[test]
    fn priorities_order_high_first() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::High.slot(), 0);
        assert_eq!(Priority::Low.slot(), 2);
    }

    #[test]
    fn reject_kinds_are_stable() {
        assert_eq!(
            RejectReason::QueueFull {
                depth: 4,
                capacity: 4
            }
            .kind(),
            "queue_full"
        );
        assert_eq!(
            RejectReason::BudgetExhausted {
                spent_usd: 1.0,
                quota_usd: 0.5
            }
            .to_string(),
            "budget exhausted ($1.0000 of $0.5000)"
        );
    }

    #[test]
    fn priority_wire_codes_round_trip() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_code(p.code()), Some(p));
        }
        assert_eq!(Priority::from_code(3), None);
        assert_eq!(Priority::from_code(255), None);
    }

    #[test]
    fn retryable_classification() {
        assert!(RejectReason::QueueFull {
            depth: 1,
            capacity: 1
        }
        .retryable());
        assert!(RejectReason::DeadlineExpired {
            waited_s: 2.0,
            deadline_s: 1.0
        }
        .retryable());
        assert!(!RejectReason::BudgetExhausted {
            spent_usd: 1.0,
            quota_usd: 1.0
        }
        .retryable());
        assert!(!RejectReason::UnknownTenant.retryable());
    }

    #[test]
    fn completion_latency_math() {
        let c = Completion {
            seq: 0,
            tenant: "t".into(),
            worker: 0,
            submitted_s: 1.0,
            arrival_s: 2.0,
            admit_s: 2.0,
            start_s: 5.0,
            end_s: 9.0,
            cost_usd: 0.0,
            tokens: 0,
            llm_calls: 0,
            reuse_hits: 0,
            reuse_misses: 0,
            cache_hits: 0,
            cache_coalesced: 0,
            cache_misses: 0,
            answered: true,
        };
        assert_eq!(c.latency_s(), 8.0); // submit -> end
        assert_eq!(c.queue_wait_s(), 3.0); // admit -> start
        assert_eq!(c.ingest_s(), 1.0); // submit -> admit
    }
}
