//! The bounded admission queue: per-tenant FIFO queues with priorities,
//! a global capacity bound (backpressure), and smooth weighted
//! round-robin dispatch so one heavy tenant cannot starve the others.

use crate::request::{QueryRequest, RejectReason};
use crate::tenant::TenantConfig;
use crate::TenantId;
use std::collections::{BTreeMap, VecDeque};

/// One tenant's backlog: a FIFO per priority level.
#[derive(Debug, Default)]
struct TenantQueue {
    by_priority: [VecDeque<QueryRequest>; 3],
    /// Smooth-WRR credit: raised by the tenant's weight each dispatch
    /// round, drained by the round's total weight when chosen.
    credit: i64,
}

impl TenantQueue {
    fn len(&self) -> usize {
        self.by_priority.iter().map(VecDeque::len).sum()
    }

    fn push(&mut self, request: QueryRequest) {
        self.by_priority[request.priority.slot()].push_back(request);
    }

    fn pop(&mut self) -> Option<QueryRequest> {
        self.by_priority.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// A bounded, multi-tenant admission queue.
///
/// Dispatch is **smooth weighted round-robin**: every `pop` raises each
/// backlogged tenant's credit by its weight, picks the highest credit
/// (ties to the lexicographically-smallest tenant id — deterministic),
/// and drains the winner by the round's total weight. Within a tenant,
/// higher [`Priority`] pops first, FIFO within a level.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    depth: usize,
    queues: BTreeMap<TenantId, TenantQueue>,
    weights: BTreeMap<TenantId, u32>,
}

impl AdmissionQueue {
    /// Creates an empty queue holding at most `capacity` requests across
    /// all tenants (minimum 1).
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity: capacity.max(1),
            depth: 0,
            queues: BTreeMap::new(),
            weights: BTreeMap::new(),
        }
    }

    /// Sets a tenant's WRR weight (default 1).
    pub fn set_weight(&mut self, tenant: TenantId, config: &TenantConfig) {
        self.weights.insert(tenant, config.weight.max(1));
    }

    /// Requests currently queued across all tenants.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The global capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Admits a request, or sheds it with [`RejectReason::QueueFull`]
    /// when the global bound is reached (backpressure).
    pub fn push(&mut self, request: QueryRequest) -> Result<(), RejectReason> {
        if self.depth >= self.capacity {
            return Err(RejectReason::QueueFull {
                depth: self.depth,
                capacity: self.capacity,
            });
        }
        self.queues
            .entry(request.tenant.clone())
            .or_default()
            .push(request);
        self.depth += 1;
        Ok(())
    }

    /// Dispatches the next request under smooth weighted round-robin.
    pub fn pop(&mut self) -> Option<QueryRequest> {
        if self.depth == 0 {
            return None;
        }
        let mut round_total: i64 = 0;
        let mut winner: Option<(i64, TenantId)> = None;
        for (tenant, queue) in &mut self.queues {
            if queue.len() == 0 {
                continue;
            }
            let weight = i64::from(*self.weights.get(tenant).unwrap_or(&1));
            queue.credit += weight;
            round_total += weight;
            let better = match &winner {
                None => true,
                // Strict > keeps the earliest (smallest id) on ties: the
                // BTreeMap iterates in id order.
                Some((best, _)) => queue.credit > *best,
            };
            if better {
                winner = Some((queue.credit, tenant.clone()));
            }
        }
        let (_, tenant) = winner?;
        let queue = self.queues.get_mut(&tenant)?;
        queue.credit -= round_total;
        let request = queue.pop()?;
        self.depth -= 1;
        Some(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn req(tenant: &str, seq: u64) -> QueryRequest {
        let mut r = QueryRequest::new(tenant, "ctx", format!("q{seq}"));
        r.seq = seq;
        r
    }

    #[test]
    fn capacity_bound_sheds_with_queue_full() {
        let mut q = AdmissionQueue::new(2);
        q.push(req("a", 0)).unwrap();
        q.push(req("a", 1)).unwrap();
        match q.push(req("b", 2)) {
            Err(RejectReason::QueueFull { depth, capacity }) => {
                assert_eq!((depth, capacity), (2, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn equal_weights_round_robin_fairly() {
        let mut q = AdmissionQueue::new(16);
        for seq in 0..3 {
            q.push(req("a", seq)).unwrap();
            q.push(req("b", 10 + seq)).unwrap();
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|r| r.tenant.to_string())
            .collect();
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn weights_bias_dispatch_proportionally() {
        let mut q = AdmissionQueue::new(32);
        q.set_weight("heavy".into(), &TenantConfig::weighted(3));
        q.set_weight("light".into(), &TenantConfig::weighted(1));
        for seq in 0..8 {
            q.push(req("heavy", seq)).unwrap();
            q.push(req("light", 100 + seq)).unwrap();
        }
        let first_eight: Vec<String> = (0..8)
            .filter_map(|_| q.pop())
            .map(|r| r.tenant.to_string())
            .collect();
        let heavy = first_eight.iter().filter(|t| *t == "heavy").count();
        assert_eq!(heavy, 6, "3:1 weights → 6 of the first 8: {first_eight:?}");
        // The light tenant is interleaved, not starved.
        assert!(first_eight.contains(&"light".to_string()));
    }

    #[test]
    fn priority_pops_before_fifo_within_tenant() {
        let mut q = AdmissionQueue::new(8);
        q.push(req("a", 0)).unwrap();
        let mut urgent = req("a", 1);
        urgent.priority = Priority::High;
        q.push(urgent).unwrap();
        let mut background = req("a", 2);
        background.priority = Priority::Low;
        q.push(background).unwrap();
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 0, 2]);
    }

    #[test]
    fn one_backlogged_tenant_drains_alone() {
        let mut q = AdmissionQueue::new(8);
        for seq in 0..3 {
            q.push(req("solo", seq)).unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn wrr_is_deterministic_on_ties() {
        // Two equal-weight tenants, identical backlogs: the smaller id
        // always goes first.
        for _ in 0..3 {
            let mut q = AdmissionQueue::new(8);
            q.push(req("b", 1)).unwrap();
            q.push(req("a", 0)).unwrap();
            assert_eq!(q.pop().unwrap().tenant.as_str(), "a");
        }
    }
}
