//! # client — closed-loop clients over the live front door
//!
//! The open-loop driver submits on a fixed schedule no matter how the
//! service behaves; real clients don't. This module models the other
//! regime: each client keeps **one request in flight**, thinks for an
//! exponential pause after every completion, and reacts to typed
//! rejections with bounded, seeded, jittered exponential backoff — so
//! overload self-throttles instead of building an unbounded backlog.
//!
//! [`LiveSource`] is the bridge: it owns a [`Listener`] over the
//! deterministic [`NetSim`] fabric plus a fleet of clients, and
//! implements [`RequestSource`] so `QueryService::serve` pulls live
//! wire traffic through the same dispatch loop and report path as
//! batch replay. All client timers, wire delays, and readiness
//! shuffles draw from seeded RNGs on the virtual clock, so a full soak
//! replays byte-identically at the same seed.
//!
//! A step of the source costs what is due, not what is connected: the
//! fabric's event index finds the next instant, the arrivals and the
//! readable connections, the listener flushes only connections with
//! bytes still buffered, and only clients whose pipe has delivered
//! bytes are pumped. A fleet of a thousand mostly-thinking clients
//! costs per step about what the one or two active ones do.

use crate::driver::RequestSource;
use crate::net::{
    encode_frame, plan_hash, Frame, FrameReader, Inbound, Listener, WireBody, WireRequest,
};
use crate::report::{NetReport, ServiceReport};
use crate::request::{Completion, Priority, QueryRequest, Shed};
use crate::TenantId;
use aida_llm::noise::{self, KeyedRng};
use aida_testkit::{NetSim, NetSimConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One closed-loop client's behavior profile.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Tenant every request is submitted as.
    pub tenant: String,
    /// Registered Context name every request targets.
    pub context: String,
    /// Instructions cycled across the client's queries.
    pub instructions: Vec<String>,
    /// Queries the client wants completed before it hangs up.
    pub queries: usize,
    /// Mean exponential think time between a completion and the next
    /// submission (virtual seconds).
    pub mean_think_s: f64,
    /// Retries allowed per query after retryable rejections.
    pub max_retries: u32,
    /// First-retry backoff; doubles per attempt with seeded jitter.
    pub base_backoff_s: f64,
    /// Priority for every request.
    pub priority: Priority,
    /// Queueing deadline for every request, if any.
    pub deadline_s: Option<f64>,
    /// Virtual instant the client connects and submits its first query.
    pub start_s: f64,
}

impl ClientConfig {
    /// A profile with defaults: 1 query, 30 s mean think, 3 retries,
    /// 5 s base backoff, normal priority, no deadline, starts at t = 0.
    pub fn new(tenant: impl Into<String>, context: impl Into<String>) -> ClientConfig {
        ClientConfig {
            tenant: tenant.into(),
            context: context.into(),
            instructions: Vec::new(),
            queries: 1,
            mean_think_s: 30.0,
            max_retries: 3,
            base_backoff_s: 5.0,
            priority: Priority::Normal,
            deadline_s: None,
            start_s: 0.0,
        }
    }

    /// Sets the instruction cycle.
    pub fn instructions<I, S>(mut self, instructions: I) -> ClientConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.instructions = instructions.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the per-client query count.
    pub fn queries(mut self, queries: usize) -> ClientConfig {
        self.queries = queries;
        self
    }

    /// Sets the mean think time.
    pub fn think(mut self, seconds: f64) -> ClientConfig {
        self.mean_think_s = seconds.max(0.0);
        self
    }

    /// Sets the retry budget per query.
    pub fn retries(mut self, max_retries: u32) -> ClientConfig {
        self.max_retries = max_retries;
        self
    }

    /// Sets the base backoff.
    pub fn backoff(mut self, seconds: f64) -> ClientConfig {
        self.base_backoff_s = seconds.max(0.0);
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: Priority) -> ClientConfig {
        self.priority = priority;
        self
    }

    /// Sets the queueing deadline.
    pub fn deadline(mut self, seconds: f64) -> ClientConfig {
        self.deadline_s = Some(seconds);
        self
    }

    /// Sets the connect/first-submit instant.
    pub fn start(mut self, seconds: f64) -> ClientConfig {
        self.start_s = seconds.max(0.0);
        self
    }
}

/// How a client's session ended. Every client resolves to exactly one
/// of these — no query silently vanishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome {
    /// Every wanted query completed.
    Completed {
        /// Queries completed.
        queries: usize,
        /// Retries spent along the way.
        retries: u32,
    },
    /// A retryable rejection survived the whole backoff budget.
    RetriesExhausted {
        /// Queries completed before giving up.
        completed: usize,
        /// Retries spent (== the budget on the final query).
        retries: u32,
        /// Kind label of the final rejection.
        reason: String,
    },
    /// A terminal (non-retryable) rejection: quota, unknown names.
    Abandoned {
        /// Queries completed before the rejection.
        completed: usize,
        /// Kind label of the rejection.
        reason: String,
    },
    /// The server reported a fatal wire error (or the session never
    /// resolved).
    WireFailed {
        /// Queries completed before the failure.
        completed: usize,
        /// [`crate::WireError::kind`]-style code.
        code: String,
    },
}

impl ClientOutcome {
    /// Stable lowercase label.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientOutcome::Completed { .. } => "completed",
            ClientOutcome::RetriesExhausted { .. } => "retries_exhausted",
            ClientOutcome::Abandoned { .. } => "abandoned",
            ClientOutcome::WireFailed { .. } => "wire_failed",
        }
    }

    /// Queries this client completed.
    fn queries_completed(&self) -> usize {
        match self {
            ClientOutcome::Completed { queries, .. } => *queries,
            ClientOutcome::RetriesExhausted { completed, .. }
            | ClientOutcome::Abandoned { completed, .. }
            | ClientOutcome::WireFailed { completed, .. } => *completed,
        }
    }
}

/// One client's live session state.
#[derive(Debug)]
struct Client {
    cfg: ClientConfig,
    rng: KeyedRng,
    conn: usize,
    reader: FrameReader,
    next_client_seq: u64,
    /// `client_seq` of the request awaiting a decision or result.
    in_flight: Option<u64>,
    completed: usize,
    /// Retries spent on the current query.
    attempt: u32,
    retries_total: u32,
    /// Plan hashes of sources this client already transmitted in full.
    sent: BTreeSet<u128>,
    outcome: Option<ClientOutcome>,
}

/// A deferred simulation-side action, keyed by virtual instant.
#[derive(Debug)]
enum Action {
    /// Client `client` submits its next request.
    Submit { client: usize },
    /// The server emits `frame` toward `conn` (admission verdicts at
    /// their admission instants, completions at their `end_s`).
    Respond { conn: usize, frame: Frame },
}

/// Live traffic behind the [`RequestSource`] contract: a [`Listener`]
/// over the deterministic [`NetSim`] fabric plus a fleet of closed-loop
/// clients. The service's dispatch loop pulls arrivals out; admission
/// verdicts and completions flow back over the wire as typed frames.
#[derive(Debug)]
pub struct LiveSource {
    listener: Listener<NetSim>,
    clients: Vec<Client>,
    /// Pending timed actions, ordered by `(instant bits, insertion id)`.
    /// Virtual instants are non-negative, so the f64 bit pattern orders
    /// identically to the float.
    actions: BTreeMap<(u64, u64), Action>,
    next_action_id: u64,
    /// Server-assigned sequence numbers for inbound requests.
    next_seq: u64,
    /// In-flight request routing: service seq -> (conn, client_seq).
    by_seq: BTreeMap<u64, (usize, u64)>,
    /// Connection token -> client index.
    conn_client: BTreeMap<usize, usize>,
    /// Decoded requests awaiting the service, in arrival order.
    ready: VecDeque<QueryRequest>,
}

impl LiveSource {
    /// Builds the fabric with default knobs at `seed` and connects one
    /// session per client config.
    pub fn new(seed: u64, clients: Vec<ClientConfig>) -> LiveSource {
        LiveSource::with_net(
            NetSimConfig {
                seed,
                ..NetSimConfig::default()
            },
            clients,
        )
    }

    /// Builds over explicit fabric knobs (tiny `max_chunk`/`max_write`
    /// values stress partial reads and short writes).
    fn with_net(net: NetSimConfig, clients: Vec<ClientConfig>) -> LiveSource {
        let seed = net.seed;
        let mut source = LiveSource {
            listener: Listener::new(NetSim::new(net)),
            clients: Vec::with_capacity(clients.len()),
            actions: BTreeMap::new(),
            next_action_id: 0,
            next_seq: 0,
            by_seq: BTreeMap::new(),
            conn_client: BTreeMap::new(),
            ready: VecDeque::new(),
        };
        for (index, cfg) in clients.into_iter().enumerate() {
            let rng = KeyedRng::new(noise::combine(&[
                noise::hash_str("serve.client"),
                seed,
                index as u64,
            ]));
            let idle = cfg.instructions.is_empty() || cfg.queries == 0;
            let conn = source.listener.fabric_mut().connect(cfg.start_s);
            source.conn_client.insert(conn, index);
            let start_s = cfg.start_s;
            source.clients.push(Client {
                cfg,
                rng,
                conn,
                reader: FrameReader::new(),
                next_client_seq: 0,
                in_flight: None,
                completed: 0,
                attempt: 0,
                retries_total: 0,
                sent: BTreeSet::new(),
                outcome: idle.then_some(ClientOutcome::Completed {
                    queries: 0,
                    retries: 0,
                }),
            });
            if !idle {
                source.schedule(start_s, Action::Submit { client: index });
            }
        }
        source
    }

    /// The front-door reactor (stats, open connections).
    pub fn listener(&self) -> &Listener<NetSim> {
        &self.listener
    }

    /// Every client's resolved outcome. Clients still unresolved when
    /// this is called (e.g. the service aborted mid-run) report as
    /// [`ClientOutcome::WireFailed`] with code `"unresolved"`.
    pub fn outcomes(&self) -> Vec<ClientOutcome> {
        self.clients
            .iter()
            .map(|c| {
                c.outcome.clone().unwrap_or(ClientOutcome::WireFailed {
                    completed: c.completed,
                    code: "unresolved".to_string(),
                })
            })
            .collect()
    }

    fn schedule(&mut self, at_s: f64, action: Action) {
        // Actions landing in the past execute at the current instant —
        // the key still orders deterministically.
        let at = at_s.max(self.listener.fabric_mut().now()).max(0.0);
        let id = self.next_action_id;
        self.next_action_id += 1;
        self.actions.insert((at.to_bits(), id), action);
    }

    /// The next instant anything happens: a timed action or a fabric
    /// event (delivery, connect, FIN).
    fn next_event_s(&mut self) -> Option<f64> {
        let mut next = f64::INFINITY;
        if let Some(((bits, _), _)) = self.actions.iter().next() {
            next = next.min(f64::from_bits(*bits));
        }
        if let Some(t) = self.listener.fabric_mut().next_event_s() {
            next = next.min(t);
        }
        next.is_finite().then_some(next)
    }

    /// Advances the world to `t`: run due actions, spin the reactor,
    /// deliver responses to clients.
    fn step_to(&mut self, t: f64) {
        self.listener.fabric_mut().advance(t);
        let now = self.listener.fabric_mut().now();
        while let Some(entry) = self.actions.first_entry() {
            if f64::from_bits(entry.key().0) > now {
                break;
            }
            match entry.remove() {
                Action::Submit { client } => self.submit(client),
                Action::Respond { conn, frame } => self.listener.respond(conn, &frame),
            }
        }
        let inbound = self.listener.turn();
        for inb in inbound {
            self.ingest(inb);
        }
        self.pump_clients();
    }

    /// Writes client `index`'s next request onto the wire.
    fn submit(&mut self, index: usize) {
        let now = self.listener.fabric_mut().now();
        let client = &mut self.clients[index];
        if client.outcome.is_some() {
            return;
        }
        let source =
            client.cfg.instructions[client.completed % client.cfg.instructions.len()].clone();
        let hash = plan_hash(&source);
        let body = if client.sent.contains(&hash) {
            WireBody::PlanHash(hash)
        } else {
            client.sent.insert(hash);
            WireBody::Source(source)
        };
        let client_seq = client.next_client_seq;
        client.next_client_seq += 1;
        client.in_flight = Some(client_seq);
        let frame = Frame::Request(WireRequest {
            client_seq,
            sent_s: now,
            tenant: client.cfg.tenant.clone(),
            context: client.cfg.context.clone(),
            priority: client.cfg.priority,
            deadline_s: client.cfg.deadline_s,
            body,
        });
        let conn = client.conn;
        let bytes = encode_frame(&frame);
        self.listener.fabric_mut().client_send(conn, &bytes);
    }

    /// Turns a decoded wire request into a service [`QueryRequest`].
    fn ingest(&mut self, inb: Inbound) {
        let now = self.listener.fabric_mut().now();
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut request =
            QueryRequest::new(inb.request.tenant, inb.request.context, inb.instruction)
                .at(now)
                .submitted(inb.request.sent_s)
                .priority(inb.request.priority);
        if let Some(deadline_s) = inb.request.deadline_s {
            request = request.deadline(deadline_s);
        }
        request.seq = seq;
        self.by_seq.insert(seq, (inb.conn, inb.request.client_seq));
        self.ready.push_back(request);
    }

    /// Drains delivered server->client bytes and runs every client's
    /// reaction to the frames inside. Only clients the fabric reports
    /// ready are visited, in client order: a reaction schedules actions
    /// whose insertion ids order same-instant actions, and it never
    /// changes what another client's pipe holds.
    fn pump_clients(&mut self) {
        let mut ready: Vec<usize> = self
            .listener
            .fabric_mut()
            .client_ready()
            .into_iter()
            .filter_map(|conn| self.conn_client.get(&conn).copied())
            .collect();
        ready.sort_unstable();
        for index in ready {
            let conn = self.clients[index].conn;
            let bytes = self.listener.fabric_mut().client_recv(conn);
            if bytes.is_empty() {
                continue;
            }
            self.clients[index].reader.push(&bytes);
            loop {
                match self.clients[index].reader.next_frame() {
                    Ok(Some(frame)) => self.react(index, frame),
                    Ok(None) => break,
                    Err(err) => {
                        let client = &mut self.clients[index];
                        if client.outcome.is_none() {
                            client.outcome = Some(ClientOutcome::WireFailed {
                                completed: client.completed,
                                code: err.kind().to_string(),
                            });
                        }
                        break;
                    }
                }
            }
        }
    }

    /// One client's reaction to one server frame.
    fn react(&mut self, index: usize, frame: Frame) {
        let now = self.listener.fabric_mut().now();
        let client = &mut self.clients[index];
        if client.outcome.is_some() {
            return;
        }
        match frame {
            Frame::Accepted { client_seq, .. } => {
                // Queued; the result will follow. Nothing to decide yet.
                debug_assert_eq!(client.in_flight, Some(client_seq));
            }
            Frame::Completed { client_seq, .. } => {
                if client.in_flight != Some(client_seq) {
                    return;
                }
                client.in_flight = None;
                client.completed += 1;
                client.attempt = 0;
                if client.completed >= client.cfg.queries {
                    client.outcome = Some(ClientOutcome::Completed {
                        queries: client.completed,
                        retries: client.retries_total,
                    });
                    let conn = client.conn;
                    self.listener.fabric_mut().client_close(conn);
                } else {
                    let u = client.rng.next_f64();
                    let think_s = -client.cfg.mean_think_s * (1.0 - u).ln();
                    self.schedule(now + think_s, Action::Submit { client: index });
                }
            }
            Frame::Rejected {
                client_seq,
                retryable,
                reason,
                ..
            } => {
                if client.in_flight != Some(client_seq) {
                    return;
                }
                client.in_flight = None;
                if retryable && client.attempt < client.cfg.max_retries {
                    client.attempt += 1;
                    client.retries_total += 1;
                    // Jittered exponential backoff: base * 2^(attempt-1),
                    // scaled by a seeded factor in [0.75, 1.25).
                    let factor = 0.75 + 0.5 * client.rng.next_f64();
                    let backoff_s = client.cfg.base_backoff_s
                        * f64::from(1u32 << (client.attempt - 1).min(20))
                        * factor;
                    self.schedule(now + backoff_s, Action::Submit { client: index });
                } else {
                    let conn = client.conn;
                    client.outcome = Some(if retryable {
                        ClientOutcome::RetriesExhausted {
                            completed: client.completed,
                            retries: client.retries_total,
                            reason,
                        }
                    } else {
                        ClientOutcome::Abandoned {
                            completed: client.completed,
                            reason,
                        }
                    });
                    self.listener.fabric_mut().client_close(conn);
                }
            }
            Frame::Error { code, .. } => {
                if code == "unknown_plan_hash" && client.in_flight.is_some() {
                    // The server lost the interned source (or never had
                    // it); resend the current query with full text.
                    client.in_flight = None;
                    let instruction =
                        &client.cfg.instructions[client.completed % client.cfg.instructions.len()];
                    let hash = plan_hash(instruction);
                    client.sent.remove(&hash);
                    self.schedule(now, Action::Submit { client: index });
                } else {
                    client.outcome = Some(ClientOutcome::WireFailed {
                        completed: client.completed,
                        code,
                    });
                }
            }
            Frame::Request(_) => {
                // Server never sends Request; treat as a fatal wire bug.
                client.outcome = Some(ClientOutcome::WireFailed {
                    completed: client.completed,
                    code: "unexpected_frame".to_string(),
                });
            }
        }
    }
}

impl RequestSource for LiveSource {
    fn next_arrival(&mut self) -> Option<f64> {
        loop {
            if let Some(front) = self.ready.front() {
                return Some(front.arrival_s);
            }
            let t = self.next_event_s()?;
            self.step_to(t);
        }
    }

    fn pop(&mut self, horizon_s: f64) -> Option<QueryRequest> {
        loop {
            if let Some(front) = self.ready.front() {
                if front.arrival_s <= horizon_s {
                    return self.ready.pop_front();
                }
                return None;
            }
            match self.next_event_s() {
                Some(t) if t <= horizon_s => self.step_to(t),
                _ => return None,
            }
        }
    }

    fn on_admitted(&mut self, seq: u64, _tenant: &TenantId, at_s: f64) {
        let Some(&(conn, client_seq)) = self.by_seq.get(&seq) else {
            return;
        };
        self.schedule(
            at_s,
            Action::Respond {
                conn,
                frame: Frame::Accepted { client_seq, seq },
            },
        );
    }

    fn on_shed(&mut self, shed: &Shed) {
        let Some((conn, client_seq)) = self.by_seq.remove(&shed.seq) else {
            return;
        };
        self.schedule(
            shed.at_s,
            Action::Respond {
                conn,
                frame: Frame::Rejected {
                    client_seq,
                    retryable: shed.reason.retryable(),
                    reason: shed.reason.kind().to_string(),
                    detail: shed.reason.to_string(),
                },
            },
        );
    }

    fn on_completion(&mut self, completion: &Completion) {
        let Some((conn, client_seq)) = self.by_seq.remove(&completion.seq) else {
            return;
        };
        self.schedule(
            completion.end_s,
            Action::Respond {
                conn,
                frame: Frame::Completed {
                    client_seq,
                    seq: completion.seq,
                    latency_s: completion.latency_s(),
                    cost_usd: completion.cost_usd,
                    answered: completion.answered,
                },
            },
        );
    }

    fn finish(&mut self, report: &mut ServiceReport) {
        // Drain the tail: final Completed/Rejected frames are still in
        // flight toward their clients. Clients whose sessions resolved
        // stop submitting, so this terminates.
        while let Some(t) = self.next_event_s() {
            self.step_to(t);
        }
        let outcomes = self.outcomes();
        let count = |kind: &str| outcomes.iter().filter(|o| o.kind() == kind).count() as u64;
        report.net = Some(NetReport {
            stats: self.listener.stats(),
            clients: self.clients.len() as u64,
            clients_completed: count("completed"),
            clients_retries_exhausted: count("retries_exhausted"),
            clients_abandoned: count("abandoned"),
            clients_wire_failed: count("wire_failed"),
            client_retries: self
                .clients
                .iter()
                .map(|c| u64::from(c.retries_total))
                .sum(),
            client_queries: outcomes.iter().map(|o| o.queries_completed() as u64).sum(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize, queries: usize) -> Vec<ClientConfig> {
        (0..n)
            .map(|i| {
                ClientConfig::new(if i % 2 == 0 { "acme" } else { "bolt" }, "reports")
                    .instructions(["count identity theft in 2001"])
                    .queries(queries)
                    .think(5.0)
                    .start(i as f64 * 0.25)
            })
            .collect()
    }

    /// Runs a LiveSource against a scripted in-test "service": every
    /// popped request is admitted and completes `exec_s` later.
    fn run_scripted(mut source: LiveSource, exec_s: f64) -> (Vec<ClientOutcome>, u64) {
        let mut served = 0u64;
        let mut now = 0.0f64;
        while let Some(t) = source.next_arrival() {
            now = now.max(t);
            let Some(request) = source.pop(now) else {
                continue;
            };
            source.on_admitted(request.seq, &request.tenant, request.arrival_s);
            let completion = Completion {
                seq: request.seq,
                tenant: request.tenant.clone(),
                worker: 0,
                submitted_s: request.submitted_s,
                arrival_s: request.arrival_s,
                admit_s: request.arrival_s,
                start_s: now,
                end_s: now + exec_s,
                cost_usd: 0.01,
                tokens: 10,
                llm_calls: 1,
                reuse_hits: 0,
                reuse_misses: 0,
                cache_hits: 0,
                cache_coalesced: 0,
                cache_misses: 0,
                answered: true,
            };
            source.on_completion(&completion);
            served += 1;
        }
        let mut report = ServiceReport::default();
        source.finish(&mut report);
        (source.outcomes(), served)
    }

    #[test]
    fn closed_loop_clients_complete_their_sessions() {
        let source = LiveSource::new(11, fleet(4, 3));
        let (outcomes, served) = run_scripted(source, 2.0);
        assert_eq!(served, 12, "4 clients x 3 queries");
        for outcome in &outcomes {
            assert_eq!(
                outcome,
                &ClientOutcome::Completed {
                    queries: 3,
                    retries: 0
                }
            );
        }
    }

    #[test]
    fn live_requests_carry_wire_timestamps() {
        let mut source = LiveSource::new(13, fleet(1, 1));
        let t = source.next_arrival().expect("one request");
        let request = source.pop(t).expect("poppable at its arrival");
        // The client sent at its start instant; the wire delayed it.
        assert!(request.submitted_s >= 0.0);
        assert!(
            request.arrival_s > request.submitted_s,
            "arrival {} must trail submit {}",
            request.arrival_s,
            request.submitted_s
        );
    }

    #[test]
    fn plan_hash_reuse_kicks_in_on_repeat_queries() {
        let source = LiveSource::new(17, fleet(2, 4));
        let mut source = source;
        let (outcomes, served) = {
            let mut served = 0u64;
            let mut now = 0.0f64;
            while let Some(t) = source.next_arrival() {
                now = now.max(t);
                let Some(request) = source.pop(now) else {
                    continue;
                };
                source.on_admitted(request.seq, &request.tenant, request.arrival_s);
                let completion = Completion {
                    seq: request.seq,
                    tenant: request.tenant.clone(),
                    worker: 0,
                    submitted_s: request.submitted_s,
                    arrival_s: request.arrival_s,
                    admit_s: request.arrival_s,
                    start_s: now,
                    end_s: now + 1.0,
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
                source.on_completion(&completion);
                served += 1;
            }
            let mut report = ServiceReport::default();
            source.finish(&mut report);
            (source.outcomes(), served)
        };
        assert_eq!(served, 8);
        assert!(outcomes.iter().all(|o| o.kind() == "completed"));
        // Each client sent its one instruction in full once, then hashed.
        assert_eq!(source.listener().stats().plan_hash_hits, 6);
    }

    #[test]
    fn terminal_rejection_abandons_the_session() {
        let mut source = LiveSource::new(19, fleet(1, 5));
        let t = source.next_arrival().expect("first request");
        let request = source.pop(t).expect("poppable");
        let shed = Shed {
            seq: request.seq,
            tenant: request.tenant.clone(),
            at_s: request.arrival_s,
            reason: crate::RejectReason::UnknownTenant,
        };
        source.on_shed(&shed);
        assert_eq!(source.next_arrival(), None, "client hung up");
        let mut report = ServiceReport::default();
        source.finish(&mut report);
        let outcomes = source.outcomes();
        assert_eq!(
            outcomes[0],
            ClientOutcome::Abandoned {
                completed: 0,
                reason: "unknown_tenant".to_string()
            }
        );
        let net = report.net.expect("net report");
        assert_eq!(net.clients_abandoned, 1);
    }

    #[test]
    fn retryable_rejections_back_off_then_exhaust() {
        let clients = vec![ClientConfig::new("acme", "reports")
            .instructions(["q"])
            .queries(1)
            .retries(2)
            .backoff(3.0)];
        let mut source = LiveSource::new(23, clients);
        let mut attempts = Vec::new();
        // Shed every attempt with a retryable reason.
        while let Some(t) = source.next_arrival() {
            let request = source.pop(t).expect("poppable");
            attempts.push(request.arrival_s);
            source.on_shed(&Shed {
                seq: request.seq,
                tenant: request.tenant.clone(),
                at_s: request.arrival_s,
                reason: crate::RejectReason::QueueFull {
                    depth: 8,
                    capacity: 8,
                },
            });
        }
        assert_eq!(attempts.len(), 3, "original + 2 retries");
        // Backoff grows: gap2 (2nd retry) > gap1 (1st retry) since the
        // exponent doubles and jitter stays within [0.75, 1.25).
        let gap1 = attempts[1] - attempts[0];
        let gap2 = attempts[2] - attempts[1];
        assert!(gap1 > 2.0 && gap2 > gap1, "gaps {gap1} {gap2}");
        let mut report = ServiceReport::default();
        source.finish(&mut report);
        match &source.outcomes()[0] {
            ClientOutcome::RetriesExhausted {
                completed,
                retries,
                reason,
            } => {
                assert_eq!((*completed, *retries), (0, 2));
                assert_eq!(reason, "queue_full");
            }
            other => panic!("expected retries_exhausted, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_sources_replay_identically() {
        let run = |seed: u64| {
            let source = LiveSource::new(seed, fleet(6, 2));
            let (outcomes, served) = run_scripted(source, 1.5);
            (outcomes, served)
        };
        assert_eq!(run(31), run(31));
    }
}
