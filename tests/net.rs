//! Integration tests for the live front door: the wire codec under
//! adversarial bytes, byte-identical replay of a full listener soak,
//! latency-targeted autoscaling convergence, and closed-loop clients
//! whose retries never double-bill a tenant.

use aida::core::{Context, Runtime};
use aida::data::{DataLake, Document};
use aida::serve::{
    encode_frame, plan_hash, AutoscaleConfig, ClientConfig, ClientOutcome, Frame, FrameReader,
    Listener, LiveSource, Priority, QueryService, ServeConfig, TenantConfig, TenantId, WireBody,
    WireRequest,
};
use aida_testkit::{NetSim, NetSimConfig};

fn lake() -> DataLake {
    DataLake::from_docs([
        Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
        Document::new("report_2002.txt", "identity theft reports in 2002: 161977"),
        Document::new("report_2024.txt", "identity theft reports in 2024: 1135291"),
    ])
}

/// A small live service: shared semantic cache, one registered context,
/// a default tenant plus a micro-budget tenant for terminal rejections.
fn live_service(seed: u64, config: ServeConfig) -> QueryService {
    let rt = Runtime::builder().seed(seed).semantic_cache(1024).build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let mut svc = QueryService::new(rt, config);
    svc.register_context("reports", ctx);
    svc.register_tenant("acme", TenantConfig::weighted(2));
    svc.register_tenant("bolt", TenantConfig::default());
    svc.register_tenant("dime", TenantConfig::default().dollars(1e-6));
    svc
}

const MIX: [&str; 3] = [
    "count identity theft reports in 2001",
    "count identity theft reports in 2002",
    "count identity theft reports in 2024",
];

// ----- codec ----------------------------------------------------------

/// Every frame kind round-trips through the public encode/decode path.
#[test]
fn wire_frames_round_trip() {
    let frames = [
        Frame::Request(WireRequest {
            client_seq: 42,
            sent_s: 7.5,
            tenant: "acme".into(),
            context: "reports".into(),
            priority: Priority::High,
            deadline_s: Some(120.0),
            body: WireBody::Source(MIX[0].into()),
        }),
        Frame::Request(WireRequest {
            client_seq: 43,
            sent_s: 8.0,
            tenant: "acme".into(),
            context: "reports".into(),
            priority: Priority::Low,
            deadline_s: None,
            body: WireBody::PlanHash(plan_hash(MIX[0])),
        }),
        Frame::Accepted {
            client_seq: 42,
            seq: 7,
        },
        Frame::Rejected {
            client_seq: 42,
            retryable: true,
            reason: "queue_full".into(),
            detail: "queue full (64/64)".into(),
        },
        Frame::Completed {
            client_seq: 42,
            seq: 7,
            latency_s: 61.25,
            cost_usd: 0.0125,
            answered: true,
        },
        Frame::Error {
            code: "torn_frame".into(),
            detail: "connection ended mid-frame (3 of 30 bytes)".into(),
        },
    ];
    for frame in &frames {
        let mut reader = FrameReader::new();
        reader.push(&encode_frame(frame));
        assert_eq!(reader.next_frame().unwrap().as_ref(), Some(frame));
        assert!(reader.next_frame().unwrap().is_none());
        assert!(reader.torn().is_none());
    }
}

mod codec_props {
    use super::*;
    use proptest::prelude::*;

    /// Drains a reader to its terminal state: decoded frame count, plus
    /// the typed error that ended the stream (if any). Panics are the
    /// one outcome the protocol forbids.
    fn drain(reader: &mut FrameReader) -> (usize, Option<String>) {
        let mut decoded = 0;
        loop {
            match reader.next_frame() {
                Ok(Some(_)) => decoded += 1,
                Ok(None) => return (decoded, None),
                Err(err) => return (decoded, Some(err.kind().to_string())),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary byte soup never panics the decoder: every stream
        /// ends in "need more bytes" (leftovers typed as torn_frame) or
        /// a typed wire error.
        #[test]
        fn byte_soup_never_panics(
            bytes in prop::collection::vec(any::<u8>(), 0..192),
            split in 0usize..192,
        ) {
            let mut reader = FrameReader::new();
            // Deliver in two pushes so mid-stream boundaries vary too.
            let at = split.min(bytes.len());
            reader.push(&bytes[..at]);
            let _ = drain(&mut reader);
            reader.push(&bytes[at..]);
            let (_, err) = drain(&mut reader);
            if let Some(kind) = &err {
                prop_assert!(!kind.is_empty(), "errors carry a stable kind");
            }
            if err.is_none() {
                if let Some(torn) = reader.torn() {
                    prop_assert_eq!(torn.kind(), "torn_frame");
                }
            }
        }

        /// One flipped byte in a valid frame either still decodes, waits
        /// for more bytes, or fails with a typed error — never a panic,
        /// whatever field the corruption lands in.
        #[test]
        fn corrupted_frames_fail_typed(
            seq in any::<u64>(),
            tenant in "[a-z]{0,6}",
            source in "[a-z0-9 ]{0,24}",
            at in 0usize..64,
            flip in 1u8..255,
        ) {
            let mut bytes = encode_frame(&Frame::Request(WireRequest {
                client_seq: seq,
                sent_s: 3.25,
                tenant,
                context: "reports".into(),
                priority: Priority::Normal,
                deadline_s: None,
                body: WireBody::Source(source),
            }));
            let at = at % bytes.len();
            bytes[at] ^= flip;
            let mut reader = FrameReader::new();
            reader.push(&bytes);
            let (_, err) = drain(&mut reader);
            if let Some(kind) = err {
                prop_assert!(!kind.is_empty());
            }
        }

        /// Requests with arbitrary field values survive the wire intact
        /// (encode → decode is the identity).
        #[test]
        fn requests_round_trip(
            seq in any::<u64>(),
            sent_s in 0.0f64..1e9,
            tenant in "[a-z0-9_]{0,12}",
            context in "[a-z0-9_]{0,12}",
            source in ".{0,64}",
            prio in 0u8..3,
            deadline in 0.0f64..1e6,
            with_deadline in any::<bool>(),
            hashed in any::<bool>(),
        ) {
            let request = WireRequest {
                client_seq: seq,
                sent_s,
                tenant,
                context,
                priority: Priority::from_code(prio).unwrap(),
                deadline_s: with_deadline.then_some(deadline),
                body: if hashed {
                    WireBody::PlanHash(plan_hash(&source))
                } else {
                    WireBody::Source(source)
                },
            };
            let mut reader = FrameReader::new();
            reader.push(&encode_frame(&Frame::Request(request.clone())));
            let back = reader.next_frame().unwrap().unwrap();
            prop_assert_eq!(back, Frame::Request(request));
        }
    }
}

// ----- listener over the simulated fabric ------------------------------

/// Torn frames and plan hashes through the public listener API: a client
/// that aborts mid-frame is counted with the typed `torn_frame` error
/// and admits nothing; a returning client's plan hash resolves to the
/// source a different connection interned earlier.
#[test]
fn listener_types_torn_frames_and_resolves_plan_hashes() {
    // Tiny segments so one frame spans several delivery events.
    let mut listener = Listener::new(NetSim::new(NetSimConfig {
        seed: 11,
        max_chunk: 8,
        ..NetSimConfig::default()
    }));
    let request = |seq: u64, body: WireBody| {
        encode_frame(&Frame::Request(WireRequest {
            client_seq: seq,
            sent_s: 0.5,
            tenant: "acme".into(),
            context: "reports".into(),
            priority: Priority::Normal,
            deadline_s: None,
            body,
        }))
    };
    let pump = |listener: &mut Listener<NetSim>| {
        let mut got = Vec::new();
        while let Some(t) = listener.fabric_mut().next_event_s() {
            listener.fabric_mut().advance(t);
            got.extend(listener.turn());
        }
        got
    };

    // Connection 1 interns the source.
    let full = listener.fabric_mut().connect(0.0);
    listener.fabric_mut().advance(0.0);
    listener
        .fabric_mut()
        .client_send(full, &request(1, WireBody::Source(MIX[0].into())));
    assert_eq!(pump(&mut listener).len(), 1);

    // Connection 2 quits three bytes short of a complete frame.
    let now = listener.fabric_mut().now();
    let torn = listener.fabric_mut().connect(now);
    let frame = request(2, WireBody::Source(MIX[1].into()));
    listener
        .fabric_mut()
        .client_send(torn, &frame[..frame.len() - 3]);
    listener.fabric_mut().client_close(torn);
    assert!(pump(&mut listener).is_empty(), "torn frame admits nothing");
    assert_eq!(listener.stats().wire_errors.get("torn_frame"), Some(&1));

    // Connection 3 sends only the hash of connection 1's source.
    let now = listener.fabric_mut().now();
    let hashed = listener.fabric_mut().connect(now);
    listener
        .fabric_mut()
        .client_send(hashed, &request(3, WireBody::PlanHash(plan_hash(MIX[0]))));
    let got = pump(&mut listener);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].instruction, MIX[0]);
    assert_eq!(listener.stats().plan_hash_hits, 1);
    assert_eq!(listener.stats().conns_opened, 3);
    assert_eq!(listener.stats().wire_error_total(), 1);
}

/// Plan interning is per tenant and bounded in source bytes. One client
/// sends more distinct sources than the 4 MiB budget holds, and the
/// resident bytes stay within it. Another tenant's `PlanHash` for a
/// source the first one sent is unknown to it until it sends the source
/// itself; the first tenant's evicted plan is unknown until its resend.
#[test]
fn plan_interning_is_per_tenant_and_bounded() {
    const BUDGET: u64 = 4 << 20;
    let mut listener = Listener::new(NetSim::new(NetSimConfig {
        seed: 13,
        max_chunk: 1 << 16,
        ..NetSimConfig::default()
    }));
    let mut seq = 0;
    let mut send = |listener: &mut Listener<NetSim>, conn, tenant: &str, body| {
        seq += 1;
        let frame = encode_frame(&Frame::Request(WireRequest {
            client_seq: seq,
            sent_s: 0.0,
            tenant: tenant.into(),
            context: "reports".into(),
            priority: Priority::Normal,
            deadline_s: None,
            body,
        }));
        listener.fabric_mut().client_send(conn, &frame);
        let mut got = Vec::new();
        while let Some(t) = listener.fabric_mut().next_event_s() {
            listener.fabric_mut().advance(t);
            got.extend(
                listener
                    .turn()
                    .into_iter()
                    .map(|inbound| inbound.instruction),
            );
        }
        assert!(listener.stats().plans.weight <= BUDGET, "resident bytes");
        got
    };
    let unknown = |listener: &Listener<NetSim>| {
        let errors = listener.stats().wire_errors;
        errors.get("unknown_plan_hash").copied().unwrap_or(0)
    };
    let source = |i: usize| format!("{i}{}", "#".repeat(400_000));
    let acme = listener.fabric_mut().connect(0.0);
    let bolt = listener.fabric_mut().connect(0.0);

    for i in 0..12 {
        let got = send(&mut listener, acme, "acme", WireBody::Source(source(i)));
        assert_eq!(got, [source(i)]);
    }
    assert_eq!(
        listener.stats().plans.clears,
        1,
        "12 x 400 KB went over 4 MiB once"
    );

    let last = WireBody::PlanHash(plan_hash(&source(11)));
    assert!(send(&mut listener, bolt, "bolt", last.clone()).is_empty());
    assert_eq!(unknown(&listener), 1, "bolt never sent acme's source");
    assert_eq!(
        send(&mut listener, bolt, "bolt", WireBody::Source(source(11))),
        [source(11)]
    );
    assert_eq!(send(&mut listener, bolt, "bolt", last), [source(11)]);

    let first = WireBody::PlanHash(plan_hash(&source(0)));
    assert!(send(&mut listener, acme, "acme", first.clone()).is_empty());
    assert_eq!(unknown(&listener), 2, "acme's first source was evicted");
    assert_eq!(
        send(&mut listener, acme, "acme", WireBody::Source(source(0))),
        [source(0)]
    );
    assert_eq!(send(&mut listener, acme, "acme", first), [source(0)]);
    assert_eq!(listener.stats().plan_hash_hits, 2);
    assert_eq!(listener.stats().wire_error_total(), 2);
}

// ----- live soak determinism -------------------------------------------

fn soak_fleet(clients: usize) -> Vec<ClientConfig> {
    (0..clients)
        .map(|i| {
            let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
            ClientConfig::new(tenant, "reports")
                .instructions([MIX[i % 3]])
                .queries(if i % 5 == 4 { 2 } else { 1 })
                .think(20.0)
                .retries(3)
                .backoff(10.0)
                .start(i as f64 * 2.0)
        })
        .collect()
}

/// The full live path — simulated fabric, listener, closed-loop fleet,
/// admission, dispatch, settlement — replays byte-identically at the
/// same seed across every report surface.
#[test]
fn live_soak_replays_byte_identically() {
    let run = || {
        let mut svc = live_service(
            17,
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let mut source = LiveSource::new(17, soak_fleet(24));
        let report = svc.serve(&mut source);
        (
            report.to_jsonl(),
            report.render(),
            report.health_jsonl(),
            source.outcomes().len(),
        )
    };
    let (jsonl_a, render_a, health_a, outcomes_a) = run();
    let (jsonl_b, render_b, health_b, outcomes_b) = run();
    assert_eq!(jsonl_a, jsonl_b, "trace export is byte-identical");
    assert_eq!(render_a, render_b, "dashboard render is byte-identical");
    assert_eq!(health_a, health_b, "health export is byte-identical");
    assert_eq!(outcomes_a, outcomes_b);
    assert_eq!(outcomes_a, 24, "every client resolved");
    assert!(render_a.contains("front door:"), "net section rendered");
}

// ----- autoscaling convergence ------------------------------------------

/// Under a dense cold burst the controller scales up past the breach,
/// then releases workers as the warm sparse tail clears the target:
/// ups, then downs, no oscillation, and strictly fewer worker-seconds
/// than the max-size pool it was allowed to hold.
#[test]
fn autoscaler_converges_up_then_down() {
    // The test lake's cold queries run ~8-25s virtual and warm repeats
    // ~0.3s, so a 5s target is breached by the dense head and cleared
    // with room by the warm tail.
    let target_p99_s = 5.0;
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    }
    .autoscale(
        AutoscaleConfig::new(1, 4, target_p99_s)
            .evaluate_every(15.0)
            .window(120.0)
            .cooldown(45.0),
    );
    let mut svc = live_service(23, config);
    // Dense head (cold queries queue behind each other), sparse tail
    // (warm repeats that leave the pool idle).
    let fleet: Vec<ClientConfig> = (0..36)
        .map(|i| {
            let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
            let start_s = if i < 28 {
                i as f64 * 1.0
            } else {
                28.0 + (i - 28) as f64 * 90.0
            };
            ClientConfig::new(tenant, "reports")
                .instructions([MIX[i % 3]])
                .think(15.0)
                .retries(4)
                .backoff(20.0)
                .start(start_s)
        })
        .collect();
    let mut source = LiveSource::new(23, fleet);
    let report = svc.serve(&mut source);

    assert!(report.scale_ups() >= 1, "cold burst must trigger scale-ups");
    assert!(report.scale_downs() >= 1, "warm tail must release workers");
    let events = &report.scale_events;
    assert_eq!(events[0].direction(), "up", "first move grows the pool");
    assert_eq!(
        events.last().unwrap().direction(),
        "down",
        "last move shrinks the pool"
    );
    let direction_changes = events
        .windows(2)
        .filter(|pair| pair[0].direction() != pair[1].direction())
        .count();
    assert!(
        direction_changes <= 2,
        "hysteresis prevents oscillation: {direction_changes} direction changes in {events:?}"
    );
    for pair in events.windows(2) {
        assert!(pair[1].at_s > pair[0].at_s, "scale events are ordered");
    }
    assert_eq!(events.last().unwrap().to, 1, "pool converges back to min");

    // Steady state (second half of the run) holds the target.
    let mut steady: Vec<f64> = report
        .completions
        .iter()
        .filter(|c| c.end_s * 2.0 >= report.makespan_s)
        .map(|c| c.latency_s())
        .collect();
    steady.sort_by(f64::total_cmp);
    assert!(!steady.is_empty(), "tail traffic reaches the second half");
    let p99 = steady[((steady.len() - 1) as f64 * 0.99) as usize];
    assert!(
        p99 <= target_p99_s,
        "converged p99 {p99:.1}s within {target_p99_s}s target"
    );

    // The whole point: elasticity costs less than holding max capacity.
    assert!(
        report.worker_seconds < 4.0 * report.makespan_s,
        "autoscaled pool ({:.0} worker-seconds) beat the fixed max ({:.0})",
        report.worker_seconds,
        4.0 * report.makespan_s
    );
}

// ----- closed-loop retries and billing ----------------------------------

/// Overload and quota rejections cost the client retries, never money:
/// each tenant's ledger spend equals the sum of its completed queries'
/// costs exactly, every client resolves to a typed outcome, and no
/// completed query is lost or double-counted on the way to the report.
#[test]
fn rejected_clients_never_double_bill() {
    let mut svc = live_service(
        31,
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    );
    // Everyone piles on at once: a 2-deep queue over 1 worker guarantees
    // retryable queue_full sheds; the micro-budget tenant draws terminal
    // budget_exhausted sheds once its first query settles.
    let mut fleet: Vec<ClientConfig> = (0..10)
        .map(|i| {
            let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
            ClientConfig::new(tenant, "reports")
                .instructions([MIX[i % 3]])
                .think(5.0)
                .retries(2)
                .backoff(5.0)
                .start(i as f64 * 0.25)
        })
        .collect();
    // Dime joins after the storm drains so its first query settles (and
    // trips the quota) instead of dying in the queue_full crowd. Its
    // questions are unique — a shared-cache hit costs $0 and would never
    // exhaust the budget.
    fleet.extend((0..3).map(|i| {
        ClientConfig::new("dime", "reports")
            .instructions([format!("count identity theft reports in 2002 audit {i}")])
            .queries(2)
            .retries(2)
            .backoff(5.0)
            .start(400.0 + i as f64 * 10.0)
    }));
    let clients = fleet.len();
    let mut source = LiveSource::new(31, fleet);
    let report = svc.serve(&mut source);
    let outcomes = source.outcomes();

    // Billing: the ledger charged exactly the completed work, per tenant.
    for tenant in ["acme", "bolt", "dime"] {
        let id = TenantId::new(tenant);
        let billed: f64 = report
            .completions
            .iter()
            .filter(|c| c.tenant == id)
            .map(|c| c.cost_usd)
            .sum();
        let ledger = svc.tenants().spend(&id).usd;
        assert!(
            (ledger - billed).abs() <= 1e-12 * billed.max(1.0),
            "{tenant}: ledger ${ledger} != completed work ${billed}"
        );
    }

    // Every client resolves to exactly one typed outcome, and the
    // client-side query count matches the server's completion count.
    assert_eq!(outcomes.len(), clients);
    let client_queries: usize = outcomes
        .iter()
        .map(|o| match o {
            ClientOutcome::Completed { queries, .. } => *queries,
            ClientOutcome::RetriesExhausted { completed, .. }
            | ClientOutcome::Abandoned { completed, .. }
            | ClientOutcome::WireFailed { completed, .. } => *completed,
        })
        .sum();
    assert_eq!(client_queries, report.completions.len());

    // The shed storm was real and the outcomes are typed.
    let net = report.net.as_ref().expect("live run carries a net report");
    assert!(net.client_retries > 0, "queue pressure forced retries");
    assert!(
        report.sheds.iter().any(|s| s.reason.kind() == "queue_full"),
        "queue_full sheds occurred"
    );
    for outcome in &outcomes {
        match outcome {
            ClientOutcome::Completed { .. } => {}
            ClientOutcome::RetriesExhausted {
                retries, reason, ..
            } => {
                assert_eq!(*retries, 2, "gave up only after the full budget");
                assert_eq!(reason, "queue_full");
            }
            ClientOutcome::Abandoned { reason, .. } => {
                assert_eq!(reason, "budget_exhausted", "terminal sheds are typed");
            }
            ClientOutcome::WireFailed { code, .. } => {
                panic!("no wire failures expected, got {code}");
            }
        }
    }
    // The micro-budget tenant hit its quota: at least one dime client
    // was turned away terminally, none silently vanished.
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::Abandoned { .. })),
        "dime's quota produced a terminal rejection"
    );
}

// ----- deep requests ----------------------------------------------------

/// A request nesting 100,000 parentheses (200 KB, well under the frame
/// cap) crosses the wire whole, is served as a task like any other, and
/// the service goes on to serve the client's next request.
#[test]
fn deeply_nested_request_is_served() {
    let config = ServeConfig::with_workers(1);
    let mut svc = live_service(37, config);
    svc.register_tenant("capped", TenantConfig::default().dollars(100.0));
    let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
    let client = ClientConfig::new("capped", "reports")
        .instructions([deep, MIX[0].to_string()])
        .queries(2);
    let mut source = LiveSource::new(37, vec![client]);
    let report = svc.serve(&mut source);
    assert!(matches!(
        source.outcomes().as_slice(),
        [ClientOutcome::Completed { queries: 2, .. }]
    ));
    assert_eq!(report.completions.len(), 2, "both requests were served");
    let net = report.net.as_ref().expect("live run carries a net report");
    assert_eq!(net.stats.wire_error_total(), 0);
}
