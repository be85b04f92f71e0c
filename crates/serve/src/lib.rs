//! # aida-serve — the multi-tenant query service layer
//!
//! The paper frames Deep Research as an *analytics system*; a system
//! serves many users at once. This crate turns the single-user
//! [`Runtime`] into a service: tenants submit [`QueryRequest`]s against
//! registered Contexts, a bounded [`AdmissionQueue`] applies
//! backpressure and typed load-shedding, per-tenant quotas are enforced
//! from metered spend, and a weighted-round-robin scheduler dispatches
//! onto a virtual worker pool. All tenants share one runtime — and
//! therefore one ContextManager — so Contexts materialized for one tenant
//! accelerate and cheapen every other tenant's queries.
//!
//! Everything is deterministic on the virtual clock: queries execute one
//! at a time on the dispatch thread, and concurrency exists only in the
//! virtual schedule, so the same seed and workload produce byte-identical
//! [`ServiceReport`]s (see [`QueryService`] for how).
//!
//! ```
//! use aida_core::{Context, Runtime};
//! use aida_data::{DataLake, Document};
//! use aida_serve::{open_loop, QueryService, ServeConfig, TenantConfig, TenantLoad};
//!
//! let rt = Runtime::builder().seed(1).build();
//! let lake = DataLake::from_docs([Document::new("a.txt", "thefts in 2001: 86250")]);
//! let ctx = Context::builder("lake", lake).description("theft reports").build(&rt);
//!
//! let mut svc = QueryService::new(rt, ServeConfig::with_workers(2));
//! svc.register_context("reports", ctx);
//! svc.register_tenant("acme", TenantConfig::weighted(2).dollars(5.0));
//!
//! let load = TenantLoad::new("acme", "reports")
//!     .instructions(["count identity theft reports in 2001"])
//!     .queries(2)
//!     .mean_interarrival(10.0);
//! let report = svc.run(open_loop(1, &[load]));
//! assert_eq!(report.completions.len(), 2);
//! println!("{}", report.render());
//! ```
//!
//! [`Runtime`]: aida_core::Runtime

mod autoscale;
mod bounds;
mod client;
mod driver;
mod net;
mod queue;
mod report;
mod request;
mod service;
mod tenant;

pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleEvent};
pub use bounds::{BoundGate, StaticVerdict};
pub use client::{ClientConfig, ClientOutcome, LiveSource};
pub use driver::{open_loop, ReplaySource, RequestSource, TenantLoad};
pub use net::{
    encode_frame, plan_hash, Fabric, Frame, FrameReader, Inbound, Listener, NetStats, WireBody,
    WireError, WireRequest,
};
pub use queue::AdmissionQueue;
pub use report::{NetReport, ServiceReport, TenantHealth, TenantReport};
pub use request::{Completion, Priority, QueryRequest, RejectReason, Shed, TenantId};
pub use service::{QueryService, ServeConfig};
pub use tenant::{LedgerRecord, LedgerWal, Spend, TenantConfig, TenantLedger, WalRecovery};
