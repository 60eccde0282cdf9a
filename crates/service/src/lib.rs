//! `mbta-service`: the streaming dispatch service.
//!
//! Everything below this crate solves *instances*; this crate runs a
//! *market*. A labor platform's assignment loop is event-driven — workers
//! log in and out, tasks appear and expire, benefit estimates drift — and
//! the paper's solvers only become a system once something turns that
//! stream into bounded-latency, capacity-safe assignment decisions. That
//! something is [`DispatchService`]:
//!
//! * [`event`] — the ingress model: [`event::ServiceEvent`], the
//!   trace adapter, and a deterministic benefit-drift weaver.
//! * [`batch`] — micro-batch accumulation with count, byte, and
//!   (virtual-)time watermarks.
//! * [`queue`] — the bounded ingress queue and its explicit overload
//!   policy (drop-newest / drop-oldest / defer), every loss counted.
//! * [`shard`] — node-disjoint market sharding with home-shard worker
//!   placement; node-disjointness is what makes the cross-shard capacity
//!   invariant hold by construction. Three routings: `hash`, `range`,
//!   and `min-cut` (edge-cut-aware label propagation from
//!   `mbta-partition`).
//! * [`pool`] — the worker pool that solves a batch's touched shards
//!   concurrently: work-stealing largest-first scheduling over vendored
//!   crossbeam scoped threads + channels, with a deterministic
//!   shard-index merge so threaded replay stays byte-identical.
//! * [`service`] — the dispatch loop: apply churn via incremental greedy
//!   repair, re-solve each touched shard with the robust engine under the
//!   batch's shared deadline budget (via the pool), adopt improvements,
//!   emit deltas. Poisoned shards degrade to the greedy floor without
//!   stalling siblings. With the boundary pass on, a per-batch rescue
//!   matching recovers cross-shard edges with residual capacity; with a
//!   re-plan threshold armed, cut drift triggers a detach → re-partition
//!   → resume migration at a batch boundary (journaled as a WAL plan
//!   record). See DESIGN.md §13.
//! * [`online`] — the per-event decision path (`--online`): greedy
//!   repair plus a depth-1 exchange on every event, per-shard drift
//!   accounting, and an exact fallback on the shard's `WarmNet` (shared
//!   with batch dispatch) when drift crosses the configured threshold.
//!   Sub-millisecond median decision latency, journaled as one WAL
//!   record per deciding event. See DESIGN.md §14.
//! * [`sink`] — pluggable decision output; the textual decision log is
//!   byte-identical across replays under deterministic budgets.
//! * [`report`] — end-of-run telemetry: throughput, batch-latency
//!   percentiles, tier tallies, and the capacity-violation count (always
//!   zero unless the shard invariant is broken).
//! * durability — attach an `mbta-store` [`DurableStore`] via
//!   [`service::DispatchService::attach_store`] and every batch is
//!   journaled (WAL) before its decisions reach the sink, with periodic
//!   full-state snapshots; `mbta_store::recover` rebuilds the state after
//!   a crash. See DESIGN.md §11.
//!
//! See DESIGN.md §"Streaming dispatch service" for the architecture
//! discussion and the CLI's `serve` / `replay` commands for the wiring.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod event;
pub mod online;
pub mod pool;
pub mod queue;
pub mod report;
pub mod service;
pub mod shard;
pub mod sink;

pub use batch::{BatchConfig, Batcher, ClosedBatch, FlushReason};
pub use event::{Arrival, BenefitDrift, ServiceEvent};
pub use online::OnlineConfig;
pub use pool::{BatchSolve, ShardJob, ShardOutcome, SolvePool};
pub use queue::{BoundedQueue, DeferBackoff, DropPolicy, OfferOutcome};
pub use report::ServiceReport;
pub use service::{BudgetMode, CarriedState, DispatchService, ServiceConfig};
pub use shard::{Routing, ShardPlan};
pub use sink::{Action, BatchStats, CollectSink, Decision, DecisionSink, NullSink, WriteSink};

// Durability wiring surface, re-exported so callers that attach a store
// need not name `mbta-store` directly.
pub use mbta_store::store::{recover, DurableStore, RecoveredState, StoreConfig};
pub use mbta_store::wal::FsyncPolicy;
