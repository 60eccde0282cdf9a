//! Hand-rolled argument parsing (no external CLI dependency is on the
//! workspace allowlist, and the surface is small enough that a parser
//! generator would be overhead).

use mbta_core::algorithms::Algorithm;
use mbta_core::online::ArrivalOrder;
use mbta_market::Combiner;
use mbta_matching::mcmf::PathAlgo;
use mbta_matching::online::OnlinePolicy;
use mbta_service::{DropPolicy, FsyncPolicy, Routing};
use mbta_workload::Profile;
use std::fmt;
use std::path::PathBuf;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  mbta gen --profile <uniform|zipfian|microtask|freelance>
           [--workers N] [--tasks N] [--degree F] [--dims N] [--seed N]
           --out FILE
  mbta stats FILE   (graph instance, or Prometheus metrics snapshot)
  mbta solve FILE [--algorithm <exact|greedy|local|quality|worker|random|cardinality|stable>]
                  [--combiner <balanced|harmonic|min|linear:L>] [--pairs]
                  [--deadline-ms N] [--fallback <none|chain>]
  mbta solve --inject-faults [--instances N] [--deadline-ms N] [--seed N]
  mbta gen-trace --out FILE [--profile P] [--workers N] [--tasks N]
                 [--degree F] [--dims N] [--seed N] [--horizon F] [--repeats N]
  mbta serve  --trace FILE [service flags] [--batch-max N]
              [--batch-bytes N] [--flush-ms F]
              [--drop-policy <drop-newest|drop-oldest|defer>]
              [--routing <hash|range|min-cut>] [--boundary-pass]
              [--replan-threshold F] [--drift F]
              [--poison-shard S] [--max-wall-ms N] [--decisions FILE]
              [--metrics-out FILE] [--metrics-every N] [--listen ADDR]
  mbta replay --trace FILE [serve flags; deterministic budgets]
  mbta plan-stats --trace FILE [--shards N,N,...]
  mbta recover --trace FILE --wal-dir DIR
  mbta follow --trace FILE --wal-dir DIR [--listen ADDR]
              [--query-listen ADDR] [--heartbeat-ms N]
              [--poll-ms N] [--max-wait-ms N]
  mbta send   --addr ADDR (--trace FILE | --status) [--batch N]
              [--namespace N] [--drift F] [--connect-wait-ms N]
  mbta shard-worker --traces FILE,FILE,... --shard S --shards N
              [--routing <hash|range|min-cut>] [--placements FILE]
              [service flags] [--listen ADDR] [--linger-ms N]
              [--decisions-dir DIR]
  mbta route  --traces FILE,FILE,... --owners ADDR,ADDR,...
              [--listen ADDR] [--routing <hash|range|min-cut>]
              [--placements FILE] [--save-placements FILE]
              [--queue-cap N] [--batch N] [--owner-retry-ms N]
              [--report-wait-ms N]
  mbta sweep FILE [--steps N]
  mbta maxmin FILE [--combiner <balanced|harmonic|min|linear:L>]
  mbta budget FILE --limit B [--combiner C] [--iters N]
  mbta online FILE [--policy <greedy|ranking|twophase|threshold>]
                   [--order <id|random|best-first|best-last>] [--seed N]
  mbta report FILE [--algorithm A] [--combiner C] [--top K]
  mbta topk FILE [--k N] [--combiner C]
  mbta help

service flags (serve, replay and shard-worker parse them alike):
  [--shards N] [--threads N] [--queue-cap N] [--online]
  [--drift-threshold F] [--budget-ms N] [--wal-dir DIR]
  [--snapshot-every N] [--fsync <always|batch|never>] [--group-commit N]
  --budget-ms 0 means deterministic solves (default 50; replay always is)
  --drift-threshold needs --online (default 0.2)
  --snapshot-every defaults to 64; it, --fsync and --group-commit need --wal-dir";

/// Degradation policy for robust solves (`--fallback`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMode {
    /// Exact tier or bust: the solve *fails* (non-zero exit) if the engine
    /// returns anything below [`mbta_core::engine::QualityTier::Exact`].
    None,
    /// Full graceful-degradation chain; any tier is accepted.
    Chain,
}

/// Service flags shared by `serve`, `replay` and `shard-worker`. One set
/// of match arms parses them and one pass validates them, so every
/// command that takes a flag gives it the same default, range and error.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceFlags {
    /// Shard count.
    pub shards: usize,
    /// Solver-pool width for touched-shard solves (`0` = one worker per
    /// available hardware thread; `1` = the exact sequential path).
    pub threads: usize,
    /// Ingress queue capacity.
    pub queue_cap: usize,
    /// Per-event online decision path: bypass the batcher, decide on every
    /// event, and journal one WAL record per deciding event. Incompatible
    /// with `--boundary-pass`.
    pub online: bool,
    /// With `--online`: fraction of a shard's matched weight that may
    /// drift before the warm-started exact fallback fires.
    pub drift_threshold: f64,
    /// Per-batch wall-clock solve budget in ms (`0` = deterministic,
    /// unbudgeted solves; `replay` is always deterministic).
    pub budget_ms: u64,
    /// Journal to a write-ahead log in this directory (must be empty or
    /// nonexistent; `mbta recover` reads it back). A shard-worker
    /// journals namespace `i` under `ns-<i>`.
    pub wal_dir: Option<PathBuf>,
    /// With `--wal-dir`: write a full-state snapshot every N batches
    /// (`0` = only the final seal).
    pub snapshot_every: u64,
    /// With `--wal-dir`: fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// With `--wal-dir`: group-commit window — buffer N records per
    /// combined WAL write (`1` = write-through).
    pub group_commit: u64,
}

impl Default for ServiceFlags {
    fn default() -> Self {
        ServiceFlags {
            shards: 4,
            threads: 0,
            queue_cap: 4096,
            online: false,
            drift_threshold: 0.2,
            budget_ms: 50,
            wal_dir: None,
            snapshot_every: 64,
            fsync: FsyncPolicy::Batch,
            group_commit: 1,
        }
    }
}

/// Cluster topology flags shared by `route` and `shard-worker`: the
/// values that must match on the router and on every worker.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyFlags {
    /// Ordered tenant trace list (list order is the namespace mapping).
    pub traces: Vec<PathBuf>,
    /// Task-to-shard routing.
    pub routing: Routing,
    /// Placement file pinning the plans (see `route --save-placements`).
    pub placements: Option<PathBuf>,
}

impl Default for TopologyFlags {
    fn default() -> Self {
        TopologyFlags {
            traces: Vec::new(),
            routing: Routing::HashId,
            placements: None,
        }
    }
}

/// Options shared by `serve` and `replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Trace file produced by `gen-trace` (or `TraceFile::render`).
    pub trace: PathBuf,
    /// The service flags shared with `shard-worker`.
    pub service: ServiceFlags,
    /// Batch count watermark.
    pub batch_max: usize,
    /// Batch byte watermark.
    pub batch_bytes: usize,
    /// Batch time watermark, in trace time units.
    pub flush_ms: f64,
    /// Ingress overload policy.
    pub drop_policy: DropPolicy,
    /// Task-to-shard routing.
    pub routing: Routing,
    /// Run the cross-shard boundary-rescue matching after every batch's
    /// per-shard solves.
    pub boundary_pass: bool,
    /// Re-plan the shard layout at a batch boundary once the live cut
    /// fraction has degraded past this much above the plan's baseline.
    pub replan_threshold: Option<f64>,
    /// Benefit-drift injection rate in [0, 1] (0 = lifecycle events only).
    pub drift: f64,
    /// Pre-poison one shard (fault-injection demo): its solves degrade to
    /// the greedy floor without stalling siblings.
    pub poison_shard: Option<usize>,
    /// Fail (non-zero exit) if the whole run exceeds this wall-clock
    /// budget.
    pub max_wall_ms: Option<u64>,
    /// Write the decision log here.
    pub decisions: Option<PathBuf>,
    /// Write a telemetry snapshot here when the run finishes (Prometheus
    /// text exposition, or JSON when the path ends in `.json`).
    pub metrics_out: Option<PathBuf>,
    /// With `--metrics-out`: overwrite the snapshot file with an interval
    /// delta every N batches (a scrape target, not a log).
    pub metrics_every: Option<u64>,
    /// Accept events over framed TCP on this address instead of reading
    /// them from the trace (the trace still defines the market universe).
    pub listen: Option<String>,
}

/// Options for `mbta follow` (WAL-follower replication).
#[derive(Debug, Clone, PartialEq)]
pub struct FollowOpts {
    /// Trace the primary is serving (defines the universe the promoted
    /// state is validated against).
    pub trace: PathBuf,
    /// The primary's WAL directory (shared filesystem).
    pub wal_dir: PathBuf,
    /// The primary's ingress address: on promotion the follower verifies
    /// the port is actually dead (bind / connect-refused gate) before
    /// taking over. Without it, promotion is gated on the heartbeat only.
    pub listen: Option<String>,
    /// Serve read-only status queries on this address while following.
    pub query_listen: Option<String>,
    /// Heartbeat staleness window in ms: the primary is presumed dead
    /// once its heartbeat file is older than this.
    pub heartbeat_ms: u64,
    /// Tail poll interval in ms.
    pub poll_ms: u64,
    /// How long to wait for the primary's WAL dir + first heartbeat to
    /// appear before giving up.
    pub max_wait_ms: u64,
}

/// Options for `mbta send` (TCP event producer / status probe).
#[derive(Debug, Clone, PartialEq)]
pub struct SendOpts {
    /// Ingress address to connect to.
    pub addr: String,
    /// Trace whose events are streamed (required unless `--status`).
    pub trace: Option<PathBuf>,
    /// Events per `EVENT_BATCH` request.
    pub batch: usize,
    /// Tenant namespace id stamped on every batch (single-tenant
    /// endpoints ignore it; the cluster router routes by it).
    pub namespace: u32,
    /// Benefit-drift injection rate in [0, 1], woven exactly as `serve
    /// --drift` would.
    pub drift: f64,
    /// Query the endpoint's status instead of sending events.
    pub status: bool,
    /// How long to keep retrying the initial connect (covers starting
    /// the client before the server has bound).
    pub connect_wait_ms: u64,
}

/// Options for `mbta shard-worker` (one cluster shard-owner process).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWorkerOpts {
    /// The cluster topology; must match the router's.
    pub topology: TopologyFlags,
    /// The service flags shared with `serve`; `shards` is the cluster
    /// plan's shard count.
    pub service: ServiceFlags,
    /// The one shard this worker owns.
    pub shard: usize,
    /// Listen address (`127.0.0.1:0` binds an ephemeral port, printed on
    /// startup).
    pub listen: String,
    /// How long to keep answering `QUERY_REPORT` after the FIN drain.
    pub linger_ms: u64,
    /// Directory for per-namespace decision logs (`ns-<i>.log`).
    pub decisions_dir: Option<PathBuf>,
}

/// Options for `mbta route` (the cluster router process).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOpts {
    /// The cluster topology; must match the workers'.
    pub topology: TopologyFlags,
    /// Owner addresses, indexed by shard id (`len` = shard count).
    pub owners: Vec<String>,
    /// Client-facing listen address.
    pub listen: String,
    /// Export the built plans to this placement file before serving.
    pub save_placements: Option<PathBuf>,
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Events per forwarded `EVENT_BATCH` frame.
    pub batch: usize,
    /// Reconnect window before a failing owner poisons its shard.
    pub owner_retry_ms: u64,
    /// Max wait for each owner's final report after FIN.
    pub report_wait_ms: u64,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate an instance and persist it.
    Gen {
        /// Workload profile.
        profile: Profile,
        /// Worker count.
        workers: usize,
        /// Task count.
        tasks: usize,
        /// Average worker degree.
        degree: f64,
        /// Skill dimensionality.
        dims: usize,
        /// Generation seed.
        seed: u64,
        /// Output path.
        out: PathBuf,
    },
    /// Print dataset statistics of a persisted instance.
    Stats {
        /// Instance path.
        file: PathBuf,
    },
    /// Solve a persisted instance.
    Solve {
        /// Instance path.
        file: PathBuf,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// Mutual-benefit combiner.
        combiner: Combiner,
        /// Whether to print every assigned pair.
        pairs: bool,
        /// Wall-clock budget for the solve; routes through the robust
        /// engine when set.
        deadline_ms: Option<u64>,
        /// Degradation policy; routes through the robust engine when set.
        /// `none` demands the exact tier (non-zero exit otherwise),
        /// `chain` accepts graceful degradation.
        fallback: Option<FallbackMode>,
    },
    /// Run the synthetic fault-injection campaign through the robust
    /// engine (`solve --inject-faults`): adversarial topologies and
    /// poisoned weights, each solved under a deadline.
    FaultCampaign {
        /// Number of fuzzed instances.
        instances: usize,
        /// Per-instance deadline handed to the engine.
        deadline_ms: u64,
        /// Base seed of the campaign.
        seed: u64,
    },
    /// λ-sweep frontier of a persisted instance.
    Sweep {
        /// Instance path.
        file: PathBuf,
        /// Number of λ steps (inclusive endpoints).
        steps: usize,
    },
    /// Egalitarian (bottleneck) solve.
    MaxMin {
        /// Instance path.
        file: PathBuf,
        /// Mutual-benefit combiner.
        combiner: Combiner,
    },
    /// Budget-constrained solve (Lagrangian + greedy comparison). Edge
    /// costs default to uniform 1.0 per assignment, since persisted graphs
    /// carry benefits but not task pay.
    Budget {
        /// Instance path.
        file: PathBuf,
        /// Budget limit.
        limit: f64,
        /// Mutual-benefit combiner.
        combiner: Combiner,
        /// Lagrangian binary-search iterations.
        iters: u32,
    },
    /// Online simulation against the hindsight optimum.
    Online {
        /// Instance path.
        file: PathBuf,
        /// Online policy.
        policy: OnlinePolicy,
        /// Arrival order.
        order: ArrivalOrder,
    },
    /// Solve and print an operator audit report.
    Report {
        /// Instance path.
        file: PathBuf,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// Mutual-benefit combiner.
        combiner: Combiner,
        /// Rows per report section.
        top: usize,
    },
    /// Generate a persisted event trace for the dispatch service.
    GenTrace {
        /// Workload profile of the market universe.
        profile: Profile,
        /// Worker count.
        workers: usize,
        /// Task count.
        tasks: usize,
        /// Average worker degree.
        degree: f64,
        /// Skill dimensionality.
        dims: usize,
        /// Generation seed (universe and trace).
        seed: u64,
        /// Trace horizon in abstract time units.
        horizon: f64,
        /// Sessions per worker / postings per task.
        repeats: u32,
        /// Output path.
        out: PathBuf,
    },
    /// Run the dispatch service over a trace with wall-clock budgets.
    Serve(ServeOpts),
    /// Deterministically replay a trace (unbudgeted solves, byte-identical
    /// decision logs across runs).
    Replay(ServeOpts),
    /// Tail a primary's WAL as a warm read-only follower; promote on
    /// primary death (stale heartbeat + dead port).
    Follow(FollowOpts),
    /// Stream a trace's events to a serving ingress over TCP (or query
    /// an endpoint's status with `--status`).
    Send(SendOpts),
    /// Run one cluster shard-owner worker process.
    ShardWorker(ShardWorkerOpts),
    /// Run the cluster router: client admission, placement routing, and
    /// owner fan-out.
    Route(RouteOpts),
    /// Rebuild assignment state from a WAL directory (latest snapshot +
    /// log-tail replay) and verify it against the trace's universe.
    Recover {
        /// Trace the crashed run was serving (rebuilds the universe the
        /// recovered state is validated against).
        trace: PathBuf,
        /// WAL directory of the crashed run.
        wal_dir: PathBuf,
    },
    /// Compare shard-plan quality (hash vs range vs min-cut cut stats)
    /// over a trace's universe at several shard counts.
    PlanStats {
        /// Trace whose universe is partitioned.
        trace: PathBuf,
        /// Shard counts to tabulate.
        shards: Vec<usize>,
    },
    /// Enumerate the k best assignments (Murty).
    TopK {
        /// Instance path.
        file: PathBuf,
        /// How many solutions to list.
        k: usize,
        /// Mutual-benefit combiner.
        combiner: Combiner,
    },
    /// Print usage.
    Help,
}

/// Parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

struct Cursor<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a str> {
        self.args.get(self.pos).map(|s| s.as_str())
    }

    fn next(&mut self) -> Option<&'a str> {
        let v = self.args.get(self.pos).map(|s| s.as_str());
        self.pos += 1;
        v
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(v) => Ok(v),
            None => err(format!("{flag} needs a value")),
        }
    }
}

fn parse_profile(s: &str) -> Result<Profile, ParseError> {
    match s {
        "uniform" => Ok(Profile::Uniform),
        "zipfian" => Ok(Profile::Zipfian),
        "microtask" => Ok(Profile::Microtask),
        "freelance" => Ok(Profile::Freelance),
        _ => err(format!("unknown profile '{s}'")),
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, ParseError> {
    match s {
        "exact" => Ok(Algorithm::ExactMB {
            algo: PathAlgo::Dijkstra,
        }),
        "exact-spfa" => Ok(Algorithm::ExactMB {
            algo: PathAlgo::Spfa,
        }),
        "greedy" => Ok(Algorithm::GreedyMB),
        "local" => Ok(Algorithm::LocalSearch { max_passes: 8 }),
        "quality" => Ok(Algorithm::QualityOnly),
        "worker" => Ok(Algorithm::WorkerOnly),
        "random" => Ok(Algorithm::Random { seed: 0 }),
        "cardinality" => Ok(Algorithm::Cardinality),
        "stable" => Ok(Algorithm::Stable),
        _ => err(format!("unknown algorithm '{s}'")),
    }
}

fn parse_combiner(s: &str) -> Result<Combiner, ParseError> {
    if let Some(l) = s.strip_prefix("linear:") {
        let lambda: f64 = l
            .parse()
            .map_err(|_| ParseError(format!("bad lambda '{l}'")))?;
        if !(0.0..=1.0).contains(&lambda) {
            return err(format!("lambda {lambda} out of [0,1]"));
        }
        return Ok(Combiner::Linear { lambda });
    }
    match s {
        "balanced" => Ok(Combiner::balanced()),
        "harmonic" => Ok(Combiner::Harmonic),
        "min" => Ok(Combiner::Min),
        _ => err(format!(
            "unknown combiner '{s}' (try balanced|harmonic|min|linear:0.7)"
        )),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("bad value for {flag}: '{s}'")))
}

fn parse_fallback(s: &str) -> Result<FallbackMode, ParseError> {
    match s {
        "none" => Ok(FallbackMode::None),
        "chain" => Ok(FallbackMode::Chain),
        _ => err(format!("unknown fallback mode '{s}' (try none|chain)")),
    }
}

fn parse_routing(s: &str) -> Result<Routing, ParseError> {
    match s {
        "hash" => Ok(Routing::HashId),
        "range" => Ok(Routing::Range),
        "min-cut" => Ok(Routing::MinCut),
        _ => err(format!("unknown routing '{s}' (try hash|range|min-cut)")),
    }
}

/// Parse state of [`ServiceFlags`]: the values so far, plus which flags
/// the command line set, for the cross-flag checks in `finish`.
#[derive(Default)]
struct ServiceFlagsParser {
    flags: ServiceFlags,
    shards_set: bool,
    drift_threshold_set: bool,
    wal_tuning_set: bool,
}

impl ServiceFlagsParser {
    /// Consumes `flag` and its value if it is a service flag; `Ok(false)`
    /// leaves it to the command's own flags.
    fn accept(&mut self, flag: &str, cur: &mut Cursor<'_>) -> Result<bool, ParseError> {
        let f = &mut self.flags;
        match flag {
            "--shards" => {
                f.shards = parse_num(flag, cur.value_for(flag)?)?;
                if f.shards == 0 {
                    return err("--shards must be >= 1");
                }
                self.shards_set = true;
            }
            // 0 is allowed: "use the host's available parallelism".
            "--threads" => f.threads = parse_num(flag, cur.value_for(flag)?)?,
            "--queue-cap" => {
                f.queue_cap = parse_num(flag, cur.value_for(flag)?)?;
                if f.queue_cap == 0 {
                    return err("--queue-cap must be >= 1");
                }
            }
            "--online" => f.online = true,
            "--drift-threshold" => {
                f.drift_threshold = parse_num(flag, cur.value_for(flag)?)?;
                if !(f.drift_threshold > 0.0 && f.drift_threshold.is_finite()) {
                    return err("--drift-threshold must be positive and finite");
                }
                self.drift_threshold_set = true;
            }
            // 0 is allowed: deterministic, unbudgeted solves.
            "--budget-ms" => f.budget_ms = parse_num(flag, cur.value_for(flag)?)?,
            "--wal-dir" => f.wal_dir = Some(PathBuf::from(cur.value_for(flag)?)),
            "--snapshot-every" => {
                f.snapshot_every = parse_num(flag, cur.value_for(flag)?)?;
                self.wal_tuning_set = true;
            }
            "--fsync" => {
                let v = cur.value_for(flag)?;
                f.fsync = FsyncPolicy::parse(v).ok_or_else(|| {
                    ParseError(format!(
                        "unknown fsync policy '{v}' (try always|batch|never)"
                    ))
                })?;
                self.wal_tuning_set = true;
            }
            "--group-commit" => {
                f.group_commit = parse_num(flag, cur.value_for(flag)?)?;
                if f.group_commit == 0 {
                    return err("--group-commit must be >= 1");
                }
                self.wal_tuning_set = true;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The checks that span several service flags.
    fn finish(self) -> Result<ServiceFlags, ParseError> {
        if self.wal_tuning_set && self.flags.wal_dir.is_none() {
            return err("--snapshot-every / --fsync / --group-commit need --wal-dir");
        }
        if self.drift_threshold_set && !self.flags.online {
            return err("--drift-threshold needs --online");
        }
        Ok(self.flags)
    }
}

impl TopologyFlags {
    /// Consumes `flag` and its value if it is a topology flag; `Ok(false)`
    /// leaves it to the command's own flags.
    fn accept(&mut self, flag: &str, cur: &mut Cursor<'_>) -> Result<bool, ParseError> {
        match flag {
            "--traces" => self.traces = parse_path_list(flag, cur.value_for(flag)?)?,
            "--routing" => self.routing = parse_routing(cur.value_for(flag)?)?,
            "--placements" => self.placements = Some(PathBuf::from(cur.value_for(flag)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn parse_serve_opts(cur: &mut Cursor<'_>, cmd: &str) -> Result<ServeOpts, ParseError> {
    let mut trace = None;
    let mut service = ServiceFlagsParser::default();
    let mut batch_max = 256usize;
    let mut batch_bytes = 64 * 1024usize;
    let mut flush_ms = 10.0f64;
    let mut drop_policy = DropPolicy::Defer;
    let mut routing = Routing::HashId;
    let mut boundary_pass = false;
    let mut replan_threshold = None;
    let mut drift = 0.0f64;
    let mut poison_shard = None;
    let mut max_wall_ms = None;
    let mut decisions = None;
    let mut metrics_out = None;
    let mut metrics_every = None;
    let mut listen = None;
    while let Some(flag) = cur.next() {
        if service.accept(flag, cur)? {
            continue;
        }
        match flag {
            "--trace" => trace = Some(PathBuf::from(cur.value_for(flag)?)),
            "--batch-max" => {
                batch_max = parse_num(flag, cur.value_for(flag)?)?;
                if batch_max == 0 {
                    return err("--batch-max must be >= 1");
                }
            }
            "--batch-bytes" => {
                batch_bytes = parse_num(flag, cur.value_for(flag)?)?;
                if batch_bytes == 0 {
                    return err("--batch-bytes must be >= 1");
                }
            }
            "--flush-ms" => {
                flush_ms = parse_num(flag, cur.value_for(flag)?)?;
                if !(flush_ms > 0.0 && flush_ms.is_finite()) {
                    return err("--flush-ms must be positive and finite");
                }
            }
            "--drop-policy" => {
                let v = cur.value_for(flag)?;
                drop_policy = DropPolicy::parse(v).ok_or_else(|| {
                    ParseError(format!(
                        "unknown drop policy '{v}' (try drop-newest|drop-oldest|defer)"
                    ))
                })?;
            }
            "--routing" => routing = parse_routing(cur.value_for(flag)?)?,
            "--boundary-pass" => boundary_pass = true,
            "--replan-threshold" => {
                let t: f64 = parse_num(flag, cur.value_for(flag)?)?;
                if !(t > 0.0 && t.is_finite()) {
                    return err("--replan-threshold must be positive and finite");
                }
                replan_threshold = Some(t);
            }
            "--drift" => {
                drift = parse_num(flag, cur.value_for(flag)?)?;
                if !(0.0..=1.0).contains(&drift) {
                    return err("--drift must be in [0,1]");
                }
            }
            "--poison-shard" => poison_shard = Some(parse_num(flag, cur.value_for(flag)?)?),
            "--max-wall-ms" => max_wall_ms = Some(parse_num(flag, cur.value_for(flag)?)?),
            "--decisions" => decisions = Some(PathBuf::from(cur.value_for(flag)?)),
            "--metrics-out" => metrics_out = Some(PathBuf::from(cur.value_for(flag)?)),
            "--metrics-every" => {
                let n: u64 = parse_num(flag, cur.value_for(flag)?)?;
                if n == 0 {
                    return err("--metrics-every must be >= 1");
                }
                metrics_every = Some(n);
            }
            "--listen" => listen = Some(cur.value_for(flag)?.to_string()),
            _ => return err(format!("unknown flag for {cmd}: '{flag}'")),
        }
    }
    let Some(trace) = trace else {
        return err(format!("{cmd} requires --trace"));
    };
    let service = service.finish()?;
    if let Some(s) = poison_shard {
        if s >= service.shards {
            return err(format!(
                "--poison-shard {s} out of range (shards {})",
                service.shards
            ));
        }
    }
    if metrics_every.is_some() && metrics_out.is_none() {
        return err("--metrics-every needs --metrics-out");
    }
    if service.online && boundary_pass {
        return err("--online and --boundary-pass are incompatible (the rescue overlay is a batch construct)");
    }
    if listen.is_some() {
        if cmd == "replay" {
            return err("--listen only applies to serve (replay is a deterministic re-run)");
        }
        if drift > 0.0 {
            return err("--listen takes events from the network; put --drift on `mbta send`");
        }
        if replan_threshold.is_some() {
            return err(
                "--replan-threshold needs a trace-driven run (network serve never re-plans)",
            );
        }
    }
    Ok(ServeOpts {
        trace,
        service,
        batch_max,
        batch_bytes,
        flush_ms,
        drop_policy,
        routing,
        boundary_pass,
        replan_threshold,
        drift,
        poison_shard,
        max_wall_ms,
        decisions,
        metrics_out,
        metrics_every,
        listen,
    })
}

fn parse_follow_opts(cur: &mut Cursor<'_>) -> Result<FollowOpts, ParseError> {
    let mut trace = None;
    let mut wal_dir = None;
    let mut listen = None;
    let mut query_listen = None;
    let mut heartbeat_ms = 1_000u64;
    let mut poll_ms = 20u64;
    let mut max_wait_ms = 10_000u64;
    while let Some(flag) = cur.next() {
        match flag {
            "--trace" => trace = Some(PathBuf::from(cur.value_for(flag)?)),
            "--wal-dir" => wal_dir = Some(PathBuf::from(cur.value_for(flag)?)),
            "--listen" => listen = Some(cur.value_for(flag)?.to_string()),
            "--query-listen" => query_listen = Some(cur.value_for(flag)?.to_string()),
            "--heartbeat-ms" => {
                heartbeat_ms = parse_num(flag, cur.value_for(flag)?)?;
                if heartbeat_ms == 0 {
                    return err("--heartbeat-ms must be >= 1");
                }
            }
            "--poll-ms" => {
                poll_ms = parse_num(flag, cur.value_for(flag)?)?;
                if poll_ms == 0 {
                    return err("--poll-ms must be >= 1");
                }
            }
            "--max-wait-ms" => max_wait_ms = parse_num(flag, cur.value_for(flag)?)?,
            _ => return err(format!("unknown flag for follow: '{flag}'")),
        }
    }
    let Some(trace) = trace else {
        return err("follow requires --trace");
    };
    let Some(wal_dir) = wal_dir else {
        return err("follow requires --wal-dir");
    };
    Ok(FollowOpts {
        trace,
        wal_dir,
        listen,
        query_listen,
        heartbeat_ms,
        poll_ms,
        max_wait_ms,
    })
}

fn parse_send_opts(cur: &mut Cursor<'_>) -> Result<SendOpts, ParseError> {
    let mut addr = None;
    let mut trace = None;
    let mut batch = 64usize;
    let mut namespace = 0u32;
    let mut drift = 0.0f64;
    let mut status = false;
    let mut connect_wait_ms = 5_000u64;
    while let Some(flag) = cur.next() {
        match flag {
            "--addr" => addr = Some(cur.value_for(flag)?.to_string()),
            "--trace" => trace = Some(PathBuf::from(cur.value_for(flag)?)),
            "--batch" => {
                batch = parse_num(flag, cur.value_for(flag)?)?;
                if batch == 0 {
                    return err("--batch must be >= 1");
                }
            }
            "--namespace" => namespace = parse_num(flag, cur.value_for(flag)?)?,
            "--drift" => {
                drift = parse_num(flag, cur.value_for(flag)?)?;
                if !(0.0..=1.0).contains(&drift) {
                    return err("--drift must be in [0,1]");
                }
            }
            "--status" => status = true,
            "--connect-wait-ms" => connect_wait_ms = parse_num(flag, cur.value_for(flag)?)?,
            _ => return err(format!("unknown flag for send: '{flag}'")),
        }
    }
    let Some(addr) = addr else {
        return err("send requires --addr");
    };
    if status && trace.is_some() {
        return err("--status queries the endpoint; drop --trace");
    }
    if !status && trace.is_none() {
        return err("send requires --trace (or --status)");
    }
    Ok(SendOpts {
        addr,
        trace,
        batch,
        namespace,
        drift,
        status,
        connect_wait_ms,
    })
}

fn parse_path_list(flag: &str, v: &str) -> Result<Vec<PathBuf>, ParseError> {
    let paths: Vec<PathBuf> = v
        .split(',')
        .map(|s| s.trim())
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        return err(format!("{flag} needs a comma list of paths"));
    }
    Ok(paths)
}

fn parse_shard_worker_opts(cur: &mut Cursor<'_>) -> Result<ShardWorkerOpts, ParseError> {
    let mut topology = TopologyFlags::default();
    let mut service = ServiceFlagsParser::default();
    let mut shard = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut linger_ms = 3_000u64;
    let mut decisions_dir = None;
    while let Some(flag) = cur.next() {
        if topology.accept(flag, cur)? || service.accept(flag, cur)? {
            continue;
        }
        match flag {
            "--shard" => shard = Some(parse_num(flag, cur.value_for(flag)?)?),
            "--listen" => listen = cur.value_for(flag)?.to_string(),
            "--linger-ms" => linger_ms = parse_num(flag, cur.value_for(flag)?)?,
            "--decisions-dir" => decisions_dir = Some(PathBuf::from(cur.value_for(flag)?)),
            _ => return err(format!("unknown flag for shard-worker: '{flag}'")),
        }
    }
    if topology.traces.is_empty() {
        return err("shard-worker requires --traces");
    }
    let Some(shard) = shard else {
        return err("shard-worker requires --shard");
    };
    if !service.shards_set {
        return err("shard-worker requires --shards");
    }
    let service = service.finish()?;
    if shard >= service.shards {
        return err(format!(
            "--shard {shard} out of range for --shards {}",
            service.shards
        ));
    }
    Ok(ShardWorkerOpts {
        topology,
        service,
        shard,
        listen,
        linger_ms,
        decisions_dir,
    })
}

fn parse_route_opts(cur: &mut Cursor<'_>) -> Result<RouteOpts, ParseError> {
    let mut topology = TopologyFlags::default();
    let mut owners: Option<Vec<String>> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut save_placements = None;
    let mut queue_cap = 4096usize;
    let mut batch = 128usize;
    let mut owner_retry_ms = 2_000u64;
    let mut report_wait_ms = 10_000u64;
    while let Some(flag) = cur.next() {
        if topology.accept(flag, cur)? {
            continue;
        }
        match flag {
            "--owners" => {
                let list: Vec<String> = cur
                    .value_for(flag)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if list.is_empty() {
                    return err("--owners needs a comma list of addresses");
                }
                owners = Some(list);
            }
            "--listen" => listen = cur.value_for(flag)?.to_string(),
            "--save-placements" => save_placements = Some(PathBuf::from(cur.value_for(flag)?)),
            "--queue-cap" => {
                queue_cap = parse_num(flag, cur.value_for(flag)?)?;
                if queue_cap == 0 {
                    return err("--queue-cap must be >= 1");
                }
            }
            "--batch" => {
                batch = parse_num(flag, cur.value_for(flag)?)?;
                if batch == 0 {
                    return err("--batch must be >= 1");
                }
            }
            "--owner-retry-ms" => owner_retry_ms = parse_num(flag, cur.value_for(flag)?)?,
            "--report-wait-ms" => report_wait_ms = parse_num(flag, cur.value_for(flag)?)?,
            _ => return err(format!("unknown flag for route: '{flag}'")),
        }
    }
    if topology.traces.is_empty() {
        return err("route requires --traces");
    }
    let Some(owners) = owners else {
        return err("route requires --owners");
    };
    Ok(RouteOpts {
        topology,
        owners,
        listen,
        save_placements,
        queue_cap,
        batch,
        owner_retry_ms,
        report_wait_ms,
    })
}

/// Parses a full command line (without `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut cur = Cursor { args, pos: 0 };
    let Some(cmd) = cur.next() else {
        return err("no command given");
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => {
            let mut profile = None;
            let mut workers = 1_000usize;
            let mut tasks = 500usize;
            let mut degree = 8.0f64;
            let mut dims = 8usize;
            let mut seed = 42u64;
            let mut out = None;
            while let Some(flag) = cur.next() {
                match flag {
                    "--profile" => profile = Some(parse_profile(cur.value_for(flag)?)?),
                    "--workers" => workers = parse_num(flag, cur.value_for(flag)?)?,
                    "--tasks" => tasks = parse_num(flag, cur.value_for(flag)?)?,
                    "--degree" => degree = parse_num(flag, cur.value_for(flag)?)?,
                    "--dims" => dims = parse_num(flag, cur.value_for(flag)?)?,
                    "--seed" => seed = parse_num(flag, cur.value_for(flag)?)?,
                    "--out" => out = Some(PathBuf::from(cur.value_for(flag)?)),
                    _ => return err(format!("unknown flag for gen: '{flag}'")),
                }
            }
            let Some(profile) = profile else {
                return err("gen requires --profile");
            };
            let Some(out) = out else {
                return err("gen requires --out");
            };
            Ok(Command::Gen {
                profile,
                workers,
                tasks,
                degree,
                dims,
                seed,
                out,
            })
        }
        "stats" => {
            let Some(file) = cur.next() else {
                return err("stats requires a file");
            };
            Ok(Command::Stats {
                file: PathBuf::from(file),
            })
        }
        "solve" => {
            // `solve --inject-faults` runs on synthetic instances and takes
            // no file; every other form requires one, so the positional is
            // only consumed when the next token is not a flag.
            let file = match cur.peek() {
                Some(tok) if !tok.starts_with("--") => {
                    cur.next();
                    Some(PathBuf::from(tok))
                }
                _ => None,
            };
            let mut algorithm = Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            };
            let mut combiner = Combiner::balanced();
            let mut pairs = false;
            let mut deadline_ms: Option<u64> = None;
            let mut fallback: Option<FallbackMode> = None;
            let mut inject_faults = false;
            let mut instances = 1_000usize;
            let mut seed = 0u64;
            let mut campaign_only_flag: Option<&str> = None;
            while let Some(flag) = cur.next() {
                match flag {
                    "--algorithm" => algorithm = parse_algorithm(cur.value_for(flag)?)?,
                    "--combiner" => combiner = parse_combiner(cur.value_for(flag)?)?,
                    "--pairs" => pairs = true,
                    "--deadline-ms" => deadline_ms = Some(parse_num(flag, cur.value_for(flag)?)?),
                    "--fallback" => fallback = Some(parse_fallback(cur.value_for(flag)?)?),
                    "--inject-faults" => inject_faults = true,
                    "--instances" => {
                        campaign_only_flag = Some(flag);
                        instances = parse_num(flag, cur.value_for(flag)?)?;
                        if instances == 0 {
                            return err("--instances must be >= 1");
                        }
                    }
                    "--seed" => {
                        campaign_only_flag = Some(flag);
                        seed = parse_num(flag, cur.value_for(flag)?)?;
                    }
                    _ => return err(format!("unknown flag for solve: '{flag}'")),
                }
            }
            if inject_faults {
                if file.is_some() {
                    return err("--inject-faults generates its own instances; drop the file");
                }
                return Ok(Command::FaultCampaign {
                    instances,
                    deadline_ms: deadline_ms.unwrap_or(50),
                    seed,
                });
            }
            if let Some(flag) = campaign_only_flag {
                return err(format!("{flag} only applies with --inject-faults"));
            }
            let Some(file) = file else {
                return err("solve requires a file (or --inject-faults)");
            };
            Ok(Command::Solve {
                file,
                algorithm,
                combiner,
                pairs,
                deadline_ms,
                fallback,
            })
        }
        "gen-trace" => {
            let mut profile = Profile::Uniform;
            let mut workers = 1_000usize;
            let mut tasks = 500usize;
            let mut degree = 8.0f64;
            let mut dims = 8usize;
            let mut seed = 42u64;
            let mut horizon = 50.0f64;
            let mut repeats = 4u32;
            let mut out = None;
            while let Some(flag) = cur.next() {
                match flag {
                    "--profile" => profile = parse_profile(cur.value_for(flag)?)?,
                    "--workers" => workers = parse_num(flag, cur.value_for(flag)?)?,
                    "--tasks" => tasks = parse_num(flag, cur.value_for(flag)?)?,
                    "--degree" => degree = parse_num(flag, cur.value_for(flag)?)?,
                    "--dims" => dims = parse_num(flag, cur.value_for(flag)?)?,
                    "--seed" => seed = parse_num(flag, cur.value_for(flag)?)?,
                    "--horizon" => {
                        horizon = parse_num(flag, cur.value_for(flag)?)?;
                        if !(horizon > 0.0 && horizon.is_finite()) {
                            return err("--horizon must be positive and finite");
                        }
                    }
                    "--repeats" => {
                        repeats = parse_num(flag, cur.value_for(flag)?)?;
                        if repeats == 0 {
                            return err("--repeats must be >= 1");
                        }
                    }
                    "--out" => out = Some(PathBuf::from(cur.value_for(flag)?)),
                    _ => return err(format!("unknown flag for gen-trace: '{flag}'")),
                }
            }
            let Some(out) = out else {
                return err("gen-trace requires --out");
            };
            Ok(Command::GenTrace {
                profile,
                workers,
                tasks,
                degree,
                dims,
                seed,
                horizon,
                repeats,
                out,
            })
        }
        "serve" => Ok(Command::Serve(parse_serve_opts(&mut cur, "serve")?)),
        "plan-stats" => {
            let mut trace = None;
            let mut shards = vec![2usize, 4, 8];
            while let Some(flag) = cur.next() {
                match flag {
                    "--trace" => trace = Some(PathBuf::from(cur.value_for(flag)?)),
                    "--shards" => {
                        let v = cur.value_for(flag)?;
                        shards = v
                            .split(',')
                            .map(|s| parse_num::<usize>(flag, s.trim()))
                            .collect::<Result<Vec<_>, _>>()?;
                        if shards.is_empty() || shards.contains(&0) {
                            return err("--shards needs a comma list of counts >= 1");
                        }
                    }
                    _ => return err(format!("unknown flag for plan-stats: '{flag}'")),
                }
            }
            let Some(trace) = trace else {
                return err("plan-stats requires --trace");
            };
            Ok(Command::PlanStats { trace, shards })
        }
        "replay" => Ok(Command::Replay(parse_serve_opts(&mut cur, "replay")?)),
        "follow" => Ok(Command::Follow(parse_follow_opts(&mut cur)?)),
        "send" => Ok(Command::Send(parse_send_opts(&mut cur)?)),
        "shard-worker" => Ok(Command::ShardWorker(parse_shard_worker_opts(&mut cur)?)),
        "route" => Ok(Command::Route(parse_route_opts(&mut cur)?)),
        "recover" => {
            let mut trace = None;
            let mut wal_dir = None;
            while let Some(flag) = cur.next() {
                match flag {
                    "--trace" => trace = Some(PathBuf::from(cur.value_for(flag)?)),
                    "--wal-dir" => wal_dir = Some(PathBuf::from(cur.value_for(flag)?)),
                    _ => return err(format!("unknown flag for recover: '{flag}'")),
                }
            }
            let Some(trace) = trace else {
                return err("recover requires --trace");
            };
            let Some(wal_dir) = wal_dir else {
                return err("recover requires --wal-dir");
            };
            Ok(Command::Recover { trace, wal_dir })
        }
        "sweep" => {
            let Some(file) = cur.next() else {
                return err("sweep requires a file");
            };
            let mut steps = 11usize;
            while let Some(flag) = cur.next() {
                match flag {
                    "--steps" => {
                        steps = parse_num(flag, cur.value_for(flag)?)?;
                        if steps < 2 {
                            return err("--steps must be >= 2");
                        }
                    }
                    _ => return err(format!("unknown flag for sweep: '{flag}'")),
                }
            }
            Ok(Command::Sweep {
                file: PathBuf::from(file),
                steps,
            })
        }
        "maxmin" => {
            let Some(file) = cur.next() else {
                return err("maxmin requires a file");
            };
            let mut combiner = Combiner::balanced();
            while let Some(flag) = cur.next() {
                match flag {
                    "--combiner" => combiner = parse_combiner(cur.value_for(flag)?)?,
                    _ => return err(format!("unknown flag for maxmin: '{flag}'")),
                }
            }
            Ok(Command::MaxMin {
                file: PathBuf::from(file),
                combiner,
            })
        }
        "budget" => {
            let Some(file) = cur.next() else {
                return err("budget requires a file");
            };
            let mut limit = None;
            let mut combiner = Combiner::balanced();
            let mut iters = 20u32;
            while let Some(flag) = cur.next() {
                match flag {
                    "--limit" => {
                        let v: f64 = parse_num(flag, cur.value_for(flag)?)?;
                        if !(v.is_finite() && v >= 0.0) {
                            return err("--limit must be finite and >= 0");
                        }
                        limit = Some(v);
                    }
                    "--combiner" => combiner = parse_combiner(cur.value_for(flag)?)?,
                    "--iters" => iters = parse_num(flag, cur.value_for(flag)?)?,
                    _ => return err(format!("unknown flag for budget: '{flag}'")),
                }
            }
            let Some(limit) = limit else {
                return err("budget requires --limit");
            };
            Ok(Command::Budget {
                file: PathBuf::from(file),
                limit,
                combiner,
                iters,
            })
        }
        "online" => {
            let Some(file) = cur.next() else {
                return err("online requires a file");
            };
            let mut policy = OnlinePolicy::Greedy;
            let mut order_kind = "random".to_string();
            let mut seed = 0u64;
            while let Some(flag) = cur.next() {
                match flag {
                    "--policy" => {
                        policy = match cur.value_for(flag)? {
                            "greedy" => OnlinePolicy::Greedy,
                            "ranking" => OnlinePolicy::Ranking { seed: 0 },
                            "twophase" => OnlinePolicy::TwoPhase {
                                sample_fraction: 0.5,
                                threshold_quantile: 0.5,
                            },
                            "threshold" => OnlinePolicy::RandomThreshold { seed: 0 },
                            other => return err(format!("unknown policy '{other}'")),
                        }
                    }
                    "--order" => order_kind = cur.value_for(flag)?.to_string(),
                    "--seed" => seed = parse_num(flag, cur.value_for(flag)?)?,
                    _ => return err(format!("unknown flag for online: '{flag}'")),
                }
            }
            // Late-bind the seed into the seeded variants.
            policy = match policy {
                OnlinePolicy::Ranking { .. } => OnlinePolicy::Ranking { seed },
                OnlinePolicy::RandomThreshold { .. } => OnlinePolicy::RandomThreshold { seed },
                p => p,
            };
            let order = match order_kind.as_str() {
                "id" => ArrivalOrder::ById,
                "random" => ArrivalOrder::Random { seed },
                "best-first" => ArrivalOrder::BestFirst,
                "best-last" => ArrivalOrder::BestLast,
                other => return err(format!("unknown order '{other}'")),
            };
            Ok(Command::Online {
                file: PathBuf::from(file),
                policy,
                order,
            })
        }
        "report" => {
            let Some(file) = cur.next() else {
                return err("report requires a file");
            };
            let mut algorithm = Algorithm::ExactMB {
                algo: PathAlgo::Dijkstra,
            };
            let mut combiner = Combiner::balanced();
            let mut top = 10usize;
            while let Some(flag) = cur.next() {
                match flag {
                    "--algorithm" => algorithm = parse_algorithm(cur.value_for(flag)?)?,
                    "--combiner" => combiner = parse_combiner(cur.value_for(flag)?)?,
                    "--top" => top = parse_num(flag, cur.value_for(flag)?)?,
                    _ => return err(format!("unknown flag for report: '{flag}'")),
                }
            }
            Ok(Command::Report {
                file: PathBuf::from(file),
                algorithm,
                combiner,
                top,
            })
        }
        "topk" => {
            let Some(file) = cur.next() else {
                return err("topk requires a file");
            };
            let mut k = 5usize;
            let mut combiner = Combiner::balanced();
            while let Some(flag) = cur.next() {
                match flag {
                    "--k" => {
                        k = parse_num(flag, cur.value_for(flag)?)?;
                        if k == 0 || k > 100 {
                            return err("--k must be in 1..=100");
                        }
                    }
                    "--combiner" => combiner = parse_combiner(cur.value_for(flag)?)?,
                    _ => return err(format!("unknown flag for topk: '{flag}'")),
                }
            }
            Ok(Command::TopK {
                file: PathBuf::from(file),
                k,
                combiner,
            })
        }
        other => err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_cluster_commands() {
        let cmd = parse(&sv(&[
            "shard-worker",
            "--traces",
            "a.trace,b.trace",
            "--shard",
            "1",
            "--shards",
            "4",
            "--routing",
            "min-cut",
            "--wal-dir",
            "wal",
            "--group-commit",
            "8",
        ]))
        .unwrap();
        let Command::ShardWorker(o) = cmd else {
            panic!("wrong command: {cmd:?}");
        };
        assert_eq!(
            o.topology.traces,
            vec![PathBuf::from("a.trace"), PathBuf::from("b.trace")]
        );
        assert_eq!((o.shard, o.service.shards), (1, 4));
        assert_eq!(o.topology.routing, Routing::MinCut);
        assert_eq!(o.service.group_commit, 8);
        assert_eq!(o.listen, "127.0.0.1:0");

        let cmd = parse(&sv(&[
            "route",
            "--traces",
            "a.trace",
            "--owners",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--owner-retry-ms",
            "500",
        ]))
        .unwrap();
        let Command::Route(o) = cmd else {
            panic!("wrong command: {cmd:?}");
        };
        assert_eq!(o.owners, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(o.owner_retry_ms, 500);

        // Validation: shard range, required flags, wal-gated flags.
        assert!(parse(&sv(&[
            "shard-worker",
            "--traces",
            "t",
            "--shard",
            "4",
            "--shards",
            "4"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "shard-worker",
            "--traces",
            "t",
            "--shard",
            "0",
            "--shards",
            "2",
            "--group-commit",
            "4"
        ]))
        .is_err());
        assert!(parse(&sv(&["route", "--traces", "t"])).is_err());
        assert!(parse(&sv(&["route", "--owners", "x:1"])).is_err());
    }

    /// `serve`, `replay` and `shard-worker` share one parser for the
    /// service flags: every row gives all three the same `ServiceFlags`
    /// or the same error text.
    #[test]
    fn service_flags_parse_alike_on_every_command() {
        fn service_flags(cmd: &str, flags: &[&str]) -> Result<ServiceFlags, ParseError> {
            let mut argv = match cmd {
                "shard-worker" => sv(&[cmd, "--traces", "t", "--shard", "0", "--shards", "4"]),
                _ => sv(&[cmd, "--trace", "t"]),
            };
            argv.extend(sv(flags));
            match parse(&argv)? {
                Command::Serve(o) | Command::Replay(o) => Ok(o.service),
                Command::ShardWorker(o) => Ok(o.service),
                other => panic!("wrong command: {other:?}"),
            }
        }
        // (flags, whether they parse)
        let rows: &[(&[&str], bool)] = &[
            (&[], true),
            (&["--shards", "8"], true),
            (&["--shards", "0"], false),
            (&["--threads", "3"], true),
            (&["--threads", "-1"], false),
            (&["--queue-cap", "128"], true),
            (&["--queue-cap", "0"], false),
            (&["--online", "--drift-threshold", "0.35"], true),
            (&["--drift-threshold", "0.1"], false),
            (&["--online", "--drift-threshold", "inf"], false),
            (&["--budget-ms", "0"], true),
            (&["--budget-ms", "20"], true),
            (&["--budget-ms", "-5"], false),
            (&["--wal-dir", "w"], true),
            (&["--wal-dir"], false),
            (&["--wal-dir", "w", "--snapshot-every", "16"], true),
            (&["--snapshot-every", "16"], false),
            (&["--wal-dir", "w", "--fsync", "always"], true),
            (&["--wal-dir", "w", "--fsync", "sometimes"], false),
            (&["--wal-dir", "w", "--group-commit", "8"], true),
            (&["--wal-dir", "w", "--group-commit", "0"], false),
        ];
        for &(flags, ok) in rows {
            let serve = service_flags("serve", flags);
            assert_eq!(serve.is_ok(), ok, "serve {flags:?}: {serve:?}");
            for cmd in ["replay", "shard-worker"] {
                assert_eq!(service_flags(cmd, flags), serve, "{cmd} {flags:?}");
            }
        }
        assert_eq!(service_flags("serve", &[]), Ok(ServiceFlags::default()));
    }

    #[test]
    fn parses_gen() {
        let cmd = parse(&sv(&[
            "gen",
            "--profile",
            "freelance",
            "--workers",
            "100",
            "--out",
            "x.mbta",
        ]))
        .unwrap();
        match cmd {
            Command::Gen {
                profile,
                workers,
                tasks,
                out,
                ..
            } => {
                assert_eq!(profile, Profile::Freelance);
                assert_eq!(workers, 100);
                assert_eq!(tasks, 500); // default
                assert_eq!(out, PathBuf::from("x.mbta"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn gen_requires_profile_and_out() {
        assert!(parse(&sv(&["gen", "--out", "x"])).is_err());
        assert!(parse(&sv(&["gen", "--profile", "uniform"])).is_err());
    }

    #[test]
    fn parses_solve_with_options() {
        let cmd = parse(&sv(&[
            "solve",
            "m.mbta",
            "--algorithm",
            "greedy",
            "--combiner",
            "linear:0.7",
            "--pairs",
        ]))
        .unwrap();
        match cmd {
            Command::Solve {
                algorithm,
                combiner,
                pairs,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::GreedyMB);
                assert_eq!(combiner, Combiner::Linear { lambda: 0.7 });
                assert!(pairs);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_robust_solve_flags() {
        match parse(&sv(&[
            "solve",
            "m.mbta",
            "--deadline-ms",
            "50",
            "--fallback",
            "chain",
        ]))
        .unwrap()
        {
            Command::Solve {
                deadline_ms,
                fallback,
                ..
            } => {
                assert_eq!(deadline_ms, Some(50));
                assert_eq!(fallback, Some(FallbackMode::Chain));
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["solve", "m.mbta", "--fallback", "none"])).unwrap() {
            Command::Solve { fallback, .. } => {
                assert_eq!(fallback, Some(FallbackMode::None));
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["solve", "m.mbta"])).unwrap() {
            Command::Solve {
                deadline_ms,
                fallback,
                ..
            } => {
                assert_eq!(deadline_ms, None);
                assert_eq!(fallback, None);
            }
            _ => panic!("wrong command"),
        }
        // --fallback is value-taking now; bare or unknown values fail.
        assert!(parse(&sv(&["solve", "m.mbta", "--fallback"])).is_err());
        assert!(parse(&sv(&["solve", "m.mbta", "--fallback", "maybe"])).is_err());
    }

    #[test]
    fn parses_gen_trace() {
        match parse(&sv(&[
            "gen-trace",
            "--out",
            "t.trace",
            "--workers",
            "800",
            "--tasks",
            "500",
            "--repeats",
            "4",
            "--horizon",
            "60",
        ]))
        .unwrap()
        {
            Command::GenTrace {
                workers,
                tasks,
                repeats,
                horizon,
                out,
                ..
            } => {
                assert_eq!(workers, 800);
                assert_eq!(tasks, 500);
                assert_eq!(repeats, 4);
                assert_eq!(horizon, 60.0);
                assert_eq!(out, PathBuf::from("t.trace"));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["gen-trace"])).is_err()); // needs --out
        assert!(parse(&sv(&["gen-trace", "--out", "t", "--repeats", "0"])).is_err());
        assert!(parse(&sv(&["gen-trace", "--out", "t", "--horizon", "nan"])).is_err());
    }

    #[test]
    fn parses_serve_and_replay() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--batch-max",
            "256",
            "--flush-ms",
            "10",
            "--shards",
            "4",
            "--threads",
            "2",
            "--drop-policy",
            "drop-oldest",
            "--routing",
            "range",
            "--drift",
            "0.2",
            "--poison-shard",
            "2",
            "--decisions",
            "out.log",
            "--metrics-out",
            "m.prom",
            "--metrics-every",
            "50",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.trace, PathBuf::from("t.trace"));
                assert_eq!(o.batch_max, 256);
                assert_eq!(o.flush_ms, 10.0);
                assert_eq!(o.service.shards, 4);
                assert_eq!(o.service.threads, 2);
                assert_eq!(o.drop_policy, DropPolicy::DropOldest);
                assert_eq!(o.routing, Routing::Range);
                assert_eq!(o.drift, 0.2);
                assert_eq!(o.poison_shard, Some(2));
                assert_eq!(o.decisions, Some(PathBuf::from("out.log")));
                assert_eq!(o.metrics_out, Some(PathBuf::from("m.prom")));
                assert_eq!(o.metrics_every, Some(50));
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["replay", "--trace", "t.trace"])).unwrap() {
            Command::Replay(o) => {
                // Defaults.
                assert_eq!(o.service.shards, 4);
                assert_eq!(
                    o.service.threads, 0,
                    "--threads defaults to host parallelism"
                );
                assert_eq!(o.batch_max, 256);
                assert_eq!(o.drop_policy, DropPolicy::Defer);
                assert_eq!(o.routing, Routing::HashId);
                assert_eq!(o.drift, 0.0);
                assert_eq!(o.metrics_out, None);
                assert_eq!(o.metrics_every, None);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["serve"])).is_err()); // needs --trace
        assert!(parse(&sv(&["serve", "--trace", "t", "--shards", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--drift", "1.5"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--drop-policy", "yolo"])).is_err());
        // Poison shard must be inside the shard range.
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--shards",
            "2",
            "--poison-shard",
            "2"
        ]))
        .is_err());
        // Interval scraping needs a file to scrape into, and a period >= 1.
        assert!(parse(&sv(&["serve", "--trace", "t", "--metrics-every", "5"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--metrics-out",
            "m.prom",
            "--metrics-every",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_partition_flags() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--routing",
            "min-cut",
            "--boundary-pass",
            "--replan-threshold",
            "0.05",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.routing, Routing::MinCut);
                assert!(o.boundary_pass);
                assert_eq!(o.replan_threshold, Some(0.05));
            }
            _ => panic!("wrong command"),
        }
        // Defaults: hash routing, no rescue, no re-planning.
        match parse(&sv(&["replay", "--trace", "t.trace"])).unwrap() {
            Command::Replay(o) => {
                assert!(!o.boundary_pass);
                assert_eq!(o.replan_threshold, None);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["serve", "--trace", "t", "--routing", "mincut"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--replan-threshold", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--replan-threshold", "nan"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--replan-threshold", "-1"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--listen",
            ":1",
            "--replan-threshold",
            "0.1"
        ]))
        .is_err());
    }

    #[test]
    fn parses_online_flags() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--online",
            "--drift-threshold",
            "0.35",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert!(o.service.online);
                assert_eq!(o.service.drift_threshold, 0.35);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: batch mode, threshold present but inert.
        match parse(&sv(&["serve", "--trace", "t.trace"])).unwrap() {
            Command::Serve(o) => {
                assert!(!o.service.online);
                assert_eq!(o.service.drift_threshold, 0.2);
            }
            _ => panic!("wrong command"),
        }
        // `replay` accepts the online flags (a deterministic online re-run).
        match parse(&sv(&["replay", "--trace", "t.trace", "--online"])).unwrap() {
            Command::Replay(o) => assert!(o.service.online),
            _ => panic!("wrong command"),
        }
        // The threshold needs the mode, must be positive/finite, and the
        // rescue overlay is batch-only.
        assert!(parse(&sv(&["serve", "--trace", "t", "--drift-threshold", "0.1"])).is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--online",
            "--drift-threshold",
            "0"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--online",
            "--drift-threshold",
            "inf"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--online",
            "--boundary-pass"
        ]))
        .is_err());
    }

    #[test]
    fn parses_plan_stats() {
        match parse(&sv(&["plan-stats", "--trace", "t.trace"])).unwrap() {
            Command::PlanStats { trace, shards } => {
                assert_eq!(trace, PathBuf::from("t.trace"));
                assert_eq!(shards, vec![2, 4, 8]);
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["plan-stats", "--trace", "t", "--shards", "1,4,16"])).unwrap() {
            Command::PlanStats { shards, .. } => assert_eq!(shards, vec![1, 4, 16]),
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["plan-stats"])).is_err());
        assert!(parse(&sv(&["plan-stats", "--trace", "t", "--shards", "4,0"])).is_err());
        assert!(parse(&sv(&["plan-stats", "--trace", "t", "--shards", "x"])).is_err());
        assert!(parse(&sv(&["plan-stats", "--trace", "t", "--bogus"])).is_err());
    }

    #[test]
    fn parses_durability_flags() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--wal-dir",
            "/tmp/wal",
            "--snapshot-every",
            "16",
            "--fsync",
            "always",
            "--group-commit",
            "8",
        ]))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.service.wal_dir, Some(PathBuf::from("/tmp/wal")));
                assert_eq!(o.service.snapshot_every, 16);
                assert_eq!(o.service.fsync, FsyncPolicy::Always);
                assert_eq!(o.service.group_commit, 8);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: no WAL, batch fsync, snapshot every 64 batches,
        // write-through appends.
        match parse(&sv(&["serve", "--trace", "t.trace"])).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.service.wal_dir, None);
                assert_eq!(o.service.snapshot_every, 64);
                assert_eq!(o.service.fsync, FsyncPolicy::Batch);
                assert_eq!(o.service.group_commit, 1);
            }
            _ => panic!("wrong command"),
        }
        // Durability tuning knobs require the WAL itself.
        assert!(parse(&sv(&["serve", "--trace", "t", "--fsync", "never"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--snapshot-every", "8"])).is_err());
        assert!(parse(&sv(&["serve", "--trace", "t", "--group-commit", "8"])).is_err());
        // A zero window would never flush.
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--wal-dir",
            "/tmp/w",
            "--group-commit",
            "0"
        ]))
        .is_err());
        // And the fsync policy must be a known one.
        assert!(parse(&sv(&[
            "serve",
            "--trace",
            "t",
            "--wal-dir",
            "/tmp/w",
            "--fsync",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn parses_recover() {
        match parse(&sv(&[
            "recover",
            "--trace",
            "t.trace",
            "--wal-dir",
            "/tmp/wal",
        ]))
        .unwrap()
        {
            Command::Recover { trace, wal_dir } => {
                assert_eq!(trace, PathBuf::from("t.trace"));
                assert_eq!(wal_dir, PathBuf::from("/tmp/wal"));
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["recover", "--trace", "t"])).is_err());
        assert!(parse(&sv(&["recover", "--wal-dir", "/tmp/wal"])).is_err());
        assert!(parse(&sv(&[
            "recover",
            "--trace",
            "t",
            "--wal-dir",
            "w",
            "--bogus"
        ]))
        .is_err());
    }

    #[test]
    fn parses_listen_follow_send() {
        match parse(&sv(&[
            "serve",
            "--trace",
            "t.trace",
            "--listen",
            "127.0.0.1:7700",
        ]))
        .unwrap()
        {
            Command::Serve(o) => assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7700")),
            _ => panic!("wrong command"),
        }
        // Network ingress is serve-only, and drift belongs to the sender.
        assert!(parse(&sv(&["replay", "--trace", "t", "--listen", ":1"])).is_err());
        assert!(parse(&sv(&[
            "serve", "--trace", "t", "--listen", ":1", "--drift", "0.2"
        ]))
        .is_err());

        match parse(&sv(&[
            "follow",
            "--trace",
            "t.trace",
            "--wal-dir",
            "/tmp/wal",
            "--listen",
            "127.0.0.1:7700",
            "--query-listen",
            "127.0.0.1:7701",
            "--heartbeat-ms",
            "400",
            "--poll-ms",
            "10",
            "--max-wait-ms",
            "3000",
        ]))
        .unwrap()
        {
            Command::Follow(o) => {
                assert_eq!(o.trace, PathBuf::from("t.trace"));
                assert_eq!(o.wal_dir, PathBuf::from("/tmp/wal"));
                assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7700"));
                assert_eq!(o.query_listen.as_deref(), Some("127.0.0.1:7701"));
                assert_eq!(o.heartbeat_ms, 400);
                assert_eq!(o.poll_ms, 10);
                assert_eq!(o.max_wait_ms, 3000);
            }
            _ => panic!("wrong command"),
        }
        // Defaults.
        match parse(&sv(&["follow", "--trace", "t", "--wal-dir", "w"])).unwrap() {
            Command::Follow(o) => {
                assert_eq!(o.listen, None);
                assert_eq!(o.heartbeat_ms, 1_000);
                assert_eq!(o.poll_ms, 20);
                assert_eq!(o.max_wait_ms, 10_000);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["follow", "--wal-dir", "w"])).is_err());
        assert!(parse(&sv(&["follow", "--trace", "t"])).is_err());
        assert!(parse(&sv(&[
            "follow",
            "--trace",
            "t",
            "--wal-dir",
            "w",
            "--heartbeat-ms",
            "0"
        ]))
        .is_err());

        match parse(&sv(&[
            "send",
            "--addr",
            "127.0.0.1:7700",
            "--trace",
            "t.trace",
            "--batch",
            "32",
            "--drift",
            "0.1",
        ]))
        .unwrap()
        {
            Command::Send(o) => {
                assert_eq!(o.addr, "127.0.0.1:7700");
                assert_eq!(o.trace, Some(PathBuf::from("t.trace")));
                assert_eq!(o.batch, 32);
                assert_eq!(o.drift, 0.1);
                assert!(!o.status);
            }
            _ => panic!("wrong command"),
        }
        match parse(&sv(&["send", "--addr", ":7700", "--status"])).unwrap() {
            Command::Send(o) => assert!(o.status && o.trace.is_none()),
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["send", "--trace", "t"])).is_err()); // needs --addr
        assert!(parse(&sv(&["send", "--addr", ":1"])).is_err()); // trace or status
        assert!(parse(&sv(&["send", "--addr", ":1", "--trace", "t", "--status"])).is_err());
        assert!(parse(&sv(&[
            "send", "--addr", ":1", "--trace", "t", "--batch", "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_fault_campaign() {
        match parse(&sv(&[
            "solve",
            "--inject-faults",
            "--instances",
            "200",
            "--deadline-ms",
            "25",
            "--seed",
            "7",
        ]))
        .unwrap()
        {
            Command::FaultCampaign {
                instances,
                deadline_ms,
                seed,
            } => {
                assert_eq!(instances, 200);
                assert_eq!(deadline_ms, 25);
                assert_eq!(seed, 7);
            }
            _ => panic!("wrong command"),
        }
        // Deadline defaults to the CI smoke budget of 50 ms.
        assert!(matches!(
            parse(&sv(&["solve", "--inject-faults"])).unwrap(),
            Command::FaultCampaign {
                instances: 1000,
                deadline_ms: 50,
                seed: 0,
            }
        ));
        // A file and the campaign are mutually exclusive; campaign-only
        // flags need --inject-faults; plain solve still needs a file.
        assert!(parse(&sv(&["solve", "m.mbta", "--inject-faults"])).is_err());
        assert!(parse(&sv(&["solve", "m.mbta", "--instances", "5"])).is_err());
        assert!(parse(&sv(&["solve", "m.mbta", "--seed", "5"])).is_err());
        assert!(parse(&sv(&["solve"])).is_err());
        assert!(parse(&sv(&["solve", "--inject-faults", "--instances", "0"])).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&sv(&["solve", "f", "--combiner", "linear:1.5"])).is_err());
        assert!(parse(&sv(&["solve", "f", "--algorithm", "nope"])).is_err());
        assert!(parse(&sv(&["gen", "--profile", "nope", "--out", "x"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&sv(&["sweep", "f", "--steps", "1"])).is_err());
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&sv(&[h])).unwrap(), Command::Help);
        }
    }

    #[test]
    fn parses_maxmin_budget_online() {
        assert!(matches!(
            parse(&sv(&["maxmin", "m.mbta", "--combiner", "min"])).unwrap(),
            Command::MaxMin {
                combiner: Combiner::Min,
                ..
            }
        ));
        match parse(&sv(&[
            "budget", "m.mbta", "--limit", "12.5", "--iters", "9",
        ]))
        .unwrap()
        {
            Command::Budget { limit, iters, .. } => {
                assert_eq!(limit, 12.5);
                assert_eq!(iters, 9);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["budget", "m.mbta"])).is_err()); // missing --limit
        match parse(&sv(&[
            "online",
            "m.mbta",
            "--policy",
            "threshold",
            "--order",
            "best-last",
            "--seed",
            "7",
        ]))
        .unwrap()
        {
            Command::Online { policy, order, .. } => {
                assert_eq!(policy, OnlinePolicy::RandomThreshold { seed: 7 });
                assert_eq!(order, ArrivalOrder::BestLast);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["online", "m.mbta", "--policy", "nope"])).is_err());
        assert!(parse(&sv(&["online", "m.mbta", "--order", "nope"])).is_err());
    }

    #[test]
    fn parses_report() {
        match parse(&sv(&[
            "report",
            "m.mbta",
            "--top",
            "5",
            "--algorithm",
            "greedy",
        ]))
        .unwrap()
        {
            Command::Report { top, algorithm, .. } => {
                assert_eq!(top, 5);
                assert_eq!(algorithm, Algorithm::GreedyMB);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_topk() {
        match parse(&sv(&["topk", "m.mbta", "--k", "3"])).unwrap() {
            Command::TopK { k, .. } => assert_eq!(k, 3),
            _ => panic!("wrong command"),
        }
        assert!(parse(&sv(&["topk", "m.mbta", "--k", "0"])).is_err());
        assert!(parse(&sv(&["topk", "m.mbta", "--k", "1000"])).is_err());
    }

    #[test]
    fn all_algorithms_parse() {
        for a in [
            "exact",
            "exact-spfa",
            "greedy",
            "local",
            "quality",
            "worker",
            "random",
            "cardinality",
            "stable",
        ] {
            assert!(parse_algorithm(a).is_ok(), "{a}");
        }
    }
}
