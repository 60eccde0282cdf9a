//! Worker pool for concurrent shard solves.
//!
//! [`ShardPlan`](crate::ShardPlan) produces node-disjoint sub-markets
//! precisely so they can be solved independently; this module is where
//! that independence is cashed in. [`SolvePool`] takes the batch's
//! touched-shard jobs and runs them across OS threads (vendored
//! `crossbeam` scoped threads + MPMC channels), with three properties the
//! dispatch loop depends on:
//!
//! 1. **Work stealing, largest first.** Jobs are sorted by sub-market
//!    edge count descending and dealt round-robin onto per-thread deques.
//!    A worker pops its own deque from the front; when it runs dry it
//!    steals from a sibling's back. Largest-first ordering is the classic
//!    LPT schedule: the big solves start immediately and the small ones
//!    pack around them, so the makespan stays close to the `max(job)`
//!    lower bound.
//! 2. **Deterministic merge.** Workers race, but results are collected
//!    over a channel and re-sorted by shard index before they are handed
//!    back, so the caller applies them in exactly the order the
//!    single-threaded loop would. Under deterministic budgets every solve
//!    is a pure function of its inputs, which makes `--threads N` replay
//!    byte-identical to `--threads 1` for every `N`.
//! 3. **Shared budgets.** The pool never splits a batch budget: callers
//!    put one absolute [`Deadline`](mbta_util::Deadline) into every job's
//!    [`SolveCtl`], and all shards race that same instant — in parallel
//!    mode concurrently, in sequential mode with unused budget carrying
//!    forward to later shards.
//!
//! Each job carries its shard's [`WarmNet`], which keeps the shard's exact
//! optimum across batches (see `mbta_matching::warm`).
//!
//! Telemetry: `mbta_service_pool_queue_depth` (jobs not yet claimed),
//! `mbta_service_pool_steals_total`, and per-thread
//! `mbta_service_pool_thread_busy_ms{thread="i"}` histograms whose spread
//! shows how well stealing balanced the batch.

use mbta_core::engine::{solve_robust, EngineConfig, EngineError, EngineSolution};
use mbta_graph::BipartiteGraph;
use mbta_matching::warm::{WarmNet, WarmStats};
use mbta_matching::Matching;
use mbta_util::SolveCtl;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One shard's exact re-solve, owned or uniquely borrowed so the job can
/// move to a worker thread.
pub struct ShardJob<'g> {
    /// Shard index in the plan (merge key; results come back sorted by it).
    pub shard: usize,
    /// The shard's sub-market graph.
    pub graph: &'g BipartiteGraph,
    /// Active edge weights for the sub-market (inactive edges weigh 0).
    pub weights: Vec<f64>,
    /// The shard's flow network, which the caller keeps between solves.
    pub net: &'g mut WarmNet,
    /// The batch's shared deadline, if any.
    pub ctl: SolveCtl,
}

/// One shard's solve result, as produced by a pool worker.
pub struct ShardOutcome {
    /// Shard index the result belongs to.
    pub shard: usize,
    /// The net's optimum minus its zero-weight edges; `None` when the
    /// repair was cut off (the net resumes it on the next solve).
    pub matching: Option<Matching>,
    /// The net's counters for this solve.
    pub stats: WarmStats,
    /// Wall-clock milliseconds the solve took on its worker.
    pub solve_ms: f64,
}

/// Everything a batch solve produced, plus pool-level accounting.
pub struct BatchSolve {
    /// Per-shard outcomes, sorted by shard index ascending — the caller
    /// merges in this order regardless of which thread finished first.
    pub outcomes: Vec<ShardOutcome>,
    /// Number of jobs a worker took from a sibling's deque.
    pub steals: u64,
}

/// A fixed-width pool of solver threads for batch shard solves.
///
/// The pool is cheap to construct (it stores only the width); threads are
/// scoped to each [`solve`](SolvePool::solve) call so jobs may borrow the
/// shard plan without `'static` gymnastics. Width 1 (or a single job)
/// runs inline on the caller's thread in the order given — byte-for-byte
/// the sequential dispatch path.
///
/// ```
/// use mbta_graph::random::from_edges;
/// use mbta_matching::warm::WarmNet;
/// use mbta_service::pool::{ShardJob, SolvePool};
/// use mbta_util::SolveCtl;
///
/// let g = from_edges(&[1, 1], &[1, 1], &[(0, 0, 0.9, 0.9), (1, 1, 0.5, 0.5)]);
/// let pool = SolvePool::new(2);
/// let mut net = WarmNet::new(&g);
/// let jobs = vec![ShardJob {
///     shard: 0,
///     graph: &g,
///     weights: vec![0.9, 0.5],
///     net: &mut net,
///     ctl: SolveCtl::unlimited(),
/// }];
/// let batch = pool.solve(jobs);
/// assert_eq!(batch.outcomes[0].matching.as_ref().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SolvePool {
    threads: usize,
}

impl SolvePool {
    /// A pool of `threads` workers; `0` means "use the host's available
    /// parallelism" (what the CLI's `--threads` defaults to).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        SolvePool { threads }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves the boundary-rescue market (rebuilt every batch, so no net
    /// to keep) inline with the robust engine chain.
    pub fn solve_one(
        &self,
        graph: &BipartiteGraph,
        weights: &[f64],
        config: &EngineConfig,
    ) -> Result<EngineSolution, EngineError> {
        solve_robust(graph, weights, config)
    }

    /// Solves every job and returns the outcomes sorted by shard index.
    ///
    /// With one worker (or at most one job) this runs inline in the order
    /// the jobs were given; otherwise jobs are scheduled largest-first
    /// with work stealing across `min(threads, jobs)` scoped threads.
    pub fn solve(&self, jobs: Vec<ShardJob<'_>>) -> BatchSolve {
        if self.threads <= 1 || jobs.len() <= 1 {
            return solve_inline(jobs);
        }
        solve_stealing(self.threads, jobs)
    }
}

impl Default for SolvePool {
    /// The CLI default: one worker per available hardware thread.
    fn default() -> Self {
        SolvePool::new(0)
    }
}

/// Sequential path: solve in the order given (the dispatcher passes shards
/// ascending), no threads spawned, no steals possible.
fn solve_inline(jobs: Vec<ShardJob<'_>>) -> BatchSolve {
    let mut outcomes = Vec::with_capacity(jobs.len());
    for job in jobs {
        outcomes.push(run_job(job));
    }
    BatchSolve {
        outcomes,
        steals: 0,
    }
}

/// Parallel path: largest-first deal onto per-thread deques, pop-own-front
/// / steal-sibling-back, results over an MPMC channel.
fn solve_stealing(threads: usize, mut jobs: Vec<ShardJob<'_>>) -> BatchSolve {
    // Largest first (ties broken by shard index so the schedule itself is
    // deterministic even though completion order is not).
    jobs.sort_by_key(|j| (std::cmp::Reverse(j.graph.n_edges()), j.shard));
    let n_jobs = jobs.len();
    let n_workers = threads.min(n_jobs);

    let deques: Vec<Mutex<VecDeque<ShardJob<'_>>>> = (0..n_workers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % n_workers].lock().unwrap().push_back(job);
    }

    let unclaimed = AtomicUsize::new(n_jobs);
    let steals = AtomicU64::new(0);
    mbta_telemetry::gauge_set("mbta_service_pool_queue_depth", n_jobs as f64);

    let (tx, rx) = crossbeam::channel::unbounded::<ShardOutcome>();
    crossbeam::scope(|s| {
        for me in 0..n_workers {
            let tx = tx.clone();
            let deques = &deques;
            let unclaimed = &unclaimed;
            let steals = &steals;
            s.spawn(move |_| {
                let mut busy = 0.0f64;
                loop {
                    // Own deque first (front), then steal a sibling's back.
                    let mut claimed = deques[me].lock().unwrap().pop_front();
                    if claimed.is_none() {
                        for k in 1..n_workers {
                            let victim = (me + k) % n_workers;
                            claimed = deques[victim].lock().unwrap().pop_back();
                            if claimed.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                mbta_telemetry::counter_add("mbta_service_pool_steals_total", 1);
                                break;
                            }
                        }
                    }
                    let Some(job) = claimed else { break };
                    let left = unclaimed.fetch_sub(1, Ordering::Relaxed) - 1;
                    mbta_telemetry::gauge_set("mbta_service_pool_queue_depth", left as f64);
                    let outcome = run_job(job);
                    busy += outcome.solve_ms;
                    // Receiver outlives the scope; send cannot fail.
                    let _ = tx.send(outcome);
                }
                // One observation per worker per batch: the spread across
                // threads is the load-balance signal.
                if mbta_telemetry::enabled() {
                    mbta_telemetry::observe(
                        &format!("mbta_service_pool_thread_busy_ms{{thread=\"{me}\"}}"),
                        busy,
                    );
                }
            });
        }
    })
    .expect("solve pool workers panicked");
    drop(tx);

    let mut outcomes: Vec<ShardOutcome> = rx.iter().collect();
    debug_assert_eq!(outcomes.len(), n_jobs);
    outcomes.sort_by_key(|o| o.shard);
    BatchSolve {
        outcomes,
        steals: steals.into_inner(),
    }
}

/// Runs one job on the current thread, timing it. Edges of weight 0 (how
/// an inactive endpoint reads) are dropped so the shard's state can adopt
/// the optimum.
fn run_job(job: ShardJob<'_>) -> ShardOutcome {
    let start = Instant::now();
    let (mut matching, stats) = job.net.solve(job.graph, &job.weights, &job.ctl);
    if let Some(m) = &mut matching {
        m.edges.retain(|e| job.weights[e.index()] > 0.0);
    }
    ShardOutcome {
        shard: job.shard,
        matching,
        stats,
        solve_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

// The whole point of the pool is moving jobs to worker threads; keep that
// a compile-time guarantee rather than a property of the current field
// set.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardJob<'_>>();
    assert_send::<ShardOutcome>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use mbta_graph::random::{random_bipartite, RandomGraphSpec};
    use mbta_util::Deadline;

    /// A random market with its shard net.
    fn market(seed: u64, workers: usize) -> (BipartiteGraph, Vec<f64>, WarmNet) {
        let g = random_bipartite(
            &RandomGraphSpec {
                n_workers: workers,
                n_tasks: workers * 3 / 4,
                avg_degree: 5.0,
                capacity: 2,
                demand: 2,
            },
            seed,
        );
        let w: Vec<f64> = g.edges().map(|e| 0.5 * (g.rb(e) + g.wb(e))).collect();
        let net = WarmNet::new(&g);
        (g, w, net)
    }

    fn jobs_for<'g>(
        markets: &'g mut [(BipartiteGraph, Vec<f64>, WarmNet)],
        ctl: &SolveCtl,
    ) -> Vec<ShardJob<'g>> {
        markets
            .iter_mut()
            .enumerate()
            .map(|(i, (g, w, net))| ShardJob {
                shard: i,
                graph: g,
                weights: w.clone(),
                net,
                ctl: ctl.clone(),
            })
            .collect()
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        assert!(SolvePool::new(0).threads() >= 1);
        assert_eq!(SolvePool::new(3).threads(), 3);
        assert_eq!(SolvePool::default().threads(), SolvePool::new(0).threads());
    }

    #[test]
    fn parallel_results_match_sequential_and_arrive_in_shard_order() {
        // Uneven sizes so largest-first scheduling and stealing both kick in.
        let mut m1: Vec<_> = (0..6)
            .map(|i| market(100 + i, 20 + 30 * i as usize))
            .collect();
        let mut m4 = m1.clone();
        let unlimited = SolveCtl::unlimited();
        let seq = SolvePool::new(1).solve(jobs_for(&mut m1, &unlimited));
        let par = SolvePool::new(4).solve(jobs_for(&mut m4, &unlimited));
        assert_eq!(seq.steals, 0, "inline path cannot steal");
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.shard, b.shard, "merge order must be shard-ascending");
            let (ma, mb) = (a.matching.as_ref().unwrap(), b.matching.as_ref().unwrap());
            assert_eq!(ma.edges, mb.edges, "shard {}", a.shard);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let mut markets: Vec<_> = (0..2).map(|i| market(7 + i, 40)).collect();
        let batch = SolvePool::new(8).solve(jobs_for(&mut markets, &SolveCtl::unlimited()));
        assert_eq!(batch.outcomes.len(), 2);
        for o in &batch.outcomes {
            assert!(o.matching.is_some());
            assert!(o.solve_ms >= 0.0);
        }
    }

    #[test]
    fn starved_workers_steal() {
        // 8 jobs over 4 workers: deques start with 2 jobs each, and the
        // skewed sizes guarantee some worker drains early and steals.
        let mut markets: Vec<_> = (0..8)
            .map(|i| market(50 + i, if i == 0 { 400 } else { 16 }))
            .collect();
        let mut total_steals = 0;
        for _ in 0..5 {
            let jobs = jobs_for(&mut markets, &SolveCtl::unlimited());
            total_steals += SolvePool::new(4).solve(jobs).steals;
        }
        assert!(total_steals > 0, "no steal in 5 rounds of a skewed batch");
    }

    /// An expired shared deadline cuts every repair off; the nets keep
    /// their pseudo-flows and the next, unlimited batch completes them.
    #[test]
    fn shared_deadline_survives_the_pool_and_repairs_resume() {
        let mut markets: Vec<_> = (0..4).map(|i| market(9 + i, 60)).collect();
        let expired = Deadline::after_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let cut = SolveCtl::unlimited().with_deadline(expired);
        for o in SolvePool::new(4)
            .solve(jobs_for(&mut markets, &cut))
            .outcomes
        {
            assert!(
                o.matching.is_none() && !o.stats.completed,
                "shard {} ran past an expired shared deadline",
                o.shard
            );
        }
        let batch = SolvePool::new(4).solve(jobs_for(&mut markets, &SolveCtl::unlimited()));
        for o in batch.outcomes {
            assert!(o.stats.completed && o.stats.warm, "shard {}", o.shard);
            o.matching.unwrap().validate(&markets[o.shard].0).unwrap();
        }
    }
}
