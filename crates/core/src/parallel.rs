//! Parallel enumeration: one driver that runs the root branches on a shared
//! task pool with mid-branch work donation and reassembles the deterministic
//! sequential clique stream.
//!
//! The paper's algorithms are sequential, but its root branching step (Eq. 1 /
//! Eq. 2) produces a large number of independent branches, which is exactly
//! the structure that shared-memory parallel MCE implementations exploit. One
//! work-stealing pool with sub-branch donation is enough to run them (the
//! single design of Das et al.'s shared-memory parallel MCE). This module
//! wires the branches to `std::thread::scope` scoped threads:
//!
//! * The graph reduction and root ordering are computed **once** into a
//!   shared [`RootPlan`](crate::solver), and the rank-independent output
//!   (graph-reduction cliques, isolated vertices) is emitted once, before any
//!   worker starts.
//! * Each worker owns a private scratch arena
//!   ([`EnumerationState`](crate::EnumerationState)-equivalent), so the
//!   recursion allocates nothing in steady state, and per-worker statistics
//!   are returned from the scoped threads' `JoinHandle`s and merged at join.
//! * A one-thread run stays on the caller's thread, with no pool and no
//!   sequencer.
//!
//! # The task-pool protocol
//!
//! 1. **Claiming.** Workers claim contiguous chunks of root ranks, in rank
//!    order, or donated tasks, which take priority, from a shared `TaskPool`
//!    (the crate-private `pool` module) built on `Mutex` + `Condvar` only.
//! 2. **Donation.** A worker that has run at least a threshold of branch
//!    steps inside its current work item checks a relaxed atomic: are any
//!    peers starving? If so it packages the unexplored sibling candidates of
//!    its *shallowest* splittable frame — the `R` prefix, the `(C, X)`
//!    bitsets, the remaining branch list and a snapshot of the root's local
//!    graph — into a self-contained `BranchTask` and pushes it to the pool.
//!    The donated loop stops once its in-flight child returns.
//! 3. **Stealing.** A starving worker wakes, pops the task and resumes it
//!    through the same allocation-free recursion; stolen tasks can be split
//!    again, so even a single giant root spreads over every idle worker.
//! 4. **Sequencing.** Every work item carries a `(root_rank, SeqKey)` pair.
//!    The rank orders output coarsely; the key linearises the donation tree
//!    within a rank (the `pool` module docs derive why lexicographic key
//!    order equals the sequential emission order). The sequencer holds a
//!    rank's parts until the rank is *complete* — donations are registered
//!    with the sequencer before the task enters the pool, so "parts received
//!    = 1 + donations registered" is an exact completeness test — then emits
//!    them in key order. The output stream is therefore byte-identical to
//!    the sequential one at any thread count.
//!
//! Backpressure: the sequencer parks the cliques of ranks that finish ahead
//! of the stream head, at most `SEQUENCER_BUFFER_CAP` (2¹⁶) of them plus one
//! in-flight rank per worker. Deposits never wait; the pool's backlog gate
//! lets a worker start a fresh rank only while the backlog is within the cap
//! or when the rank is the stream head (the `pool` module docs prove that
//! the gate cannot deadlock).

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use mce_graph::{GraphTopology, VertexId};

use crate::budget::{Budget, BudgetReporter, BudgetState, Outcome};
use crate::config::{ConfigError, SolverConfig};
use crate::pool::{BranchTask, DonationSink, PoolConfig, PoolWork, SeqKey, TaskPool, CHUNK};
use crate::report::{CliqueReporter, CountReporter};
use crate::scratch::WorkerState;
use crate::solver::{RootPlan, Solver};
use crate::stats::EnumerationStats;

// ----------------------------------------------------------------------
// Fault containment
// ----------------------------------------------------------------------

/// A typed failure of a parallel enumeration run.
///
/// The driver catches panics raised inside worker bodies (including
/// panics thrown by the caller's [`CliqueReporter`]): the first fault is
/// recorded, the sibling workers drain their remaining work without
/// executing it, the ordered stream stops at the deterministic prefix
/// emitted before the fault, and the run returns
/// [`EngineError::WorkerPanic`] instead of hanging the scope or poisoning
/// its locks.
#[derive(Debug)]
pub enum EngineError {
    /// The solver configuration was rejected at validation.
    Config(ConfigError),
    /// A worker thread (or the reporter it drove) panicked mid-run.
    WorkerPanic {
        /// The panic payload, stringified (`&str` / `String` payloads are
        /// carried verbatim).
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => e.fmt(f),
            EngineError::WorkerPanic { detail } => {
                write!(f, "enumeration worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::WorkerPanic { .. } => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

/// Stringifies a panic payload (the common `&str` / `String` cases verbatim).
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// First-fault-wins panic collector shared by a worker fleet. Poison
/// recovery everywhere: a fault cell must stay usable precisely when
/// something already went wrong.
struct FaultCell(Mutex<Option<String>>);

impl FaultCell {
    fn new() -> Self {
        FaultCell(Mutex::new(None))
    }

    fn record(&self, detail: String) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(detail);
        }
    }

    fn record_payload(&self, payload: Box<dyn Any + Send>) {
        self.record(panic_detail(payload.as_ref()));
    }

    fn is_set(&self) -> bool {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    fn take(&self) -> Option<String> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

// ----------------------------------------------------------------------
// Progress observation
// ----------------------------------------------------------------------

/// Live counters of an in-flight enumeration, safe to poll from a monitoring
/// thread (e.g. the CLI's `--progress` reporter). All counters are updated
/// with relaxed atomics; they are informational and never synchronise the
/// enumeration itself.
#[derive(Debug, Default)]
pub struct ProgressCounters {
    /// Total number of root branches of the run (set once at startup).
    pub total_roots: AtomicU64,
    /// Root branches fully processed so far.
    pub roots_done: AtomicU64,
    /// Maximal cliques discovered so far (counted at discovery, which may
    /// run ahead of the ordered output stream).
    pub cliques_found: AtomicU64,
    /// Sub-branch tasks donated to the task pool so far.
    pub splits: AtomicU64,
}

impl ProgressCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Worker-side view of the optional progress counters.
#[derive(Clone, Copy)]
struct ProgressHook<'a>(Option<&'a ProgressCounters>);

impl ProgressHook<'_> {
    fn root_done(&self) {
        if let Some(p) = self.0 {
            p.roots_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn cliques(&self, cliques: u64) {
        if let Some(p) = self.0 {
            p.cliques_found.fetch_add(cliques, Ordering::Relaxed);
        }
    }

    fn split(&self) {
        if let Some(p) = self.0 {
            p.splits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Pass-through reporter that counts every clique into the progress hook at
/// discovery time (so `--progress` style monitors tick even while one giant
/// root branch is still in flight).
struct CountingReporter<'a, R: CliqueReporter + ?Sized> {
    inner: &'a mut R,
    hook: ProgressHook<'a>,
}

impl<R: CliqueReporter + ?Sized> CliqueReporter for CountingReporter<'_, R> {
    fn report(&mut self, clique: &[VertexId]) {
        self.hook.cliques(1);
        self.inner.report(clique);
    }
}

/// The cliques of one work item in discovery order, stored flat (one
/// vertex buffer plus end offsets) so buffering a clique costs no
/// allocation of its own.
#[derive(Default)]
struct Cliques {
    vertices: Vec<VertexId>,
    ends: Vec<usize>,
}

impl Cliques {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[VertexId]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.vertices[start..end])
    }
}

/// Per-task clique buffer: preserves the sequential recursion order of one
/// work item (a root branch or a stolen sub-branch) without sorting
/// anything, ticking the progress counters at discovery time.
struct RankBuffer<'a> {
    cliques: Cliques,
    hook: ProgressHook<'a>,
}

impl<'a> RankBuffer<'a> {
    fn new(hook: ProgressHook<'a>) -> Self {
        RankBuffer {
            cliques: Cliques::default(),
            hook,
        }
    }
}

impl CliqueReporter for RankBuffer<'_> {
    fn report(&mut self, clique: &[VertexId]) {
        self.hook.cliques(1);
        self.cliques.vertices.extend_from_slice(clique);
        self.cliques.ends.push(self.cliques.vertices.len());
    }
}

/// The parts of one root rank collected so far.
#[derive(Default)]
struct RankParts {
    /// `(key, cliques, truncated)` deposits, unsorted until the rank
    /// completes. `truncated` marks a part whose work item was cut short by
    /// the session budget — its cliques are a prefix of that item's
    /// sequential contribution.
    parts: Vec<(SeqKey, Cliques, bool)>,
    /// Donations registered for this rank. A rank is complete when
    /// `parts.len() == donations + 1` (the `+ 1` is the root's own task);
    /// donations are registered *before* their task enters the pool, so the
    /// test is exact.
    donations: usize,
}

impl RankParts {
    fn is_complete(&self) -> bool {
        self.parts.len() == self.donations + 1
    }
}

/// Reorders per-task clique buffers arriving from any worker in any order
/// into the sequential stream: strict root-rank order, and within one rank
/// the donation-tree order encoded by [`SeqKey`].
struct Sequencer<'a, R: CliqueReporter + ?Sized> {
    next: usize,
    pending: BTreeMap<usize, RankParts>,
    /// Total cliques currently parked in `pending`.
    buffered_cliques: usize,
    /// Whether a truncated part reached the stream head: the emitted bytes
    /// end at a clean budget cut and nothing later may follow (the
    /// sequential stream has a gap from that point on).
    closed: bool,
    /// First panic thrown by `out` during emission, if any. Set under the
    /// sequencer lock *instead of* letting the unwind poison it, so sibling
    /// depositors keep draining; the driver converts it into a typed
    /// [`EngineError::WorkerPanic`].
    fault: Option<String>,
    out: &'a mut R,
    /// Largest out-of-order backlog seen after any deposit.
    #[cfg(test)]
    high_water: usize,
}

impl<'a, R: CliqueReporter + ?Sized> Sequencer<'a, R> {
    fn new(out: &'a mut R) -> Self {
        Sequencer {
            next: 0,
            pending: BTreeMap::new(),
            buffered_cliques: 0,
            closed: false,
            fault: None,
            out,
            #[cfg(test)]
            high_water: 0,
        }
    }

    /// Cliques parked for ranks other than the stream head: the backlog the
    /// pool's gate bounds. (The head's own parts wait only for their rank to
    /// complete, never for an earlier rank.)
    fn out_of_order(&self) -> usize {
        let head: usize = self.pending.get(&self.next).map_or(0, |slot| {
            slot.parts.iter().map(|(_, cliques, _)| cliques.len()).sum()
        });
        self.buffered_cliques - head
    }

    /// Records that `rank` will receive one more part than previously known.
    fn register_donation(&mut self, rank: usize) {
        self.pending.entry(rank).or_default().donations += 1;
    }

    /// Adds one task's cliques and emits every now-complete head rank. A
    /// part marked `truncated` was cut short by the session budget: once it
    /// reaches the stream head its (prefix) cliques are emitted and the
    /// stream closes — everything later is discarded, keeping the output an
    /// exact byte-prefix of the full deterministic stream. Returns whether
    /// the head advanced or the stream closed (both free waiting
    /// depositors).
    fn deposit(&mut self, rank: usize, key: SeqKey, cliques: Cliques, truncated: bool) -> bool {
        if self.closed {
            return true; // nothing further emits; park nothing
        }
        self.buffered_cliques += cliques.len();
        self.pending
            .entry(rank)
            .or_default()
            .parts
            .push((key, cliques, truncated));
        let before = self.next;
        // The caller's reporter runs inside this emission loop and may
        // panic. Catch it *here*, while the depositor still holds the
        // sequencer lock in a controlled frame: the fault is recorded, the
        // stream closes at the bytes already emitted, and the lock is
        // released healthy instead of poisoned — sibling depositors drain
        // through the closed-stream fast path.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.emit_ready())) {
            if self.fault.is_none() {
                self.fault = Some(panic_detail(payload.as_ref()));
            }
            self.closed = true;
        }
        if self.closed {
            // Drop everything still parked; later deposits are dropped on
            // arrival.
            self.pending.clear();
            self.buffered_cliques = 0;
        }
        #[cfg(test)]
        {
            self.high_water = self.high_water.max(self.out_of_order());
        }
        self.next != before || self.closed
    }

    /// Emits every now-complete head rank in key order.
    fn emit_ready(&mut self) {
        while !self.closed
            && self
                .pending
                .get(&self.next)
                .is_some_and(RankParts::is_complete)
        {
            let mut slot = self.pending.remove(&self.next).expect("checked above");
            slot.parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (_, cliques, part_truncated) in &slot.parts {
                self.buffered_cliques -= cliques.len();
                for clique in cliques.iter() {
                    self.out.report(clique);
                }
                if *part_truncated {
                    self.closed = true;
                    break;
                }
            }
            if self.closed {
                break;
            }
            self.next += 1;
        }
    }
}

/// Out-of-order cliques the sequencer may park before the pool's gate holds
/// back fresh root ranks. Bounds the driver's memory at roughly this many
/// cliques (plus one in-flight rank per worker) instead of the full result
/// set when one early root branch is much slower than the rest.
const SEQUENCER_BUFFER_CAP: usize = 1 << 16;

/// Streams maximal cliques to `reporter` in a deterministic order that is
/// independent of the thread count: the rank-independent output first
/// (graph-reduction cliques, then isolated vertices under edge-oriented
/// branching), then the cliques of root rank 0, rank 1, … — each rank's
/// cliques in sequential recursion order. The stream is byte-for-byte
/// reproducible for any formatting reporter layered on top, which is what the
/// CLI's golden-output determinism gate enforces.
///
/// Workers claim root ranks and steal donated sub-branches from a shared
/// pool, and a rank-plus-key sequencer reorders their buffered output before
/// it reaches `reporter`. Memory is bounded: at most a fixed cap (currently
/// 2¹⁶) of out-of-order cliques, plus one in-flight rank per worker, are
/// parked instead of the full result set.
pub fn par_enumerate_ordered<G: GraphTopology + Sync, R: CliqueReporter + Send + ?Sized>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    reporter: &mut R,
) -> Result<EnumerationStats, ConfigError> {
    repanic_worker_faults(par_enumerate_ordered_driver(
        g,
        config,
        threads,
        SEQUENCER_BUFFER_CAP,
        PoolConfig::default(),
        None,
        None,
        reporter,
    ))
    .map(|run| run.merged)
}

/// Maps a driver result back to the legacy `ConfigError` signature:
/// configuration errors pass through, worker panics — already drained
/// cleanly by the driver — are re-raised on the caller's thread.
fn repanic_worker_faults<T>(result: Result<T, EngineError>) -> Result<T, ConfigError> {
    match result {
        Ok(run) => Ok(run),
        Err(EngineError::Config(e)) => Err(e),
        Err(EngineError::WorkerPanic { detail }) => resume_unwind(Box::new(detail)),
    }
}

/// Counts maximal cliques using `threads` workers of the ordered driver.
/// Returns the total, the merged statistics (`elapsed` spans the whole
/// call, preparation included) and each worker's own statistics, which make
/// the load balance of a run observable: the per-worker `recursive_calls`
/// (or `busy_time`) shares approach `1 / threads` as donation spreads even a
/// single giant root over every worker. Panics on invalid configurations.
pub fn par_count_with_worker_stats<G: GraphTopology + Sync>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
) -> (u64, EnumerationStats, Vec<EnumerationStats>) {
    let mut counter = CountReporter::new();
    let run = par_enumerate_ordered_driver(
        g,
        config,
        threads,
        SEQUENCER_BUFFER_CAP,
        PoolConfig::default(),
        None,
        None,
        &mut counter,
    );
    let run = repanic_worker_faults(run).expect("invalid solver configuration");
    (counter.count, run.merged, run.per_worker)
}

/// [`par_enumerate_ordered`] under a [`Budget`]: the stream stops at the
/// budget's clique cap, step bound or cancellation, and the emitted bytes are
/// always an exact prefix of the unbudgeted deterministic stream — at any
/// thread count. With `max_cliques = Some(n)` the output is exactly the
/// first `n` cliques of that stream.
///
/// Workers observe the budget between branch steps, so cancellation latency
/// is bounded by one branch step plus the cost of unwinding. `progress`
/// optionally attaches live [`ProgressCounters`]. Returns the run statistics
/// and the [`Outcome`] (`Complete`, or `Truncated` with the first bound that
/// tripped).
pub fn par_enumerate_ordered_budgeted<
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    budget: &Budget,
    progress: Option<&ProgressCounters>,
    reporter: &mut R,
) -> Result<(EnumerationStats, Outcome), ConfigError> {
    let state = BudgetState::new(budget);
    let mut stats = repanic_worker_faults(par_enumerate_ordered_with_state(
        g, config, threads, &state, progress, reporter,
    ))?;
    let outcome = state.outcome();
    if outcome.is_truncated() && stats.terminated_by_budget == 0 {
        // The budget tripped between branching frames (between root ranks, or
        // at the output gate after the last frame finished): charge the run
        // itself so truncated outcomes always report >= 1 abandoned unit.
        stats.terminated_by_budget = 1;
    }
    Ok((stats, outcome))
}

/// [`par_enumerate_ordered_budgeted`] over an existing session
/// [`BudgetState`] (the query layer owns the state so its cancel token can be
/// handed out before the run starts). Applies the clique-cap gate here —
/// after the deterministic sequencer — so callers pass their raw reporter.
pub(crate) fn par_enumerate_ordered_with_state<G, R>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    state: &BudgetState,
    progress: Option<&ProgressCounters>,
    reporter: &mut R,
) -> Result<EnumerationStats, EngineError>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
{
    let mut gated = BudgetReporter::new(reporter, state);
    par_enumerate_ordered_driver(
        g,
        config,
        threads,
        SEQUENCER_BUFFER_CAP,
        PoolConfig::default(),
        progress,
        Some(state),
        &mut gated,
    )
    .map(|run| run.merged)
}

/// The donation sink of the driver: registers every donation with the
/// sequencer (so rank completeness stays exact) before the task becomes
/// visible in the pool.
struct OrderedSink<'s, 'r, R: CliqueReporter + Send + ?Sized> {
    pool: &'s TaskPool,
    sequencer: &'s Mutex<Sequencer<'r, R>>,
    progress: ProgressHook<'s>,
}

impl<R: CliqueReporter + Send + ?Sized> DonationSink for OrderedSink<'_, '_, R> {
    fn hungry(&self) -> bool {
        self.pool.hungry()
    }

    fn step_threshold(&self) -> u32 {
        self.pool.step_threshold()
    }

    fn donate(&self, task: BranchTask) {
        self.sequencer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .register_donation(task.rank);
        self.progress.split();
        self.pool.push(task);
    }
}

/// What one run of the driver returns.
pub(crate) struct DriverRun {
    /// Statistics of the whole run (`elapsed` spans the whole call).
    pub merged: EnumerationStats,
    /// Each worker's own statistics (one entry for a one-thread run).
    pub per_worker: Vec<EnumerationStats>,
    /// Largest out-of-order backlog the sequencer held (0 without one).
    #[cfg(test)]
    pub parked_high_water: usize,
}

/// The driver behind every public entry point: explicit buffer cap, pool
/// tuning and optional progress counters, exposed for tests that force the
/// backpressure or aggressive-splitting paths.
///
/// Fault containment: panics raised by worker bodies or by the caller's
/// reporter are caught, the surviving workers drain, the stream keeps the
/// deterministic prefix emitted before the fault, and the driver returns
/// [`EngineError::WorkerPanic`] carrying the first panic's payload.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_enumerate_ordered_driver<G, R>(
    g: &G,
    config: &SolverConfig,
    threads: usize,
    cap: usize,
    pool_config: PoolConfig,
    progress: Option<&ProgressCounters>,
    budget: Option<&BudgetState>,
    mut reporter: &mut R,
) -> Result<DriverRun, EngineError>
where
    G: GraphTopology + Sync,
    R: CliqueReporter + Send + ?Sized,
{
    let start = Instant::now();
    let threads = threads.max(1);
    let solver = Solver::new(g, *config)?;
    let plan = solver.prepare();
    let total = plan.root_count();
    let hook = ProgressHook(progress);
    if let Some(p) = progress {
        p.total_roots.store(total as u64, Ordering::Relaxed);
    }
    let as_error = |payload: Box<dyn Any + Send>| EngineError::WorkerPanic {
        detail: panic_detail(payload.as_ref()),
    };

    // Rank-independent output first (deterministic given the plan).
    // `&mut reporter` re-borrows through the blanket `&mut R: CliqueReporter`
    // impl so unsized `R` still coerces to `&mut dyn CliqueReporter`. This
    // and the one-thread path below run the caller's reporter on this
    // thread, so a panic here unwinds no scope — but it is still converted
    // to the typed error for a uniform contract.
    let mut merged = catch_unwind(AssertUnwindSafe(|| {
        solver.emit_static(&plan, &mut reporter)
    }))
    .map_err(as_error)?;
    hook.cliques(merged.maximal_cliques);

    if threads == 1 {
        let mut state = WorkerState::new();
        let stats = catch_unwind(AssertUnwindSafe(|| {
            if progress.is_none() {
                return solver.run_ranks(&plan, 0..total, &mut state, None, budget, &mut reporter);
            }
            // Counted per clique (and per chunk of roots) so the counters
            // tick while the run progresses, even inside one giant root.
            let mut counted = CountingReporter {
                inner: &mut *reporter,
                hook,
            };
            let mut stats = EnumerationStats::default();
            for first in (0..total).step_by(CHUNK) {
                let ranks = first..(first + CHUNK).min(total);
                let done = ranks.len() as u64;
                stats.merge(&solver.run_ranks(
                    &plan,
                    ranks,
                    &mut state,
                    None,
                    budget,
                    &mut counted,
                ));
                if let Some(p) = progress {
                    p.roots_done.fetch_add(done, Ordering::Relaxed);
                }
            }
            stats
        }))
        .map_err(as_error)?;
        merged.merge(&stats);
        merged.elapsed = start.elapsed();
        merged.busy_time = merged.elapsed;
        return Ok(DriverRun {
            merged,
            per_worker: vec![stats],
            #[cfg(test)]
            parked_high_water: 0,
        });
    }

    let sequencer = Mutex::new(Sequencer::new(reporter));
    let pool = TaskPool::new(total, threads, cap, pool_config);
    let fault = FaultCell::new();
    let per_worker = pool_workers(
        &solver, &plan, threads, &pool, hook, budget, &sequencer, &fault,
    );
    for stats in &per_worker {
        merged.merge(stats);
    }
    let sequencer = sequencer.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(detail) = sequencer.fault.clone().or_else(|| fault.take()) {
        // The prefix emitted before the fault already reached the caller's
        // reporter; the error reports why the stream stopped there.
        return Err(EngineError::WorkerPanic { detail });
    }
    // A stopped run may leave unclaimed ranks behind; the stream then ends
    // at the head, an exact prefix.
    let stopped = budget.is_some_and(BudgetState::should_stop);
    debug_assert!(
        stopped || sequencer.closed || sequencer.next == total,
        "every rank must have been emitted unless the stream was truncated"
    );
    debug_assert!(stopped || sequencer.closed || sequencer.buffered_cliques == 0);
    merged.elapsed = start.elapsed();
    Ok(DriverRun {
        merged,
        per_worker,
        #[cfg(test)]
        parked_high_water: sequencer.high_water,
    })
}

/// The worker fleet: each worker takes root ranks or donated tasks from the
/// pool until it drains, and deposits every work item's cliques under its
/// `(rank, key)`.
///
/// After a budget stop or a fault the pool hands out no further ranks, but
/// every item already handed out is answered with an empty truncated part,
/// so the sequencer's parts-per-rank accounting stays exact and the stream
/// closes at a clean prefix.
#[allow(clippy::too_many_arguments)]
fn pool_workers<G: GraphTopology + Sync, R: CliqueReporter + Send + ?Sized>(
    solver: &Solver<'_, G>,
    plan: &RootPlan,
    threads: usize,
    pool: &TaskPool,
    hook: ProgressHook<'_>,
    budget: Option<&BudgetState>,
    sequencer: &Mutex<Sequencer<'_, R>>,
    fault: &FaultCell,
) -> Vec<EnumerationStats> {
    let deposit = |rank: usize, key: SeqKey, cliques: Cliques, truncated: bool| {
        // Poison recovery: the sequencer catches reporter panics itself, but
        // a worker unwinding for any other reason while holding the lock must
        // not strand its siblings behind a poisoned mutex.
        let mut seq = sequencer.lock().unwrap_or_else(|e| e.into_inner());
        let advanced = seq.deposit(rank, key, cliques, truncated);
        pool.publish(seq.next, seq.out_of_order());
        drop(seq);
        if advanced {
            pool.wake();
        }
    };
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let deposit = &deposit;
                scope.spawn(move || {
                    let start = Instant::now();
                    let sink = OrderedSink {
                        pool,
                        sequencer,
                        progress: hook,
                    };
                    let mut state = WorkerState::new();
                    let mut stats = EnumerationStats::default();
                    let mut chunk = 0..0;
                    while let Some(work) = pool.next(&mut chunk) {
                        let (rank, key) = match &work {
                            PoolWork::Rank(rank) => (*rank, SeqKey::root()),
                            PoolWork::Task(task) => (task.rank, task.key.clone()),
                        };
                        if fault.is_set() || budget.is_some_and(BudgetState::should_stop) {
                            chunk.start = chunk.end;
                            pool.stop();
                            deposit(rank, key, Cliques::default(), true);
                            continue;
                        }
                        let mut buffer = RankBuffer::new(hook);
                        let run = catch_unwind(AssertUnwindSafe(|| match work {
                            PoolWork::Rank(rank) => {
                                let once = std::iter::once(rank);
                                let s = solver.run_ranks(
                                    plan,
                                    once,
                                    &mut state,
                                    Some(&sink),
                                    budget,
                                    &mut buffer,
                                );
                                hook.root_done();
                                s
                            }
                            PoolWork::Task(task) => solver.run_branch_task(
                                *task,
                                &mut state,
                                &sink,
                                budget,
                                &mut buffer,
                            ),
                        }));
                        match run {
                            Ok(s) => {
                                // Re-check the budget after the run: a
                                // sibling may exhaust the shared budget
                                // between the check above and the solver's
                                // own uncharged between-rank check, in which
                                // case the rank returns empty stats with
                                // `terminated_by_budget == 0` even though it
                                // never ran. Marking a fully-completed item
                                // truncated is harmless — the outcome is
                                // truncated anyway and the closed stream
                                // stays a prefix.
                                let truncated = s.terminated_by_budget > 0
                                    || budget.is_some_and(BudgetState::should_stop);
                                stats.merge(&s);
                                deposit(rank, key, buffer.cliques, truncated);
                            }
                            Err(payload) => {
                                // First fault wins; halt the siblings on the
                                // budget cadence and close the faulted item
                                // with an empty truncated part.
                                fault.record_payload(payload);
                                if let Some(b) = budget {
                                    b.halt_for_fault();
                                }
                                deposit(rank, key, Cliques::default(), true);
                            }
                        }
                    }
                    // `merge` summed per-item busy time but took the max of
                    // per-item wall times; the worker's wall time is the
                    // whole claim loop.
                    stats.elapsed = start.elapsed();
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    fault.record_payload(payload);
                    EnumerationStats::default()
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_maximal_cliques;
    use crate::report::{CliqueLineFormat, CollectReporter, WriterReporter};
    use crate::solver::count_maximal_cliques;
    use mce_graph::Graph;

    fn test_graph() -> Graph {
        // Two overlapping communities plus sparse periphery.
        Graph::from_edges(
            12,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (6, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (9, 11),
            ],
        )
        .unwrap()
    }

    /// A pool configuration that donates at every single branch step,
    /// maximising task fragmentation even on tiny graphs.
    fn aggressive_pool() -> PoolConfig {
        PoolConfig {
            step_threshold: 0,
            always_hungry: true,
        }
    }

    /// The driver with an explicit cap and pool, no progress, no budget.
    fn drive<R: CliqueReporter + Send + ?Sized>(
        g: &Graph,
        cfg: &SolverConfig,
        threads: usize,
        cap: usize,
        pool: PoolConfig,
        reporter: &mut R,
    ) -> Result<DriverRun, EngineError> {
        par_enumerate_ordered_driver(g, cfg, threads, cap, pool, None, None, reporter)
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let g = test_graph();
        let (seq, _) = count_maximal_cliques(&g, &SolverConfig::hbbmc_pp());
        for threads in [1, 2, 4, 7] {
            let (par, stats, per_worker) =
                par_count_with_worker_stats(&g, &SolverConfig::hbbmc_pp(), threads);
            assert_eq!(par, seq, "threads = {threads}");
            assert_eq!(stats.maximal_cliques, seq);
            assert_eq!(per_worker.len(), threads);
        }
    }

    #[test]
    fn parallel_collect_matches_reference() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        par_enumerate_ordered(&g, &SolverConfig::r_degen(), 3, &mut collector).unwrap();
        assert_eq!(collector.into_sorted(), naive_maximal_cliques(&g));
    }

    #[test]
    fn streaming_reporter_sees_every_clique() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g).len() as u64;
        let mut counter = CountReporter::new();
        let stats = par_enumerate_ordered(&g, &SolverConfig::hbbmc_pp(), 4, &mut counter).unwrap();
        assert_eq!(counter.count, expected);
        assert_eq!(stats.maximal_cliques, expected);
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let g = Graph::complete(4);
        let (count, _, per_worker) = par_count_with_worker_stats(&g, &SolverConfig::hbbmc_pp(), 0);
        assert_eq!(count, 1);
        assert_eq!(per_worker.len(), 1);
    }

    #[test]
    fn more_threads_than_roots_is_fine() {
        let g = Graph::complete(3); // one root survives reduction
        for threads in [2, 8, 16] {
            let (count, _, _) = par_count_with_worker_stats(&g, &SolverConfig::hbbmc_pp(), threads);
            assert_eq!(count, 1, "threads = {threads}");
        }
    }

    /// Renders the full ordered stream of `g` to text bytes.
    fn ordered_bytes(g: &Graph, cfg: &SolverConfig, threads: usize) -> Vec<u8> {
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        par_enumerate_ordered(g, cfg, threads, &mut reporter).unwrap();
        reporter.finish().unwrap()
    }

    #[test]
    fn ordered_stream_is_byte_identical_across_threads_and_schedulers() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        assert!(!baseline.is_empty());
        for threads in [2, 4, 7] {
            let bytes = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), threads);
            assert_eq!(bytes, baseline, "threads {threads}");
        }
    }

    #[test]
    fn ordered_stream_with_tiny_buffer_cap_still_matches() {
        // Forces the backlog gate: with cap 0 every worker whose rank is not
        // the stream head waits as soon as one clique is parked.
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for cap in [0usize, 1, 3] {
            let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
            let cfg = SolverConfig::hbbmc_pp();
            drive(&g, &cfg, 4, cap, PoolConfig::default(), &mut reporter).unwrap();
            assert_eq!(reporter.finish().unwrap(), baseline, "cap {cap}");
        }
    }

    /// A vertex `0` adjacent to every vertex of a Moon–Moser graph
    /// `K(3, …, 3)` on `1..=3k`, followed by a path of `tail` vertices. Under
    /// the natural vertex order rank 0 holds all `3^k` cliques of the dense
    /// part (a heavy first rank), and every later rank at most one clique.
    fn heavy_first_rank(k: u32, tail: u32) -> Graph {
        let dense = 3 * k;
        let mut edges: Vec<(u32, u32)> = (1..=dense).map(|v| (0, v)).collect();
        for u in 1..=dense {
            for v in (u + 1)..=dense {
                if (u - 1) / 3 != (v - 1) / 3 {
                    edges.push((u, v));
                }
            }
        }
        for v in (dense + 2)..(dense + 1 + tail) {
            edges.push((v - 1, v));
        }
        Graph::from_edges((dense + 1 + tail) as usize, edges).unwrap()
    }

    #[test]
    fn out_of_order_backlog_stays_within_cap_plus_one_rank_per_worker() {
        let g = heavy_first_rank(6, 2_000);
        let cfg = SolverConfig {
            initial: crate::InitialBranching::Vertex(
                mce_graph::ordering::VertexOrderingKind::Natural,
            ),
            early_termination_t: 0,
            graph_reduction: false,
            ..SolverConfig::r_degen()
        };
        // The largest single-rank output, rank 0 aside: rank 0 is the stream
        // head from the start, so its cliques are never out of order.
        let solver = Solver::new(&g, cfg).unwrap();
        let plan = solver.prepare();
        let mut state = WorkerState::new();
        let rank_output = |rank: usize, state: &mut WorkerState| {
            let mut count = CountReporter::new();
            solver.run_ranks(&plan, std::iter::once(rank), state, None, None, &mut count);
            count.count as usize
        };
        assert_eq!(rank_output(0, &mut state), 729);
        let max_rank = (1..plan.root_count())
            .map(|rank| rank_output(rank, &mut state))
            .max()
            .unwrap();
        let baseline = ordered_bytes(&g, &cfg, 1);
        for pool in [PoolConfig::default(), aggressive_pool()] {
            for threads in [2usize, 4] {
                for cap in [0usize, 1, 3] {
                    let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
                    let run = drive(&g, &cfg, threads, cap, pool, &mut reporter).unwrap();
                    assert_eq!(reporter.finish().unwrap(), baseline);
                    assert!(
                        run.parked_high_water <= cap + threads * max_rank,
                        "{pool:?} x{threads}, cap {cap}: {} parked, bound {}",
                        run.parked_high_water,
                        cap + threads * max_rank
                    );
                }
            }
        }
    }

    #[test]
    fn ordered_splitting_with_forced_fragmentation_still_matches() {
        // Donate at every branch step: the donation tree is as deep and as
        // fragmented as it can get, and the sequence keys must still
        // reassemble the sequential stream exactly.
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for threads in [2, 3, 4, 8] {
            let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
            let cfg = SolverConfig::hbbmc_pp();
            let run = drive(
                &g,
                &cfg,
                threads,
                SEQUENCER_BUFFER_CAP,
                aggressive_pool(),
                &mut reporter,
            )
            .unwrap();
            assert_eq!(reporter.finish().unwrap(), baseline, "threads {threads}");
            assert_eq!(
                run.merged.splits, run.merged.steals,
                "every donation is executed"
            );
        }
    }

    #[test]
    fn forced_fragmentation_actually_splits() {
        // Sanity for the test above: with aggressive settings and several
        // workers the run must produce at least one donation, otherwise the
        // fragmentation test exercises nothing. Use the bare preset — graph
        // reduction and early termination would otherwise resolve this dense
        // instance without any splittable recursion.
        let g = mce_gen::moon_moser(4);
        let mut count = CountReporter::new();
        let cfg = SolverConfig::hbbmc_bare();
        let stats = drive(
            &g,
            &cfg,
            4,
            SEQUENCER_BUFFER_CAP,
            aggressive_pool(),
            &mut count,
        )
        .unwrap()
        .merged;
        assert_eq!(count.count, 81); // 3^4
        assert!(stats.splits > 0, "aggressive pool must split: {stats:?}");
        assert_eq!(stats.splits, stats.steals);
    }

    #[test]
    fn ordered_stream_reports_every_clique() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g);
        let mut collector = CollectReporter::new();
        let stats =
            par_enumerate_ordered(&g, &SolverConfig::hbbmc_pp(), 4, &mut collector).unwrap();
        assert_eq!(collector.into_sorted(), expected);
        assert_eq!(stats.maximal_cliques as usize, expected.len());
    }

    #[test]
    fn ordered_stream_matches_for_vertex_oriented_presets() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::r_degen(), 1);
        for threads in [2, 5] {
            assert_eq!(
                ordered_bytes(&g, &SolverConfig::r_degen(), threads),
                baseline
            );
        }
    }

    #[test]
    fn ordered_stream_rejects_invalid_config() {
        let g = Graph::complete(3);
        let mut cfg = SolverConfig::hbbmc_pp();
        cfg.early_termination_t = 9;
        let mut reporter = CountReporter::new();
        assert!(par_enumerate_ordered(&g, &cfg, 2, &mut reporter).is_err());
    }

    #[test]
    fn progress_counters_reach_final_totals() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g).len() as u64;
        for threads in [1usize, 4] {
            let progress = ProgressCounters::new();
            let mut count = CountReporter::new();
            let cfg = SolverConfig::hbbmc_pp();
            let unlimited = Budget::unlimited();
            par_enumerate_ordered_budgeted(
                &g,
                &cfg,
                threads,
                &unlimited,
                Some(&progress),
                &mut count,
            )
            .unwrap();
            assert_eq!(count.count, expected, "threads {threads}");
            assert_eq!(
                progress.cliques_found.load(Ordering::Relaxed),
                expected,
                "threads {threads}"
            );
            assert_eq!(
                progress.roots_done.load(Ordering::Relaxed),
                progress.total_roots.load(Ordering::Relaxed),
            );
        }
    }

    /// Collects cliques until `remaining` hits zero, then panics on every
    /// further report — the fault-injection reporter of the containment
    /// tests.
    struct PanicAfter {
        collected: Vec<Vec<VertexId>>,
        remaining: usize,
    }

    impl PanicAfter {
        fn new(remaining: usize) -> Self {
            PanicAfter {
                collected: Vec::new(),
                remaining,
            }
        }
    }

    impl CliqueReporter for PanicAfter {
        fn report(&mut self, clique: &[VertexId]) {
            if self.remaining == 0 {
                panic!("injected reporter fault");
            }
            self.remaining -= 1;
            self.collected.push(clique.to_vec());
        }
    }

    #[test]
    fn reporter_panic_returns_typed_error_and_keeps_the_prefix() {
        let g = test_graph();
        let mut baseline = CollectReporter::new();
        par_enumerate_ordered(&g, &SolverConfig::hbbmc_pp(), 1, &mut baseline).unwrap();
        let full = baseline.cliques;
        assert!(full.len() > 4);
        for threads in [1usize, 2, 4] {
            for keep in [0usize, 1, 3] {
                let mut reporter = PanicAfter::new(keep);
                let cfg = SolverConfig::hbbmc_pp();
                let err = drive(
                    &g,
                    &cfg,
                    threads,
                    SEQUENCER_BUFFER_CAP,
                    PoolConfig::default(),
                    &mut reporter,
                )
                .err()
                .expect("the fault must surface");
                match err {
                    EngineError::WorkerPanic { detail } => {
                        assert_eq!(detail, "injected reporter fault")
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
                assert_eq!(
                    reporter.collected,
                    &full[..keep],
                    "x{threads}, keep {keep}: the cliques emitted before the fault are the \
                     deterministic prefix"
                );
            }
        }
    }

    #[test]
    fn splitting_worker_panic_with_forced_fragmentation_does_not_hang() {
        // The panic fires inside `Sequencer::deposit` while ranks and
        // donated tasks are in flight: every handed-out item must still be
        // answered, the pool must drain, and the driver must return the
        // typed error instead of hanging `next()` forever.
        let g = mce_gen::moon_moser(4);
        let cfg = SolverConfig::hbbmc_bare();
        for threads in [2usize, 4] {
            let mut reporter = PanicAfter::new(5);
            let err = drive(
                &g,
                &cfg,
                threads,
                SEQUENCER_BUFFER_CAP,
                aggressive_pool(),
                &mut reporter,
            )
            .err()
            .expect("the fault must surface");
            assert!(matches!(err, EngineError::WorkerPanic { .. }));
            assert_eq!(reporter.collected.len(), 5, "threads {threads}");
        }
    }

    #[test]
    fn unordered_worker_panic_propagates_after_a_clean_drain() {
        // The public entry point re-raises a drained fault on the caller's
        // thread with the original payload.
        let g = test_graph();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut reporter = PanicAfter::new(2);
            let _ = par_enumerate_ordered(&g, &SolverConfig::hbbmc_pp(), 4, &mut reporter);
        }));
        let payload = caught.expect_err("the fault must reach the caller");
        assert_eq!(
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default(),
            "injected reporter fault"
        );
    }

    #[test]
    fn deadline_truncates_to_a_byte_prefix() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        for threads in [1usize, 2, 4] {
            let budget = Budget::within(std::time::Duration::ZERO);
            let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
            let (stats, outcome) = par_enumerate_ordered_budgeted(
                &g,
                &SolverConfig::hbbmc_pp(),
                threads,
                &budget,
                None,
                &mut reporter,
            )
            .unwrap();
            let bytes = reporter.finish().unwrap();
            assert_eq!(
                outcome,
                Outcome::Truncated {
                    reason: crate::TruncationReason::DeadlineExceeded
                },
                "x{threads}"
            );
            assert!(stats.terminated_by_budget >= 1);
            assert_eq!(
                &baseline[..bytes.len()],
                &bytes[..],
                "x{threads}: expired deadline still yields a byte-prefix"
            );
        }
    }

    #[test]
    fn generous_deadline_completes_identically() {
        let g = test_graph();
        let baseline = ordered_bytes(&g, &SolverConfig::hbbmc_pp(), 1);
        let budget = Budget::within(std::time::Duration::from_secs(3600));
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        let (_, outcome) = par_enumerate_ordered_budgeted(
            &g,
            &SolverConfig::hbbmc_pp(),
            4,
            &budget,
            None,
            &mut reporter,
        )
        .unwrap();
        assert_eq!(outcome, Outcome::Complete);
        assert_eq!(reporter.finish().unwrap(), baseline);
    }

    /// A deposit of the given cliques.
    fn part(cliques: &[&[VertexId]]) -> Cliques {
        let mut buffer = RankBuffer::new(ProgressHook(None));
        for clique in cliques {
            buffer.report(clique);
        }
        buffer.cliques
    }

    #[test]
    fn sequencer_reorders_out_of_order_deposits() {
        let mut out = CollectReporter::new();
        let mut seq = Sequencer::new(&mut out);
        seq.deposit(2, SeqKey::root(), part(&[&[2]]), false);
        seq.deposit(0, SeqKey::root(), part(&[&[0]]), false);
        assert_eq!(seq.next, 1);
        seq.deposit(1, SeqKey::root(), part(&[&[1]]), false);
        assert_eq!(seq.next, 3);
        assert!(seq.pending.is_empty());
        assert_eq!(out.cliques, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn sequencer_holds_ranks_until_all_parts_arrive() {
        let mut out = CollectReporter::new();
        let mut seq = Sequencer::new(&mut out);
        // Rank 0 donates twice; parts arrive thief-first and out of key order.
        seq.register_donation(0);
        seq.register_donation(0);
        let first = SeqKey::root().child(u32::MAX);
        let second = SeqKey::root().child(u32::MAX - 1);
        seq.deposit(0, first, part(&[&[30]]), false);
        assert_eq!(seq.next, 0, "incomplete rank must not emit");
        seq.deposit(0, SeqKey::root(), part(&[&[10]]), false);
        assert_eq!(seq.next, 0);
        seq.deposit(0, second, part(&[&[20]]), false);
        // Root part first, then the second (deeper) donation, then the first.
        assert_eq!(seq.next, 1);
        assert_eq!(seq.buffered_cliques, 0);
        drop(seq);
        assert_eq!(out.cliques, vec![vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn splitting_stats_balance_on_a_skewed_graph() {
        // A dense core plus sparse periphery: with an aggressive pool the
        // core's roots must donate, splits and steals must balance, and the
        // per-worker statistics must add up to the merged ones. The bare
        // preset keeps the core's recursion alive (GR/ET would resolve it
        // without branching).
        let core = mce_gen::moon_moser(3);
        let mut g_edges = core.edges().collect::<Vec<_>>();
        for v in 9..40u32 {
            g_edges.push((v - 1, v));
        }
        let g = Graph::from_edges(40, g_edges).unwrap();
        let expected = naive_maximal_cliques(&g).len() as u64;
        let mut count = CountReporter::new();
        let cfg = SolverConfig::hbbmc_bare();
        let run = drive(
            &g,
            &cfg,
            4,
            SEQUENCER_BUFFER_CAP,
            aggressive_pool(),
            &mut count,
        )
        .unwrap();
        assert_eq!(count.count, expected);
        assert_eq!(run.per_worker.len(), 4);
        let mut summed = EnumerationStats::default();
        for stats in &run.per_worker {
            summed.merge(stats);
        }
        assert!(summed.splits > 0);
        assert_eq!(summed.splits, summed.steals);
        assert_eq!(summed.recursive_calls, run.merged.recursive_calls);
        assert!(summed.busy_time > std::time::Duration::ZERO);
    }
}
