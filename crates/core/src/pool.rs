//! The shared task pool of the parallel driver: contiguous root-rank chunks,
//! self-contained sub-branch tasks with their deterministic sequence keys,
//! and the backlog gate that bounds the ordered stream's memory.
//!
//! Workers claim chunks of root ranks in rank order. Root branches are
//! heavily skewed, so workers that only claimed whole roots could never
//! finish faster than the largest root subtree. The pool removes that bound
//! with **mid-branch work donation**: a worker that has been grinding one
//! root for a while (and observes starving peers) packages the unexplored
//! sibling candidates of its shallowest recursion frame into a
//! [`BranchTask`] — the `R` prefix, the `(C, X)` bitsets, the remaining
//! branch list and a snapshot of the root's [`LocalGraph`] — and pushes it to
//! the shared [`TaskPool`]. Idle workers steal those tasks and resume them
//! through the same allocation-free recursion (and may split them again).
//!
//! Everything here is `std`-only by design: the pool is a `Mutex<VecDeque>`
//! plus a `Condvar`, with a few atomics that keep the donation check of the
//! enumeration hot loop and the per-rank gate check lock-free. The build
//! environment vendors no lock-free queue crates, and donations are rare
//! enough (one per [`PoolConfig::step_threshold`] branch steps at most) that
//! a mutex injector is nowhere near the bottleneck.
//!
//! # Why donated output can still be ordered deterministically
//!
//! [`par_enumerate_ordered`](crate::par_enumerate_ordered) must emit a byte
//! stream that is independent of the thread count. Root ranks provide the
//! coarse order; within one root, every task carries a [`SeqKey`] that
//! linearises the donation tree:
//!
//! * the root's own task has the empty key;
//! * a donor's `i`-th donation (counting from 0) gets the donor's key with
//!   `u32::MAX - i` appended.
//!
//! Keys compare lexicographically with the *shorter-prefix-first* rule, which
//! encodes exactly the sequential emission order: a donor's retained work is
//! always a prefix of what it would have emitted sequentially (its key, a
//! strict prefix, sorts first), donated siblings come after the subtree the
//! donor keeps, and a *later* donation is always carved from *deeper* in the
//! tree than an earlier one — i.e. it precedes the earlier donation in
//! sequential order, which the decreasing counter encodes. Sorting a
//! completed rank's task buffers by key therefore reproduces the sequential
//! stream exactly; see the sequencer in [`parallel`](crate::parallel).
//!
//! # The backlog gate
//!
//! The sequencer parks the cliques of ranks that finish ahead of the stream
//! head. Deposits never wait (a blocked depositor could be the only worker
//! able to run the head's donated tasks); the bound sits in the pool
//! instead. A worker may *start* a root rank only if that rank is the stream
//! head, or if no donated task is queued and at most `cap` cliques are
//! parked out of order (ranks other than the head). Otherwise it may only
//! take donated tasks, and it waits as a starving worker, so the workers
//! grinding long roots — the stream head's among them — donate to it.
//! Advancing the head wakes the pool. Every rank start thus sees at most
//! `cap` parked cliques and at most one unfinished rank per other worker, so
//! at most `cap` cliques plus one in-flight rank per worker are ever parked
//! out of order.
//!
//! The gate cannot deadlock. Suppose every worker waits. Then no task is
//! queued and none runs, so every started rank has deposited all its parts,
//! and the head rank `h` (the first rank not yet emitted) has not started.
//! Chunks are claimed in rank order and every rank below `h` has started, so
//! `h` is either the next rank of some worker's claimed chunk, or the first
//! rank of the next unclaimed chunk while every claimed rank is already
//! emitted (so every waiting worker's chunk is used up and it may claim).
//! Either way a waiting worker may start `h`, because the head is exempt
//! from the gate — a contradiction. A stopped run hands out no fresh chunks,
//! but then a worker holding claimed ranks still finds `h` among them.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use mce_graph::{BitSet, VertexId};

use crate::local::LocalGraph;

/// Default number of branch steps a worker invests in its current work item
/// before it considers donating (see [`PoolConfig::step_threshold`]).
pub(crate) const DEFAULT_STEP_THRESHOLD: u32 = 512;

/// Root ranks per claimed chunk. Donation already smooths the imbalance
/// inside a chunk, so the chunk only has to amortise the claim lock.
pub(crate) const CHUNK: usize = 8;

/// Position of a task's output within its root rank's sequential stream.
///
/// Compares lexicographically (shorter prefix first), which matches the
/// sequential emission order of the donation tree — see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeqKey(Vec<u32>);

impl SeqKey {
    /// The key of a root's own task: the empty sequence.
    pub fn root() -> Self {
        SeqKey(Vec::new())
    }

    /// The key of a donation made by the task holding `self`, given the
    /// donor's decreasing donation counter.
    pub fn child(&self, counter: u32) -> Self {
        let mut path = Vec::with_capacity(self.0.len() + 1);
        path.extend_from_slice(&self.0);
        path.push(counter);
        SeqKey(path)
    }

    /// Resets this key to the root key in place (buffer reuse across ranks).
    pub fn reset(&mut self) {
        self.0.clear();
    }

    /// Copies `other` into this key in place.
    pub fn clone_from_key(&mut self, other: &SeqKey) {
        self.0.clear();
        self.0.extend_from_slice(&other.0);
    }
}

/// A self-contained, stealable continuation of one recursion frame: "branch
/// on each of `branch` under `(partial, c, x)` inside `lg`".
///
/// Everything a worker needs to resume the donated siblings is carried by
/// value — no references into the donor's scratch arena — so the task can
/// cross threads and outlive the donor's frames.
#[derive(Clone, Debug)]
pub(crate) struct BranchTask {
    /// Root rank the donated work belongs to (coarse sequencing key).
    pub rank: usize,
    /// Position of this task's output within the rank (fine sequencing key).
    pub key: SeqKey,
    /// The partial clique `R` at the donated frame (original vertex ids).
    pub partial: Vec<VertexId>,
    /// Candidate set of the donated frame, current vertex already excluded.
    pub c: BitSet,
    /// Exclusion set of the donated frame, current vertex already included.
    pub x: BitSet,
    /// The unexplored sibling candidates, in branching order (local ids).
    pub branch: Vec<usize>,
    /// Snapshot of the root branch's dense local graph.
    pub lg: LocalGraph,
}

/// Where a donating solver pushes split-off work: the ordered driver's
/// sink, which registers the donation with the output sequencer before the
/// task enters the pool.
pub(crate) trait DonationSink: Sync {
    /// Cheap check consulted once per branch step: is anyone starving?
    fn hungry(&self) -> bool;
    /// Branch steps a worker invests in its work item before donating.
    fn step_threshold(&self) -> u32;
    /// Hands a packaged task over to the pool.
    fn donate(&self, task: BranchTask);
}

/// Tunables of a [`TaskPool`], separated out so tests can force aggressive
/// splitting on tiny graphs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PoolConfig {
    /// Branch steps between donation attempts.
    pub step_threshold: u32,
    /// Ignore the starvation signal and donate at every opportunity
    /// (test-only: maximises task fragmentation).
    pub always_hungry: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            step_threshold: DEFAULT_STEP_THRESHOLD,
            always_hungry: false,
        }
    }
}

/// One unit of work handed to a worker.
pub(crate) enum PoolWork {
    /// Run this root rank.
    Rank(usize),
    /// Resume a donated sub-branch.
    Task(Box<BranchTask>),
}

struct PoolState {
    /// Donated tasks, stolen FIFO (oldest donations carry the shallowest —
    /// largest — subtrees and belong to the earliest ranks).
    tasks: VecDeque<BranchTask>,
    /// First root rank no worker has claimed yet.
    next_rank: usize,
    /// Workers not waiting in [`TaskPool::next`]: each may still run ranks
    /// and donate, so the pool can only drain once this reaches zero.
    active: usize,
}

/// The shared injector of the parallel driver.
///
/// Donated tasks take priority over fresh root ranks: they belong to
/// already-started (early) ranks, so finishing them first keeps the ordered
/// sequencer's head moving. Fresh ranks pass the backlog gate (module docs).
pub(crate) struct TaskPool {
    state: Mutex<PoolState>,
    /// Signalled when work arrives, the stream head advances or the pool
    /// drains.
    ready: Condvar,
    /// Number of workers currently blocked in [`TaskPool::next`]. Read with
    /// a relaxed load by the donation check in the enumeration hot loop.
    starving: AtomicUsize,
    /// Length of the task queue, mirrored for the lock-free gate check.
    queued: AtomicUsize,
    /// The sequencer's stream head, published after every deposit.
    head: AtomicUsize,
    /// Cliques the sequencer holds for ranks other than the head, published
    /// after every deposit.
    parked: AtomicUsize,
    /// Out-of-order cliques above which only the head rank may start.
    cap: usize,
    total: usize,
    config: PoolConfig,
}

impl TaskPool {
    /// A pool over root ranks `0..total`, shared by `workers` workers, whose
    /// gate admits fresh ranks while at most `cap` cliques are parked.
    pub fn new(total: usize, workers: usize, cap: usize, config: PoolConfig) -> Self {
        TaskPool {
            state: Mutex::new(PoolState {
                tasks: VecDeque::new(),
                next_rank: 0,
                active: workers,
            }),
            ready: Condvar::new(),
            starving: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            cap,
            total,
            config,
        }
    }

    /// The backlog gate: may `rank` start now?
    fn may_start(&self, rank: usize) -> bool {
        rank == self.head.load(Ordering::SeqCst)
            || (self.queued.load(Ordering::SeqCst) == 0
                && self.parked.load(Ordering::SeqCst) <= self.cap)
    }

    /// The calling worker's next unit of work. `chunk` holds the worker's
    /// claimed but not yet started ranks; it starts empty and the pool
    /// refills it. Blocks while the gate holds the worker back and no task
    /// is queued. Returns `None` exactly once per worker, when no work
    /// remains *and* no other worker could still donate more.
    pub fn next(&self, chunk: &mut Range<usize>) -> Option<PoolWork> {
        // Fast path: keep walking the claimed chunk without the lock.
        if chunk.start < chunk.end && self.may_start(chunk.start) {
            chunk.start += 1;
            return Some(PoolWork::Rank(chunk.start - 1));
        }
        // Poison recovery throughout: worker panics are caught and contained
        // by the driver in [`parallel`](crate::parallel), and the drain
        // protocol it runs after a fault needs the pool to stay usable.
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.active -= 1;
        loop {
            if let Some(task) = state.tasks.pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                state.active += 1;
                return Some(PoolWork::Task(Box::new(task)));
            }
            if chunk.start == chunk.end
                && state.next_rank < self.total
                && self.may_start(state.next_rank)
            {
                let end = (state.next_rank + CHUNK).min(self.total);
                *chunk = state.next_rank..end;
                state.next_rank = end;
            }
            if chunk.start < chunk.end && self.may_start(chunk.start) {
                state.active += 1;
                chunk.start += 1;
                return Some(PoolWork::Rank(chunk.start - 1));
            }
            if chunk.start == chunk.end && state.next_rank >= self.total && state.active == 0 {
                // Termination: every rank claimed and started, every task
                // executed, no producer left. Wake the other sleepers so
                // they exit too.
                self.ready.notify_all();
                return None;
            }
            self.starving.fetch_add(1, Ordering::Relaxed);
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            self.starving.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Pushes a donated task and wakes one starving worker.
    pub fn push(&self, task: BranchTask) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tasks.push_back(task);
        self.queued.fetch_add(1, Ordering::SeqCst);
        drop(state);
        self.ready.notify_one();
    }

    /// Publishes the sequencer's stream head and out-of-order backlog
    /// (called under the sequencer lock after every deposit).
    pub fn publish(&self, head: usize, parked: usize) {
        self.head.store(head, Ordering::SeqCst);
        self.parked.store(parked, Ordering::SeqCst);
    }

    /// Wakes the workers the gate holds back (after the stream head
    /// advanced). The lock orders this wake after any waiter's gate check.
    pub fn wake(&self) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if self.starving.load(Ordering::Relaxed) > 0 {
            drop(state);
            self.ready.notify_all();
        }
    }

    /// Hands out no further root ranks (the run was stopped); queued tasks
    /// are still handed out so every registered donation gets its part.
    pub fn stop(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.next_rank = self.total;
        drop(state);
        self.ready.notify_all();
    }

    /// Whether any worker is starving (or the test override is on).
    pub fn hungry(&self) -> bool {
        self.config.always_hungry || self.starving.load(Ordering::Relaxed) > 0
    }

    /// Branch steps between donation attempts.
    pub fn step_threshold(&self) -> u32 {
        self.config.step_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(rank: usize) -> BranchTask {
        BranchTask {
            rank,
            key: SeqKey::root(),
            partial: Vec::new(),
            c: BitSet::with_capacity(0),
            x: BitSet::with_capacity(0),
            branch: Vec::new(),
            lg: LocalGraph::new(),
        }
    }

    fn pool(total: usize, workers: usize) -> TaskPool {
        TaskPool::new(total, workers, usize::MAX, PoolConfig::default())
    }

    #[test]
    fn seq_keys_order_like_the_sequential_stream() {
        let root = SeqKey::root();
        let first_donation = root.child(u32::MAX);
        let second_donation = root.child(u32::MAX - 1);
        let nested = first_donation.child(u32::MAX);
        // Donor's retained output before everything it donated.
        assert!(root < first_donation);
        assert!(root < second_donation);
        // Later donations are deeper in the tree, i.e. sequentially earlier.
        assert!(second_donation < first_donation);
        // A thief's own retained output precedes its re-donations.
        assert!(first_donation < nested);
        // And a re-donation of the first donation still follows the donor's
        // second (deeper) donation.
        assert!(second_donation < nested);
    }

    #[test]
    fn seq_key_reuse_helpers() {
        let mut k = SeqKey::root().child(7);
        k.reset();
        assert_eq!(k, SeqKey::root());
        let other = SeqKey::root().child(3).child(9);
        k.clone_from_key(&other);
        assert_eq!(k, other);
    }

    #[test]
    fn pool_hands_out_chunks_then_terminates() {
        // Two workers drain the pool; every rank is handed out exactly once,
        // and each worker sees contiguous ascending runs.
        let pool = pool(3 * CHUNK + 3, 2);
        let mut seen: Vec<usize> = std::thread::scope(|scope| {
            let drain = || {
                let mut chunk = 0..0;
                let mut ranks = Vec::new();
                while let Some(work) = pool.next(&mut chunk) {
                    let PoolWork::Rank(r) = work else {
                        panic!("expected a rank")
                    };
                    ranks.push(r);
                }
                ranks
            };
            let other = scope.spawn(drain);
            let mut mine = drain();
            mine.extend(other.join().expect("worker panicked"));
            mine
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..3 * CHUNK + 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_prefers_donated_tasks_fifo() {
        let pool = pool(1, 1);
        pool.push(task(3));
        pool.push(task(5));
        let mut chunk = 0..0;
        match pool.next(&mut chunk) {
            Some(PoolWork::Task(t)) => assert_eq!(t.rank, 3),
            _ => panic!("expected the oldest donated task"),
        }
        match pool.next(&mut chunk) {
            Some(PoolWork::Task(t)) => assert_eq!(t.rank, 5),
            _ => panic!("expected the second donated task"),
        }
        assert!(matches!(pool.next(&mut chunk), Some(PoolWork::Rank(0))));
        assert!(pool.next(&mut chunk).is_none());
    }

    #[test]
    fn starving_workers_wake_on_donation() {
        let pool = pool(1, 2);
        // A "donor" runs the only rank, keeping the pool active.
        let mut donor = 0..0;
        assert!(matches!(pool.next(&mut donor), Some(PoolWork::Rank(0))));
        let got = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| pool.next(&mut (0..0)));
            while !pool.hungry() {
                std::thread::yield_now();
            }
            pool.push(task(1));
            consumer.join().expect("consumer panicked")
        });
        assert!(matches!(got, Some(PoolWork::Task(t)) if t.rank == 1));
        // Both workers ask again: the pool has drained.
        std::thread::scope(|scope| {
            let thief = scope.spawn(|| pool.next(&mut (0..0)));
            assert!(pool.next(&mut donor).is_none());
            assert!(thief.join().expect("thief panicked").is_none());
        });
    }

    #[test]
    fn empty_pool_terminates_immediately() {
        let pool = pool(0, 1);
        assert!(pool.next(&mut (0..0)).is_none());
    }

    #[test]
    fn gate_holds_back_fresh_ranks_until_the_head_advances() {
        let pool = TaskPool::new(2 * CHUNK, 2, 0, PoolConfig::default());
        let mut a = 0..0;
        assert!(matches!(pool.next(&mut a), Some(PoolWork::Rank(0))));
        // Rank 1 finished ahead of the head: one clique parked out of order.
        pool.publish(0, 1);
        let mut b = 0..0;
        std::thread::scope(|scope| {
            let held = scope.spawn(|| pool.next(&mut b));
            // The gated worker waits as a starving one.
            while !pool.hungry() {
                std::thread::yield_now();
            }
            // The head reaches the held worker's next rank.
            pool.publish(CHUNK, 0);
            pool.wake();
            assert!(matches!(held.join().unwrap(), Some(PoolWork::Rank(r)) if r == CHUNK));
        });
    }

    #[test]
    fn hungry_reflects_starvation_and_test_override() {
        let pool = pool(0, 1);
        assert!(!pool.hungry());
        let aggressive = TaskPool::new(
            0,
            1,
            usize::MAX,
            PoolConfig {
                always_hungry: true,
                step_threshold: 0,
            },
        );
        assert!(aggressive.hungry());
        assert_eq!(aggressive.step_threshold(), 0);
    }
}
