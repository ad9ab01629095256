//! The unified query engine: every solver entry point behind one plan.
//!
//! A [`Query`] is `spec × config × threads × budget`:
//!
//! * [`QuerySpec`] names *what* is asked — full enumeration, a count, the
//!   top-k largest cliques, the maximal cliques containing an **anchor**
//!   vertex set, one maximum clique, or the k-cliques of a fixed size.
//! * [`SolverConfig`] and `threads` choose *how* — any named preset, any
//!   worker count.
//! * [`Budget`] bounds *how much* — emitted cliques, branch steps, a
//!   wall-clock deadline, or an external [`CancelToken`] — and the
//!   [`Outcome`] reports whether the result is `Complete` or `Truncated`
//!   (and why).
//!
//! Execution goes through an [`ExecSession`]: a validated, cancellable run
//! whose [`CancelToken`] can be handed to another thread *before* the session
//! starts — the admission-control primitive a serving layer needs (a server
//! cannot admit a query it can't stop). All streaming specs emit through the
//! deterministic ordered pipeline, so a truncated stream is always an exact
//! byte-prefix of the complete one, at any thread count.
//!
//! # Anchored queries
//!
//! `Anchored { vertices }` returns exactly the maximal cliques containing
//! every anchor vertex — the serving primitive of local-subgraph MCE work
//! (Das et al.'s shared-memory parallel MCE, San Segundo et al.'s bit-parallel
//! enumerators). The engine seeds `R` with the anchor, builds the anchor's
//! common-neighbourhood subgraph **once** into a dense
//! local graph, and runs the configured recursion below it: any vertex that
//! could extend a clique containing the anchor is adjacent to every anchor
//! member and therefore inside that one subgraph, so no root phase is needed
//! at all. The vertices this skips are counted in
//! [`EnumerationStats::anchored_roots_skipped`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use mce_graph::{Graph, VertexId};

use crate::budget::{Budget, BudgetReporter, BudgetState, CancelToken, Outcome};
use crate::config::{ConfigError, SolverConfig};
use crate::kclique::for_each_k_clique_with_state;
use crate::parallel::{par_enumerate_ordered_with_state, EngineError};
use crate::report::{CliqueReporter, CountReporter, TopKReporter};
use crate::scratch::WorkerState;
use crate::solver::Solver;
use crate::stats::EnumerationStats;

/// What an enumeration session is asked to produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// Stream every maximal clique (deterministic order).
    Enumerate,
    /// Count maximal cliques without streaming them.
    Count,
    /// The `k` largest maximal cliques, ranked by size with ties broken by
    /// stream order (deterministic at any thread count). Served by a
    /// dedicated sequential search that extends the branch-and-bound
    /// machinery of [`maxclique`](crate::maxclique) to top-k selection:
    /// roots and branches whose core-number / candidate-count /
    /// greedy-coloring upper bound cannot beat the current k-th retained
    /// size are pruned (reported through
    /// [`EnumerationStats::branches_pruned_by_core`](crate::EnumerationStats::branches_pruned_by_core)
    /// and
    /// [`EnumerationStats::branches_pruned_by_color`](crate::EnumerationStats::branches_pruned_by_color)),
    /// without changing the retained ranking.
    TopKBySize {
        /// How many cliques to keep.
        k: usize,
    },
    /// Stream exactly the maximal cliques containing every listed vertex.
    /// An empty anchor degenerates to [`QuerySpec::Enumerate`]; an anchor
    /// that is not a clique has no superset cliques, so the result is empty.
    Anchored {
        /// The anchor vertex set (deduplicated at session admission).
        vertices: Vec<VertexId>,
    },
    /// One maximum clique — the **canonical** one: among all maximum
    /// cliques, the one whose ascending-sorted member list is
    /// lexicographically smallest. Served by the dedicated branch-and-bound
    /// engine of [`maxclique`](crate::maxclique) (greedy lower bound,
    /// core-number and greedy-coloring pruning) rather than by full
    /// enumeration; the enumeration-riding
    /// [`MaximumCliqueReporter`](crate::MaximumCliqueReporter) extracts the
    /// byte-identical winner from any complete stream.
    MaximumClique,
    /// Stream every clique of exactly `k` vertices (not necessarily
    /// maximal), via the truss-ordered edge branching of
    /// [`kclique`](crate::kclique).
    KClique {
        /// The clique size.
        k: usize,
    },
}

/// A complete query plan: spec × solver configuration × parallelism × budget.
#[derive(Clone, Debug)]
pub struct Query {
    /// What to produce.
    pub spec: QuerySpec,
    /// How to branch (preset, early termination, graph reduction, …).
    pub config: SolverConfig,
    /// Worker threads (clamped to ≥ 1; anchored, k-clique, top-k and
    /// maximum-clique specs run sequentially — the first two have no root
    /// phase to parallelise, and the bounded searches share one incumbent /
    /// retained set).
    pub threads: usize,
    /// Resource bounds of the session.
    pub budget: Budget,
}

impl Query {
    /// A single-threaded, unbudgeted query with the default configuration.
    pub fn new(spec: QuerySpec) -> Self {
        Query {
            spec,
            config: SolverConfig::default(),
            threads: 1,
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the solver configuration.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// The spec-dependent payload of a finished query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryValue {
    /// The cliques were streamed to the session's reporter
    /// (`Enumerate`, `Anchored`, `KClique`).
    Stream,
    /// The clique count (`Count`).
    Count(u64),
    /// The retained top-k cliques in ranking order (`TopKBySize`).
    TopK(Vec<Vec<VertexId>>),
    /// The canonical maximum clique, sorted ascending; empty when the graph
    /// has no vertices (`MaximumClique`). On a truncated run this is only
    /// the best clique found before the budget tripped — the outcome, not
    /// the value, says whether it is proven maximum.
    Maximum(Vec<VertexId>),
}

/// Everything a finished session reports back.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// `Complete`, or `Truncated` with the bound that tripped first.
    pub outcome: Outcome,
    /// Merged run statistics (including the new
    /// `terminated_by_budget` / `anchored_roots_skipped` counters).
    pub stats: EnumerationStats,
    /// The spec-dependent payload.
    pub value: QueryValue,
    /// Branch steps the session's budget accounting charged across all
    /// workers — the quantity [`Budget::max_steps`] bounds. Serving layers
    /// use this to charge per-client step quotas.
    pub budget_steps: u64,
}

impl QueryResult {
    /// For `MaximumClique` queries: which bound machinery ended the
    /// branch-and-bound search (color bound, core bound, budget, or plain
    /// exhaustion). Meaningful only for results produced by the
    /// [`QuerySpec::MaximumClique`] spec — other specs never populate the
    /// pruning counters and classify as
    /// [`TerminatingBound::Exhausted`](crate::maxclique::TerminatingBound).
    pub fn terminating_bound(&self) -> crate::maxclique::TerminatingBound {
        crate::maxclique::TerminatingBound::from_run(&self.stats, self.outcome)
    }
}

/// An invalid [`Query`] (bad solver configuration, out-of-range anchor
/// vertex, …), rejected at session admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryError {
    message: String,
}

impl QueryError {
    fn new(message: impl Into<String>) -> Self {
        QueryError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid query: {}", self.message)
    }
}

impl std::error::Error for QueryError {}

impl From<ConfigError> for QueryError {
    fn from(e: ConfigError) -> Self {
        QueryError::new(e.to_string())
    }
}

/// An admitted, cancellable enumeration session over one graph.
///
/// Admission ([`ExecSession::new`]) validates the whole plan up front, so a
/// serving layer can reject malformed queries before committing any work; the
/// session's [`CancelToken`] is available *before* [`ExecSession::run`] and
/// can be handed to a watchdog, a deadline timer or an admission controller.
#[derive(Debug)]
pub struct ExecSession<'g> {
    graph: &'g Graph,
    query: Query,
    /// Deduplicated anchor (empty for non-anchored specs).
    anchor: Vec<VertexId>,
    state: BudgetState,
    token: CancelToken,
}

impl<'g> ExecSession<'g> {
    /// Validates and admits a query. Fails on an invalid [`SolverConfig`] or
    /// an anchor vertex outside the graph.
    pub fn new(graph: &'g Graph, query: Query) -> Result<Self, QueryError> {
        query.config.validate()?;
        let mut anchor = Vec::new();
        if let QuerySpec::Anchored { vertices } = &query.spec {
            for &v in vertices {
                if (v as usize) >= graph.n() {
                    return Err(QueryError::new(format!(
                        "anchor vertex {v} out of range for a graph with {} vertices",
                        graph.n()
                    )));
                }
                if !anchor.contains(&v) {
                    anchor.push(v);
                }
            }
        }
        // Every worker observes the session token; if the caller supplied
        // one, share it, otherwise mint one so the session is always
        // cancellable.
        let token = query.budget.cancel.clone().unwrap_or_default();
        let budget = Budget {
            cancel: Some(token.clone()),
            ..query.budget.clone()
        };
        let state = BudgetState::new(&budget);
        Ok(ExecSession {
            graph,
            query,
            anchor,
            state,
            token,
        })
    }

    /// The session's cancellation handle; cancel it from any thread and the
    /// workers stop at their next branch step.
    pub fn cancel_token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Runs the session to its outcome, streaming any `Stream`-valued spec's
    /// cliques to `reporter` (other specs leave the reporter untouched).
    ///
    /// Panics raised by worker bodies (or by the reporter itself) are
    /// re-raised on the calling thread after the workers drained; see
    /// [`ExecSession::try_run`] for the typed-error form a serving layer
    /// should use to contain faults.
    pub fn run<R: CliqueReporter + Send + ?Sized>(self, reporter: &mut R) -> QueryResult {
        match self.try_run(reporter) {
            Ok(result) => result,
            Err(EngineError::WorkerPanic { detail }) => resume_unwind(Box::new(detail)),
            Err(EngineError::Config(e)) => {
                unreachable!("configuration validated at session admission: {e}")
            }
        }
    }

    /// [`ExecSession::run`] with typed fault containment: a panic inside a
    /// worker body or the caller's reporter is caught, the remaining workers
    /// drain cleanly, any ordered stream stops at the deterministic prefix
    /// emitted before the fault, and the session returns
    /// [`EngineError::WorkerPanic`] instead of unwinding the caller.
    pub fn try_run<R: CliqueReporter + Send + ?Sized>(
        self,
        reporter: &mut R,
    ) -> Result<QueryResult, EngineError> {
        let g = self.graph;
        let config = self.query.config;
        let threads = self.query.threads;
        let state = &self.state;
        let ordered = |out: &mut (dyn CliqueReporter + Send)| {
            par_enumerate_ordered_with_state(g, &config, threads, state, None, out)
        };
        let (stats, value) = match &self.query.spec {
            QuerySpec::Enumerate => (ordered(&mut BypassSend(reporter))?, QueryValue::Stream),
            QuerySpec::Anchored { .. } if self.anchor.is_empty() => {
                (ordered(&mut BypassSend(reporter))?, QueryValue::Stream)
            }
            QuerySpec::Anchored { .. } => {
                let anchor = &self.anchor;
                if !g.is_clique(anchor) {
                    // No clique contains a non-clique: the (complete) result
                    // is empty, and no root ever needed opening.
                    let stats = EnumerationStats {
                        anchored_roots_skipped: g.n() as u64,
                        ..EnumerationStats::default()
                    };
                    (stats, QueryValue::Stream)
                } else {
                    let solver =
                        Solver::new(g, config).expect("configuration validated at admission");
                    let mut worker = WorkerState::new();
                    let mut gated = BudgetReporter::new(reporter, state);
                    // Sequential path: the recursion (and the reporter it
                    // drives) runs on this thread, so a plain catch gives
                    // the same containment the parallel drivers provide.
                    let stats = catch_unwind(AssertUnwindSafe(|| {
                        solver.run_anchored(anchor, &mut worker, Some(state), &mut gated)
                    }))
                    .map_err(engine_panic)?;
                    (stats, QueryValue::Stream)
                }
            }
            QuerySpec::Count => {
                let mut counter = CountReporter::new();
                let stats = ordered(&mut counter)?;
                (stats, QueryValue::Count(counter.count))
            }
            QuerySpec::TopKBySize { k } => {
                // Dedicated sequential path (like the anchored and
                // maximum-clique specs): the enumeration runs with the
                // branch-and-bound pruning machinery extended to top-k — the
                // core-number bound closes roots and the candidate-count /
                // greedy-coloring bounds close branches that cannot contain
                // a clique large enough to change the retained top-k. The
                // sequential stream order equals the ordered pipeline's, so
                // the retained ranking is byte-identical to riding the full
                // enumeration through this reporter, at any thread count.
                let solver = Solver::new(g, config).expect("configuration validated at admission");
                let mut top = TopKReporter::new(*k);
                let stats = catch_unwind(AssertUnwindSafe(|| {
                    let mut worker = WorkerState::new();
                    let mut gated = BudgetReporter::new(&mut top, state);
                    solver.run_topk(*k, &mut worker, Some(state), &mut gated)
                }))
                .map_err(engine_panic)?;
                (stats, QueryValue::TopK(top.into_cliques()))
            }
            QuerySpec::MaximumClique => {
                // Dedicated branch-and-bound engine (sequential, like the
                // anchored and k-clique paths): exponentially fewer branch
                // steps than riding the full enumeration, same canonical
                // winner as MaximumCliqueReporter over a complete stream.
                let (best, stats) = catch_unwind(AssertUnwindSafe(|| {
                    let mut mc = crate::maxclique::MaxCliqueState::new();
                    crate::maxclique::solve(g, &mut mc, Some(state))
                }))
                .map_err(engine_panic)?;
                (stats, QueryValue::Maximum(best))
            }
            QuerySpec::KClique { k } => {
                let start = std::time::Instant::now();
                let aborted = catch_unwind(AssertUnwindSafe(|| {
                    for_each_k_clique_with_state(g, *k, state, &mut |clique| {
                        reporter.report(clique)
                    })
                }))
                .map_err(engine_panic)?;
                let stats = EnumerationStats {
                    recursive_calls: state.steps_taken(),
                    terminated_by_budget: aborted,
                    elapsed: start.elapsed(),
                    busy_time: start.elapsed(),
                    ..EnumerationStats::default()
                };
                (stats, QueryValue::Stream)
            }
        };
        let outcome = self.state.outcome();
        let mut stats = stats;
        if outcome.is_truncated() && stats.terminated_by_budget == 0 {
            // The budget tripped between branching frames (between root
            // ranks, or at the output gate after the last frame finished):
            // no individual frame was abandoned, so charge the session
            // itself. Truncated runs therefore always report >= 1.
            stats.terminated_by_budget = 1;
        }
        Ok(QueryResult {
            outcome,
            stats,
            value,
            budget_steps: self.state.steps_taken(),
        })
    }
}

/// Converts a caught panic payload into [`EngineError::WorkerPanic`].
fn engine_panic(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let detail = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    EngineError::WorkerPanic { detail }
}

/// `&mut R` where `R: Send` is itself `Send`; this shim re-borrows the
/// caller's reporter as a concrete `Send` type so one closure can drive the
/// ordered pipeline for every spec.
struct BypassSend<'a, R: CliqueReporter + Send + ?Sized>(&'a mut R);

impl<R: CliqueReporter + Send + ?Sized> CliqueReporter for BypassSend<'_, R> {
    fn report(&mut self, clique: &[VertexId]) {
        self.0.report(clique);
    }
}

/// Admits and runs `query` in one call; see [`ExecSession`] for the
/// two-phase (admit, then run) form that exposes the cancel token first.
pub fn run_query<R: CliqueReporter + Send + ?Sized>(
    g: &Graph,
    query: Query,
    reporter: &mut R,
) -> Result<QueryResult, QueryError> {
    Ok(ExecSession::new(g, query)?.run(reporter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::TruncationReason;
    use crate::naive::naive_maximal_cliques;
    use crate::report::{CliqueLineFormat, CollectReporter, WriterReporter};

    fn test_graph() -> Graph {
        // Two overlapping communities plus sparse periphery (same shape the
        // parallel tests use).
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

    /// Reference for anchored queries: enumerate everything, filter by
    /// anchor containment.
    fn naive_filter(g: &Graph, anchor: &[VertexId]) -> Vec<Vec<VertexId>> {
        naive_maximal_cliques(g)
            .into_iter()
            .filter(|c| anchor.iter().all(|v| c.contains(v)))
            .collect()
    }

    fn ordered_text_bytes(g: &Graph, query: Query) -> (Vec<u8>, QueryResult) {
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        let result = run_query(g, query, &mut reporter).expect("valid query");
        (reporter.finish().unwrap(), result)
    }

    #[test]
    fn enumerate_spec_matches_plain_ordered_stream() {
        let g = test_graph();
        let (bytes, result) = ordered_text_bytes(&g, Query::new(QuerySpec::Enumerate));
        let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
        crate::par_enumerate_ordered(&g, &SolverConfig::default(), 1, &mut reporter).unwrap();
        assert_eq!(bytes, reporter.finish().unwrap());
        assert_eq!(result.outcome, Outcome::Complete);
        assert_eq!(result.value, QueryValue::Stream);
        assert_eq!(result.stats.terminated_by_budget, 0);
    }

    #[test]
    fn count_spec_returns_the_total() {
        let g = test_graph();
        let expected = naive_maximal_cliques(&g).len() as u64;
        let mut sink = CountReporter::new();
        let result = run_query(&g, Query::new(QuerySpec::Count), &mut sink).unwrap();
        assert_eq!(result.value, QueryValue::Count(expected));
        assert_eq!(
            sink.count, 0,
            "Count leaves the caller's reporter untouched"
        );
        assert_eq!(result.outcome, Outcome::Complete);
    }

    #[test]
    fn clique_limit_emits_exactly_the_prefix() {
        let g = test_graph();
        let (full, _) = ordered_text_bytes(&g, Query::new(QuerySpec::Enumerate));
        let total = full.iter().filter(|&&b| b == b'\n').count();
        assert!(total > 3);
        for threads in [1usize, 2, 4] {
            let query = Query::new(QuerySpec::Enumerate)
                .with_threads(threads)
                .with_budget(Budget::cliques(3));
            let (bytes, result) = ordered_text_bytes(&g, query);
            let prefix_end = full
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .nth(2)
                .map(|(i, _)| i + 1)
                .unwrap();
            assert_eq!(
                bytes,
                &full[..prefix_end],
                "x{threads}: first 3 cliques exactly"
            );
            assert_eq!(
                result.outcome,
                Outcome::Truncated {
                    reason: TruncationReason::CliqueLimit
                }
            );
        }
    }

    #[test]
    fn clique_limit_at_total_is_complete() {
        let g = test_graph();
        let (full, _) = ordered_text_bytes(&g, Query::new(QuerySpec::Enumerate));
        let total = full.iter().filter(|&&b| b == b'\n').count() as u64;
        let query = Query::new(QuerySpec::Enumerate).with_budget(Budget::cliques(total));
        let (bytes, result) = ordered_text_bytes(&g, query);
        assert_eq!(bytes, full);
        assert_eq!(result.outcome, Outcome::Complete);
    }

    #[test]
    fn step_limit_truncates_to_a_byte_prefix() {
        let g = test_graph();
        let (full, _) = ordered_text_bytes(&g, Query::new(QuerySpec::Enumerate));
        for max_steps in [0u64, 1, 2, 5, 10] {
            for threads in [1usize, 3] {
                let query = Query::new(QuerySpec::Enumerate)
                    .with_threads(threads)
                    .with_budget(Budget::steps(max_steps));
                let (bytes, result) = ordered_text_bytes(&g, query);
                assert_eq!(
                    &full[..bytes.len()],
                    &bytes[..],
                    "steps={max_steps} x{threads}: prefix"
                );
                if result.outcome == Outcome::Complete {
                    assert_eq!(bytes, full, "complete runs must emit everything");
                } else {
                    assert!(result.stats.terminated_by_budget > 0);
                }
            }
        }
    }

    #[test]
    fn cancelled_before_start_emits_at_most_static_output() {
        let g = test_graph();
        let token = CancelToken::new();
        token.cancel();
        let query = Query::new(QuerySpec::Enumerate)
            .with_threads(4)
            .with_budget(Budget::unlimited().with_cancel(token));
        let (bytes, result) = ordered_text_bytes(&g, query);
        let (full, _) = ordered_text_bytes(&g, Query::new(QuerySpec::Enumerate));
        assert_eq!(&full[..bytes.len()], &bytes[..], "still a prefix");
        assert_eq!(
            result.outcome,
            Outcome::Truncated {
                reason: TruncationReason::Cancelled
            }
        );
    }

    #[test]
    fn session_token_cancels_without_a_caller_token() {
        let g = test_graph();
        let session = ExecSession::new(&g, Query::new(QuerySpec::Count)).unwrap();
        let token = session.cancel_token();
        token.cancel();
        let mut sink = CountReporter::new();
        let result = session.run(&mut sink);
        assert!(result.outcome.is_truncated());
    }

    #[test]
    fn anchored_matches_naive_filter() {
        let g = test_graph();
        for anchor in [
            vec![0u32],
            vec![3],
            vec![0, 1],
            vec![2, 3],
            vec![0, 1, 2],
            vec![9, 10, 11],
            vec![4],
        ] {
            let mut collector = CollectReporter::new();
            let result = run_query(
                &g,
                Query::new(QuerySpec::Anchored {
                    vertices: anchor.clone(),
                }),
                &mut collector,
            )
            .unwrap();
            assert_eq!(result.outcome, Outcome::Complete);
            assert_eq!(
                collector.into_sorted(),
                naive_filter(&g, &anchor),
                "anchor {anchor:?}"
            );
        }
    }

    #[test]
    fn anchored_skips_roots_and_counts_them() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        let result = run_query(
            &g,
            Query::new(QuerySpec::Anchored { vertices: vec![0] }),
            &mut collector,
        )
        .unwrap();
        // Anchor 0's neighbourhood is {1, 2, 3}: 12 - 1 - 3 = 8 skipped.
        assert_eq!(result.stats.anchored_roots_skipped, 8);
        assert_eq!(result.stats.initial_branches, 1);
    }

    #[test]
    fn anchored_non_clique_anchor_is_empty_and_complete() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        // 0 and 4 are not adjacent.
        let result = run_query(
            &g,
            Query::new(QuerySpec::Anchored {
                vertices: vec![0, 4],
            }),
            &mut collector,
        )
        .unwrap();
        assert!(collector.cliques.is_empty());
        assert_eq!(result.outcome, Outcome::Complete);
        assert_eq!(result.stats.anchored_roots_skipped, g.n() as u64);
    }

    #[test]
    fn anchored_empty_anchor_is_full_enumeration() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        run_query(
            &g,
            Query::new(QuerySpec::Anchored { vertices: vec![] }),
            &mut collector,
        )
        .unwrap();
        assert_eq!(collector.into_sorted(), naive_maximal_cliques(&g));
    }

    #[test]
    fn anchored_duplicate_vertices_are_deduplicated() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        run_query(
            &g,
            Query::new(QuerySpec::Anchored {
                vertices: vec![3, 3, 0, 3],
            }),
            &mut collector,
        )
        .unwrap();
        assert_eq!(collector.into_sorted(), naive_filter(&g, &[0, 3]));
    }

    #[test]
    fn anchored_out_of_range_vertex_is_rejected_at_admission() {
        let g = test_graph();
        let err = ExecSession::new(&g, Query::new(QuerySpec::Anchored { vertices: vec![99] }))
            .unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn anchored_respects_every_preset() {
        let g = test_graph();
        let expected = naive_filter(&g, &[3]);
        for (name, config) in SolverConfig::named_presets() {
            let mut collector = CollectReporter::new();
            run_query(
                &g,
                Query::new(QuerySpec::Anchored { vertices: vec![3] }).with_config(config),
                &mut collector,
            )
            .unwrap();
            assert_eq!(collector.into_sorted(), expected, "{name}");
        }
    }

    #[test]
    fn anchored_budget_truncates_stream() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        let full = naive_filter(&g, &[3]);
        assert!(full.len() >= 2);
        let result = run_query(
            &g,
            Query::new(QuerySpec::Anchored { vertices: vec![3] }).with_budget(Budget::cliques(1)),
            &mut collector,
        )
        .unwrap();
        assert_eq!(collector.cliques.len(), 1);
        assert!(result.outcome.is_truncated());
    }

    #[test]
    fn top_k_ranks_by_size_then_stream_order() {
        let g = test_graph();
        let mut sink = CountReporter::new();
        let result = run_query(&g, Query::new(QuerySpec::TopKBySize { k: 2 }), &mut sink).unwrap();
        let QueryValue::TopK(top) = result.value else {
            panic!("expected TopK value");
        };
        assert_eq!(top.len(), 2);
        assert!(top[0].len() >= top[1].len());
        assert_eq!(top[0].len(), 4, "the 4-clique {{0,1,2,3}} ranks first");
    }

    #[test]
    fn maximum_clique_spec_finds_the_largest() {
        let g = test_graph();
        let mut sink = CountReporter::new();
        let result = run_query(&g, Query::new(QuerySpec::MaximumClique), &mut sink).unwrap();
        assert_eq!(
            result.value,
            QueryValue::Maximum(vec![0, 1, 2, 3]),
            "the maximum clique"
        );
    }

    #[test]
    fn maximum_clique_agrees_with_enumeration_reporter() {
        let g = test_graph();
        let mut enumerated = crate::report::MaximumCliqueReporter::new();
        run_query(&g, Query::new(QuerySpec::Enumerate), &mut enumerated).unwrap();
        let mut sink = CountReporter::new();
        let result = run_query(&g, Query::new(QuerySpec::MaximumClique), &mut sink).unwrap();
        assert_eq!(result.value, QueryValue::Maximum(enumerated.best));
        assert_eq!(result.outcome, Outcome::Complete);
        assert_ne!(
            result.terminating_bound(),
            crate::maxclique::TerminatingBound::Budget
        );
    }

    #[test]
    fn maximum_clique_budget_truncates_without_claiming_optimality() {
        // Moon–Moser K_{3,3,3,3}: every vertex has core number 9, so the
        // core bound prunes nothing and the search must open branch loops —
        // steps(0) is guaranteed to charge (and trip) a budget step. On
        // easier graphs the bounds close the whole search without ever
        // charging one, which is precisely the engine's point.
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                if u / 3 != v / 3 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(12, edges).unwrap();
        let mut sink = CountReporter::new();
        let result = run_query(
            &g,
            Query::new(QuerySpec::MaximumClique).with_budget(Budget::steps(0)),
            &mut sink,
        )
        .unwrap();
        assert_eq!(
            result.outcome,
            Outcome::Truncated {
                reason: TruncationReason::StepLimit
            }
        );
        assert!(result.stats.terminated_by_budget >= 1);
        assert_eq!(
            result.terminating_bound(),
            crate::maxclique::TerminatingBound::Budget
        );
        // The greedy lower-bound clique is still returned as best-so-far.
        let QueryValue::Maximum(best) = result.value else {
            panic!("expected Maximum value");
        };
        assert!(!best.is_empty());
        assert!(g.is_clique(&best));
    }

    #[test]
    fn top1_size_floor_matches_unfloored_selection() {
        let g = test_graph();
        let mut sink = CountReporter::new();
        let result = run_query(&g, Query::new(QuerySpec::TopKBySize { k: 1 }), &mut sink).unwrap();
        let QueryValue::TopK(top) = result.value else {
            panic!("expected TopK value");
        };
        assert_eq!(top, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn kclique_spec_streams_and_respects_the_cap() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        let result =
            run_query(&g, Query::new(QuerySpec::KClique { k: 3 }), &mut collector).unwrap();
        assert_eq!(result.outcome, Outcome::Complete);
        let all = collector.into_sorted();
        assert_eq!(all.len() as u64, crate::count_k_cliques(&g, 3));
        let mut capped = CollectReporter::new();
        let result = run_query(
            &g,
            Query::new(QuerySpec::KClique { k: 3 }).with_budget(Budget::cliques(2)),
            &mut capped,
        )
        .unwrap();
        assert_eq!(capped.cliques.len(), 2);
        assert!(result.outcome.is_truncated());
    }

    #[test]
    fn truncated_outcomes_always_report_budget_termination() {
        // Regression: non-streaming specs (Count, TopKBySize) and the
        // k-clique path used to report `terminated_by_budget == 0` on
        // truncated runs (the k-clique arm fabricated default stats; higher
        // thread counts could trip the budget between root ranks without
        // abandoning a frame). Every truncated outcome must now report >= 1.
        //
        // Moon–Moser K_{3,3,3,3}: no vertex neighbourhood is a clique, so
        // graph reduction removes nothing and the branching loops (the
        // step-gated work) always run — steps(0) is guaranteed to truncate.
        // The top-k case asks for more cliques than the graph has (k = 100):
        // the size bound then never activates, so its branching loops run
        // like the others'. (A small k can legitimately COMPLETE under
        // steps(0) now — the core/coloring bounds close every branch before
        // any step-gated work runs; see
        // top_k_small_k_completes_under_zero_step_budget.)
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                if u / 3 != v / 3 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(12, edges).unwrap();
        for threads in [1usize, 3] {
            for (label, spec) in [
                ("count", QuerySpec::Count),
                ("topk", QuerySpec::TopKBySize { k: 100 }),
                ("kclique", QuerySpec::KClique { k: 3 }),
            ] {
                let mut sink = CountReporter::new();
                let result = run_query(
                    &g,
                    Query::new(spec)
                        .with_threads(threads)
                        .with_budget(Budget::steps(0)),
                    &mut sink,
                )
                .unwrap();
                assert_eq!(
                    result.outcome,
                    Outcome::Truncated {
                        reason: TruncationReason::StepLimit
                    },
                    "{label} x{threads}"
                );
                assert!(
                    result.stats.terminated_by_budget > 0,
                    "{label} x{threads}: truncated run reported 0 budget-terminated"
                );
                assert!(
                    result.budget_steps > 0,
                    "{label} x{threads}: a step tripped the bound, so >= 1 was charged"
                );
            }
        }
    }

    #[test]
    fn top_k_small_k_completes_under_zero_step_budget() {
        // The flip side of truncated_outcomes_always_report_budget_termination:
        // on Moon–Moser K_{3,3,3,3} with a small k, the early-termination
        // emitter serves the first root without charging a step and the
        // coloring bound then closes every other root — the whole query
        // completes without any step-gated work, even under steps(0).
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                if u / 3 != v / 3 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(12, edges).unwrap();
        let mut sink = CountReporter::new();
        let unbudgeted =
            run_query(&g, Query::new(QuerySpec::TopKBySize { k: 3 }), &mut sink).unwrap();
        let result = run_query(
            &g,
            Query::new(QuerySpec::TopKBySize { k: 3 }).with_budget(Budget::steps(0)),
            &mut sink,
        )
        .unwrap();
        assert_eq!(result.outcome, Outcome::Complete);
        assert_eq!(result.value, unbudgeted.value);
        assert!(
            result.stats.branches_pruned_by_color > 0 || result.stats.branches_pruned_by_core > 0,
            "the bounds, not brute force, closed the search"
        );
    }

    #[test]
    fn top_k_bounds_match_enumeration_riding_selection() {
        // The pruned top-k path must retain exactly what a TopKReporter
        // riding the full ordered enumeration retains — same cliques, same
        // ranking — for every preset and for k values below, at and above
        // the number of maximal cliques, while evaluating no more branches.
        let g = test_graph();
        for (name, config) in SolverConfig::named_presets() {
            for k in [1usize, 2, 3, 5, 64] {
                let mut riding = TopKReporter::new(k);
                let full = run_query(
                    &g,
                    Query::new(QuerySpec::Enumerate).with_config(config),
                    &mut riding,
                )
                .unwrap();
                let mut sink = CountReporter::new();
                let result = run_query(
                    &g,
                    Query::new(QuerySpec::TopKBySize { k }).with_config(config),
                    &mut sink,
                )
                .unwrap();
                assert_eq!(
                    result.value,
                    QueryValue::TopK(riding.into_cliques()),
                    "{name} k={k}"
                );
                assert!(
                    result.stats.recursive_calls <= full.stats.recursive_calls,
                    "{name} k={k}: bounded run opened more branches ({} > {})",
                    result.stats.recursive_calls,
                    full.stats.recursive_calls,
                );
            }
        }
    }

    #[test]
    fn kclique_truncated_stats_are_populated() {
        let g = test_graph();
        let mut collector = CollectReporter::new();
        let result = run_query(
            &g,
            Query::new(QuerySpec::KClique { k: 3 }).with_budget(Budget::steps(2)),
            &mut collector,
        )
        .unwrap();
        assert!(result.outcome.is_truncated());
        assert!(result.stats.terminated_by_budget > 0);
        assert!(result.stats.recursive_calls > 0);
    }

    #[test]
    fn deadline_budget_truncates_with_the_deadline_reason() {
        let g = test_graph();
        let (full, _) = ordered_text_bytes(&g, Query::new(QuerySpec::Enumerate));
        for threads in [1usize, 4] {
            let query = Query::new(QuerySpec::Enumerate)
                .with_threads(threads)
                .with_budget(Budget::within(std::time::Duration::ZERO));
            let (bytes, result) = ordered_text_bytes(&g, query);
            assert_eq!(
                result.outcome,
                Outcome::Truncated {
                    reason: TruncationReason::DeadlineExceeded
                },
                "x{threads}"
            );
            assert!(result.stats.terminated_by_budget >= 1);
            assert_eq!(&full[..bytes.len()], &bytes[..], "x{threads}: byte-prefix");
        }
    }

    #[test]
    fn generous_deadline_runs_to_completion() {
        let g = test_graph();
        let query = Query::new(QuerySpec::Count)
            .with_budget(Budget::within(std::time::Duration::from_secs(3600)));
        let mut sink = CountReporter::new();
        let result = run_query(&g, query, &mut sink).unwrap();
        assert_eq!(result.outcome, Outcome::Complete);
    }

    /// Panics on the first report — the fault-injection reporter.
    struct PanickingReporter;

    impl CliqueReporter for PanickingReporter {
        fn report(&mut self, _clique: &[VertexId]) {
            panic!("injected session fault");
        }
    }

    #[test]
    fn try_run_contains_worker_panics_as_typed_errors() {
        let g = test_graph();
        for threads in [1usize, 4] {
            let session =
                ExecSession::new(&g, Query::new(QuerySpec::Enumerate).with_threads(threads))
                    .unwrap();
            let err = session.try_run(&mut PanickingReporter).unwrap_err();
            match err {
                EngineError::WorkerPanic { detail } => {
                    assert_eq!(detail, "injected session fault", "x{threads}")
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_run_contains_anchored_and_kclique_panics() {
        let g = test_graph();
        for spec in [
            QuerySpec::Anchored { vertices: vec![3] },
            QuerySpec::KClique { k: 2 },
        ] {
            let session = ExecSession::new(&g, Query::new(spec.clone())).unwrap();
            let err = session.try_run(&mut PanickingReporter).unwrap_err();
            assert!(
                matches!(err, EngineError::WorkerPanic { .. }),
                "{spec:?}: {err:?}"
            );
        }
    }

    #[test]
    fn run_reraises_contained_panics() {
        let g = test_graph();
        let session = ExecSession::new(&g, Query::new(QuerySpec::Enumerate)).unwrap();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            session.run(&mut PanickingReporter);
        }));
        let payload = caught.expect_err("the fault must re-raise");
        assert_eq!(
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default(),
            "injected session fault"
        );
    }

    #[test]
    fn invalid_config_is_rejected_at_admission() {
        let g = test_graph();
        let cfg = SolverConfig {
            early_termination_t: 9,
            ..SolverConfig::default()
        };
        let err = ExecSession::new(&g, Query::new(QuerySpec::Count).with_config(cfg)).unwrap_err();
        assert!(err.to_string().contains("invalid query"));
    }
}
