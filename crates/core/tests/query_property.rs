//! Property tests for the unified query engine: anchored queries against the
//! naive enumerate-then-filter reference, and the budget layer's byte-prefix
//! contract at every thread count.

use hbbmc::{
    naive_maximal_cliques, run_query, Budget, CancelToken, CliqueLineFormat, CollectReporter,
    CountReporter, Outcome, Query, QuerySpec, QueryValue, SolverConfig, TopKReporter,
    WriterReporter,
};
use mce_gen::{
    barabasi_albert, erdos_renyi_gnp, moon_moser, planted_communities, turan_graph, PlantedConfig,
};
use mce_graph::{Graph, VertexId};
use proptest::prelude::*;

/// Naive reference for anchored queries: full enumeration filtered by anchor
/// containment.
fn naive_filter(g: &Graph, anchor: &[VertexId]) -> Vec<Vec<VertexId>> {
    naive_maximal_cliques(g)
        .into_iter()
        .filter(|c| anchor.iter().all(|v| c.contains(v)))
        .collect()
}

/// Runs an anchored query and returns the canonically sorted result.
fn anchored(g: &Graph, anchor: &[VertexId], config: &SolverConfig) -> Vec<Vec<VertexId>> {
    let mut collector = CollectReporter::new();
    let result = run_query(
        g,
        Query::new(QuerySpec::Anchored {
            vertices: anchor.to_vec(),
        })
        .with_config(*config),
        &mut collector,
    )
    .expect("valid anchored query");
    assert_eq!(result.outcome, Outcome::Complete);
    collector.into_sorted()
}

/// Renders the full ordered stream of `g` under `query` to text bytes.
fn query_text(g: &Graph, query: Query) -> (Vec<u8>, Outcome) {
    let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
    let result = run_query(g, query, &mut reporter).expect("valid query");
    (reporter.finish().expect("in-memory sink"), result.outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Anchored queries equal naive enumerate-then-filter on G(n, p),
    /// for anchors of size 1–3 drawn from the vertex set (clique or not).
    #[test]
    fn anchored_matches_naive_filter_on_gnp(
        n in 4usize..30,
        p in 0.05f64..0.7,
        seed in 0u64..1000,
        raw_anchor in proptest::collection::vec(0u32..30, 1..4),
    ) {
        let g = erdos_renyi_gnp(n, p, seed);
        let anchor: Vec<VertexId> = raw_anchor.into_iter().map(|v| v % n as u32).collect();
        let expected = naive_filter(&g, &anchor);
        let got = anchored(&g, &anchor, &SolverConfig::hbbmc_pp());
        prop_assert_eq!(got, expected, "anchor {:?} on G({}, {:.2})", anchor, n, p);
    }

    /// (a) Same on planted-community graphs, across structurally distinct
    /// presets (hybrid, vertex-oriented, Rcd recursion).
    #[test]
    fn anchored_matches_naive_filter_on_planted(
        n in 16usize..40,
        communities in 2usize..5,
        seed in 0u64..500,
        raw_anchor in proptest::collection::vec(0u32..40, 1..3),
    ) {
        let g = planted_communities(&PlantedConfig {
            n,
            communities,
            min_size: 3,
            max_size: 7,
            intra_probability: 1.0,
            background_edges: n,
            seed,
        });
        let anchor: Vec<VertexId> = raw_anchor.into_iter().map(|v| v % n as u32).collect();
        let expected = naive_filter(&g, &anchor);
        for config in [
            SolverConfig::hbbmc_pp(),
            SolverConfig::r_degen(),
            SolverConfig::r_rcd(),
        ] {
            let got = anchored(&g, &anchor, &config);
            prop_assert_eq!(&got, &expected, "anchor {:?} on planted n={}", anchor, n);
        }
    }

    /// (b) A clique-limit truncation is the exact N-clique byte-prefix of the
    /// unbudgeted ordered stream at 1/2/4 threads.
    #[test]
    fn clique_limit_is_an_exact_prefix_under_all_schedulers(
        n in 8usize..28,
        p in 0.15f64..0.6,
        seed in 0u64..500,
        limit in 1u64..12,
    ) {
        let g = erdos_renyi_gnp(n, p, seed);
        let (full, _) = query_text(&g, Query::new(QuerySpec::Enumerate));
        let total = full.iter().filter(|&&b| b == b'\n').count() as u64;
        let expected_lines = limit.min(total) as usize;
        let prefix_end = if expected_lines == 0 {
            0
        } else {
            full.iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .nth(expected_lines - 1)
                .map(|(i, _)| i + 1)
                .unwrap()
        };
        for threads in [1usize, 2, 4] {
            let (bytes, outcome) = query_text(
                &g,
                Query::new(QuerySpec::Enumerate)
                    .with_threads(threads)
                    .with_budget(Budget::cliques(limit)),
            );
            prop_assert_eq!(
                &bytes[..],
                &full[..prefix_end],
                "x{}: limit {} of {} cliques",
                threads, limit, total
            );
            prop_assert_eq!(outcome.is_truncated(), limit < total);
        }
    }

    /// (b) A step-limit or cancellation truncation still yields an exact
    /// byte-prefix (of a priori unknown length) at every thread count.
    #[test]
    fn step_limit_truncation_is_a_byte_prefix_under_all_schedulers(
        n in 8usize..26,
        p in 0.2f64..0.6,
        seed in 0u64..500,
        max_steps in 0u64..40,
    ) {
        let g = erdos_renyi_gnp(n, p, seed);
        let (full, _) = query_text(&g, Query::new(QuerySpec::Enumerate));
        for threads in [1usize, 2, 4] {
            let (bytes, outcome) = query_text(
                &g,
                Query::new(QuerySpec::Enumerate)
                    .with_threads(threads)
                    .with_budget(Budget::steps(max_steps)),
            );
            prop_assert!(
                bytes.len() <= full.len() && full[..bytes.len()] == bytes[..],
                "x{}: steps={} output must be a prefix",
                threads, max_steps
            );
            if outcome == Outcome::Complete {
                prop_assert_eq!(&bytes, &full);
            }
        }
    }

    /// The dedicated top-k search (core-number root pruning + candidate and
    /// coloring upper bounds) must select *exactly* the cliques an unbounded
    /// [`TopKReporter`] riding full enumeration selects — same cliques, same
    /// tie-breaks — while never evaluating more branches. Checked across four
    /// structurally distinct generator families: G(n, p), planted
    /// communities, Barabási–Albert and Moon–Moser.
    #[test]
    fn top_k_with_bounds_matches_unbounded_selection_on_four_families(
        n in 8usize..28,
        p in 0.1f64..0.6,
        seed in 0u64..500,
        k in 1usize..8,
    ) {
        let graphs = [
            erdos_renyi_gnp(n, p, seed),
            planted_communities(&PlantedConfig {
                n: n.max(16),
                communities: 3,
                min_size: 3,
                max_size: 6,
                intra_probability: 1.0,
                background_edges: n,
                seed,
            }),
            barabasi_albert(n, 3, seed),
            moon_moser((n / 6).max(1)),
        ];
        for g in &graphs {
            let mut riding = TopKReporter::new(k);
            let full = run_query(g, Query::new(QuerySpec::Enumerate), &mut riding)
                .expect("valid enumerate query");
            let expected = riding.into_cliques();

            let mut ignored = CountReporter::new();
            let result = run_query(g, Query::new(QuerySpec::TopKBySize { k }), &mut ignored)
                .expect("valid top-k query");
            prop_assert_eq!(result.outcome, Outcome::Complete);
            let QueryValue::TopK(got) = result.value else {
                panic!("TopKBySize yields a TopK value");
            };
            prop_assert_eq!(got, expected, "k={} n={}", k, g.n());
            prop_assert!(
                result.stats.recursive_calls <= full.stats.recursive_calls,
                "bounded search did more work: {} > {}",
                result.stats.recursive_calls,
                full.stats.recursive_calls
            );
        }
    }

    /// Same selection-equivalence on Turán graphs (many same-size maximal
    /// cliques — all ties, so this pins the earlier-arrival tie rule), with
    /// the bounded search's prune counters actually firing for small k.
    #[test]
    fn top_k_tie_handling_matches_on_turan(
        n in 6usize..30,
        r in 2usize..6,
        k in 1usize..5,
    ) {
        let g = turan_graph(n, r.min(n));
        let mut riding = TopKReporter::new(k);
        run_query(&g, Query::new(QuerySpec::Enumerate), &mut riding)
            .expect("valid enumerate query");
        let expected = riding.into_cliques();
        let mut ignored = CountReporter::new();
        let result = run_query(&g, Query::new(QuerySpec::TopKBySize { k }), &mut ignored)
            .expect("valid top-k query");
        let QueryValue::TopK(got) = result.value else {
            panic!("TopKBySize yields a TopK value");
        };
        prop_assert_eq!(got, expected, "k={} on T({}, {})", k, n, r);
    }

    /// Anchored queries respect budgets too: the truncated stream is a prefix
    /// of the anchored stream.
    #[test]
    fn anchored_budget_truncation_is_a_prefix(
        n in 6usize..24,
        p in 0.3f64..0.8,
        seed in 0u64..300,
        limit in 1u64..5,
    ) {
        let g = erdos_renyi_gnp(n, p, seed);
        let anchor = vec![(seed % n as u64) as VertexId];
        let spec = QuerySpec::Anchored { vertices: anchor };
        let (full, _) = query_text(&g, Query::new(spec.clone()));
        let (bytes, _) = query_text(
            &g,
            Query::new(spec).with_budget(Budget::cliques(limit)),
        );
        prop_assert!(bytes.len() <= full.len());
        prop_assert_eq!(&full[..bytes.len()], &bytes[..]);
    }
}

#[test]
fn pre_cancelled_sessions_truncate_under_every_scheduler() {
    let g = erdos_renyi_gnp(20, 0.4, 7);
    let (full, _) = query_text(&g, Query::new(QuerySpec::Enumerate));
    for threads in [1usize, 2, 4] {
        let token = CancelToken::new();
        token.cancel();
        let (bytes, outcome) = query_text(
            &g,
            Query::new(QuerySpec::Enumerate)
                .with_threads(threads)
                .with_budget(Budget::unlimited().with_cancel(token)),
        );
        assert!(outcome.is_truncated(), "x{threads}");
        assert_eq!(&full[..bytes.len()], &bytes[..], "x{threads}");
    }
}
