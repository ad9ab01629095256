//! Property-based tests for the graph substrate: ordering invariants, the
//! τ < δ relationship the paper's complexity argument relies on, and model
//! checks of the bitset against a reference set.

use std::collections::BTreeSet;

use mce_graph::degeneracy::degeneracy_ordering;
use mce_graph::triangles::{edge_supports, triangle_count};
use mce_graph::truss::truss_ordering;
use mce_graph::{AdjMatrix, BitSet, Graph, GraphStats, KernelBackend, PlexCheck};
use proptest::prelude::*;

/// Word vectors biased toward the shapes where SIMD arms can diverge from
/// scalar code: all-zero words (empty rows), all-one words (full rows) and
/// arbitrary bit soup, at every length from empty through several SIMD chunks
/// plus a ragged tail.
fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u32..9, any::<u64>()), 0..=21).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, soup)| match kind {
                0 | 1 => 0u64,
                2 | 3 => !0u64,
                _ => soup,
            })
            .collect()
    })
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(200))
            .prop_map(move |edges| Graph::from_edges(n, edges).expect("endpoints in range"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn degeneracy_ordering_is_valid_peeling(g in arb_graph()) {
        let d = degeneracy_ordering(&g);
        // The ordering is a permutation.
        let mut sorted = d.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.n() as u32).collect::<Vec<_>>());
        // Every vertex has at most δ neighbours later in the ordering.
        for v in g.vertices() {
            prop_assert!(d.later_neighbors(&g, v).len() <= d.degeneracy);
        }
        // δ is tight: some vertex attains it… unless the graph is edgeless.
        if g.m() > 0 {
            prop_assert!(d.degeneracy >= 1);
        } else {
            prop_assert_eq!(d.degeneracy, 0);
        }
    }

    #[test]
    fn truss_parameter_is_below_degeneracy(g in arb_graph()) {
        let tau = truss_ordering(&g).tau;
        let delta = degeneracy_ordering(&g).degeneracy;
        // τ ≤ δ always; strictly smaller whenever the graph has an edge
        // (matches the paper's τ < δ claim: a degeneracy-δ graph has an edge
        // whose endpoints share at most δ − 1 neighbours).
        prop_assert!(tau <= delta);
        if g.m() > 0 {
            prop_assert!(tau < delta.max(1) || delta == 0 || tau < delta,
                "tau={} delta={}", tau, delta);
        }
    }

    #[test]
    fn truss_peeling_supports_bound_remaining_supports(g in arb_graph()) {
        let t = truss_ordering(&g);
        let mut buf = Vec::new();
        for i in 0..t.len() {
            let e = t.order[i];
            let (u, v) = t.index.endpoints(e);
            g.common_neighbors_into(u, v, &mut buf);
            let later = buf
                .iter()
                .filter(|&&w| {
                    let uw = t.index.edge_id(u, w).unwrap() as usize;
                    let vw = t.index.edge_id(v, w).unwrap() as usize;
                    t.position[uw] > i && t.position[vw] > i
                })
                .count();
            prop_assert_eq!(later, t.peel_support[e as usize] as usize);
            prop_assert!(later <= t.tau);
        }
    }

    #[test]
    fn edge_support_sum_is_three_times_triangles(g in arb_graph()) {
        let (_, supports) = edge_supports(&g);
        let sum: u64 = supports.iter().map(|&s| s as u64).sum();
        prop_assert_eq!(sum, 3 * triangle_count(&g));
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in arb_graph(), keep in proptest::collection::vec(any::<bool>(), 0..40)) {
        let vertices: Vec<u32> = g
            .vertices()
            .filter(|&v| keep.get(v as usize).copied().unwrap_or(false))
            .collect();
        let (sub, map) = g.induced_subgraph(&vertices);
        prop_assert_eq!(sub.n(), vertices.len());
        for a in 0..sub.n() as u32 {
            for b in (a + 1)..sub.n() as u32 {
                prop_assert_eq!(sub.has_edge(a, b), g.has_edge(map[a as usize], map[b as usize]));
            }
        }
    }

    #[test]
    fn complement_involution_on_small_graphs(g in arb_graph()) {
        if g.n() <= 20 {
            prop_assert_eq!(g.complement().complement(), g);
        }
    }

    #[test]
    fn plex_level_matches_complement_max_degree(g in arb_graph()) {
        let level = PlexCheck::plex_level(&g);
        let complement_max = g.complement().max_degree();
        if g.n() > 0 {
            prop_assert_eq!(level, complement_max + 1);
        }
    }

    #[test]
    fn stats_condition_is_consistent(g in arb_graph()) {
        let s = GraphStats::compute(&g);
        prop_assert_eq!(s.n, g.n());
        prop_assert_eq!(s.m, g.m());
        prop_assert!(s.tau <= s.degeneracy);
        let threshold = s.condition_threshold();
        prop_assert!(threshold >= 3.0 - 1e-9);
        prop_assert_eq!(s.hbbmc_condition_holds(), s.degeneracy as f64 >= threshold - 1e-12);
    }

    #[test]
    fn bitset_behaves_like_btreeset(ops in proptest::collection::vec((0usize..128, any::<bool>()), 0..200)) {
        let mut bits = BitSet::with_capacity(128);
        let mut model = BTreeSet::new();
        for (value, insert) in ops {
            if insert {
                prop_assert_eq!(bits.insert(value), model.insert(value));
            } else {
                prop_assert_eq!(bits.remove(value), model.remove(&value));
            }
        }
        prop_assert_eq!(bits.len(), model.len());
        prop_assert_eq!(bits.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn unrolled_word_kernels_match_scalar_reference(
        words_a in proptest::collection::vec(any::<u64>(), 0..=9),
        mask in proptest::collection::vec(any::<u64>(), 0..=9),
    ) {
        // The 4×-unrolled kernels must be bit-identical to the plain
        // one-word-at-a-time definitions on every ragged tail length:
        // 0..=9 words covers empty, sub-chunk, exact-chunk and
        // chunk-plus-tail shapes on both sides, including every mismatched
        // (self longer / mask longer) combination.
        let mut a = BitSet::with_capacity(words_a.len() * 64);
        for (wi, &w) in words_a.iter().enumerate() {
            for b in 0..64 {
                if w >> b & 1 == 1 {
                    a.insert(wi * 64 + b);
                }
            }
        }
        prop_assert_eq!(a.words(), words_a.as_slice());
        let shared = words_a.len().min(mask.len());

        // intersection_len_words == Σ popcount(a & m) over shared words.
        let expected_len: usize = (0..shared)
            .map(|i| (words_a[i] & mask[i]).count_ones() as usize)
            .sum();
        prop_assert_eq!(a.intersection_len_words(&mask), expected_len);

        // intersect_into: a & m on shared words, zero tail, same word count.
        let mut expected_inter: Vec<u64> =
            (0..shared).map(|i| words_a[i] & mask[i]).collect();
        expected_inter.resize(words_a.len(), 0);
        let mut out = BitSet::default();
        a.intersect_into(&mask, &mut out);
        prop_assert_eq!(out.words(), expected_inter.as_slice());
        prop_assert_eq!(out.capacity(), a.capacity());

        // intersect_into_count: same words, and the count is the popcount.
        let count = a.intersect_into_count(&mask, &mut out);
        prop_assert_eq!(out.words(), expected_inter.as_slice());
        prop_assert_eq!(count, expected_len);

        // difference_into: a & !m on shared words, verbatim tail copy.
        let mut expected_diff: Vec<u64> =
            (0..shared).map(|i| words_a[i] & !mask[i]).collect();
        expected_diff.extend_from_slice(&words_a[shared..]);
        a.difference_into(&mask, &mut out);
        prop_assert_eq!(out.words(), expected_diff.as_slice());

        // and_not_collect: identical element stream to and_not_iter.
        let mut collected = Vec::new();
        a.and_not_collect(&mask, &mut collected);
        prop_assert_eq!(collected, a.and_not_iter(&mask).collect::<Vec<_>>());
    }

    #[test]
    fn bitset_intersection_matches_model(
        a in proptest::collection::btree_set(0usize..96, 0..60),
        b in proptest::collection::btree_set(0usize..96, 0..60),
    ) {
        let mut sa = BitSet::with_capacity(96);
        for &v in &a { sa.insert(v); }
        let mut sb = BitSet::with_capacity(96);
        for &v in &b { sb.insert(v); }
        let expected: Vec<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(sa.intersection_len(&sb), expected.len());
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), expected);
        let mut diff = sa.clone();
        diff.difference_with(&sb);
        let expected_diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), expected_diff);
    }

    /// Every available SIMD backend is bit-identical to scalar on the raw
    /// equal-length kernel tables, for empty, full and arbitrary words at
    /// every chunk/tail shape.
    #[test]
    fn kernel_backends_match_scalar_on_raw_tables(a in arb_words(), b in arb_words()) {
        let shared = a.len().min(b.len());
        let (a, b) = (&a[..shared], &b[..shared]);
        let scalar = KernelBackend::Scalar.table().expect("scalar is always available");
        let mut want_inter = vec![0u64; shared];
        let want_count = (scalar.intersect_count)(a, b, &mut want_inter);
        let want_len = (scalar.intersection_len)(a, b);
        let mut want_diff = vec![0u64; shared];
        (scalar.difference)(a, b, &mut want_diff);
        let mut want_bits = vec![usize::MAX]; // non-empty: appends must preserve
        (scalar.and_not_collect)(a, b, &mut want_bits);
        let want_pop = (scalar.popcount)(a);

        for backend in KernelBackend::available() {
            let k = backend.table().expect("available implies table");
            let mut inter = vec![!0u64; shared];
            prop_assert_eq!((k.intersect_count)(a, b, &mut inter), want_count, "{}", backend);
            prop_assert_eq!(&inter, &want_inter, "{}", backend);
            prop_assert_eq!((k.intersection_len)(a, b), want_len, "{}", backend);
            let mut diff = vec![!0u64; shared];
            (k.difference)(a, b, &mut diff);
            prop_assert_eq!(&diff, &want_diff, "{}", backend);
            let mut bits = vec![usize::MAX];
            (k.and_not_collect)(a, b, &mut bits);
            prop_assert_eq!(&bits, &want_bits, "{}", backend);
            prop_assert_eq!((k.popcount)(a), want_pop, "{}", backend);
        }
    }

    /// Backend equivalence through the `BitSet` fused operations, where the
    /// operands are ragged (different word counts) and the set's capacity
    /// need not be word-aligned — the tail and out-of-range handling in
    /// `bitset.rs` must compose identically with every backend.
    #[test]
    fn kernel_backends_match_scalar_through_bitset(
        a_words in arb_words(),
        row in arb_words(),
        slack in 0usize..64,
    ) {
        let cap = (a_words.len() * 64).saturating_sub(slack);
        let mut a = BitSet::with_capacity(cap);
        for (wi, &w) in a_words.iter().enumerate() {
            for bit in 0..64 {
                let idx = wi * 64 + bit;
                if idx < cap && w >> bit & 1 == 1 {
                    a.insert(idx);
                }
            }
        }
        let scalar = KernelBackend::Scalar.table().expect("scalar is always available");
        let want_len = a.intersection_len_words_with(scalar, &row);
        let mut want_inter = BitSet::default();
        let want_count = a.intersect_into_count_with(scalar, &row, &mut want_inter);
        let mut want_diff = BitSet::default();
        a.difference_into_with(scalar, &row, &mut want_diff);
        let mut want_bits = Vec::new();
        a.and_not_collect_with(scalar, &row, &mut want_bits);

        for backend in KernelBackend::available() {
            let k = backend.table().expect("available implies table");
            prop_assert_eq!(a.intersection_len_words_with(k, &row), want_len, "{}", backend);
            let mut inter = BitSet::default();
            prop_assert_eq!(
                a.intersect_into_count_with(k, &row, &mut inter), want_count, "{}", backend
            );
            prop_assert_eq!(inter.words(), want_inter.words(), "{}", backend);
            let mut diff = BitSet::default();
            a.difference_into_with(k, &row, &mut diff);
            prop_assert_eq!(diff.words(), want_diff.words(), "{}", backend);
            let mut bits = Vec::new();
            a.and_not_collect_with(k, &row, &mut bits);
            prop_assert_eq!(&bits, &want_bits, "{}", backend);
        }
    }

    /// Backend equivalence on real adjacency data, both representations: the
    /// dense `AdjMatrix` rows (stride-padded, so SIMD sees the padding words)
    /// and bitsets built from the sparse CSR neighbour lists.
    #[test]
    fn kernel_backends_agree_on_dense_and_csr_rows(g in arb_graph()) {
        let n = g.n();
        let mut dense = AdjMatrix::new(n);
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                dense.insert(v as usize, u as usize);
            }
        }
        let scalar = KernelBackend::Scalar.table().expect("scalar is always available");
        for v in g.vertices() {
            // CSR side: the neighbour list as a bitset…
            let mut csr_row = BitSet::with_capacity(n);
            for &u in g.neighbors(v) {
                csr_row.insert(u as usize);
            }
            // …must see the same counts over the dense rows on every backend.
            let dense_row = dense.row(v as usize);
            prop_assert_eq!((scalar.popcount)(dense_row), g.neighbors(v).len());
            let want = csr_row.intersection_len_words_with(scalar, dense_row);
            let mut want_branch = Vec::new();
            csr_row.and_not_collect_with(scalar, dense_row, &mut want_branch);
            for backend in KernelBackend::available() {
                let k = backend.table().expect("available implies table");
                prop_assert_eq!((k.popcount)(dense_row), g.neighbors(v).len(), "{}", backend);
                prop_assert_eq!(
                    csr_row.intersection_len_words_with(k, dense_row), want, "{}", backend
                );
                let mut branch = Vec::new();
                csr_row.and_not_collect_with(k, dense_row, &mut branch);
                prop_assert_eq!(&branch, &want_branch, "{}", backend);
            }
        }
    }
}
