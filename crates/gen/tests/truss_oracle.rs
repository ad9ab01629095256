//! The truss ordering against a reference peel.
//!
//! `truss_ordering` computes supports with one oriented triangle pass and
//! peels through slot-aligned edge ids, skipping and cutting short merges
//! that cannot push a bucket. The reference below is the plain bucket-queue
//! peel it replaced: supports from full common-neighbour merges and a
//! binary-searched edge id per triangle edge. Both must agree exactly on
//! `order`, `position`, `peel_support` and τ — the edge roots and the
//! ordered output depend on every one of them — on sparse and dense global
//! representations alike.

use mce_gen::{barabasi_albert, erdos_renyi, planted_communities, PlantedConfig};
use mce_graph::{truss_ordering, AdjMatrix, Graph, GraphTopology, TrussOrdering, VertexId};
use proptest::prelude::*;

/// The reference peel's result: `(order, position, peel_support, tau)`.
type Peel = (Vec<u32>, Vec<usize>, Vec<u32>, usize);

/// Edges numbered by smaller endpoint, then larger endpoint, with ids found
/// by binary search in the smaller endpoint's upper range.
struct RefIndex {
    endpoints: Vec<(VertexId, VertexId)>,
    upper_offsets: Vec<usize>,
    upper_neighbors: Vec<VertexId>,
}

impl RefIndex {
    fn new<G: GraphTopology>(g: &G) -> Self {
        let mut endpoints = Vec::new();
        let mut upper_offsets = vec![0];
        let mut upper_neighbors = Vec::new();
        for u in g.vertices_iter() {
            for v in g.neighbors_iter(u).filter(|&v| v > u) {
                endpoints.push((u, v));
                upper_neighbors.push(v);
            }
            upper_offsets.push(endpoints.len());
        }
        RefIndex {
            endpoints,
            upper_offsets,
            upper_neighbors,
        }
    }

    fn edge_id(&self, u: VertexId, v: VertexId) -> usize {
        let (a, b) = (u.min(v) as usize, u.max(v));
        let (lo, hi) = (self.upper_offsets[a], self.upper_offsets[a + 1]);
        lo + self.upper_neighbors[lo..hi]
            .binary_search(&b)
            .expect("triangle edge exists")
    }
}

fn reference_peel<G: GraphTopology>(g: &G) -> (RefIndex, Peel) {
    let index = RefIndex::new(g);
    let m = index.endpoints.len();
    let mut buf = Vec::new();
    let mut support: Vec<u32> = index
        .endpoints
        .iter()
        .map(|&(u, v)| {
            g.common_neighbors_into(u, v, &mut buf);
            buf.len() as u32
        })
        .collect();
    let max_sup = support.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_sup + 1];
    for e in 0..m {
        buckets[support[e] as usize].push(e as u32);
    }
    let mut alive = vec![true; m];
    let (mut order, mut position, mut peel_support) = (Vec::new(), vec![0; m], vec![0; m]);
    let (mut tau, mut current) = (0usize, 0usize);
    for step in 0..m {
        let e = loop {
            match buckets[current].pop() {
                Some(e) if alive[e as usize] && support[e as usize] as usize == current => break e,
                Some(_) => continue,
                None => current += 1,
            }
        };
        alive[e as usize] = false;
        peel_support[e as usize] = support[e as usize];
        tau = tau.max(support[e as usize] as usize);
        position[e as usize] = step;
        order.push(e);
        let (u, v) = index.endpoints[e as usize];
        g.common_neighbors_into(u, v, &mut buf);
        for &w in &buf {
            let (uw, vw) = (index.edge_id(u, w), index.edge_id(v, w));
            if alive[uw] && alive[vw] {
                for f in [uw, vw] {
                    if support[f] > 0 {
                        support[f] -= 1;
                        buckets[support[f] as usize].push(f as u32);
                        current = current.min(support[f] as usize);
                    }
                }
            }
        }
    }
    (index, (order, position, peel_support, tau))
}

fn assert_matches_reference<G: GraphTopology>(g: &G, what: &str) {
    let t: TrussOrdering = truss_ordering(g);
    let (index, (order, position, peel_support, tau)) = reference_peel(g);
    let endpoints: Vec<_> = (0..t.index.len() as u32)
        .map(|e| t.index.endpoints(e))
        .collect();
    assert_eq!(endpoints, index.endpoints, "{what}: edge ids");
    assert_eq!(t.order, order, "{what}: order");
    assert_eq!(t.position, position, "{what}: position");
    assert_eq!(t.peel_support, peel_support, "{what}: peel_support");
    assert_eq!(t.tau, tau, "{what}: tau");
}

fn check_both_representations(g: &Graph, what: &str) {
    assert_matches_reference(g, what);
    assert_matches_reference(&AdjMatrix::from_topology(g), &format!("{what} (dense)"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truss_ordering_matches_reference_on_er(n in 2usize..160, density in 1usize..12, seed in 0u64..10_000) {
        let g = erdos_renyi(n, n * density, seed);
        check_both_representations(&g, &format!("er n={n} d={density} seed={seed}"));
    }

    #[test]
    fn truss_ordering_matches_reference_on_ba(n in 10usize..220, k in 1usize..9, seed in 0u64..10_000) {
        let g = barabasi_albert(n, k, seed);
        check_both_representations(&g, &format!("ba n={n} k={k} seed={seed}"));
    }

    #[test]
    fn truss_ordering_matches_reference_on_planted(communities in 1usize..30, seed in 0u64..10_000) {
        let g = planted_communities(&PlantedConfig {
            n: 200,
            communities,
            background_edges: 300,
            seed,
            ..PlantedConfig::default()
        });
        check_both_representations(&g, &format!("planted c={communities} seed={seed}"));
    }
}
