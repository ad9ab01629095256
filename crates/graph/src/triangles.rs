//! Triangle listing, triangle counting and per-edge support.
//!
//! The truss decomposition (and hence the truss-based edge ordering of the
//! paper) is driven by the *support* of an edge `(u, v)`: the number of
//! common neighbours of `u` and `v`, i.e. the number of triangles the edge
//! participates in. This module provides
//!
//! * [`EdgeIndex`] — a canonical dense numbering of the undirected edges,
//!   laid out slot-aligned beside every vertex's sorted neighbour list,
//! * [`for_each_triangle`] — every triangle once, as its three edge ids, from
//!   one degree-oriented pass in `O(m·√m)`,
//! * [`edge_supports`] — per-edge supports from that pass,
//! * [`triangle_count`] / [`list_triangles`] — global triangle statistics.

use std::ops::ControlFlow;

use crate::graph::VertexId;
use crate::topology::GraphTopology;

/// Identifier of an undirected edge in an [`EdgeIndex`].
pub type EdgeId = u32;

/// Dense numbering of the undirected edges of a graph, slot-aligned with the
/// adjacency.
///
/// Edge ids follow the "upper adjacency" order: edges are grouped by their
/// smaller endpoint `u` and, within a group, sorted by the larger endpoint
/// `v`.
///
/// The index keeps a CSR copy of the sorted neighbour lists and, in a
/// parallel array, the id of the edge behind every slot: `slot_ids(u)[i]` is
/// the id of `{u, neighbors(u)[i]}`. A merge of two neighbour lists therefore
/// yields the ids of both triangle edges with no lookup
/// ([`EdgeIndex::for_each_common`]), and [`EdgeIndex::edge_id`] is one search
/// over the shorter of the two endpoint lists. The endpoints of an edge are
/// read back from its slot ([`EdgeIndex::endpoints`]), so the index costs
/// `8(n+1) + 4(n+1) + 16m` bytes.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// `neighbors[offsets[u]..offsets[u + 1]]` is the sorted adjacency of `u`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    neighbors: Vec<VertexId>,
    /// Edge id of every neighbour slot, parallel to `neighbors`.
    slot_ids: Vec<EdgeId>,
    /// `first_id[u]` is the first id of the edges whose smaller endpoint is
    /// `u`; they hold the last `first_id[u + 1] - first_id[u]` slots of `u`'s
    /// list. `first_id[n]` is the number of edges.
    first_id: Vec<EdgeId>,
}

impl EdgeIndex {
    /// Builds the edge index of `g`.
    pub fn new<G: GraphTopology>(g: &G) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.m());
        offsets.push(0);
        for u in g.vertices_iter() {
            neighbors.extend(g.neighbors_iter(u));
            offsets.push(neighbors.len());
        }
        // `upper[v]` walks the slots of v's larger neighbours. Vertices are
        // numbered in increasing order, so when `u` meets a smaller
        // neighbour `v`, the edge `{v, u}` is the next unread upper slot of
        // `v`, whose id was assigned when `v` was numbered.
        let mut upper: Vec<usize> = (0..n)
            .map(|v| {
                offsets[v]
                    + neighbors[offsets[v]..offsets[v + 1]].partition_point(|&w| (w as usize) < v)
            })
            .collect();
        let mut first_id = Vec::with_capacity(n + 1);
        let mut next: EdgeId = 0;
        let mut slot_ids = vec![0 as EdgeId; neighbors.len()];
        for u in 0..n {
            first_id.push(next);
            for slot in offsets[u]..offsets[u + 1] {
                let v = neighbors[slot];
                if v as usize > u {
                    slot_ids[slot] = next;
                    next += 1;
                } else {
                    let up = &mut upper[v as usize];
                    debug_assert_eq!(neighbors[*up] as usize, u);
                    slot_ids[slot] = slot_ids[*up];
                    *up += 1;
                }
            }
        }
        first_id.push(next);
        EdgeIndex {
            offsets,
            neighbors,
            slot_ids,
            first_id,
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.first_id[self.n()] as usize
    }

    /// Whether the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of vertices of the indexed graph.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Endpoints `(u, v)` with `u < v` of edge `e`: `u` is found by a binary
    /// search over the per-vertex first ids, `v` in `u`'s upper slots.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        debug_assert!((e as usize) < self.len());
        let u = self.first_id.partition_point(|&f| f <= e) - 1;
        let slot = self.offsets[u + 1] - (self.first_id[u + 1] - e) as usize;
        (u as VertexId, self.neighbors[slot])
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The sorted neighbours of `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Edge ids parallel to [`EdgeIndex::neighbors`]: `slot_ids(u)[i]` is the
    /// id of `{u, neighbors(u)[i]}`.
    #[inline]
    pub fn slot_ids(&self, u: VertexId) -> &[EdgeId] {
        &self.slot_ids[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Looks up the id of the edge `{u, v}`, if present, by searching the
    /// shorter of the two neighbour lists.
    #[inline]
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a)
            .binary_search(&b)
            .ok()
            .map(|i| self.slot_ids[self.offsets[a as usize] + i])
    }

    /// Calls `each(w, id(u, w), id(v, w))` for every common neighbour `w` of
    /// `u` and `v`, in increasing order of `w`, until `each` breaks.
    #[inline]
    pub fn for_each_common<F>(&self, u: VertexId, v: VertexId, mut each: F)
    where
        F: FnMut(VertexId, EdgeId, EdgeId) -> ControlFlow<()>,
    {
        let (nu, iu) = (self.neighbors(u), self.slot_ids(u));
        let (nv, iv) = (self.neighbors(v), self.slot_ids(v));
        // Both cursors advance without a data-dependent branch.
        let (mut i, mut j) = (0, 0);
        while i < nu.len() && j < nv.len() {
            let (a, b) = (nu[i], nv[j]);
            if a == b && each(a, iu[i], iv[j]).is_break() {
                return;
            }
            i += usize::from(a <= b);
            j += usize::from(a >= b);
        }
    }
}

/// Calls `each(uv, vw, uw)` once for every triangle `{u, v, w}` of the
/// indexed graph, with the ids of its three edges.
///
/// Edges are oriented from lower to higher `(degree, id)` rank, so every
/// vertex keeps at most `O(√m)` out-neighbours; each triangle is found once,
/// from its lowest-ranked vertex `u`, by marking `u`'s out-neighbours and
/// scanning the out-neighbours of each out-neighbour `v`.
pub fn for_each_triangle<F>(index: &EdgeIndex, mut each: F)
where
    F: FnMut(EdgeId, EdgeId, EdgeId),
{
    let n = index.n();
    let rank = |v: VertexId| (index.degree(v), v);
    let mut forward_offsets = Vec::with_capacity(n + 1);
    let mut forward: Vec<(VertexId, EdgeId)> = Vec::with_capacity(index.len());
    forward_offsets.push(0);
    for u in 0..n as VertexId {
        let ru = rank(u);
        for (&v, &e) in index.neighbors(u).iter().zip(index.slot_ids(u)) {
            if rank(v) > ru {
                forward.push((v, e));
            }
        }
        forward_offsets.push(forward.len());
    }
    let out = |u: usize| &forward[forward_offsets[u]..forward_offsets[u + 1]];
    const UNMARKED: EdgeId = EdgeId::MAX;
    let mut mark = vec![UNMARKED; n];
    for u in 0..n {
        for &(w, uw) in out(u) {
            mark[w as usize] = uw;
        }
        for &(v, uv) in out(u) {
            for &(w, vw) in out(v as usize) {
                let uw = mark[w as usize];
                if uw != UNMARKED {
                    each(uv, vw, uw);
                }
            }
        }
        for &(w, _) in out(u) {
            mark[w as usize] = UNMARKED;
        }
    }
}

/// Computes the support (number of common neighbours) of every edge.
///
/// Returns the [`EdgeIndex`] together with `support[e]` for every edge id.
pub fn edge_supports<G: GraphTopology>(g: &G) -> (EdgeIndex, Vec<u32>) {
    let index = EdgeIndex::new(g);
    let mut support = vec![0u32; index.len()];
    for_each_triangle(&index, |a, b, c| {
        for e in [a, b, c] {
            support[e as usize] += 1;
        }
    });
    (index, support)
}

/// Counts the triangles of `g` with [`for_each_triangle`].
pub fn triangle_count<G: GraphTopology>(g: &G) -> u64 {
    let mut count = 0u64;
    for_each_triangle(&EdgeIndex::new(g), |_, _, _| count += 1);
    count
}

/// Lists every triangle of `g` exactly once as `(a, b, c)` with `a < b < c`,
/// in lexicographic order.
pub fn list_triangles<G: GraphTopology>(g: &G) -> Vec<(VertexId, VertexId, VertexId)> {
    let index = EdgeIndex::new(g);
    let mut out = Vec::new();
    for_each_triangle(&index, |uv, vw, _| {
        let ((a, b), (c, d)) = (index.endpoints(uv), index.endpoints(vw));
        let w = if c == a || c == b { d } else { c };
        let mut t = [a, b, w];
        t.sort_unstable();
        out.push((t[0], t[1], t[2]));
    });
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn triangle_with_tail() -> Graph {
        // Triangle 0-1-2, tail 2-3.
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn edge_index_enumerates_all_edges() {
        let g = triangle_with_tail();
        let idx = EdgeIndex::new(&g);
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        let all: Vec<_> = (0..4).map(|e| idx.endpoints(e)).collect();
        assert_eq!(all, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    /// A hub 0 joined to every vertex, plus a path 1-2-…-9: lists of very
    /// different lengths.
    fn hub_with_path() -> Graph {
        let hub = (1..10).map(|v| (0, v));
        let path = (1..9).map(|v| (v, v + 1));
        Graph::from_edges(10, hub.chain(path)).unwrap()
    }

    #[test]
    fn edge_id_lookup_both_orientations() {
        let g = triangle_with_tail();
        let idx = EdgeIndex::new(&g);
        let e = idx.edge_id(2, 0).unwrap();
        assert_eq!(idx.endpoints(e), (0, 2));
        assert_eq!(idx.edge_id(0, 2), Some(e));
        assert_eq!(idx.edge_id(1, 3), None);
        assert_eq!(idx.edge_id(3, 3), None);

        // Every edge, looked up from either end (the search runs over the
        // shorter list, hub or leaf), maps back to its own endpoints.
        let g = hub_with_path();
        let idx = EdgeIndex::new(&g);
        for e in 0..idx.len() as EdgeId {
            let (u, v) = idx.endpoints(e);
            assert_eq!(idx.edge_id(u, v), Some(e));
            assert_eq!(idx.edge_id(v, u), Some(e));
        }
        assert_eq!(idx.edge_id(9, 1), None);
        assert_eq!(idx.edge_id(2, 7), None);
    }

    #[test]
    fn slot_ids_are_aligned_with_sorted_neighbors() {
        let g = hub_with_path();
        let idx = EdgeIndex::new(&g);
        for u in g.vertices() {
            assert_eq!(idx.neighbors(u), g.neighbors(u));
            assert_eq!(idx.degree(u), g.degree(u));
            for (&w, &e) in idx.neighbors(u).iter().zip(idx.slot_ids(u)) {
                let (a, b) = idx.endpoints(e);
                assert_eq!((a, b), (u.min(w), u.max(w)));
            }
        }
    }

    #[test]
    fn common_edge_merge_yields_both_triangle_edge_ids() {
        let g = Graph::complete(12);
        let idx = EdgeIndex::new(&g);
        let mut common = Vec::new();
        let mut buf = Vec::new();
        for (u, v) in [(0, 1), (3, 11), (11, 3), (5, 6)] {
            common.clear();
            idx.for_each_common(u, v, |w, uw, vw| {
                assert_eq!(idx.edge_id(u, w), Some(uw));
                assert_eq!(idx.edge_id(v, w), Some(vw));
                common.push(w);
                ControlFlow::Continue(())
            });
            g.common_neighbors_into(u, v, &mut buf);
            assert_eq!(common, buf, "common neighbours of ({u}, {v}) in order");
        }
        // Lists of very different lengths (hub vs path vertex).
        let g = hub_with_path();
        let idx = EdgeIndex::new(&g);
        for (u, v) in [(0, 5), (5, 0), (0, 9), (3, 4)] {
            common.clear();
            idx.for_each_common(u, v, |w, uw, vw| {
                assert_eq!(idx.endpoints(uw), (u.min(w), u.max(w)));
                assert_eq!(idx.endpoints(vw), (v.min(w), v.max(w)));
                common.push(w);
                ControlFlow::Continue(())
            });
            g.common_neighbors_into(u, v, &mut buf);
            assert_eq!(common, buf, "common neighbours of ({u}, {v}) in order");
        }
        // Breaking stops the merge at once.
        let mut seen = 0;
        EdgeIndex::new(&Graph::complete(12)).for_each_common(0, 1, |_, _, _| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn for_each_triangle_lists_each_triangle_once() {
        let g = Graph::complete(7);
        let idx = EdgeIndex::new(&g);
        let mut seen = std::collections::BTreeSet::new();
        for_each_triangle(&idx, |a, b, c| {
            let mut vs: Vec<VertexId> = [a, b, c]
                .iter()
                .flat_map(|&e| {
                    let (u, v) = idx.endpoints(e);
                    [u, v]
                })
                .collect();
            vs.sort_unstable();
            vs.dedup();
            assert_eq!(vs.len(), 3, "three edges of one triangle");
            assert!(seen.insert(vs), "triangle listed twice");
        });
        assert_eq!(seen.len(), 35);
    }

    #[test]
    fn supports_of_triangle_with_tail() {
        let g = triangle_with_tail();
        let (idx, sup) = edge_supports(&g);
        let s = |u, v| sup[idx.edge_id(u, v).unwrap() as usize];
        assert_eq!(s(0, 1), 1);
        assert_eq!(s(0, 2), 1);
        assert_eq!(s(1, 2), 1);
        assert_eq!(s(2, 3), 0);
    }

    #[test]
    fn triangle_count_small_graphs() {
        assert_eq!(triangle_count(&Graph::empty(5)), 0);
        assert_eq!(triangle_count(&Graph::complete(3)), 1);
        assert_eq!(triangle_count(&Graph::complete(5)), 10);
        assert_eq!(triangle_count(&triangle_with_tail()), 1);
        let c4 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(triangle_count(&c4), 0);
    }

    #[test]
    fn list_triangles_matches_count() {
        let g = Graph::complete(6);
        let listed = list_triangles(&g);
        assert_eq!(listed.len() as u64, triangle_count(&g));
        assert_eq!(listed.len(), 20);
        for &(a, b, c) in &listed {
            assert!(a < b && b < c);
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
        }
    }

    #[test]
    fn support_sum_equals_three_times_triangles() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (2, 5),
            ],
        )
        .unwrap();
        let (_, sup) = edge_supports(&g);
        let sum: u64 = sup.iter().map(|&s| s as u64).sum();
        assert_eq!(sum, 3 * triangle_count(&g));
    }
}
