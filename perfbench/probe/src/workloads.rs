//! The benchmark's workloads: which graphs each one enumerates and serves.
//!
//! Every graph is written as edge-list text under a seeded relabelling (a
//! random vertex permutation, random endpoint order and a shuffled edge
//! order). The relabelling changes the input bytes but never the clique
//! structure, so clique counts are the same for every seed.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

use mce_bench::datasets::{all_datasets, dataset_by_name};
use mce_gen::moon_moser::{moon_moser, moon_moser_clique_count};
use mce_gen::t_plex_from_complement;
use mce_graph::{Graph, VertexId};

/// One benchmark input.
pub struct Input {
    pub name: String,
    pub graph: Graph,
    /// Clique count known by construction, if any.
    pub expected: Option<u64>,
    /// Loaded into `mce serve` for the query mix.
    pub serve: bool,
}

/// The names the harness accepts.
pub const WORKLOADS: &[&str] = &["table3-sparse", "dense-emit", "serve-mix"];

/// Table III surrogates cheap enough to answer full-count queries in under
/// 40 ms; the query mix of `table3-sparse` runs on these.
const TABLE3_SERVED: &[&str] = &["WE", "YO"];

/// `serve-mix` loads these surrogates, shrunk to half their vertex count so
/// a closed query loop completes thousands of queries per run.
const SERVE_MIX: &[&str] = &["WE", "YO", "DB"];
const SERVE_MIX_SCALE: f64 = 0.5;

pub fn build(workload: &str) -> Option<Vec<Input>> {
    match workload {
        "table3-sparse" => Some(
            all_datasets()
                .into_iter()
                .map(|d| Input {
                    serve: TABLE3_SERVED.contains(&d.short),
                    name: d.short.to_string(),
                    graph: d.build(),
                    expected: None,
                })
                .collect(),
        ),
        "dense-emit" => Some(vec![
            moon_moser_input(13, false),
            moon_moser_input(9, true),
            cycle_plex_input(5, 8, false),
            cycle_plex_input(7, 5, false),
            cycle_plex_input(5, 5, true),
        ]),
        "serve-mix" => Some(
            SERVE_MIX
                .iter()
                .map(|short| {
                    let d = dataset_by_name(short).expect("surrogate exists");
                    Input {
                        name: d.short.to_lowercase(),
                        graph: d.build_scaled(SERVE_MIX_SCALE),
                        expected: None,
                        serve: true,
                    }
                })
                .collect(),
        ),
        _ => None,
    }
}

fn moon_moser_input(k: usize, serve: bool) -> Input {
    Input {
        name: format!("mm{}", 3 * k),
        graph: moon_moser(k),
        expected: Some(moon_moser_clique_count(k)),
        serve,
    }
}

/// The Perrin numbers count the maximal independent sets of a cycle.
fn perrin(n: usize) -> u64 {
    let mut p = [3u64, 0, 2];
    for _ in 0..n {
        p = [p[1], p[2], p[0] + p[1]];
    }
    p[0]
}

/// The complement of `count` disjoint `len`-cycles: a 3-plex whose maximal
/// cliques are the products of one maximal independent set per cycle, so it
/// has `perrin(len)^count` of them.
fn cycle_plex_input(len: usize, count: usize, serve: bool) -> Input {
    let n = len * count;
    let complement: Vec<(VertexId, VertexId)> = (0..count)
        .flat_map(|c| {
            (0..len).map(move |i| {
                let base = (c * len) as VertexId;
                (base + i as VertexId, base + ((i + 1) % len) as VertexId)
            })
        })
        .collect();
    Input {
        name: format!("plex-c{len}x{count}"),
        graph: t_plex_from_complement(n, &complement),
        expected: Some(perrin(len).pow(count as u32)),
        serve,
    }
}

/// SplitMix64: the only randomness the benchmark needs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Writes `g` as edge-list text under the seeded relabelling.
pub fn write_relabelled(g: &Graph, rng: &mut Rng, path: &Path) -> std::io::Result<()> {
    let mut perm: Vec<VertexId> = (0..g.n() as VertexId).collect();
    rng.shuffle(&mut perm);
    let mut edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .map(|(u, v)| {
            let (a, b) = (perm[u as usize], perm[v as usize]);
            if rng.next() & 1 == 0 {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    rng.shuffle(&mut edges);
    let mut out = BufWriter::new(fs::File::create(path)?);
    for (u, v) in edges {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perrin_sequence() {
        let got: Vec<u64> = (0..11).map(perrin).collect();
        assert_eq!(got, [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17]);
    }
}
