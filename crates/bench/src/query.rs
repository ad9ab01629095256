//! The anchored-query benchmark behind `cargo bench --bench bench_query` and
//! `experiments query`.
//!
//! Anchored queries ("every maximal clique containing this vertex set") are
//! the serving primitive the unified query engine opens up: instead of
//! enumerating the whole graph and filtering, the engine builds the anchor's
//! common-neighbourhood subgraph once and recurses only inside it. This
//! matrix quantifies what that saves, *counter-first*: the recording host
//! exposes a single CPU, so the headline columns are machine-independent
//! work metrics — `recursive_calls` of the anchored run vs. the full
//! enumeration, the derived `calls_saved` ratio, and
//! `anchored_roots_skipped` (root branches the anchored query never opened)
//! — with wall-clock seconds recorded alongside for completeness.
//!
//! One flat JSON object per anchored cell is appended to the
//! `BENCH_solver.json` trajectory (schema [`SCHEMA`]), carrying both the
//! anchored and the matching full-enumeration numbers so each cell is
//! self-contained.

use std::path::Path;

use hbbmc::{run_query, CountReporter, Query, QuerySpec, QueryValue, SolverConfig};
use mce_gen::{barabasi_albert, planted_communities, PlantedConfig};
use mce_graph::{Graph, VertexId};

use crate::json::{append_validated, JsonValue};

/// Schema tag stamped on every query-benchmark record.
pub const SCHEMA: &str = "hbbmc-bench-query/v1";

/// Options of one query-benchmark invocation.
#[derive(Clone, Debug)]
pub struct QueryBenchOptions {
    /// Label identifying the code state being measured.
    pub variant: String,
    /// Use the tiny graph matrix (CI smoke runs).
    pub quick: bool,
    /// Timed repetitions per cell; the best (minimum) time is recorded.
    pub repeats: usize,
}

impl Default for QueryBenchOptions {
    fn default() -> Self {
        QueryBenchOptions {
            variant: "unnamed".into(),
            quick: false,
            repeats: 2,
        }
    }
}

/// One measured anchored-query cell (with its full-enumeration baseline).
#[derive(Clone, Debug)]
pub struct QueryRecord {
    /// Graph name.
    pub graph: String,
    /// Vertex count of the instance.
    pub n: usize,
    /// Edge count of the instance.
    pub m: usize,
    /// Preset name (paper algorithm name).
    pub preset: String,
    /// The anchor vertices, comma-joined (e.g. `"17"` or `"17,42"`).
    pub anchor: String,
    /// Number of anchor vertices.
    pub anchor_size: usize,
    /// Best wall-clock seconds of the anchored query.
    pub seconds: f64,
    /// Maximal cliques containing the anchor.
    pub cliques: u64,
    /// Recursive branch evaluations of the anchored query.
    pub recursive_calls: u64,
    /// Root branches the anchored query never had to open.
    pub anchored_roots_skipped: u64,
    /// Best wall-clock seconds of the full enumeration baseline.
    pub full_seconds: f64,
    /// Total maximal cliques of the graph.
    pub full_cliques: u64,
    /// Recursive branch evaluations of the full enumeration.
    pub full_recursive_calls: u64,
}

impl QueryRecord {
    /// Branch evaluations the anchored query avoided.
    pub fn calls_saved(&self) -> u64 {
        self.full_recursive_calls
            .saturating_sub(self.recursive_calls)
    }

    /// Fraction of the full enumeration's branch evaluations avoided.
    pub fn calls_saved_ratio(&self) -> f64 {
        if self.full_recursive_calls == 0 {
            0.0
        } else {
            self.calls_saved() as f64 / self.full_recursive_calls as f64
        }
    }

    /// The flat JSON object appended to the trajectory file.
    pub fn to_json(&self, variant: &str) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::Str(SCHEMA.into())),
            ("variant", JsonValue::Str(variant.into())),
            ("graph", JsonValue::Str(self.graph.clone())),
            ("n", JsonValue::Num(self.n as f64)),
            ("m", JsonValue::Num(self.m as f64)),
            ("preset", JsonValue::Str(self.preset.clone())),
            ("anchor", JsonValue::Str(self.anchor.clone())),
            ("anchor_size", JsonValue::Num(self.anchor_size as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            (
                "recursive_calls",
                JsonValue::Num(self.recursive_calls as f64),
            ),
            (
                "anchored_roots_skipped",
                JsonValue::Num(self.anchored_roots_skipped as f64),
            ),
            ("full_seconds", JsonValue::Num(self.full_seconds)),
            ("full_cliques", JsonValue::Num(self.full_cliques as f64)),
            (
                "full_recursive_calls",
                JsonValue::Num(self.full_recursive_calls as f64),
            ),
            ("calls_saved", JsonValue::Num(self.calls_saved() as f64)),
            (
                "calls_saved_ratio",
                JsonValue::Num(self.calls_saved_ratio()),
            ),
        ])
    }
}

/// The benchmark instances: `(name, graph)`. Community-structured graphs are
/// the anchored workload's home turf (a vertex's cliques live in its own
/// community), with a preferential-attachment instance for hub anchors.
pub fn query_graphs(quick: bool) -> Vec<(&'static str, Graph)> {
    let planted = |n: usize, communities: usize, seed: u64| {
        planted_communities(&PlantedConfig {
            n,
            communities,
            min_size: 4,
            max_size: 9,
            intra_probability: 1.0,
            background_edges: 2 * n,
            seed,
        })
    };
    if quick {
        vec![
            ("planted_n60", planted(60, 5, 5)),
            ("ba_n200_k6", barabasi_albert(200, 6, 7)),
        ]
    } else {
        vec![
            ("planted_n1000", planted(1_000, 40, 5)),
            ("planted_n4000", planted(4_000, 150, 11)),
            ("ba_n3000_k12", barabasi_albert(3_000, 12, 7)),
        ]
    }
}

/// Anchors for a graph: the highest-degree vertex alone, and that vertex
/// with its highest-degree neighbour (an anchored *edge*).
pub fn pick_anchors(g: &Graph) -> Vec<Vec<VertexId>> {
    let hub = g
        .vertices()
        .max_by_key(|&v| g.degree(v))
        .expect("benchmark graphs are non-empty");
    let mut anchors = vec![vec![hub]];
    if let Some(&mate) = g.neighbors(hub).iter().max_by_key(|&&u| g.degree(u)) {
        anchors.push(vec![hub, mate]);
    }
    anchors
}

fn run_anchored_cell(
    g: &Graph,
    anchor: &[VertexId],
    config: &SolverConfig,
    repeats: usize,
) -> (f64, u64, u64, u64) {
    let mut best = f64::INFINITY;
    let mut cliques = 0u64;
    let mut calls = 0u64;
    let mut skipped = 0u64;
    for _ in 0..repeats.max(1) {
        let mut counter = CountReporter::new();
        let result = run_query(
            g,
            Query::new(QuerySpec::Anchored {
                vertices: anchor.to_vec(),
            })
            .with_config(*config),
            &mut counter,
        )
        .expect("valid anchored query");
        cliques = counter.count;
        calls = result.stats.recursive_calls;
        skipped = result.stats.anchored_roots_skipped;
        best = best.min(result.stats.elapsed.as_secs_f64());
    }
    (best, cliques, calls, skipped)
}

fn run_full_cell(g: &Graph, config: &SolverConfig, repeats: usize) -> (f64, u64, u64) {
    let mut best = f64::INFINITY;
    let mut cliques = 0u64;
    let mut calls = 0u64;
    for _ in 0..repeats.max(1) {
        let mut sink = CountReporter::new();
        let result = run_query(
            g,
            Query::new(QuerySpec::Count).with_config(*config),
            &mut sink,
        )
        .expect("valid count query");
        let QueryValue::Count(count) = result.value else {
            unreachable!("Count yields a Count value")
        };
        cliques = count;
        calls = result.stats.recursive_calls;
        best = best.min(result.stats.elapsed.as_secs_f64());
    }
    (best, cliques, calls)
}

/// Runs the anchored-vs-full matrix, printing one line per anchored cell.
pub fn run_query_bench(options: &QueryBenchOptions) -> Vec<QueryRecord> {
    let preset = ("HBBMC++", SolverConfig::hbbmc_pp());
    let mut records = Vec::new();
    for (name, g) in query_graphs(options.quick) {
        let (full_seconds, full_cliques, full_calls) =
            run_full_cell(&g, &preset.1, options.repeats);
        for anchor in pick_anchors(&g) {
            let (seconds, cliques, calls, skipped) =
                run_anchored_cell(&g, &anchor, &preset.1, options.repeats);
            assert!(
                cliques <= full_cliques,
                "{name}: anchored result exceeds the full enumeration"
            );
            let record = QueryRecord {
                graph: name.to_string(),
                n: g.n(),
                m: g.m(),
                preset: preset.0.to_string(),
                anchor: anchor
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                anchor_size: anchor.len(),
                seconds,
                cliques,
                recursive_calls: calls,
                anchored_roots_skipped: skipped,
                full_seconds,
                full_cliques,
                full_recursive_calls: full_calls,
            };
            println!(
                "{:<14} anchor=[{}] {:>9.4}s {:>8} cliques  calls {:>9} vs {:>9} full \
                 (saved {:.1}%), roots skipped {}",
                record.graph,
                record.anchor,
                record.seconds,
                record.cliques,
                record.recursive_calls,
                record.full_recursive_calls,
                100.0 * record.calls_saved_ratio(),
                record.anchored_roots_skipped,
            );
            records.push(record);
        }
    }
    records
}

/// Appends every record to the trajectory file and re-validates it,
/// including the query-specific fields (the check the CI smoke job relies
/// on).
pub fn append_records(
    path: &Path,
    variant: &str,
    records: &[QueryRecord],
) -> Result<usize, String> {
    let runs = records.iter().map(|r| r.to_json(variant)).collect();
    append_validated(
        path,
        runs,
        SCHEMA,
        &[
            "anchor",
            "anchor_size",
            "recursive_calls",
            "anchored_roots_skipped",
            "full_recursive_calls",
            "calls_saved",
            "calls_saved_ratio",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbmc::{enumerate_collect, CollectReporter};

    #[test]
    fn quick_matrix_measures_and_serialises() {
        let options = QueryBenchOptions {
            variant: "test".into(),
            quick: true,
            repeats: 1,
        };
        let records = run_query_bench(&options);
        assert_eq!(records.len(), query_graphs(true).len() * 2);
        for r in &records {
            assert!(r.full_cliques > 0, "{}: empty full enumeration", r.graph);
            assert!(
                r.recursive_calls <= r.full_recursive_calls,
                "{}: anchoring must not add work",
                r.graph
            );
            assert!(r.anchored_roots_skipped > 0, "{}: nothing skipped", r.graph);
            let json = r.to_json("test");
            assert_eq!(json.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
            assert!(json.get("calls_saved").is_some());
        }
    }

    #[test]
    fn anchored_cells_agree_with_enumerate_then_filter() {
        // The benchmark's own correctness gate, on the quick matrix.
        for (name, g) in query_graphs(true) {
            let (all, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
            for anchor in pick_anchors(&g) {
                let expected = all
                    .iter()
                    .filter(|c| anchor.iter().all(|v| c.contains(v)))
                    .count() as u64;
                let mut collector = CollectReporter::new();
                run_query(
                    &g,
                    Query::new(QuerySpec::Anchored {
                        vertices: anchor.clone(),
                    }),
                    &mut collector,
                )
                .unwrap();
                assert_eq!(
                    collector.cliques.len() as u64,
                    expected,
                    "{name} anchor {anchor:?}"
                );
            }
        }
    }

    #[test]
    fn append_records_validates_query_fields() {
        let dir = std::env::temp_dir().join("mce_bench_query_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_solver.json");
        let _ = std::fs::remove_file(&path);
        let record = QueryRecord {
            graph: "toy".into(),
            n: 5,
            m: 7,
            preset: "HBBMC++".into(),
            anchor: "3".into(),
            anchor_size: 1,
            seconds: 0.01,
            cliques: 3,
            recursive_calls: 10,
            anchored_roots_skipped: 2,
            full_seconds: 0.05,
            full_cliques: 9,
            full_recursive_calls: 40,
        };
        assert_eq!(record.calls_saved(), 30);
        assert!((record.calls_saved_ratio() - 0.75).abs() < 1e-12);
        let total = append_records(&path, "test", &[record]).unwrap();
        assert_eq!(total, 1);
        let _ = std::fs::remove_file(&path);
    }
}
