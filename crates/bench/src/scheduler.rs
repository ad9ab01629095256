//! The skewed-graph load-balance benchmark behind `cargo bench --bench
//! bench_scheduler` and `experiments scheduler`.
//!
//! Workers that only claimed whole root branches would be bounded below by
//! the largest root subtree, so this matrix measures exactly the workloads
//! where that bound bites, and where the parallel driver's sub-branch
//! donation has to spread the work:
//!
//! * **planted-hub** instances (`mce_gen::planted_hub`) put the *entire*
//!   recursion tree under one root under natural-order vertex branching —
//!   without donation one worker would run the whole enumeration;
//! * **Barabási–Albert** instances carry the realistic moderate skew of
//!   preferential-attachment hubs.
//!
//! Each cell runs the driver at one thread count and records wall-clock
//! seconds, the split/steal/busy-time counters and `max_worker_share` — the
//! largest share of the run's recursive calls executed by one worker, whose
//! reciprocal bounds the achievable parallel speedup machine-independently
//! (wall clock alone is meaningless on a host with fewer cores than threads;
//! see EXPERIMENTS.md). One flat JSON object per cell is appended to the
//! `BENCH_solver.json` trajectory (schema [`SCHEMA`], side by side with the
//! hot-path records). The schema keeps its `scheduler` key, now always
//! `"pool"`, so the cells recorded while several schedulers existed still
//! validate.

use std::path::Path;

use hbbmc::{par_count_with_worker_stats, SolverConfig};
use mce_gen::{barabasi_albert, planted_hub};
use mce_graph::Graph;

use crate::json::{append_validated, JsonValue};

/// Schema tag stamped on every scheduler-benchmark record.
pub const SCHEMA: &str = "hbbmc-bench-scheduler/v1";

/// Options of one scheduler-benchmark invocation.
#[derive(Clone, Debug)]
pub struct SchedulerBenchOptions {
    /// Label identifying the code state being measured.
    pub variant: String,
    /// Use the tiny graph matrix (CI smoke runs).
    pub quick: bool,
    /// Timed repetitions per cell; the best (minimum) time is recorded.
    pub repeats: usize,
}

impl Default for SchedulerBenchOptions {
    fn default() -> Self {
        SchedulerBenchOptions {
            variant: "unnamed".into(),
            quick: false,
            repeats: 2,
        }
    }
}

/// One measured cell of the load-balance matrix.
#[derive(Clone, Debug)]
pub struct SchedulerRecord {
    /// Graph name.
    pub graph: String,
    /// Vertex count of the instance.
    pub n: usize,
    /// Edge count of the instance.
    pub m: usize,
    /// Preset name (paper algorithm name).
    pub preset: String,
    /// Worker threads used.
    pub threads: usize,
    /// Best wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Number of maximal cliques found.
    pub cliques: u64,
    /// Sub-branch tasks donated to the pool.
    pub splits: u64,
    /// Donated tasks stolen and executed (equals `splits` after a run).
    pub steals: u64,
    /// Summed worker busy time divided by `seconds × threads` — the worker
    /// utilisation this cell achieved (1.0 = perfectly balanced).
    pub busy_fraction: f64,
    /// Largest share of the run's recursive calls executed by any single
    /// worker. This is the machine-independent load-balance gauge: `1 /
    /// max_worker_share` bounds the achievable parallel speedup, so a run
    /// whose giant root stayed with one worker reports ≈ 1.0, while
    /// donation drives it towards `1 / threads`.
    pub max_worker_share: f64,
}

impl SchedulerRecord {
    /// The flat JSON object appended to the trajectory file.
    pub fn to_json(&self, variant: &str) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::Str(SCHEMA.into())),
            ("variant", JsonValue::Str(variant.into())),
            ("graph", JsonValue::Str(self.graph.clone())),
            ("n", JsonValue::Num(self.n as f64)),
            ("m", JsonValue::Num(self.m as f64)),
            ("preset", JsonValue::Str(self.preset.clone())),
            ("scheduler", JsonValue::Str("pool".into())),
            ("threads", JsonValue::Num(self.threads as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            ("splits", JsonValue::Num(self.splits as f64)),
            ("steals", JsonValue::Num(self.steals as f64)),
            ("busy_fraction", JsonValue::Num(self.busy_fraction)),
            ("max_worker_share", JsonValue::Num(self.max_worker_share)),
        ])
    }
}

/// The skewed benchmark instances: `(name, graph, preset name, config)`.
/// Presets are chosen per graph to keep the skewed recursion alive (graph
/// reduction or early termination would trivialise the planted hub).
pub fn scheduler_graphs(quick: bool) -> Vec<(&'static str, Graph, &'static str, SolverConfig)> {
    if quick {
        vec![
            (
                "hub_n21",
                planted_hub(21, 4),
                "BK_Pivot",
                SolverConfig::bk_pivot(),
            ),
            (
                "ba_n300_k8",
                barabasi_albert(300, 8, 7),
                "HBBMC+",
                SolverConfig::hbbmc_plus(),
            ),
        ]
    } else {
        vec![
            (
                "hub_n41",
                planted_hub(41, 4),
                "BK_Pivot",
                SolverConfig::bk_pivot(),
            ),
            (
                "hub_n37",
                planted_hub(37, 4),
                "HBBMC+",
                SolverConfig::hbbmc_plus(),
            ),
            (
                "ba_n3000_k12",
                barabasi_albert(3_000, 12, 7),
                "HBBMC+",
                SolverConfig::hbbmc_plus(),
            ),
        ]
    }
}

/// Thread counts of the matrix.
pub fn scheduler_threads(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

fn measure_cell(
    name: &str,
    g: &Graph,
    preset: &str,
    config: &SolverConfig,
    threads: usize,
    repeats: usize,
) -> SchedulerRecord {
    let mut best = f64::INFINITY;
    let mut cliques = 0u64;
    let mut splits = 0u64;
    let mut steals = 0u64;
    let mut busy_fraction = 0.0;
    let mut max_worker_share = 0.0;
    for _ in 0..repeats.max(1) {
        let (count, stats, per_worker) = par_count_with_worker_stats(g, config, threads);
        cliques = count;
        let secs = stats.elapsed.as_secs_f64();
        if secs < best {
            best = secs;
            splits = stats.splits;
            steals = stats.steals;
            busy_fraction = if secs > 0.0 {
                stats.busy_time.as_secs_f64() / (secs * threads as f64)
            } else {
                0.0
            };
            let total_calls: u64 = per_worker.iter().map(|w| w.recursive_calls).sum();
            let max_calls = per_worker
                .iter()
                .map(|w| w.recursive_calls)
                .max()
                .unwrap_or(0);
            max_worker_share = if total_calls > 0 {
                max_calls as f64 / total_calls as f64
            } else {
                0.0
            };
        }
    }
    SchedulerRecord {
        graph: name.to_string(),
        n: g.n(),
        m: g.m(),
        preset: preset.to_string(),
        threads,
        seconds: best,
        cliques,
        splits,
        steals,
        busy_fraction,
        max_worker_share,
    }
}

/// Runs the full load-balance matrix, printing one line per cell.
pub fn run_scheduler_bench(options: &SchedulerBenchOptions) -> Vec<SchedulerRecord> {
    let mut records = Vec::new();
    for (name, g, preset, config) in scheduler_graphs(options.quick) {
        for &threads in &scheduler_threads(options.quick) {
            let r = measure_cell(name, &g, preset, &config, threads, options.repeats);
            println!(
                "{:<14} {:<8} threads={} {:>9.4}s {:>10} cliques  splits={:<5} \
                 busy={:.2} max_share={:.2}",
                r.graph,
                r.preset,
                r.threads,
                r.seconds,
                r.cliques,
                r.splits,
                r.busy_fraction,
                r.max_worker_share,
            );
            records.push(r);
        }
    }
    records
}

/// Appends every record to the trajectory file and re-validates it,
/// including the load-balance fields (the check the CI smoke job relies
/// on). Returns the number of scheduler records in the file.
pub fn append_records(
    path: &Path,
    variant: &str,
    records: &[SchedulerRecord],
) -> Result<usize, String> {
    let runs = records.iter().map(|r| r.to_json(variant)).collect();
    append_validated(
        path,
        runs,
        SCHEMA,
        &[
            "scheduler",
            "threads",
            "splits",
            "steals",
            "busy_fraction",
            "max_worker_share",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_measures_and_serialises() {
        let options = SchedulerBenchOptions {
            variant: "test".into(),
            quick: true,
            repeats: 1,
        };
        let records = run_scheduler_bench(&options);
        assert_eq!(
            records.len(),
            scheduler_graphs(true).len() * scheduler_threads(true).len()
        );
        for r in &records {
            assert!(r.cliques > 0, "{} found no cliques", r.graph);
            assert_eq!(r.splits, r.steals, "{}: unexecuted donations", r.graph);
            let json = r.to_json("test");
            assert_eq!(json.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
            assert_eq!(
                json.get("scheduler").and_then(JsonValue::as_str),
                Some("pool")
            );
            assert!(json.get("splits").is_some());
        }
    }

    #[test]
    fn hub_instances_actually_split_at_four_threads() {
        // The planted hub puts everything under one root: with starving
        // workers the driver *must* donate and spread the calls, otherwise
        // the benchmark measures nothing. A larger instance than the smoke
        // matrix is used so the run comfortably outlives the donation
        // threshold even on slow machines.
        let g = planted_hub(33, 4);
        let config = SolverConfig::bk_pivot();
        let serial = measure_cell("hub_n33", &g, "BK_Pivot", &config, 1, 1);
        let pool = measure_cell("hub_n33", &g, "BK_Pivot", &config, 4, 1);
        assert_eq!(serial.cliques, pool.cliques);
        assert!(pool.splits > 0, "no donations: {pool:?}");
        assert_eq!(pool.splits, pool.steals);
        // One worker would own the hub root (every call); donation spreads it.
        assert!(pool.max_worker_share < 0.75, "{pool:?}");
    }

    #[test]
    fn append_records_validates_scheduler_fields() {
        let dir = std::env::temp_dir().join("mce_bench_scheduler_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_solver.json");
        let _ = std::fs::remove_file(&path);
        let record = SchedulerRecord {
            graph: "toy".into(),
            n: 5,
            m: 7,
            preset: "BK_Pivot".into(),
            threads: 4,
            seconds: 0.01,
            cliques: 3,
            splits: 2,
            steals: 2,
            busy_fraction: 0.9,
            max_worker_share: 0.3,
        };
        let total = append_records(&path, "test", &[record]).unwrap();
        assert_eq!(total, 1);
        let _ = std::fs::remove_file(&path);
    }
}
