//! The kernel-backend benchmark behind `cargo bench --bench bench_kernels`.
//!
//! Two layers of cells, both appended to the `BENCH_solver.json` trajectory
//! under schema [`SCHEMA`]:
//!
//! * **`words` cells** — raw throughput (words/sec) of every fused word
//!   kernel ([`Kernels`]) on synthetic word buffers, one cell per
//!   `(backend, op)`. These run *in-process* for every backend the host
//!   supports: the per-backend function tables ([`KernelBackend::table`])
//!   bypass the process-wide dispatch lock, so one invocation produces the
//!   scalar-vs-SIMD comparison directly.
//! * **end-to-end cells** — the enumeration hot path (`hotpath`), the
//!   branch-and-bound maximum clique (`maxclique`) and the bounded top-k
//!   search (`topk`), per backend. The solver reaches the kernels through
//!   the process-wide table, which is locked once per process — so the
//!   parent re-executes *itself* once per backend (`--kernels-child`, with
//!   `MCE_KERNEL` pinned) and collects the child's records from a marker
//!   line on stdout.
//!
//! The `topk` cell doubles as a gate: it runs the bounded search against a
//! [`TopKReporter`] riding full enumeration and fails the benchmark unless
//! the selections are identical *and* the bounded search evaluated strictly
//! fewer branches.
//!
//! [`Kernels`]: mce_graph::Kernels
//! [`TopKReporter`]: hbbmc::TopKReporter

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hbbmc::{
    maximum_clique_bb, run_query, CountReporter, Query, QuerySpec, QueryValue, SolverConfig,
    TopKReporter,
};
use mce_gen::{erdos_renyi, moon_moser};
use mce_graph::kernels::{self, KernelBackend};
use mce_graph::Graph;

use crate::json::{append_validated, parse, JsonValue};

/// Schema tag stamped on every kernel benchmark record.
pub const SCHEMA: &str = "hbbmc-bench-kernels/v1";

/// Marker prefix of the single stdout line a `--kernels-child` re-exec uses
/// to hand its records back to the parent process.
pub const CHILD_MARKER: &str = "#kernels-child-records# ";

/// Options of one kernel benchmark invocation.
#[derive(Clone, Debug)]
pub struct KernelBenchOptions {
    /// Label identifying the code state being measured.
    pub variant: String,
    /// Use small buffers and the tiny graph matrix (CI smoke runs).
    pub quick: bool,
    /// Timed repetitions per cell; the best (minimum) time is recorded.
    pub repeats: usize,
}

impl Default for KernelBenchOptions {
    fn default() -> Self {
        KernelBenchOptions {
            variant: "unnamed".into(),
            quick: false,
            repeats: 2,
        }
    }
}

/// One measured kernel cell — a raw word-kernel throughput cell or an
/// end-to-end solver cell, distinguished by `kind`.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelRecord {
    /// `"words"`, `"hotpath"`, `"maxclique"` or `"topk"`.
    pub kind: String,
    /// Kernel backend the cell ran under.
    pub backend: String,
    /// Fused word op of a `words` cell; `"-"` for end-to-end cells.
    pub op: String,
    /// Graph (or synthetic buffer) name.
    pub graph: String,
    /// Vertex count (buffer word count for `words` cells).
    pub n: usize,
    /// Edge count (0 for `words` cells).
    pub m: usize,
    /// Preset / cell family label.
    pub preset: String,
    /// Worker threads (always 1: the kernels are a per-thread story).
    pub threads: usize,
    /// Best wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Maximal cliques found (selected cliques for `topk`, 0 for `words`).
    pub cliques: u64,
    /// Words processed per second (`words` cells; 0 otherwise).
    pub words_per_sec: f64,
    /// Recursive branch evaluations (`maxclique`/`topk` cells).
    pub branch_evals: u64,
    /// Branch evaluations of the enumeration-riding baseline (`topk` only).
    pub riding_branch_evals: u64,
}

impl KernelRecord {
    /// The flat JSON object appended to the trajectory file. Every record
    /// carries the trajectory-wide required keys (`schema`, `variant`,
    /// `graph`, `preset`, `seconds`, `cliques`) so the shared-file
    /// validators of the other benchmarks keep passing.
    pub fn to_json(&self, variant: &str) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::Str(SCHEMA.into())),
            ("variant", JsonValue::Str(variant.into())),
            ("kind", JsonValue::Str(self.kind.clone())),
            ("backend", JsonValue::Str(self.backend.clone())),
            ("op", JsonValue::Str(self.op.clone())),
            ("graph", JsonValue::Str(self.graph.clone())),
            ("n", JsonValue::Num(self.n as f64)),
            ("m", JsonValue::Num(self.m as f64)),
            ("preset", JsonValue::Str(self.preset.clone())),
            ("threads", JsonValue::Num(self.threads as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            ("words_per_sec", JsonValue::Num(self.words_per_sec)),
            ("branch_evals", JsonValue::Num(self.branch_evals as f64)),
            (
                "riding_branch_evals",
                JsonValue::Num(self.riding_branch_evals as f64),
            ),
        ])
    }

    /// Rebuilds a record from its JSON form (the child→parent hand-off).
    pub fn from_json(v: &JsonValue) -> Result<KernelRecord, String> {
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("kernel record missing string key '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("kernel record missing number key '{key}'"))
        };
        Ok(KernelRecord {
            kind: s("kind")?,
            backend: s("backend")?,
            op: s("op")?,
            graph: s("graph")?,
            n: f("n")? as usize,
            m: f("m")? as usize,
            preset: s("preset")?,
            threads: f("threads")? as usize,
            seconds: f("seconds")?,
            cliques: f("cliques")? as u64,
            words_per_sec: f("words_per_sec")?,
            branch_evals: f("branch_evals")? as u64,
            riding_branch_evals: f("riding_branch_evals")? as u64,
        })
    }
}

/// Deterministic word soup for the synthetic buffers (splitmix-style).
fn word_soup(len: usize, salt: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let mut x = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^ (x >> 27)
        })
        .collect()
}

/// Best seconds over `repeats` timed runs of `body`.
fn best_of(repeats: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The in-process raw word-kernel cells: every op of every backend the host
/// supports, on identical buffers, so the scalar-vs-SIMD words/sec
/// comparison comes from a single invocation.
pub fn run_word_cells(options: &KernelBenchOptions) -> Vec<KernelRecord> {
    let words = if options.quick { 512 } else { 2_048 };
    let iters = if options.quick { 1_000 } else { 8_000 };
    let a = word_soup(words, 0x5bf0_3635);
    let b = word_soup(words, 0xc2b2_ae3d);
    let mut dst = vec![0u64; words];
    let mut bits: Vec<usize> = Vec::with_capacity(words * 64);
    let graph = format!("words{words}");

    let cell = |backend: KernelBackend, op: &str, seconds: f64| KernelRecord {
        kind: "words".into(),
        backend: backend.name().into(),
        op: op.into(),
        graph: graph.clone(),
        n: words,
        m: 0,
        preset: "kernel-words".into(),
        threads: 1,
        seconds,
        cliques: 0,
        words_per_sec: if seconds > 0.0 {
            (words * iters) as f64 / seconds
        } else {
            0.0
        },
        branch_evals: 0,
        riding_branch_evals: 0,
    };

    let mut records = Vec::new();
    for backend in KernelBackend::available() {
        let k = backend.table().expect("available implies table");
        let repeats = options.repeats;

        let secs = best_of(repeats, || {
            for _ in 0..iters {
                black_box((k.intersect_count)(&a, &b, &mut dst));
            }
        });
        records.push(cell(backend, "intersect_count", secs));

        let secs = best_of(repeats, || {
            for _ in 0..iters {
                black_box((k.intersection_len)(&a, &b));
            }
        });
        records.push(cell(backend, "intersection_len", secs));

        let secs = best_of(repeats, || {
            for _ in 0..iters {
                (k.difference)(&a, &b, &mut dst);
                black_box(dst[0]);
            }
        });
        records.push(cell(backend, "difference", secs));

        let secs = best_of(repeats, || {
            for _ in 0..iters {
                bits.clear();
                (k.and_not_collect)(&a, &b, &mut bits);
                black_box(bits.len());
            }
        });
        records.push(cell(backend, "and_not_collect", secs));

        let secs = best_of(repeats, || {
            for _ in 0..iters {
                black_box((k.popcount)(&a));
            }
        });
        records.push(cell(backend, "popcount", secs));
    }
    records
}

/// The end-to-end graph instances (dense-branch regimes where the word
/// kernels dominate the profile).
fn end_to_end_graphs(quick: bool) -> Vec<(&'static str, Graph)> {
    if quick {
        vec![
            ("mm_k5", moon_moser(5)),
            ("dense_er_n80", erdos_renyi(80, 1_200, 11)),
        ]
    } else {
        vec![
            ("mm_k8", moon_moser(8)),
            ("dense_er_n200", erdos_renyi(200, 6_000, 11)),
        ]
    }
}

/// The end-to-end cells for the *process-wide* backend: enumeration hot
/// path, branch-and-bound maximum clique, and the bounded top-k search
/// (gated against its enumeration-riding baseline). Run from a
/// `--kernels-child` re-exec with `MCE_KERNEL` pinned; `expect_backend`
/// double-checks the pin took.
pub fn run_end_to_end_cells(
    options: &KernelBenchOptions,
    expect_backend: Option<&str>,
) -> Result<Vec<KernelRecord>, String> {
    let backend = kernels::active_backend().name();
    if let Some(expected) = expect_backend {
        if backend != expected {
            return Err(format!(
                "expected kernel backend '{expected}', resolved '{backend}' \
                 (is MCE_KERNEL pinned?)"
            ));
        }
    }

    let mut records = Vec::new();
    for (name, g) in end_to_end_graphs(options.quick) {
        // Hot path: sequential HBBMC++ enumeration.
        let cell = crate::hotpath::measure_cell(
            name,
            &g,
            "HBBMC++",
            &SolverConfig::hbbmc_pp(),
            1,
            options.repeats,
        );
        records.push(KernelRecord {
            kind: "hotpath".into(),
            backend: backend.into(),
            op: "-".into(),
            graph: name.into(),
            n: g.n(),
            m: g.m(),
            preset: "HBBMC++".into(),
            threads: 1,
            seconds: cell.seconds,
            cliques: cell.cliques,
            words_per_sec: 0.0,
            branch_evals: 0,
            riding_branch_evals: 0,
        });

        // Maximum clique: the dedicated B&B engine.
        let mut best_secs = f64::INFINITY;
        let mut clique_size = 0usize;
        let mut evals = 0u64;
        for _ in 0..options.repeats.max(1) {
            let start = Instant::now();
            let (best, stats) = maximum_clique_bb(&g);
            best_secs = best_secs.min(start.elapsed().as_secs_f64());
            clique_size = best.len();
            evals = stats.recursive_calls;
        }
        records.push(KernelRecord {
            kind: "maxclique".into(),
            backend: backend.into(),
            op: "-".into(),
            graph: name.into(),
            n: g.n(),
            m: g.m(),
            preset: "bb".into(),
            threads: 1,
            seconds: best_secs,
            cliques: clique_size as u64,
            words_per_sec: 0.0,
            branch_evals: evals,
            riding_branch_evals: 0,
        });

        // Top-k: the bounded search vs. a TopKReporter riding enumeration.
        records.push(topk_cell(name, &g, 8, options.repeats)?);
    }
    Ok(records)
}

/// Measures one bounded top-k cell and gates it against the
/// enumeration-riding baseline: identical selection, strictly fewer branch
/// evaluations.
fn topk_cell(name: &str, g: &Graph, k: usize, repeats: usize) -> Result<KernelRecord, String> {
    let mut riding = TopKReporter::new(k);
    let full = run_query(g, Query::new(QuerySpec::Enumerate), &mut riding)
        .map_err(|e| format!("{name}: enumerate baseline failed: {e}"))?;
    let expected = riding.into_cliques();

    let mut best_secs = f64::INFINITY;
    let mut bounded_evals = 0u64;
    let mut got = Vec::new();
    for _ in 0..repeats.max(1) {
        let mut ignored = CountReporter::new();
        let start = Instant::now();
        let result = run_query(g, Query::new(QuerySpec::TopKBySize { k }), &mut ignored)
            .map_err(|e| format!("{name}: top-k query failed: {e}"))?;
        best_secs = best_secs.min(start.elapsed().as_secs_f64());
        bounded_evals = result.stats.recursive_calls;
        got = match result.value {
            QueryValue::TopK(cliques) => cliques,
            other => return Err(format!("{name}: top-k returned {other:?}")),
        };
    }
    if got != expected {
        return Err(format!(
            "{name}: bounded top-{k} selection diverged from the riding baseline"
        ));
    }
    if bounded_evals >= full.stats.recursive_calls {
        return Err(format!(
            "{name}: bounded top-{k} search evaluated {bounded_evals} branches, \
             baseline {} — the bounds bought nothing",
            full.stats.recursive_calls
        ));
    }
    Ok(KernelRecord {
        kind: "topk".into(),
        backend: kernels::active_backend().name().into(),
        op: "-".into(),
        graph: name.into(),
        n: g.n(),
        m: g.m(),
        preset: format!("topk{k}"),
        threads: 1,
        seconds: best_secs,
        cliques: got.len() as u64,
        words_per_sec: 0.0,
        branch_evals: bounded_evals,
        riding_branch_evals: full.stats.recursive_calls,
    })
}

/// Renders the child→parent marker line for `records`.
pub fn child_marker_line(records: &[KernelRecord], variant: &str) -> String {
    let arr = JsonValue::Arr(records.iter().map(|r| r.to_json(variant)).collect());
    format!("{CHILD_MARKER}{}", arr.render())
}

/// Parses records back out of a child's stdout.
pub fn parse_child_records(stdout: &str) -> Result<Vec<KernelRecord>, String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(CHILD_MARKER))
        .ok_or_else(|| "child produced no record marker line".to_string())?;
    let parsed = parse(line)?;
    let arr = parsed
        .as_array()
        .ok_or_else(|| "child marker line is not a JSON array".to_string())?;
    arr.iter().map(KernelRecord::from_json).collect()
}

/// Spawns `self_exe --kernels-child` with `MCE_KERNEL` pinned to `backend`
/// and returns the child's end-to-end records.
fn spawn_end_to_end(
    self_exe: &Path,
    backend: KernelBackend,
    options: &KernelBenchOptions,
) -> Result<Vec<KernelRecord>, String> {
    let mut cmd = std::process::Command::new(self_exe);
    cmd.arg("--kernels-child")
        .arg("--repeats")
        .arg(options.repeats.to_string())
        .arg("--variant")
        .arg(&options.variant)
        .env(kernels::ENV_VAR, backend.name());
    if options.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {} for backend {backend}: {e}", self_exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "backend {backend} child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Forward the child's human-readable lines for visibility.
    for line in stdout.lines().filter(|l| !l.starts_with(CHILD_MARKER)) {
        println!("{line}");
    }
    parse_child_records(&stdout)
}

/// Runs the full kernel matrix: in-process word cells for every supported
/// backend, then one self-re-exec per backend for the end-to-end cells.
/// `self_exe` is the benchmark executable itself (`std::env::current_exe`).
pub fn run_kernel_bench(
    self_exe: &Path,
    options: &KernelBenchOptions,
) -> Result<Vec<KernelRecord>, String> {
    let mut records = run_word_cells(options);
    for r in &records {
        println!(
            "{:<10} {:<16} {:<10} {:>9.4}s {:>14.0} words/s",
            r.backend, r.op, r.graph, r.seconds, r.words_per_sec
        );
    }
    for backend in KernelBackend::available() {
        println!("# end-to-end cells under backend {backend}");
        records.extend(spawn_end_to_end(self_exe, backend, options)?);
    }
    Ok(records)
}

/// Appends every record to the trajectory file and re-validates it,
/// checking the full kernel key set on every record of this benchmark's
/// schema (the file is shared with the other benchmarks, whose schemas
/// carry different keys). Returns the number of kernel records in the file.
pub fn append_records(
    path: &Path,
    variant: &str,
    records: &[KernelRecord],
) -> Result<usize, String> {
    let runs = records.iter().map(|r| r.to_json(variant)).collect();
    append_validated(
        path,
        runs,
        SCHEMA,
        &[
            "kind",
            "backend",
            "op",
            "words_per_sec",
            "branch_evals",
            "riding_branch_evals",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> KernelBenchOptions {
        KernelBenchOptions {
            variant: "test".into(),
            quick: true,
            repeats: 1,
        }
    }

    #[test]
    fn word_cells_cover_every_backend_and_op() {
        let records = run_word_cells(&quick_options());
        let backends = KernelBackend::available().len();
        assert_eq!(records.len(), backends * 5);
        for r in &records {
            assert_eq!(r.kind, "words");
            assert!(
                r.words_per_sec > 0.0,
                "{}/{} measured nothing",
                r.backend,
                r.op
            );
            let json = r.to_json("test");
            assert_eq!(json.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
            for key in ["variant", "graph", "preset", "seconds", "cliques"] {
                assert!(json.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn end_to_end_cells_measure_and_gate_topk() {
        let records = run_end_to_end_cells(&quick_options(), None).expect("cells run");
        // 2 graphs × (hotpath, maxclique, topk).
        assert_eq!(records.len(), 6);
        let topk: Vec<_> = records.iter().filter(|r| r.kind == "topk").collect();
        assert_eq!(topk.len(), 2);
        for r in topk {
            assert!(
                r.branch_evals < r.riding_branch_evals,
                "{}: {} >= {}",
                r.graph,
                r.branch_evals,
                r.riding_branch_evals
            );
            assert!(r.cliques > 0);
        }
        for r in records.iter().filter(|r| r.kind == "hotpath") {
            assert!(r.cliques > 0, "{} found no cliques", r.graph);
        }
    }

    #[test]
    fn records_round_trip_through_the_child_marker() {
        let records = run_word_cells(&KernelBenchOptions {
            variant: "rt".into(),
            quick: true,
            repeats: 1,
        });
        let line = child_marker_line(&records, "rt");
        let parsed = parse_child_records(&line).expect("round trip");
        assert_eq!(parsed, records);
    }

    #[test]
    fn append_records_validates_the_shared_file() {
        let dir = std::env::temp_dir().join("mce_bench_kernels_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_solver.json");
        let _ = std::fs::remove_file(&path);
        let records = run_word_cells(&quick_options());
        let total = append_records(&path, "test", &records).unwrap();
        assert_eq!(total, records.len());
        let _ = std::fs::remove_file(&path);
    }
}
