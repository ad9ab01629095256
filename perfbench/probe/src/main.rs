//! `perfbench-probe`: the in-process half of the perfbench harness.
//!
//! ```text
//! perfbench-probe gen --workload NAME --seed N --dir DIR
//!     writes the workload's graphs as edge-list text plus DIR/manifest.tsv
//! perfbench-probe reference --dir DIR
//!     one JSON line per graph: count, largest clique, text-stream length and
//!     CRC-32, and the order-independent set digest, for HBBMC++ and RDegen
//! perfbench-probe trace --dir DIR --queries FILE
//!     one JSON object of per-layer timings and counters
//! ```
//!
//! Every time here is a wall-clock read taken around a call into a layer's
//! public API; the library's own `elapsed` / `ordering_time` fields are never
//! read. Spans are kept in memory and printed once at the end.

mod digest;
mod workloads;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hbbmc::{
    run_query, Budget, CallbackReporter, CliqueLineFormat, CliqueReporter, CountReporter,
    EnumerationState, EnumerationStats, Query, QuerySpec, QueryValue, Solver, SolverConfig,
    VertexId, WriterReporter,
};
use mce_graph::io::{read_graph_bytes, GraphFormat};
use mce_graph::ordering::{edge_ordering, vertex_ordering, EdgeOrderingKind, VertexOrderingKind};
use mce_graph::triangles::triangle_count;
use mce_graph::Graph;

use digest::{CountingSink, DigestSink, ReferenceReporter};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("reference") => cmd_reference(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => Err("usage: perfbench-probe gen|reference|trace [options]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

/// One manifest row: `name \t file \t expected-count-or-dash \t served(0|1)`.
struct Entry {
    name: String,
    path: PathBuf,
    expected: Option<u64>,
    served: bool,
}

fn read_manifest(dir: &Path) -> Result<Vec<Entry>, String> {
    let text = fs::read_to_string(dir.join("manifest.tsv")).map_err(|e| e.to_string())?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 4 {
                return Err(format!("bad manifest line {line:?}"));
            }
            Ok(Entry {
                name: f[0].to_string(),
                path: dir.join(f[1]),
                expected: f[2].parse().ok(),
                served: f[3] == "1",
            })
        })
        .collect()
}

fn load(entry: &Entry) -> Result<Graph, String> {
    let bytes = fs::read(&entry.path).map_err(|e| format!("{}: {e}", entry.path.display()))?;
    read_graph_bytes(&bytes, GraphFormat::EdgeList).map_err(|e| e.to_string())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload")?;
    let seed: u64 = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let dir = Path::new(flag(args, "--dir")?);
    let inputs = workloads::build(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (known: {})",
            workloads::WORKLOADS.join(", ")
        )
    })?;
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut rng = workloads::Rng::new(seed);
    let mut manifest = String::new();
    for input in &inputs {
        let file = format!("{}.txt", input.name);
        workloads::write_relabelled(&input.graph, &mut rng, &dir.join(&file))
            .map_err(|e| e.to_string())?;
        let expected = input.expected.map_or("-".to_string(), |c| c.to_string());
        let _ = writeln!(
            manifest,
            "{}\t{file}\t{expected}\t{}",
            input.name, input.serve as u8
        );
    }
    fs::write(dir.join("manifest.tsv"), manifest).map_err(|e| e.to_string())
}

fn reference_json(r: ReferenceReporter) -> Result<String, String> {
    let sink = r.writer.finish().map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"count\":{},\"max_size\":{},\"bytes\":{},\"crc\":{},\"set\":\"{:016x}\"}}",
        r.count,
        r.max_size,
        sink.bytes,
        sink.crc.value(),
        r.set.sum
    ))
}

fn cmd_reference(args: &[String]) -> Result<(), String> {
    let dir = Path::new(flag(args, "--dir")?);
    for entry in read_manifest(dir)? {
        let g = load(&entry)?;
        let mut parts = Vec::new();
        for (key, config) in [
            ("hbbmcpp", SolverConfig::hbbmc_pp()),
            ("rdegen", SolverConfig::r_degen()),
        ] {
            let mut r = ReferenceReporter::new();
            Solver::new(&g, config)
                .map_err(|e| e.to_string())?
                .run(&mut r);
            parts.push(format!("\"{key}\":{}", reference_json(r)?));
        }
        let expected = entry.expected.map_or("null".to_string(), |c| c.to_string());
        println!(
            "{{\"name\":\"{}\",\"n\":{},\"m\":{},\"expected\":{expected},{}}}",
            entry.name,
            g.n(),
            g.m(),
            parts.join(",")
        );
    }
    Ok(())
}

/// Per-layer accumulators of the traced pass (sums over the workload's graphs).
#[derive(Default)]
struct Layers {
    input_bytes: u64,
    load: Duration,
    truss: Duration,
    degen: Duration,
    triangles: u64,
    solve_pp: Duration,
    solve_rd: Duration,
    solve_plus: Duration,
    calls_pp: u64,
    calls_rd: u64,
    roots: u64,
    vertices: u64,
    gr_removed: u64,
    et_eligible: u64,
    et_terminated: u64,
    et_cliques: u64,
    cliques: u64,
    par_wall: Duration,
    par_idle: f64,
    splits: u64,
    steals: u64,
    emit: Duration,
    emit_bytes: u64,
    traced_total: Duration,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn solve(
    g: &Graph,
    config: SolverConfig,
    state: &mut EnumerationState,
) -> Result<(EnumerationStats, Duration), String> {
    let solver = Solver::new(g, config).map_err(|e| e.to_string())?;
    let mut counter = CountReporter::new();
    Ok(timed(|| solver.run_with_state(state, &mut counter)))
}

/// Cliques stored back to back, replayed through the emit layer.
#[derive(Default)]
struct FlatCliques {
    members: Vec<VertexId>,
    ends: Vec<usize>,
}

fn trace_graph(
    entry: &Entry,
    state: &mut EnumerationState,
    acc: &mut Layers,
) -> Result<[u64; 4], String> {
    let bytes = fs::read(&entry.path).map_err(|e| e.to_string())?;
    acc.input_bytes += bytes.len() as u64;
    let (g, t) = timed(|| read_graph_bytes(&bytes, GraphFormat::EdgeList));
    let g = g.map_err(|e| e.to_string())?;
    acc.load += t;

    let (_, t) = timed(|| edge_ordering(&g, EdgeOrderingKind::Truss));
    acc.truss += t;
    let (_, t) = timed(|| vertex_ordering(&g, VertexOrderingKind::Degeneracy));
    acc.degen += t;
    acc.triangles += triangle_count(&g);

    // Untimed collecting run: warms `state` and feeds the emit replay.
    let mut flat = FlatCliques::default();
    {
        let mut collect = CallbackReporter::new(|c: &[VertexId]| {
            flat.members.extend_from_slice(c);
            flat.ends.push(flat.members.len());
        });
        Solver::new(&g, SolverConfig::hbbmc_pp())
            .map_err(|e| e.to_string())?
            .run_with_state(state, &mut collect);
    }

    let (pp, t) = solve(&g, SolverConfig::hbbmc_pp(), state)?;
    acc.solve_pp += t;
    acc.calls_pp += pp.recursive_calls;
    acc.roots += pp.initial_branches;
    acc.vertices += g.n() as u64;
    acc.gr_removed += pp.gr_removed_vertices;
    acc.et_eligible += pp.et_eligible;
    acc.et_terminated += pp.et_terminated;
    acc.et_cliques += pp.et_cliques;
    acc.cliques += pp.maximal_cliques;
    let (rd, t) = solve(&g, SolverConfig::r_degen(), state)?;
    acc.solve_rd += t;
    acc.calls_rd += rd.recursive_calls;
    let (plus, t) = solve(&g, SolverConfig::hbbmc_plus(), state)?;
    acc.solve_plus += t;

    let mut writer = WriterReporter::new(CountingSink::default(), CliqueLineFormat::Text);
    let (_, t) = timed(|| {
        let mut start = 0;
        for &end in &flat.ends {
            writer.report(&flat.members[start..end]);
            start = end;
        }
    });
    acc.emit += t;
    acc.emit_bytes += writer.finish().map_err(|e| e.to_string())?.bytes;
    drop(flat);

    let mut counter = CountReporter::new();
    let query = Query::new(QuerySpec::Count).with_threads(2);
    let (par, t) = timed(|| run_query(&g, query, &mut counter));
    let par = par.map_err(|e| e.to_string())?;
    let par_count = match par.value {
        QueryValue::Count(c) => c,
        _ => 0,
    };
    acc.par_wall += t;
    acc.par_idle += 2.0 * t.as_secs_f64() - par.stats.busy_time.as_secs_f64();
    acc.splits += par.stats.splits;
    acc.steals += par.stats.steals;

    // The whole HBBMC++ pipeline, file bytes in to digested text out, with
    // its spans recorded in memory: the traced counterpart of one
    // `mce enumerate --output text` run.
    let mut spans: Vec<(&str, Duration)> = Vec::with_capacity(4);
    let start = Instant::now();
    let bytes = fs::read(&entry.path).map_err(|e| e.to_string())?;
    spans.push(("read", start.elapsed()));
    let g = read_graph_bytes(&bytes, GraphFormat::EdgeList).map_err(|e| e.to_string())?;
    spans.push(("load", start.elapsed()));
    let mut writer = WriterReporter::new(DigestSink::new(), CliqueLineFormat::Text);
    Solver::new(&g, SolverConfig::hbbmc_pp())
        .map_err(|e| e.to_string())?
        .run_with_state(state, &mut writer);
    spans.push(("solve+emit", start.elapsed()));
    writer.finish().map_err(|e| e.to_string())?;
    spans.push(("finish", start.elapsed()));
    acc.traced_total += spans.last().expect("spans recorded").1;
    Ok([
        pp.maximal_cliques,
        rd.maximal_cliques,
        plus.maximal_cliques,
        par_count,
    ])
}

/// Reporter that notes when the first clique arrives.
struct FirstClique {
    start: Instant,
    first: Option<Duration>,
    count: u64,
}

impl CliqueReporter for FirstClique {
    fn report(&mut self, _clique: &[VertexId]) {
        if self.first.is_none() {
            self.first = Some(self.start.elapsed());
        }
        self.count += 1;
    }
}

/// Runs one line of the query file in process; returns its JSON record.
fn trace_query(g: &Graph, mode: &str, param: usize) -> Result<String, String> {
    let spec = match mode {
        "limit" => QuerySpec::Enumerate,
        "count" => QuerySpec::Count,
        "top" => QuerySpec::TopKBySize { k: param },
        "maximum" => QuerySpec::MaximumClique,
        _ => return Err(format!("unknown query mode {mode:?}")),
    };
    let mut query = Query::new(spec);
    if mode == "limit" {
        query = query.with_budget(Budget::cliques(param as u64));
    }
    let mut reporter = FirstClique {
        start: Instant::now(),
        first: None,
        count: 0,
    };
    let result = run_query(g, query, &mut reporter).map_err(|e| e.to_string())?;
    let seconds = reporter.start.elapsed().as_secs_f64();
    let value = match &result.value {
        QueryValue::Stream => reporter.count,
        QueryValue::Count(c) => *c,
        QueryValue::TopK(cliques) => cliques.first().map_or(0, |c| c.len() as u64),
        QueryValue::Maximum(clique) => clique.len() as u64,
    };
    let first_ms = reporter
        .first
        .map_or("null".to_string(), |d| format!("{}", d.as_secs_f64() * 1e3));
    Ok(format!(
        "{{\"mode\":\"{mode}\",\"s\":{seconds},\"first_ms\":{first_ms},\"value\":{value},\
         \"pruned_by_color\":{},\"pruned_by_core\":{}}}",
        result.stats.branches_pruned_by_color, result.stats.branches_pruned_by_core
    ))
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let dir = Path::new(flag(args, "--dir")?);
    let queries = fs::read_to_string(flag(args, "--queries")?).map_err(|e| e.to_string())?;
    let entries = read_manifest(dir)?;
    let mut acc = Layers::default();
    let mut state = EnumerationState::new();
    let mut counts = Vec::new();
    for entry in &entries {
        let [pp, rd, plus, par] = trace_graph(entry, &mut state, &mut acc)?;
        counts.push(format!("\"{}\":[{pp},{rd},{plus},{par}]", entry.name));
    }

    let mut served = Vec::new();
    for entry in entries.iter().filter(|e| e.served) {
        served.push((entry.name.clone(), load(entry)?));
    }
    let mut records = Vec::new();
    for line in queries.lines().filter(|l| !l.is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let [graph, mode, param] = f[..] else {
            return Err(format!("bad query line {line:?}"));
        };
        let g = &served
            .iter()
            .find(|(name, _)| name == graph)
            .ok_or_else(|| format!("query names unknown graph {graph:?}"))?
            .1;
        let param = param
            .parse()
            .map_err(|_| format!("bad query param {param:?}"))?;
        records.push(trace_query(g, mode, param)?);
    }

    let s = |d: Duration| d.as_secs_f64();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    println!(
        "{{\"layers\":{{\"input_bytes\":{},\"load_s\":{},\"truss_s\":{},\"degen_s\":{},\
         \"triangles\":{},\"solve_hbbmcpp_s\":{},\"solve_rdegen_s\":{},\"solve_hbbmcplus_s\":{},\
         \"hbbmcpp_calls\":{},\"rdegen_calls\":{},\"roots\":{},\"gr_removed_share\":{},\
         \"et_ratio\":{},\"et_clique_share\":{},\"par_solve_2t_s\":{},\"par_idle_s\":{},\
         \"par_splits\":{},\"par_steals\":{},\"emit_s\":{},\"emit_bytes\":{},\
         \"traced_total_s\":{}}},\"counts\":{{{}}},\"queries\":[{}]}}",
        acc.input_bytes,
        s(acc.load),
        s(acc.truss),
        s(acc.degen),
        acc.triangles,
        s(acc.solve_pp),
        s(acc.solve_rd),
        s(acc.solve_plus),
        acc.calls_pp,
        acc.calls_rd,
        acc.roots,
        ratio(acc.gr_removed as f64, acc.vertices as f64),
        ratio(acc.et_terminated as f64, acc.et_eligible as f64),
        ratio(acc.et_cliques as f64, acc.cliques as f64),
        s(acc.par_wall),
        acc.par_idle,
        acc.splits,
        acc.steals,
        s(acc.emit),
        acc.emit_bytes,
        s(acc.traced_total),
        counts.join(","),
        records.join(",")
    );
    Ok(())
}
