//! The serve-layer benchmark behind `cargo bench --bench bench_serve` and
//! the `serve` variant cells in `BENCH_solver.json`.
//!
//! Spins up an in-process `mce serve` daemon ([`mce_cli::serve`]) per cell
//! and drives it with concurrent wire clients issuing a deterministic mix of
//! complete and clique-limited streaming queries over planted-community
//! graphs. As with the rest of the harness the recording host exposes a
//! single CPU, so the headline columns are the server's own **admission and
//! session counters** — `sessions_started` / `sessions_completed` /
//! `sessions_truncated` / `sessions_rejected` and `peak_sessions` (how hard
//! the admission gate was driven) — with end-to-end `queries_per_sec`
//! recorded alongside for completeness.
//!
//! One flat JSON object per cell is appended to the `BENCH_solver.json`
//! trajectory (schema [`SCHEMA`]), pulling the counters straight off the
//! server's `metrics` wire response so the benchmark exercises the same
//! surface a monitoring client would.

use std::path::Path;
use std::time::{Duration, Instant};

use mce_cli::serve::testkit::{load_request, TestClient, TestServer};
use mce_cli::serve::ServeConfig;
use mce_gen::{planted_communities, PlantedConfig};
use mce_graph::Graph;

use crate::json::{append_validated, parse, JsonValue};

/// Schema tag stamped on every serve-benchmark record.
pub const SCHEMA: &str = "hbbmc-bench-serve/v1";

/// Schema tag stamped on every chaos-variant record (`--chaos`): the same
/// fleet, but with a panic-injecting graph in the query mix, degraded
/// admission armed and an idle client left for the reaper.
pub const CHAOS_SCHEMA: &str = "hbbmc-bench-serve-chaos/v1";

/// Options of one serve-benchmark invocation.
#[derive(Clone, Debug)]
pub struct ServeBenchOptions {
    /// Label identifying the code state being measured.
    pub variant: String,
    /// Use the tiny workload matrix (CI smoke runs).
    pub quick: bool,
    /// Timed repetitions per cell; the best (minimum-time) run is recorded.
    pub repeats: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            variant: "unnamed".into(),
            quick: false,
            repeats: 2,
        }
    }
}

/// One measured serve cell: a client fleet driven against a fresh daemon.
#[derive(Clone, Debug)]
pub struct ServeRecord {
    /// Graph name.
    pub graph: String,
    /// Vertex count of the instance.
    pub n: usize,
    /// Edge count of the instance.
    pub m: usize,
    /// Preset name the server ran (paper algorithm name).
    pub preset: String,
    /// Concurrent wire clients in the fleet.
    pub clients: usize,
    /// Total queries issued across the fleet.
    pub queries: u64,
    /// The server's admission cap (`--max-sessions`).
    pub max_sessions: usize,
    /// Best wall-clock seconds for the whole fleet to drain.
    pub seconds: f64,
    /// Maximal cliques streamed across all sessions (deterministic).
    pub cliques: u64,
    /// Sessions admitted and run, from the server's `metrics` response.
    pub sessions_started: u64,
    /// Sessions that ran to completion.
    pub sessions_completed: u64,
    /// Sessions cut by a budget (the clique-limited half of the mix).
    pub sessions_truncated: u64,
    /// Sessions bounced by admission control (`queue:false` under load).
    pub sessions_rejected: u64,
    /// High-water mark of concurrently running sessions.
    pub peak_sessions: u64,
}

impl ServeRecord {
    /// End-to-end query throughput of the best run.
    pub fn queries_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.queries as f64 / self.seconds
        } else {
            0.0
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
            ("clients", JsonValue::Num(self.clients as f64)),
            ("queries", JsonValue::Num(self.queries as f64)),
            ("max_sessions", JsonValue::Num(self.max_sessions as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("queries_per_sec", JsonValue::Num(self.queries_per_sec())),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            (
                "sessions_started",
                JsonValue::Num(self.sessions_started as f64),
            ),
            (
                "sessions_completed",
                JsonValue::Num(self.sessions_completed as f64),
            ),
            (
                "sessions_truncated",
                JsonValue::Num(self.sessions_truncated as f64),
            ),
            (
                "sessions_rejected",
                JsonValue::Num(self.sessions_rejected as f64),
            ),
            ("peak_sessions", JsonValue::Num(self.peak_sessions as f64)),
        ])
    }
}

/// One measured chaos cell: the fault-injected fleet of [`run_chaos_bench`],
/// summarised by the server's fault-tolerance counters.
#[derive(Clone, Debug)]
pub struct ChaosRecord {
    /// Graph name.
    pub graph: String,
    /// Vertex count of the instance.
    pub n: usize,
    /// Edge count of the instance.
    pub m: usize,
    /// Preset name the server ran.
    pub preset: String,
    /// Concurrent wire clients in the fleet.
    pub clients: usize,
    /// Total queries issued across the fleet (healthy + fault-injected).
    pub queries: u64,
    /// The server's admission cap.
    pub max_sessions: usize,
    /// Best wall-clock seconds for the whole fleet to drain.
    pub seconds: f64,
    /// Maximal cliques streamed across all surviving sessions.
    pub cliques: u64,
    /// Sessions admitted and run.
    pub sessions_started: u64,
    /// Sessions admitted past the degradation high-water mark.
    pub sessions_degraded: u64,
    /// Connections reaped by the idle timeout.
    pub connections_reaped: u64,
    /// Worker panics contained to a typed `internal-error` frame.
    pub panics_contained: u64,
}

impl ChaosRecord {
    /// End-to-end query throughput of the best run, faults included.
    pub fn queries_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.queries as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// The flat JSON object appended to the trajectory file.
    pub fn to_json(&self, variant: &str) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::Str(CHAOS_SCHEMA.into())),
            ("variant", JsonValue::Str(variant.into())),
            ("graph", JsonValue::Str(self.graph.clone())),
            ("n", JsonValue::Num(self.n as f64)),
            ("m", JsonValue::Num(self.m as f64)),
            ("preset", JsonValue::Str(self.preset.clone())),
            ("clients", JsonValue::Num(self.clients as f64)),
            ("queries", JsonValue::Num(self.queries as f64)),
            ("max_sessions", JsonValue::Num(self.max_sessions as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("queries_per_sec", JsonValue::Num(self.queries_per_sec())),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            (
                "sessions_started",
                JsonValue::Num(self.sessions_started as f64),
            ),
            (
                "sessions_degraded",
                JsonValue::Num(self.sessions_degraded as f64),
            ),
            (
                "connections_reaped",
                JsonValue::Num(self.connections_reaped as f64),
            ),
            (
                "panics_contained",
                JsonValue::Num(self.panics_contained as f64),
            ),
        ])
    }
}

/// The benchmark instances: `(name, graph, clients, queries per client)`.
/// Community-structured graphs keep per-query work meaningful while staying
/// small enough that admission (not enumeration) dominates the cell.
pub fn serve_workloads(quick: bool) -> Vec<(&'static str, Graph, usize, usize)> {
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
        vec![("planted_n60", planted(60, 5, 5), 3, 4)]
    } else {
        vec![
            ("planted_n300", planted(300, 20, 5), 4, 6),
            ("planted_n1000", planted(1_000, 40, 5), 4, 6),
        ]
    }
}

/// Renders a graph as whitespace edge-list text for the wire `load` request.
fn edge_list_text(g: &Graph) -> String {
    let mut text = String::new();
    for u in g.vertices() {
        for &v in g.neighbors(u) {
            if u < v {
                text.push_str(&format!("{u} {v}\n"));
            }
        }
    }
    text
}

/// The per-client query mix: even slots run the full deterministic stream,
/// odd slots are clique-limited (exercising budget truncation). All queue at
/// the admission gate rather than bouncing, so the counters stay exact.
fn query_line(slot: usize) -> &'static str {
    if slot % 2 == 0 {
        r#"{"op":"query","graph":"g","queue":true}"#
    } else {
        r#"{"op":"query","graph":"g","limit":5,"queue":true}"#
    }
}

/// Counters scraped from one `metrics` wire response.
struct MetricsSnapshot {
    cliques_emitted: u64,
    sessions_started: u64,
    sessions_completed: u64,
    sessions_truncated: u64,
    sessions_rejected: u64,
    peak_sessions: u64,
    sessions_degraded: u64,
    connections_reaped: u64,
    panics_contained: u64,
}

fn scrape_metrics(client: &mut TestClient) -> MetricsSnapshot {
    let frames = client
        .roundtrip(r#"{"op":"metrics"}"#)
        .expect("metrics roundtrip");
    assert_eq!(frames.len(), 1, "metrics is a single frame: {frames:?}");
    let value = parse(&frames[0]).expect("metrics frame parses");
    let counter = |key: &str| -> u64 {
        value
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("metrics frame missing '{key}'")) as u64
    };
    MetricsSnapshot {
        cliques_emitted: counter("cliques_emitted"),
        sessions_started: counter("sessions_started"),
        sessions_completed: counter("sessions_completed"),
        sessions_truncated: counter("sessions_truncated"),
        sessions_rejected: counter("sessions_rejected"),
        peak_sessions: counter("peak_sessions"),
        sessions_degraded: counter("sessions_degraded"),
        connections_reaped: counter("connections_reaped"),
        panics_contained: counter("panics_contained"),
    }
}

/// One timed fleet run against a fresh server; returns the elapsed seconds
/// and the server's final counters.
fn run_fleet(
    text: &str,
    clients: usize,
    queries_each: usize,
    max_sessions: usize,
) -> (f64, MetricsSnapshot) {
    let server = TestServer::start(ServeConfig {
        max_sessions,
        ..ServeConfig::default()
    })
    .expect("start serve daemon");
    let mut admin = server.connect().expect("admin connection");
    let frames = admin
        .roundtrip(&load_request("g", text))
        .expect("load roundtrip");
    assert!(
        frames[0].starts_with(r#"{"type":"loaded""#),
        "load failed: {frames:?}"
    );

    let addr = server.addr();
    let start = Instant::now();
    let fleet: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = TestClient::connect(addr).expect("fleet connection");
                for slot in 0..queries_each {
                    let frames = client.roundtrip(query_line(slot)).expect("query roundtrip");
                    let end = frames.last().expect("non-empty response");
                    assert!(end.starts_with(r#"{"type":"end""#), "query failed: {end}");
                }
            })
        })
        .collect();
    for worker in fleet {
        worker.join().expect("fleet client panicked");
    }
    let seconds = start.elapsed().as_secs_f64();
    (seconds, scrape_metrics(&mut admin))
}

/// One timed chaos fleet against a fresh server with faults armed: every
/// third query hits a panic-injecting graph (and is answered with a typed
/// `internal-error` frame), admission degrades past the high-water mark,
/// and one deliberately idle connection is left for the reaper. Returns the
/// elapsed seconds and the server's final counters.
fn run_chaos_fleet(
    text: &str,
    clients: usize,
    queries_each: usize,
    max_sessions: usize,
) -> (f64, MetricsSnapshot) {
    let idle_timeout = Duration::from_millis(200);
    let server = TestServer::start(ServeConfig {
        max_sessions,
        degrade_high_water: Some(max_sessions.saturating_sub(1)),
        chaos_panic_graph: Some("chaos".to_string()),
        chaos_panic_after: 3,
        idle_timeout: Some(idle_timeout),
        ..ServeConfig::default()
    })
    .expect("start serve daemon");
    let mut admin = server.connect().expect("admin connection");
    for name in ["g", "chaos"] {
        let frames = admin
            .roundtrip(&load_request(name, text))
            .expect("load roundtrip");
        assert!(
            frames[0].starts_with(r#"{"type":"loaded""#),
            "load failed: {frames:?}"
        );
    }

    let addr = server.addr();
    let start = Instant::now();
    // The idler never sends a request; the reaper must close it.
    let idler = std::thread::spawn(move || {
        let mut client = TestClient::connect(addr).expect("idler connection");
        let rest = client.read_to_eof().expect("idler read");
        assert!(rest.is_empty(), "frames on an idle connection: {rest:?}");
    });
    let fleet: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = TestClient::connect(addr).expect("fleet connection");
                for slot in 0..queries_each {
                    if slot % 3 == 2 {
                        let frames = client
                            .roundtrip(r#"{"op":"query","graph":"chaos","queue":true}"#)
                            .expect("chaos roundtrip");
                        let end = frames.last().expect("non-empty response");
                        assert!(
                            end.contains(r#""code":"internal-error""#),
                            "chaos query was not contained: {end}"
                        );
                    } else {
                        let frames = client.roundtrip(query_line(slot)).expect("query roundtrip");
                        let end = frames.last().expect("non-empty response");
                        assert!(end.starts_with(r#"{"type":"end""#), "query failed: {end}");
                    }
                }
            })
        })
        .collect();
    for worker in fleet {
        worker.join().expect("fleet client panicked");
    }
    idler.join().expect("idler panicked");
    let seconds = start.elapsed().as_secs_f64();
    // The admin connection sat idle through the fleet and may have been
    // reaped too; scrape the counters over a fresh connection.
    let mut admin = server.connect().expect("metrics connection");
    (seconds, scrape_metrics(&mut admin))
}

/// Runs the serve workload matrix, printing one line per cell.
pub fn run_serve_bench(options: &ServeBenchOptions) -> Vec<ServeRecord> {
    let max_sessions = 2;
    let mut records = Vec::new();
    for (name, g, clients, queries_each) in serve_workloads(options.quick) {
        let text = edge_list_text(&g);
        let queries = (clients * queries_each) as u64;
        let mut best: Option<(f64, MetricsSnapshot)> = None;
        for _ in 0..options.repeats.max(1) {
            let run = run_fleet(&text, clients, queries_each, max_sessions);
            if best.as_ref().map_or(true, |(s, _)| run.0 < *s) {
                best = Some(run);
            }
        }
        let (seconds, metrics) = best.expect("at least one repeat");
        assert_eq!(
            metrics.sessions_started, queries,
            "{name}: admission lost sessions"
        );
        let record = ServeRecord {
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            preset: ServeConfig::default().preset,
            clients,
            queries,
            max_sessions,
            seconds,
            cliques: metrics.cliques_emitted,
            sessions_started: metrics.sessions_started,
            sessions_completed: metrics.sessions_completed,
            sessions_truncated: metrics.sessions_truncated,
            sessions_rejected: metrics.sessions_rejected,
            peak_sessions: metrics.peak_sessions,
        };
        println!(
            "{:<14} clients={} queries={:>3} {:>8.4}s {:>8.1} q/s  sessions {}/{}/{} \
             (done/cut/rejected), peak {}",
            record.graph,
            record.clients,
            record.queries,
            record.seconds,
            record.queries_per_sec(),
            record.sessions_completed,
            record.sessions_truncated,
            record.sessions_rejected,
            record.peak_sessions,
        );
        records.push(record);
    }
    records
}

/// Runs the chaos workload matrix (same instances, faults armed), printing
/// one line per cell.
pub fn run_chaos_bench(options: &ServeBenchOptions) -> Vec<ChaosRecord> {
    let max_sessions = 2;
    let mut records = Vec::new();
    for (name, g, clients, queries_each) in serve_workloads(options.quick) {
        let text = edge_list_text(&g);
        let queries = (clients * queries_each) as u64;
        let mut best: Option<(f64, MetricsSnapshot)> = None;
        for _ in 0..options.repeats.max(1) {
            let run = run_chaos_fleet(&text, clients, queries_each, max_sessions);
            if best.as_ref().map_or(true, |(s, _)| run.0 < *s) {
                best = Some(run);
            }
        }
        let (seconds, metrics) = best.expect("at least one repeat");
        assert_eq!(
            metrics.sessions_started, queries,
            "{name}: admission lost sessions under faults"
        );
        let record = ChaosRecord {
            graph: name.to_string(),
            n: g.n(),
            m: g.m(),
            preset: ServeConfig::default().preset,
            clients,
            queries,
            max_sessions,
            seconds,
            cliques: metrics.cliques_emitted,
            sessions_started: metrics.sessions_started,
            sessions_degraded: metrics.sessions_degraded,
            connections_reaped: metrics.connections_reaped,
            panics_contained: metrics.panics_contained,
        };
        println!(
            "{:<14} chaos clients={} queries={:>3} {:>8.4}s {:>8.1} q/s  \
             degraded {}, reaped {}, panics contained {}",
            record.graph,
            record.clients,
            record.queries,
            record.seconds,
            record.queries_per_sec(),
            record.sessions_degraded,
            record.connections_reaped,
            record.panics_contained,
        );
        records.push(record);
    }
    records
}

/// Appends every record to the trajectory file and re-validates it,
/// including the serve-specific counter fields. Returns the total number of
/// serve records in the file.
pub fn append_records(
    path: &Path,
    variant: &str,
    records: &[ServeRecord],
) -> Result<usize, String> {
    let runs = records.iter().map(|r| r.to_json(variant)).collect();
    append_validated(
        path,
        runs,
        SCHEMA,
        &[
            "clients",
            "queries",
            "max_sessions",
            "queries_per_sec",
            "sessions_started",
            "sessions_completed",
            "sessions_truncated",
            "sessions_rejected",
            "peak_sessions",
        ],
    )
}

/// Appends every chaos record to the trajectory file and re-validates it.
/// Returns the total number of chaos records in the file.
pub fn append_chaos_records(
    path: &Path,
    variant: &str,
    records: &[ChaosRecord],
) -> Result<usize, String> {
    let runs = records.iter().map(|r| r.to_json(variant)).collect();
    append_validated(
        path,
        runs,
        CHAOS_SCHEMA,
        &[
            "clients",
            "queries",
            "max_sessions",
            "queries_per_sec",
            "sessions_started",
            "sessions_degraded",
            "connections_reaped",
            "panics_contained",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_measures_and_serialises() {
        let options = ServeBenchOptions {
            variant: "test".into(),
            quick: true,
            repeats: 1,
        };
        let records = run_serve_bench(&options);
        assert_eq!(records.len(), serve_workloads(true).len());
        for r in &records {
            assert_eq!(r.queries, (r.clients * 4) as u64);
            assert_eq!(r.sessions_started, r.queries);
            assert_eq!(
                r.sessions_completed + r.sessions_truncated,
                r.sessions_started,
                "{}: every queued session must finish",
                r.graph
            );
            assert!(r.sessions_truncated > 0, "{}: no truncated cells", r.graph);
            assert_eq!(
                r.sessions_rejected, 0,
                "{}: queueing never rejects",
                r.graph
            );
            assert!(r.cliques > 0, "{}: nothing streamed", r.graph);
            assert!(r.queries_per_sec() > 0.0);
            assert!(
                r.peak_sessions >= 1 && r.peak_sessions <= r.max_sessions as u64,
                "{}: peak {} outside [1, {}]",
                r.graph,
                r.peak_sessions,
                r.max_sessions
            );
            let json = r.to_json("test");
            assert_eq!(json.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
            assert!(json.get("queries_per_sec").is_some());
        }
    }

    #[test]
    fn quick_chaos_matrix_contains_every_fault() {
        let options = ServeBenchOptions {
            variant: "test".into(),
            quick: true,
            repeats: 1,
        };
        let records = run_chaos_bench(&options);
        assert_eq!(records.len(), serve_workloads(true).len());
        for r in &records {
            assert_eq!(r.queries, (r.clients * 4) as u64);
            assert_eq!(r.sessions_started, r.queries);
            assert!(
                r.panics_contained > 0,
                "{}: no injected panic was contained",
                r.graph
            );
            assert!(
                r.connections_reaped >= 1,
                "{}: the idler was never reaped",
                r.graph
            );
            // Degradation depends on session overlap, so it is not asserted
            // here — the serve_chaos suite pins it deterministically.
            assert!(r.cliques > 0, "{}: nothing streamed", r.graph);
            assert!(r.queries_per_sec() > 0.0);
            let json = r.to_json("test");
            assert_eq!(
                json.get("schema").and_then(JsonValue::as_str),
                Some(CHAOS_SCHEMA)
            );
            // Keys every appender's global check demands of every record.
            for key in ["preset", "seconds", "cliques", "panics_contained"] {
                assert!(json.get(key).is_some(), "{}: missing '{key}'", r.graph);
            }
        }
    }

    #[test]
    fn append_records_validates_serve_fields() {
        let dir = std::env::temp_dir().join("mce_bench_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_solver.json");
        let _ = std::fs::remove_file(&path);
        let record = ServeRecord {
            graph: "toy".into(),
            n: 5,
            m: 7,
            preset: "HBBMC++".into(),
            clients: 2,
            queries: 8,
            max_sessions: 2,
            seconds: 0.25,
            cliques: 20,
            sessions_started: 8,
            sessions_completed: 6,
            sessions_truncated: 2,
            sessions_rejected: 0,
            peak_sessions: 2,
        };
        assert!((record.queries_per_sec() - 32.0).abs() < 1e-12);
        let total = append_records(&path, "test", &[record]).unwrap();
        assert_eq!(total, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_chaos_records_validates_chaos_fields() {
        let dir = std::env::temp_dir().join("mce_bench_serve_chaos_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_solver.json");
        let _ = std::fs::remove_file(&path);
        let chaos = ChaosRecord {
            graph: "toy".into(),
            n: 5,
            m: 7,
            preset: "HBBMC++".into(),
            clients: 2,
            queries: 8,
            max_sessions: 2,
            seconds: 0.5,
            cliques: 14,
            sessions_started: 8,
            sessions_degraded: 3,
            connections_reaped: 1,
            panics_contained: 2,
        };
        assert!((chaos.queries_per_sec() - 16.0).abs() < 1e-12);
        let total = append_chaos_records(&path, "test", &[chaos]).unwrap();
        assert_eq!(total, 1);
        // A serve record appended to the same trajectory must still validate:
        // the chaos record carries every globally-required key.
        let serve = ServeRecord {
            graph: "toy".into(),
            n: 5,
            m: 7,
            preset: "HBBMC++".into(),
            clients: 2,
            queries: 8,
            max_sessions: 2,
            seconds: 0.25,
            cliques: 20,
            sessions_started: 8,
            sessions_completed: 8,
            sessions_truncated: 0,
            sessions_rejected: 0,
            peak_sessions: 2,
        };
        let total = append_records(&path, "test", &[serve]).unwrap();
        assert_eq!(total, 1);
        let _ = std::fs::remove_file(&path);
    }
}
