//! Skewed-graph load-balance benchmark of the parallel driver with a JSON
//! trajectory emitter.
//!
//! ```text
//! cargo bench --bench bench_scheduler -- [--quick] [--repeats N]
//!                                        [--variant NAME] [--json PATH]
//! ```
//!
//! Runs the skewed graphs × thread-count matrix of [`mce_bench::scheduler`]
//! and, when `--json` is given, appends one record per cell to the
//! trajectory file (typically the workspace-level `BENCH_solver.json`),
//! re-validating the scheduler records — splits, steals, busy fraction and
//! max worker share — afterwards. Unknown flags injected by the cargo bench
//! harness (`--bench`, ...) are ignored.

use std::path::PathBuf;

use mce_bench::scheduler::{append_records, run_scheduler_bench, SchedulerBenchOptions};

fn main() {
    let mut options = SchedulerBenchOptions::default();
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--repeats" => {
                options.repeats = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats takes a positive integer");
            }
            "--variant" => {
                options.variant = args.next().expect("--variant takes a label");
            }
            "--json" => {
                json_path = Some(PathBuf::from(args.next().expect("--json takes a path")));
            }
            // `cargo bench` passes `--bench`; ignore it and anything unknown.
            other => {
                if !other.starts_with("--bench") {
                    eprintln!("bench_scheduler: ignoring unknown argument '{other}'");
                }
            }
        }
    }

    println!(
        "# bench_scheduler variant={} repeats={} ({} matrix)",
        options.variant,
        options.repeats,
        if options.quick { "quick" } else { "full" }
    );
    let records = run_scheduler_bench(&options);

    if let Some(path) = json_path {
        match append_records(&path, &options.variant, &records) {
            Ok(total) => println!(
                "appended {} records to {} ({} scheduler records total, validated)",
                records.len(),
                path.display(),
                total
            ),
            Err(e) => {
                eprintln!("bench_scheduler: JSON emission failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
