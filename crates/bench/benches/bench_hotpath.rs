//! End-to-end solver hot-path benchmark with a JSON trajectory emitter.
//!
//! ```text
//! cargo bench --bench bench_hotpath -- [--quick | --table3] [--threads N] [--repeats N]
//!                                      [--variant NAME] [--json PATH]
//! ```
//!
//! Runs the graphs × presets matrix of [`mce_bench::hotpath`] and, when
//! `--json` is given, appends one record per cell to the trajectory file
//! (typically the workspace-level `BENCH_solver.json`), re-validating the
//! file afterwards. Unknown flags injected by the cargo bench harness
//! (`--bench`, ...) are ignored.

use std::path::PathBuf;

use mce_bench::hotpath::{append_records, run_hotpath, HotpathOptions};

fn main() {
    let mut options = HotpathOptions::default();
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--table3" => options.table3 = true,
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes a positive integer");
            }
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
                    eprintln!("bench_hotpath: ignoring unknown argument '{other}'");
                }
            }
        }
    }

    println!(
        "# bench_hotpath variant={} threads={} repeats={} ({} matrix)",
        options.variant,
        options.threads,
        options.repeats,
        if options.table3 {
            "table3"
        } else if options.quick {
            "quick"
        } else {
            "full"
        }
    );
    let records = run_hotpath(&options);

    if let Some(path) = json_path {
        match append_records(&path, &options.variant, &records) {
            Ok(total) => println!(
                "appended {} records to {} ({} total, validated)",
                records.len(),
                path.display(),
                total
            ),
            Err(e) => {
                eprintln!("bench_hotpath: JSON emission failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
