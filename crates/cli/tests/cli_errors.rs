//! Error-path contract of the `mce` binary: every reachable bad-input path
//! exits non-zero with a one-line stderr message — never a panic.

use std::process::Command;

fn mce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mce"))
        .args(args)
        .output()
        .expect("spawning mce")
}

/// Asserts exit code, a non-empty single-line stderr, and no panic traceback.
fn assert_clean_failure(args: &[&str], expected_code: i32) {
    let out = mce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(expected_code),
        "{args:?}: stderr = {stderr}"
    );
    assert!(!stderr.trim().is_empty(), "{args:?} must explain itself");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.starts_with("mce: "),
        "{args:?} stderr must be prefixed: {stderr}"
    );
}

#[test]
fn no_arguments_is_usage() {
    assert_clean_failure(&[], 2);
}

#[test]
fn unknown_command_is_usage() {
    assert_clean_failure(&["launch-missiles"], 2);
}

#[test]
fn unknown_option_is_usage() {
    assert_clean_failure(&["enumerate", "--warp", "9"], 2);
}

#[test]
fn removed_scheduler_option_is_usage() {
    // The parallel driver has one scheduler; the old option fails loudly
    // instead of being ignored, for every command that used to take it.
    assert_clean_failure(&["enumerate", "--scheduler", "dynamic"], 2);
    assert_clean_failure(&["query", "--scheduler", "splitting"], 2);
    assert_clean_failure(&["serve", "--scheduler", "static"], 2);
}

#[test]
fn missing_file_is_runtime() {
    assert_clean_failure(&["enumerate", "/no/such/graph.txt"], 1);
    assert_clean_failure(&["stats", "/no/such/graph.txt"], 1);
}

#[test]
fn malformed_graph_is_runtime() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "0 frog\n").unwrap();
    assert_clean_failure(&["enumerate", bad.to_str().unwrap()], 1);
    let bad_dimacs = dir.join("bad.col");
    std::fs::write(&bad_dimacs, "p edge 2 1\ne 0 1\n").unwrap();
    assert_clean_failure(&["enumerate", bad_dimacs.to_str().unwrap()], 1);
    std::fs::remove_file(&bad).ok();
    std::fs::remove_file(&bad_dimacs).ok();
}

#[test]
fn out_of_range_thread_count_is_usage() {
    assert_clean_failure(&["enumerate", "--threads", "0", "/dev/null"], 2);
    assert_clean_failure(&["enumerate", "--threads", "1025", "/dev/null"], 2);
    assert_clean_failure(&["enumerate", "--threads", "many", "/dev/null"], 2);
}

#[test]
fn unknown_enumerate_preset_is_usage() {
    assert_clean_failure(&["enumerate", "--preset", "HBBMC--", "/dev/null"], 2);
}

#[test]
fn unknown_gen_preset_is_usage() {
    assert_clean_failure(&["gen", "heawood"], 2);
    assert_clean_failure(&["gen"], 2);
}

#[test]
fn verify_requires_distinct_inputs() {
    assert_clean_failure(&["verify", "-"], 2);
    assert_clean_failure(&["verify"], 2);
}

#[test]
fn verify_detects_a_wrong_enumeration() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("tri.txt");
    let cliques = dir.join("tri.cliques");
    std::fs::write(&graph, "0 1\n1 2\n0 2\n").unwrap();
    std::fs::write(&cliques, "0 1\n").unwrap(); // non-maximal
    assert_clean_failure(
        &["verify", graph.to_str().unwrap(), cliques.to_str().unwrap()],
        1,
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&cliques).ok();
}

#[test]
fn query_rejects_bad_flag_combinations() {
    // All of these fail during flag validation, before any input is read.
    assert_clean_failure(&["query", "-", "--count", "--top", "2"], 2);
    assert_clean_failure(&["query", "-", "--anchor", "x"], 2);
    assert_clean_failure(&["query", "-", "--kclique", "0"], 2);
    assert_clean_failure(&["query", "-", "--count", "--output", "text"], 2);
    assert_clean_failure(&["query", "-", "--top", "2", "--min-size", "3"], 2);
    assert_clean_failure(&["query", "-", "--limit", "abc"], 2);
}

#[test]
fn verify_step_budget_guards_naive_blowup() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("dense.txt");
    // A 12-clique: the naive reference run cannot finish inside 10 branch
    // steps, so verification must fail cleanly via the shared budget instead
    // of succeeding or hanging.
    let mut text = String::new();
    for u in 0..12u32 {
        for v in (u + 1)..12 {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    std::fs::write(&graph, text).unwrap();
    let cliques = dir.join("dense.cliques");
    std::fs::write(&cliques, "0 1 2 3 4 5 6 7 8 9 10 11\n").unwrap();
    assert_clean_failure(
        &[
            "verify",
            graph.to_str().unwrap(),
            cliques.to_str().unwrap(),
            "--max-steps",
            "10",
        ],
        1,
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&cliques).ok();
}

/// The SIMD arm of the *other* architecture: always a valid backend name,
/// never runnable on this host, whatever the CPU.
fn foreign_kernel() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "neon"
    } else {
        "avx2"
    }
}

#[test]
fn unknown_kernel_backend_is_usage() {
    for cmd in ["enumerate", "query"] {
        let out = mce(&[cmd, "--kernel", "sse9", "/dev/null"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "mce: unknown kernel backend 'sse9' (expected scalar, avx2 or neon)\n",
            "{cmd}"
        );
    }
    assert_clean_failure(&["serve", "--kernel", "sse9"], 2);
}

#[test]
fn unsupported_kernel_backend_is_usage() {
    let foreign = foreign_kernel();
    let out = mce(&["enumerate", "--kernel", foreign, "/dev/null"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("mce: kernel backend '{foreign}' is not supported on this host\n")
    );
    assert_clean_failure(&["query", "--kernel", foreign, "/dev/null"], 2);
    assert_clean_failure(&["serve", "--kernel", foreign], 2);
}

#[test]
fn invalid_kernel_env_var_is_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_mce"))
        .args(["enumerate", "/dev/null"])
        .env("MCE_KERNEL", "quantum")
        .output()
        .expect("spawning mce");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "mce: unknown kernel backend 'quantum' (expected scalar, avx2 or neon)\n"
    );
    // An unsupported (but valid) backend via the environment is the same
    // typed error as via the flag.
    let out = Command::new(env!("CARGO_BIN_EXE_mce"))
        .args(["query", "/dev/null", "--count"])
        .env("MCE_KERNEL", foreign_kernel())
        .output()
        .expect("spawning mce");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("is not supported on this host"));
}

#[test]
fn explicit_scalar_kernel_runs_and_is_reported() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("kernel_tri.txt");
    std::fs::write(&graph, "0 1\n1 2\n0 2\n").unwrap();
    let out = mce(&[
        "enumerate",
        graph.to_str().unwrap(),
        "--kernel",
        "scalar",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kernel backend: scalar"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "cliques 1\nmax_size 3\navg_size 3.0000\n"
    );
    std::fs::remove_file(&graph).ok();
}

#[test]
fn help_paths_exit_zero() {
    for args in [
        vec!["help"],
        vec!["--help"],
        vec!["help", "enumerate"],
        vec!["enumerate", "--help"],
        vec!["gen", "--list"],
    ] {
        let out = mce(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(!out.stdout.is_empty(), "{args:?}");
    }
}
