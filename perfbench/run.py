#!/usr/bin/env python3
"""perfbench: the HBBMC reproduction's end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table3-sparse --seed 1 --seconds 45 --trace 0

`--trace 0` drives the shipped `mce` binary and an `mce serve` child and
prints every end-to-end metric; `--trace 1` runs the separate traced pass
(the `perfbench-probe` binary times calls into each layer's public API from
outside) and prints every per-layer metric. Both verify every output they
time. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
MCE = os.path.join(TARGET, "release", "mce")
PROBE = os.path.join(TARGET, "release", "perfbench-probe")

# Share of --seconds given to the CLI enumeration passes; the rest goes to
# the `mce serve` query loop. The two alternate in rounds over the whole run
# (one CLI pass, then a serve slice), so both sample the same stretch of
# host speed.
ENUM_SHARE = {"table3-sparse": 0.8, "dense-emit": 0.8, "serve-mix": 0.15}
# Each CLI time is a trimmed mean over passes: the mean follows the share of
# a run spent in the host's slow phases smoothly (a median flips between the
# fast and the slow mode), and the trim keeps one descheduled pass out.
MIN_PASSES = 3
TRIM = 0.1
# (metric, reference key, mce flags): the three timed CLI configurations.
CLI_CONFIGS = [
    ("hbbmcpp_s", "hbbmcpp", ["--preset", "HBBMC++", "--threads", "1"]),
    ("rdegen_s", "rdegen", ["--preset", "RDegen", "--threads", "1"]),
    ("hbbmcpp_2t_s", "hbbmcpp", ["--preset", "HBBMC++", "--threads", "2"]),
]
QUERY_MODES = ["limit", "count", "top", "maximum"]
LIMIT = 100
TOP_K = 10
SERVE_CONNECTIONS = 2
TRACE_QUERIES_PER_MODE = 12
# Set-up repeats between rounds, off the measuring clock, while the set-ups
# so far have taken under this share of the measured time, at most once a
# round: so setup_s, too, samples the whole run and not one moment of it.
SETUP_SHARE = 0.25
READ_CHUNK = 1 << 20


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Checks:
    """Counts checked operations and output mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()

    def check(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if self.failed <= 20:
                    print(f"perfbench: MISMATCH {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------- build / setup


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        die(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates/)")
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mce-cli", "--bin", "mce"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def probe(*args):
    out = subprocess.run([PROBE, *args], capture_output=True, text=True)
    if out.returncode != 0:
        die(f"perfbench-probe {args[0]} failed: {out.stderr.strip()}")
    return out.stdout


def set_up(workload, seed, work):
    """Writes the inputs from the seed and builds their references."""
    probe("gen", "--workload", workload, "--seed", str(seed), "--dir", work)
    graphs = []
    with open(os.path.join(work, "manifest.tsv")) as f:
        for line in f:
            name, file, _expected, served = line.rstrip("\n").split("\t")
            graphs.append({"name": name, "path": os.path.join(work, file), "served": served == "1"})
    refs = {}
    for line in probe("reference", "--dir", work).splitlines():
        ref = json.loads(line)
        refs[ref["name"]] = ref
    return graphs, refs


def check_references(refs, checks):
    """HBBMC++ and RDegen must agree on the clique set, and on the closed-form
    count where the construction fixes it."""
    for name, ref in refs.items():
        pp, rd = ref["hbbmcpp"], ref["rdegen"]
        checks.check(
            (pp["count"], pp["set"], pp["max_size"]) == (rd["count"], rd["set"], rd["max_size"]),
            f"{name}: HBBMC++ and RDegen clique sets differ",
        )
        if ref["expected"] is not None:
            checks.check(pp["count"] == ref["expected"],
                         f"{name}: {pp['count']} cliques, closed form says {ref['expected']}")


# ------------------------------------------------------------------ CLI runs


def run_cli(path, flags, head_lines=0):
    """Runs `mce enumerate PATH FLAGS --output text`, digesting stdout as it
    streams through the pipe. Returns wall seconds from spawn to exit, the
    stream's length / line count / CRC-32, the child's peak RSS in KiB and
    (optionally) its first `head_lines` lines."""
    start = time.perf_counter()
    child = subprocess.Popen([MCE, "enumerate", path, *flags, "--output", "text"],
                             stdout=subprocess.PIPE)
    size = lines = crc = 0
    head = bytearray()
    while True:
        chunk = child.stdout.read(READ_CHUNK)
        if not chunk:
            break
        size += len(chunk)
        lines += chunk.count(b"\n")
        crc = zlib.crc32(chunk, crc)
        if head_lines and head.count(b"\n") < head_lines:
            head += chunk[: 64 * 1024]
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if head_lines:
        cut = 0
        for _ in range(head_lines):
            nl = head.find(b"\n", cut)
            if nl < 0:
                break
            cut = nl + 1
        head = bytes(head[:cut])
    return {"s": seconds, "bytes": size, "lines": lines, "crc": crc,
            "rss_kb": usage.ru_maxrss, "status": child.returncode, "head": bytes(head)}


def check_cli(run, ref, what, checks):
    checks.check(
        run["status"] == 0 and (run["bytes"], run["lines"], run["crc"])
        == (ref["bytes"], ref["count"], ref["crc"]),
        f"{what}: stream differs from the reference",
    )


def enum_pass(graphs, refs, rotation, checks, heads):
    """One pass: every graph under every CLI configuration (the order of the
    three configurations rotates between passes). Returns the seconds of
    each (metric, graph) run and the largest peak RSS seen."""
    times = {}
    rss = 0
    for g in graphs:
        for i in range(len(CLI_CONFIGS)):
            metric, key, flags = CLI_CONFIGS[(i + rotation) % len(CLI_CONFIGS)]
            want_head = LIMIT if (g["served"] and metric == "hbbmcpp_s" and g["name"] not in heads) else 0
            run = run_cli(g["path"], flags, want_head)
            check_cli(run, refs[g["name"]][key], f"{g['name']} {' '.join(flags)}", checks)
            if want_head:
                heads[g["name"]] = run["head"]
            times[(metric, g["name"])] = run["s"]
            rss = max(rss, run["rss_kb"])
    return times, rss


# --------------------------------------------------------------- mce serve


class Server:
    """An `mce serve` child on a loopback port chosen by the kernel."""

    def __init__(self):
        self.child = subprocess.Popen(
            [MCE, "serve", "--addr", "127.0.0.1:0", "--max-sessions", str(2 * SERVE_CONNECTIONS),
             "--threads", "1", "--idle-timeout-secs", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.child.stderr.readline().decode()
        if "listening on" not in line:
            self.kill()
            die(f"mce serve did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.drain = threading.Thread(target=self.child.stderr.read, daemon=True)
        self.drain.start()
        self.rss_kb = None

    def connect(self):
        return Connection(self.port)

    def shutdown(self):
        conn = self.connect()
        conn.request({"op": "shutdown"})
        conn.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pid, _, usage = os.wait4(self.child.pid, os.WNOHANG)
            if pid:
                self.child.returncode = 0
                self.rss_kb = usage.ru_maxrss
                self.drain.join(timeout=5)
                return
            time.sleep(0.01)
        self.kill()

    def kill(self):
        if self.child.returncode is None:
            self.child.kill()
            _, _, usage = os.wait4(self.child.pid, 0)
            self.child.returncode = -9
            self.rss_kb = usage.ru_maxrss


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")

    def request(self, op):
        """Sends one request; returns (frames, seconds to the final frame,
        seconds to the first clique line or None)."""
        start = time.perf_counter()
        self.sock.sendall((json.dumps(op) + "\n").encode())
        frames, first = [], None
        while True:
            line = self.reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            frame = json.loads(line)
            frames.append(frame)
            kind = frame.get("type")
            if kind is None and first is None:
                first = time.perf_counter() - start
            if kind in ("end", "error", "loaded", "metrics", "shutdown"):
                return frames, time.perf_counter() - start, first

    def close(self):
        self.reader.close()
        self.sock.close()


def query_op(graph, mode):
    op = {"op": "query", "graph": graph}
    if mode == "limit":
        op["limit"] = LIMIT
    elif mode == "count":
        op["mode"] = "count"
    elif mode == "top":
        op.update(mode="top", k=TOP_K)
    else:
        op["mode"] = "maximum"
    return op


def check_response(graph, mode, frames, ref, head, checks):
    """Checks one query response against the references."""
    end = frames[-1]
    cliques = [f["clique"] for f in frames[1:-1]]
    pp = ref["hbbmcpp"]
    ok = end.get("type") == "end"
    if ok and mode == "limit":
        text = b"".join((" ".join(map(str, c)) + "\n").encode() for c in cliques)
        ok = len(cliques) == min(LIMIT, pp["count"]) and head is not None and head.startswith(text)
    elif ok and mode == "count":
        ok = end.get("count") == pp["count"] and end.get("outcome") == "complete"
    elif ok and mode == "top":
        sizes = [len(c) for c in cliques]
        ok = (len(sizes) == min(TOP_K, pp["count"]) and sizes == sorted(sizes, reverse=True)
              and sizes[0] == pp["max_size"])
    elif ok:
        ok = len(cliques) == 1 and len(cliques[0]) == pp["max_size"]
    return checks.check(ok, f"serve {mode} on {graph}")


def load_graphs(server, graphs):
    conn = server.connect()
    seconds = 0.0
    for g in graphs:
        frames, s, _ = conn.request({"op": "load", "name": g["name"], "path": g["path"]})
        if frames[-1].get("type") != "loaded":
            die(f"mce serve could not load {g['name']}: {frames[-1]}")
        seconds += s
    conn.close()
    return seconds


class ServeLoop:
    """Two connections issue a seeded query mix in a closed loop, one slice
    at a time; the connections and the query sequences carry over between
    slices."""

    def __init__(self, server, served, refs, heads, seed, checks):
        self.served, self.refs, self.heads, self.checks = served, refs, heads, checks
        self.clients = [(server.connect(), random.Random(f"{seed}:{i}"))
                        for i in range(SERVE_CONNECTIONS)]
        self.broken = [False] * SERVE_CONNECTIONS
        self.samples = []  # (mode, latency seconds, first-clique seconds or None)
        self.seconds = 0.0
        self.lock = threading.Lock()

    def slice(self, seconds):
        start = time.perf_counter()
        deadline = start + seconds

        def client(index):
            conn, rng = self.clients[index]
            try:
                while not self.broken[index] and time.perf_counter() < deadline:
                    graph, mode = rng.choice(self.served), rng.choice(QUERY_MODES)
                    frames, s, first = conn.request(query_op(graph, mode))
                    check_response(graph, mode, frames, self.refs[graph],
                                   self.heads.get(graph), self.checks)
                    with self.lock:
                        self.samples.append((mode, s, first))
            except (OSError, ValueError) as e:
                self.broken[index] = True
                self.checks.check(False, f"connection {index}: {e}")

        threads = [threading.Thread(target=client, args=(i,)) for i in range(SERVE_CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.seconds += time.perf_counter() - start

    def close(self):
        for conn, _ in self.clients:
            conn.close()


def metrics_frame(server):
    conn = server.connect()
    frames, _, _ = conn.request({"op": "metrics"})
    conn.close()
    return frames[-1]


# ------------------------------------------------------------------ header


def host_header():
    def sh(*cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return out.stdout.strip() if out.returncode == 0 else ""
        except OSError:
            return ""

    rev = sh("git", "rev-parse", "HEAD")
    if not rev:
        digest = hashlib.sha256()
        for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
            base = os.path.join(ROOT, top)
            paths = [base] if os.path.isfile(base) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
            for p in paths:
                if p.endswith((".rs", ".toml", ".lock", ".py")):
                    digest.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        digest.update(f.read())
        rev = "tree-" + digest.hexdigest()[:16]
    llc = sh("getconf", "LEVEL3_CACHE_SIZE") or sh("getconf", "LEVEL2_CACHE_SIZE") or "unknown"
    return {"rev": rev, "nproc": os.cpu_count(), "llc_bytes": llc, "profile": "release"}


def kernel_backend(path):
    out = subprocess.run([MCE, "enumerate", path, "--output", "count", "--stats"],
                         capture_output=True, text=True)
    for line in out.stderr.splitlines():
        if line.startswith("kernel backend:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


# ---------------------------------------------------------------- workloads


def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values):
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def run_untraced(args, work, checks):
    def timed_set_up():
        start = time.perf_counter()
        result = set_up(args.workload, args.seed, work)
        timings.append(time.perf_counter() - start)
        return result

    timings = []
    graphs, refs = timed_set_up()
    check_references(refs, checks)
    served = [g["name"] for g in graphs if g["served"]]

    share = ENUM_SHARE[args.workload]
    passes, rss = [], []
    heads = {}
    server = Server()
    try:
        load_graphs(server, [g for g in graphs if g["served"]])
        loop = ServeLoop(server, served, refs, heads, args.seed, checks)
        enum_seconds = 0.0
        # Rounds run while the next one, at the mean round length so far,
        # still fits in --seconds.
        while len(passes) < MIN_PASSES or (
            enum_seconds + loop.seconds) * (len(passes) + 1) / len(passes) <= args.seconds:
            t = time.perf_counter()
            times, peak = enum_pass(graphs, refs, len(passes), checks, heads)
            enum_seconds += time.perf_counter() - t
            passes.append(times)
            rss.append(peak)
            # Bring the serve loop's share of the run up to 1 - share.
            loop.slice(max(0.0, enum_seconds * (1 - share) / share - loop.seconds))
            if sum(timings) < SETUP_SHARE * (enum_seconds + loop.seconds):
                checks.check(timed_set_up() == (graphs, refs), "a repeated set-up differs")
        loop.close()
        frame = metrics_frame(server)
        checks.check(frame.get("sessions_rejected") == 0, "serve admission rejected a query")
        server.shutdown()
    finally:
        server.kill()
    cli = {metric: sum(trimmed_mean([p[(metric, g["name"])] for p in passes]) for g in graphs)
           for metric, _, _ in CLI_CONFIGS}
    samples, wall = loop.samples, loop.seconds

    latencies = sorted(s for _, s, _ in samples)
    if len(latencies) < 2:
        die("the serve loop completed fewer than two queries")
    firsts = [f for mode, _, f in samples if mode == "limit" and f is not None]
    p99 = statistics.quantiles(latencies, n=100)[98]
    beyond = sum(1 for s in latencies if s > p99)
    print(f"perfbench: {len(passes)} CLI passes; {len(latencies)} queries, "
          f"{beyond} beyond p99", file=sys.stderr)
    metrics = {
        "setup_s": (median(timings), "s"),
        "hbbmcpp_s": (cli["hbbmcpp_s"], "s"),
        "rdegen_s": (cli["rdegen_s"], "s"),
        "hbbmcpp_2t_s": (cli["hbbmcpp_2t_s"], "s"),
        "peak_rss_mb": ((server.rss_kb if args.workload == "serve-mix" else median(rss)) / 1024, "MB"),
        "query_p50_ms": (median(latencies) * 1e3, "ms"),
        "query_p99_ms": (p99 * 1e3, "ms"),
        "first_clique_p50_ms": (median(firsts) * 1e3, "ms"),
        "queries_per_s": (len(latencies) / wall, "1/s"),
    }
    samples_record = {
        "passes": len(passes), "query_samples": len(latencies), "beyond_p99": beyond,
        "pass_seconds": {metric: {g["name"]: [p[(metric, g["name"])] for p in passes] for g in graphs}
                         for metric, _, _ in CLI_CONFIGS},
        "setup_seconds": timings,
    }
    return graphs, metrics, samples_record


def trace_queries(served, seed):
    rng = random.Random(f"{seed}:trace")
    sequence = [(rng.choice(served), mode)
                for mode in QUERY_MODES for _ in range(TRACE_QUERIES_PER_MODE)]
    rng.shuffle(sequence)
    return sequence


def run_traced(args, work, checks):
    graphs, refs = set_up(args.workload, args.seed, work)
    check_references(refs, checks)
    served = [g["name"] for g in graphs if g["served"]]

    # Untraced end-to-end HBBMC++ pass: the base for residual and overhead.
    heads, e2e = {}, 0.0
    for g in graphs:
        run = run_cli(g["path"], CLI_CONFIGS[0][2], LIMIT if g["served"] else 0)
        check_cli(run, refs[g["name"]]["hbbmcpp"], f"{g['name']} HBBMC++", checks)
        heads[g["name"]] = run["head"]
        e2e += run["s"]

    sequence = trace_queries(served, args.seed)
    queries_path = os.path.join(work, "queries.tsv")
    with open(queries_path, "w") as f:
        for graph, mode in sequence:
            f.write(f"{graph}\t{mode}\t{LIMIT if mode == 'limit' else TOP_K}\n")
    traced = json.loads(probe("trace", "--dir", work, "--queries", queries_path))
    layers, inproc = traced["layers"], traced["queries"]
    for name, counts in traced["counts"].items():
        # HBBMC++, RDegen, HBBMC+ and the 2-thread count query.
        for count in counts:
            checks.check(count == refs[name]["hbbmcpp"]["count"], f"traced count of {name}")
    for (graph, mode), q in zip(sequence, inproc):
        pp = refs[graph]["hbbmcpp"]
        want = {"limit": min(LIMIT, pp["count"]), "count": pp["count"]}.get(mode, pp["max_size"])
        checks.check(q["value"] == want, f"in-process {mode} on {graph}")

    server = Server()
    try:
        load_s = load_graphs(server, [g for g in graphs if g["served"]])
        conn = server.connect()
        overheads = []
        for (graph, mode), q in zip(sequence, inproc):
            frames, s, _ = conn.request(query_op(graph, mode))
            check_response(graph, mode, frames, refs[graph], heads.get(graph), checks)
            overheads.append((s - q["s"]) * 1e3)
        conn.close()
        frame = metrics_frame(server)
        server.shutdown()
    finally:
        server.kill()

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    by_mode = {m: [q for q, (_, mode) in zip(inproc, sequence) if mode == m] for m in QUERY_MODES}
    L = layers
    solve_pp = L["solve_hbbmcpp_s"]
    metrics = {
        "load.s": (L["load_s"], "s"),
        "load.mb_per_s": (ratio(L["input_bytes"] / 1e6, L["load_s"]), "MB/s"),
        "order.truss_s": (L["truss_s"], "s"),
        "order.degen_s": (L["degen_s"], "s"),
        "order.triangles": (L["triangles"], "count"),
        "order.truss_ns_per_triangle": (ratio(L["truss_s"] * 1e9, L["triangles"]), "ns"),
        "solve.hbbmcpp_s": (solve_pp, "s"),
        "solve.rdegen_s": (L["solve_rdegen_s"], "s"),
        "solve.hbbmcpp_minus_order_s": (solve_pp - L["truss_s"], "s"),
        "solve.hbbmcpp_calls": (L["hbbmcpp_calls"], "count"),
        "solve.rdegen_calls": (L["rdegen_calls"], "count"),
        "solve.hbbmcpp_ns_per_call": (ratio(solve_pp * 1e9, L["hbbmcpp_calls"]), "ns"),
        "solve.roots": (L["roots"], "count"),
        "gr.removed_share": (L["gr_removed_share"], "ratio"),
        "et.ratio": (L["et_ratio"], "ratio"),
        "et.clique_share": (L["et_clique_share"], "ratio"),
        "et.saved_s": (L["solve_hbbmcplus_s"] - solve_pp, "s"),
        "par.solve_2t_s": (L["par_solve_2t_s"], "s"),
        "par.speedup": (ratio(solve_pp, L["par_solve_2t_s"]), "x"),
        "par.idle_s": (L["par_idle_s"], "s"),
        "par.splits": (L["par_splits"], "count"),
        "par.steals": (L["par_steals"], "count"),
        "emit.s": (L["emit_s"], "s"),
        "emit.mb_per_s": (ratio(L["emit_bytes"] / 1e6, L["emit_s"]), "MB/s"),
        "emit.bytes": (L["emit_bytes"], "B"),
        "residual_s": (e2e - L["load_s"] - solve_pp - L["emit_s"], "s"),
        "query.maximum_s": (sum(q["s"] for q in by_mode["maximum"]), "s"),
        "query.top_s": (sum(q["s"] for q in by_mode["top"]), "s"),
        "query.count_s": (sum(q["s"] for q in by_mode["count"]), "s"),
        "query.limit_s": (sum(q["s"] for q in by_mode["limit"]), "s"),
        "query.limit_first_clique_ms": (median([q["first_ms"] for q in by_mode["limit"]
                                                if q["first_ms"] is not None]), "ms"),
        "query.maximum_pruned_by_color": (sum(q["pruned_by_color"] for q in by_mode["maximum"]), "count"),
        "query.maximum_pruned_by_core": (sum(q["pruned_by_core"] for q in by_mode["maximum"]), "count"),
        "query.top_pruned_by_color": (sum(q["pruned_by_color"] for q in by_mode["top"]), "count"),
        "serve.overhead_p50_ms": (median(overheads), "ms"),
        "serve.load_s": (load_s, "s"),
        "serve.rejected": (frame.get("sessions_rejected", 0), "count"),
        "serve.truncated": (frame.get("sessions_truncated", 0), "count"),
        "serve.peak_sessions": (frame.get("peak_sessions", 0), "count"),
        "trace.overhead_s": (L["traced_total_s"] - e2e, "s"),
    }
    checks.check(L["emit_bytes"] == sum(refs[g["name"]]["hbbmcpp"]["bytes"] for g in graphs),
                 "replayed emit bytes differ from the CLI stream")
    return graphs, metrics, {"e2e_hbbmcpp_s": e2e, "queries": len(sequence)}


# -------------------------------------------------------------------- main


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    if a["header"] != b["header"]:
        die(f"refusing to compare: host headers differ\n  {a['header']}\n  {b['header']}", 3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        die("refusing to compare records of different workloads or trace modes", 3)
    for name, (value, unit) in a["metrics"].items():
        other = b["metrics"].get(name, [None])[0]
        change = f"{(other / value - 1) * 100:+.1f}%" if other is not None and value else "n/a"
        print(f"{name:36} {value:>14.6g} -> {other if other is None else f'{other:.6g}':>14} {unit:6} {change}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ENUM_SHARE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the result and host header to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files (refused if their host headers differ)")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.workload:
        parser.error("--workload is required")

    build()
    work = os.path.join(TARGET, "perfbench-work", f"{args.workload}-{os.getpid()}")
    checks = Checks()
    try:
        run = run_traced if args.trace else run_untraced
        graphs, metrics, samples = run(args, work, checks)
        header = host_header()
        header["kernel_backend"] = kernel_backend(min(graphs, key=lambda g: os.path.getsize(g["path"]))["path"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench host: " + json.dumps(header, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"perfbench {args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        with open(args.record, "w") as f:
            json.dump({"header": header, "workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "samples": samples,
                       "metrics": {k: list(v) for k, v in metrics.items()}}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
