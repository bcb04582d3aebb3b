#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds the libraries,
kplex_cli and the benchmark drivers with CMake into $CARGO_TARGET_DIR
(default .bench_build). `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of the separate traced run. The last
line of standard output is one JSON object; the line before it records
the host and build. See perfbench/README.md for the workloads and the
metric map.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Engine cells: (dataset, k, q). serve_mix's cold class mines COLD_CELL.
SEQ_BRANCH_CELL = ("wiki-vote-syn", 3, 10)
SEQ_SEED_CELL = ("enwiki-syn", 2, 12)
COLD_CELL = ("wiki-vote-syn", 3, 15)
# The cells serve_mix's in-process reference enumerates: its hit and
# stream answers, and the bases its contain= answers are filtered from.
SERVE_BASE_CELLS = {"wiki-vote-syn/3/15", "wiki-vote-syn/3/16",
                    "karate/2/4", "karate/3/5"}
SELF_TEST_CELL = ("karate", 2, 6)
NPROC = os.cpu_count() or 1
# par_branch runs on half the cores. With one worker per core, any other
# load on the host stalls a worker and the stage barrier waits for it,
# so the timings measure the host's scheduler more than the program.
PAR_THREADS = max(1, NPROC // 2)

WORKLOADS = {
    "seq_branch": {"cell": SEQ_BRANCH_CELL, "threads": 0},
    "seq_seed": {"cell": SEQ_SEED_CELL, "threads": 0},
    "par_branch": {"cell": SEQ_BRANCH_CELL, "threads": PAR_THREADS},
    "serve_mix": {"cell": COLD_CELL, "threads": 0},
}

# Server settings of serve_mix. The cache capacity must stay equal to
# kCacheCapacity in perfbench_serve.cc.
SERVER_FLAGS = ["--workers", "2", "--cache-capacity", "24"]
# serve_mix alternates set-up and load this many times, so its set-up
# samples span the whole run, as the engine drivers' do.
SERVE_CYCLES = 5
CALL_TIMEOUT = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures once, then brings the three targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no kplex sources next to perfbench/")
    out = build_dir()
    steps = [["cmake", "--build", out, "-j", str(min(4, NPROC)), "--target",
              "perfbench_engine", "perfbench_serve", "kplex_cli"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=880)
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError("build step failed: " + " ".join(step[:2]))
    return {
        "engine": os.path.join(out, "perfbench_engine"),
        "serve": os.path.join(out, "perfbench_serve"),
        "cli": os.path.join(out, "kplex", "kplex_cli"),
    }


def run_json(cmd, timeout=CALL_TIMEOUT):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" %
                         (os.path.basename(cmd[0]), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------ correctness

def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)["cells"]


def cell_key(cell):
    return "%s/%d/%d" % cell


def answer_errors(answer, want, parallel=False):
    """Differences between one run's answer and the stored one."""
    if "error" in answer:
        return [answer["error"]]
    errors = []
    for field in ("count", "fingerprint"):
        if answer.get(field) != want[field]:
            errors.append("%s %s != %s" % (field, answer.get(field),
                                            want[field]))
    for name, value in want["counters"].items():
        if parallel and name == "timeout_spawns":
            continue  # timing-dependent by design
        got = answer.get("counters", {}).get(name)
        if got != value:
            errors.append("counter %s %s != %s" % (name, got, value))
    return errors


def self_test(bins, workdir):
    """The karate cell must pass the gate, and a wrong fingerprint fail it."""
    expected = load_expected()[cell_key(SELF_TEST_CELL)]
    doc = run_json(engine_cmd(bins, "run", SELF_TEST_CELL, 0, 1, 0, workdir))
    tampered = dict(expected, fingerprint="0x%016x" %
                    (int(expected["fingerprint"], 16) ^ 1))
    passes = all(not answer_errors(r, expected) for r in doc["reps"])
    caught = all(answer_errors(r, tampered) for r in doc["reps"])
    if not passes:
        log("self-test: karate k=2 q=6 does not match its stored answer")
    if not caught:
        log("self-test: a wrong expected fingerprint was not reported")
    return passes and caught


# ---------------------------------------------------------------- engine

def engine_cmd(bins, mode, cell, threads, seed, seconds, workdir):
    dataset, k, q = cell
    return [bins["engine"], mode, "--dataset", dataset, "--k", str(k),
            "--q", str(q), "--threads", str(threads), "--seed", str(seed),
            "--seconds", "%.3f" % seconds, "--workdir", workdir]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, errors, what):
        self.attempted += 1
        if errors:
            self.failed += 1
            log("wrong answer in %s: %s" % (what, "; ".join(errors[:3])))


def engine_end_to_end(bins, spec, seed, seconds, workdir, tally):
    want = load_expected()[cell_key(spec["cell"])]
    parallel = spec["threads"] > 0
    doc = run_json(engine_cmd(bins, "run", spec["cell"], spec["threads"],
                              seed, seconds, workdir))
    for rep in doc["reps"]:
        tally.check(answer_errors(rep, want, parallel), "timed repetition")
    walls = [r["wall"] for r in doc["reps"]]
    metrics = {
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_p75_ms": quantile(walls, 0.75) * 1e3,
        "cpu_ms_per_op": statistics.median(r["cpu"] for r in doc["reps"]) * 1e3,
        "ops_per_s": len(walls) / sum(walls),
    }
    return doc["host"], metrics, len(walls)


def engine_layers(bins, spec, seed, seconds, workdir, tally):
    """Per-layer metrics of the engine cell from the traced run."""
    want = load_expected()[cell_key(spec["cell"])]
    # Sequential workloads run the parallel phases with par_branch's threads.
    doc = run_json(engine_cmd(bins, "trace", spec["cell"], PAR_THREADS,
                              seed, seconds, workdir))
    for phase in ("seq", "replay", "par", "hooked"):
        for rep in doc[phase]:
            tally.check(answer_errors(rep, want, phase in ("par", "hooked")),
                        "traced run (%s)" % phase)
    for rep in doc["replay"]:
        tally.check(["pair-matrix probe disagrees"]
                    if rep["probe_pairs_pruned"] !=
                    rep["counters"]["pair_edges_pruned"] else [],
                    "pair-matrix probe")

    def med(phase, key):
        return statistics.median(r[key] for r in doc[phase])

    c = want["counters"]
    seq_wall, par_wall = med("seq", "wall"), med("par", "wall")
    # The traced counterpart of a workload's own driver: the layer
    # replay for sequential drivers, the hooked run for the parallel one.
    if spec["threads"] > 0:
        traced, untraced = med("hooked", "wall"), par_wall
    else:
        traced, untraced = med("replay", "wall"), seq_wall
    threads = doc["parallel_threads"]
    return doc["host"], {
        "reduce_s": med("replay", "reduce_s"),
        "core_vertices": doc["replay"][0]["core_vertices"],
        "seed_build_s": med("replay", "seed_build_s"),
        "pair_matrix_probe_s": med("replay", "pair_matrix_s"),
        "seed_graphs": c["seed_graphs"],
        "seed_vertices_pruned": c["seed_vertices_pruned"],
        "pair_edges_pruned": c["pair_edges_pruned"],
        "seed_yield": c["seed_graphs"] / doc["replay"][0]["core_vertices"],
        "subtask_s": med("replay", "subtask_s"),
        "subtasks": c["subtasks"],
        "subtasks_pruned_r1": c["subtasks_pruned_r1"],
        "r1_prune_frac": c["subtasks_pruned_r1"] / c["subtasks"],
        "branch_s": med("replay", "branch_s"),
        "branch_calls": c["branch_calls"],
        "ub_prunes": c["ub_prunes"],
        "kplex_shortcuts": c["kplex_shortcuts"],
        "outputs_per_branch": c["outputs"] / c["branch_calls"],
        "emit_s": med("replay", "emit_s"),
        "outputs": c["outputs"],
        "traced_wall_s": med("replay", "wall"),
        "trace_overhead_frac": (traced - untraced) / untraced,
        "cpu_util": med("par", "cpu") / (par_wall * threads),
        "timeout_spawns": statistics.median(
            r["counters"]["timeout_spawns"] for r in doc["par"]),
        "stage_count": med("hooked", "stage_count"),
        "stage_p50_ms": med("hooked", "stage_p50_ms"),
        "stage_max_ms": med("hooked", "stage_max_ms"),
        "speedup": seq_wall / par_wall,
    }


def quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


# ----------------------------------------------------------------- serve

def proc_stat_cpu(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Server:
    """One `kplex_cli serve --listen` with the preload fill; the set-up
    time runs from input generation to the listening banner, which the
    server prints once the graphs are loaded and the store and cache
    filled."""

    def __init__(self, bins, workdir, seed):
        t0 = time.monotonic()
        subprocess.run([bins["serve"], "prepare", "--workdir", workdir,
                        "--seed", str(seed)], check=True, timeout=60)
        store = fresh_dir(os.path.join(workdir, "store"))
        self.log_path = os.path.join(workdir, "server.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [bins["cli"], "serve", "--listen", "0", "--store", store,
             "--script", os.path.join(workdir, "preload.txt")] +
            SERVER_FLAGS, stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None
        try:
            self.port = self._wait_for_banner(deadline=t0 + 60)
        finally:
            if self.port is None:
                self.stop()
        self.setup_s = time.monotonic() - t0

    def _wait_for_banner(self, deadline):
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                for line in f:
                    if line.startswith("serving on "):
                        return int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise BenchError("server exited during set-up")
            time.sleep(0.002)
        raise BenchError("server did not start listening")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def serve_load(bins, server, workdir, seed, seconds, tally):
    cpu0 = proc_stat_cpu(server.proc.pid)
    doc = run_json([bins["serve"], "load", "--port", str(server.port),
                    "--workdir", workdir, "--seed", str(seed),
                    "--seconds", "%.3f" % seconds])
    doc["server_cpu_s"] = proc_stat_cpu(server.proc.pid) - cpu0
    doc["server_peak_rss_mb"] = proc_peak_rss_mb(server.proc.pid)
    tally.attempted += doc["attempted"]
    tally.failed += doc["failed"]
    for failure in doc["failures"]:
        log("serve_mix failure: " + failure["why"])
    # The in-process reference comes from the same library, so every
    # base cell it enumerated is pinned to its stored answer.
    expected = load_expected()
    for cell in sorted(SERVE_BASE_CELLS):
        want = {k: expected[cell][k] for k in ("count", "fingerprint")}
        tally.check([] if doc["reference"].get(cell) == want else
                    ["%s disagrees with expected.json" % cell],
                    "serve_mix reference")
    return doc


def serve_end_to_end(bins, seed, seconds, workdir, tally):
    setups, rss, blocks = [], [], []
    server_cpu = elapsed = 0.0
    for _ in range(SERVE_CYCLES):
        server = Server(bins, workdir, seed)
        try:
            doc = serve_load(bins, server, workdir, seed,
                             seconds / SERVE_CYCLES, tally)
        finally:
            server.stop()
        setups.append(server.setup_s)
        rss.append(doc["server_peak_rss_mb"])
        blocks += doc["block_ms"]
        server_cpu += doc["server_cpu_s"]
        elapsed += doc["elapsed_s"]
    # One operation is one connection's pass through a 20-request block
    # of the mix. Single sub-millisecond requests are dominated by thread
    # wake-ups, whose run-to-run swing exceeds any usable bound; the
    # request-level figures are per-layer metrics of the traced run.
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "op_p50_ms": statistics.median(blocks),
        "op_p75_ms": quantile(blocks, 0.75),
        "cpu_ms_per_op": server_cpu / len(blocks) * 1e3,
        "ops_per_s": len(blocks) / elapsed,
    }
    return doc["host"], metrics, len(blocks)


def serve_layers(bins, seed, seconds, workdir, tally):
    server = Server(bins, workdir, seed)
    try:
        load = serve_load(bins, server, workdir, seed, seconds / 2, tally)
    finally:
        server.stop()
    fresh_dir(os.path.join(workdir, "replay_store"))
    replay = run_json([bins["serve"], "replay", "--workdir", workdir,
                       "--seed", str(seed), "--seconds",
                       "%.3f" % (seconds / 2)])
    tally.check(["%d session errors" % replay["errors"]]
                if replay["errors"] else [], "in-process session replay")
    cls = load["classes"]
    metrics = {name + "_p50_ms": cls[name]["p50_ms"]
               for name in ("hit", "stream", "disk", "cold")}
    metrics.update({
        "req_p50_ms": statistics.median(load["latency_ms"]),
        "req_p99_ms": quantile(load["latency_ms"], 0.99),
        "req_per_s": load["completed"] / load["elapsed_s"],
    })
    metrics.update({key: load[key] for key in (
        "stream_mb_per_s", "queue_wait_ms", "stream_write_ms", "store_hits",
        "store_misses", "store_read_ms", "cache_hit_frac")})
    metrics.update({key: replay[key] for key in (
        "text_parse_us", "framed_parse_us", "text_format_us",
        "framed_format_us", "session_hit_us", "session_stream_us",
        "session_disk_us", "session_cold_us")})
    metrics["transport_ms"] = (cls["hit"]["p50_ms"] -
                               replay["session_hit_us"] / 1e3)
    return metrics


# ------------------------------------------------------------------ main

def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (an enclosing repository's HEAD would be wrong)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return "unknown"


def with_units(metrics, declared):
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only run the karate gate check")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    bins = build()
    work = fresh_dir(os.path.join(build_dir(), "work",
                                  args.workload or "self_test"))
    gate_ok = self_test(bins, work)
    if args.self_test:
        print(json.dumps({"self_test": "pass" if gate_ok else "fail"}))
        return 0 if gate_ok else 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    spec = WORKLOADS[args.workload]
    tally = Tally()
    serve = args.workload == "serve_mix"
    if args.trace == 0:
        if serve:
            host, metrics, samples = serve_end_to_end(
                bins, args.seed, args.seconds, work, tally)
        else:
            host, metrics, samples = engine_end_to_end(
                bins, spec, args.seed, args.seconds, work, tally)
        out = with_units(metrics, declared["end_to_end"])
    else:
        # Every traced run reports every layer: the engine layers on the
        # workload's own cell, the service and store layers on the
        # serve_mix traffic (the main share of the time on serve_mix).
        engine_share = 0.3 if serve else 0.7
        host, metrics = engine_layers(bins, spec, args.seed,
                                      engine_share * args.seconds, work,
                                      tally)
        metrics.update(serve_layers(bins, args.seed,
                                    (1 - engine_share) * args.seconds,
                                    work, tally))
        out = with_units(metrics, declared["per_layer"])
        samples = None
    print(json.dumps({"host": dict(host, commit=git_commit(),
                                   workload=args.workload, seed=args.seed,
                                   samples=samples)}))
    print(json.dumps({
        "correct": gate_ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("benchmark failed: %s" % e)
        sys.exit(1)
