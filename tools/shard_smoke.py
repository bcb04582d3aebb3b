#!/usr/bin/env python3
"""Sharded-mining smoke test: boots TWO `kplex_cli serve --listen`
worker processes, runs a coordinated mine through the CLI's one-shot
coordinator, and asserts the merged result is byte-identical to a
single-process run — on two datasets.

Usage: shard_smoke.py path/to/kplex_cli

Checks (any failure exits non-zero):
  1. both workers boot and preload the same dataset (same content
     hash);
  2. a framed single-process `mine` on worker A yields the reference
     plex count, max size, and fingerprint;
  3. `kplex_cli mine --endpoints A,B` reports exactly that count, max
     size, and fingerprint (and the workers' content hash);
  4. a mismatched-snapshot coordination is refused through the hash
     admission check (worker C holds a different graph);
  5. both workers shut down cleanly on SIGTERM (exit 0).
"""

import json
import re
import signal
import socket
import subprocess
import sys
import tempfile


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def roundtrip(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        return self.file.readline().rstrip("\n")

    def close(self):
        self.sock.close()


def fail(message):
    print(f"shard_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot_worker(cli, script_path):
    server = subprocess.Popen(
        [cli, "serve", "--listen", "0", "--workers", "2",
         "--script", script_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # The preload script's output precedes the banner; scan for it.
    port = None
    for _ in range(64):
        line = server.stdout.readline()
        if not line:
            break
        match = re.match(r"serving on 127\.0\.0\.1:(\d+) ", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        server.kill()
        fail("worker did not print its serving banner")
    return server, port


def reference_mine(port, graph, k, q):
    """Single-process framed mine on one worker: the ground truth."""
    client = LineClient(port)
    hello = json.loads(client.roundtrip("hello proto=2 mode=framed"))
    if hello.get("proto") != 2:
        fail(f"worker speaks protocol {hello.get('proto')}, need 2")
    response = json.loads(client.roundtrip(json.dumps(
        {"id": 1, "cmd": "mine", "graph": graph, "k": k, "q": q})))
    client.close()
    if response.get("state") != "done":
        fail(f"reference mine: {response!r}")
    return (response["plexes"], response["max_size"],
            response["fingerprint"])


def coordinated_mine(cli, endpoints, graph, k, q):
    return subprocess.run(
        [cli, "mine", "--endpoints", ",".join(endpoints),
         "--graph", graph, "--k", str(k), "--q", str(q)],
        capture_output=True, text=True, timeout=300)


def main():
    if len(sys.argv) != 2:
        fail("usage: shard_smoke.py path/to/kplex_cli")
    cli = sys.argv[1]

    # Dataset 1: the bundled karate club. Dataset 2: a deterministic
    # registry graph (generated with a fixed seed, so every process
    # builds identical bytes — the admission hash proves it).
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as script:
        script.write("dataset kc karate\ndataset ws wiki-vote-syn\n")
        preload = script.name
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as script:
        # Same names, different bytes: must be refused.
        script.write("dataset kc email-euall-syn\n")
        mismatched = script.name

    workers = []
    try:
        a, port_a = boot_worker(cli, preload)
        workers.append(a)
        b, port_b = boot_worker(cli, preload)
        workers.append(b)
        c, port_c = boot_worker(cli, mismatched)
        workers.append(c)
        endpoints = [f"127.0.0.1:{port_a}", f"127.0.0.1:{port_b}"]

        for graph, k, q in [("kc", 2, 6), ("ws", 2, 12)]:
            plexes, max_size, fingerprint = reference_mine(
                port_a, graph, k, q)
            run = coordinated_mine(cli, endpoints, graph, k, q)
            if run.returncode != 0:
                fail(f"coordinated mine on {graph} exited "
                     f"{run.returncode}: {run.stdout!r} {run.stderr!r}")
            match = re.search(
                r"coordinated mine .*: (\d+) plexes, max size (\d+), "
                r"fingerprint (0x[0-9a-f]{16}), hash (0x[0-9a-f]{16})",
                run.stdout)
            if not match:
                fail(f"cannot parse coordinator output: {run.stdout!r}")
            got_plexes, got_max = int(match.group(1)), int(match.group(2))
            got_fingerprint = match.group(3)
            if (got_plexes, got_max) != (plexes, max_size):
                fail(f"{graph}: coordinated {got_plexes}/{got_max} != "
                     f"single-process {plexes}/{max_size}")
            if got_fingerprint != fingerprint:
                fail(f"{graph}: merged fingerprint {got_fingerprint} != "
                     f"single-process {fingerprint}")
            print(f"shard_smoke: {graph}: coordinated over 2 workers == "
                  f"single process ({plexes} plexes, {fingerprint})")

        # Mismatched snapshot: worker C holds different bytes under the
        # same name — the admission hash must refuse the coordination.
        run = coordinated_mine(
            cli, [endpoints[0], f"127.0.0.1:{port_c}"], "kc", 2, 6)
        if run.returncode == 0:
            fail("mismatched-snapshot coordination was not refused")
        if "content hash mismatch" not in (run.stdout + run.stderr):
            fail(f"expected a hash-mismatch refusal, got: "
                 f"{run.stdout!r} {run.stderr!r}")
        print("shard_smoke: mismatched snapshot refused through the hash")

        for worker in workers:
            worker.send_signal(signal.SIGTERM)
        for worker in workers:
            try:
                code = worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                fail("worker did not shut down within 30s of SIGTERM")
            if code != 0:
                fail(f"worker exited {code}")
        print("shard_smoke: OK")
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()


if __name__ == "__main__":
    main()
