"""``serve_read``: warm HTTP reads against a service process.

The server (``serve_server.py``) runs in its own process; this process is
the load generator, with at most two threads, each with one HTTP
connection open at a time:

1. open-loop segments send reads on a fixed schedule at
   ``open_loop_rps`` and time each from its scheduled send time, so a
   stall also charges the requests queued behind it; the generator
   reports how late it sent;
2. the server plans the read set cold once, in a fresh session, while no
   request is in flight;
3. closed-loop segments run two clients back to back and give the read
   throughput; the three alternate in ``cycle_seconds`` cycles, so each
   samples the whole run;
4. ``write_pairs`` times, half before the load and half after it, an
   asia item is inserted and deleted again; the server logs each write.
   No write overlaps a read, because each one flushes every cached plan.

Answers are checked after the server has stopped: every read against
direct evaluation over a mirror of the served document, and every write's
Dewey ID against the mirror replaying the same writes.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import subprocess
import sys
import threading
import time
from hashlib import sha1

from spans import complete, late_metrics, share_metrics
from workload import (
    BENCH_DIR,
    ROOT,
    build_document,
    load_record,
    mean_of_medians,
    median,
    percentile,
    query_texts,
    tail,
    write_subtrees,
)

_VOLATILE = re.compile(rb'"(?:request_id|trace_id)": (?:"[0-9a-f]*"|null)')
_REQUEST_ID = re.compile(rb'"request_id": "([0-9a-f]+)"')
SERVER_TIMEOUT_S = 150.0
NAME = "serve_read"


class Op:
    """One scheduled request and what came back."""

    __slots__ = ("name", "due", "sent", "done", "status", "digest",
                 "request_id", "size", "body", "payload")

    def __init__(self, name: str, due: float):
        self.name, self.due = name, due
        self.sent = self.done = None
        self.status = None
        self.digest = self.request_id = self.body = self.payload = None
        self.size = 0


class Client:
    """HTTP to the service, one TCP connection per request.

    This is what the library's own ``ServiceClient`` does.  On a kept-alive
    connection the server's two writes per response (headers, then body)
    meet Nagle's algorithm and the client's delayed ACK, which adds about
    40 ms to every response.
    """

    def __init__(self, host: str, port: int, bodies: dict):
        self.host, self.port = host, port
        self.opened = 0
        self.bodies = bodies
        """Response body by digest: one copy of each distinct answer."""

    def post(self, path: str, payload: dict) -> tuple[int, bytes]:
        body = json.dumps(payload).encode("utf-8")
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        self.opened += 1
        try:
            connection.request("POST", path, body, {
                "Content-Type": "application/json", "Connection": "close"})
            reply = connection.getresponse()
            return reply.status, reply.read()
        finally:
            connection.close()


class Writes:
    """The write pairs of one run: insert an item, then delete it again."""

    def __init__(self, parent: str, subtrees: list):
        self.parent = parent
        self.subtrees = iter(subtrees)
        self.done: list[Op] = []

    def pair(self, client: Client) -> None:
        insert = self._send(client, "insert", {
            "op": "insert", "parent": self.parent, "subtree": next(self.subtrees)})
        if insert.status == 200:
            self._send(client, "delete", {"op": "delete", "dewey": insert.body["dewey"]})

    def _send(self, client: Client, name: str, payload: dict) -> Op:
        op = Op(name, time.perf_counter())
        op.payload = payload
        raw = _send(client, op, "/ingest", payload)
        if op.status == 200:
            op.body = json.loads(raw)
        self.done.append(op)
        return op


def _send(client: Client, op: Op, path: str, payload: dict) -> bytes:
    """Send one request; fills in the op and returns the response body."""
    op.sent = time.perf_counter()
    try:
        op.status, raw = client.post(path, payload)
    except (http.client.HTTPException, OSError) as exc:
        op.done = time.perf_counter()
        op.status, op.body = -1, repr(exc)
        return b""
    op.done = time.perf_counter()
    op.size = len(raw)
    match = _REQUEST_ID.search(raw)
    op.request_id = match.group(1).decode() if match else None
    op.digest = sha1(_VOLATILE.sub(b"", raw)).hexdigest()
    return raw


def _read(op: Op, client: Client, texts: dict) -> None:
    raw = _send(client, op, "/query", {"query": texts[op.name], "name": op.name})
    client.bodies.setdefault(op.digest, raw)


def read_mix(spec: dict, rng: random.Random):
    """Endless read names: round-robin found queries, ~1 in 10 a negative."""
    reads, negatives = spec["reads"], spec["negatives"]
    position, negative = rng.randrange(len(reads)), rng.randrange(len(negatives))
    while True:
        if rng.random() < spec["negative_share"]:
            yield negatives[negative % len(negatives)]
            negative += 1
        else:
            yield reads[position % len(reads)]
            position += 1


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the report ``run.py`` prints."""
    spec = load_record()["workloads"][NAME]
    texts = query_texts(spec["reads"] + spec["negatives"])
    mirror = build_document(spec["scale"], seed, "xmark-serve")
    parent, subtrees = write_subtrees(mirror, spec["write_pairs"], seed)
    writes = Writes(parent, subtrees)
    rng = random.Random(seed)
    mix = read_mix(spec, rng)

    server = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "serve_server.py"),
         "--seed", str(seed), "--trace", str(int(trace))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    )
    reader = LineReader(server)
    try:
        ready = json.loads(reader.line(SERVER_TIMEOUT_S))
        host, port = ready["url"].rsplit("//", 1)[1].split(":")
        bodies: dict[str, bytes] = {}
        clients = [Client(host, int(port), bodies) for _ in range(spec["threads"])]
        # half the write pairs go before the load and half after it, so that
        # they sample the machine at two moments a run apart; each write
        # flushes every cached plan, so one read of each found query plans
        # it again before the load
        for _ in range(spec["write_pairs"] // 2):
            writes.pair(clients[0])
        rewarm = [Op(name, time.perf_counter()) for name in spec["reads"]]
        for op in rewarm:
            _read(op, clients[0], texts)
        def cold_pass():
            server.stdin.write(b"cold\n")
            server.stdin.flush()
            reader.line(SERVER_TIMEOUT_S)

        ops, closed, lateness, closed_rps = load(
            spec, seconds, texts, mix, clients, cold_pass)
        for _ in range(spec["write_pairs"] - spec["write_pairs"] // 2):
            writes.pair(clients[0])
        server.stdin.write(b"stop\n")
        server.stdin.flush()
        done = json.loads(reader.line(SERVER_TIMEOUT_S))
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdin.close()
        server.stdout.close()
    if server.returncode != 0:
        raise RuntimeError(f"the server exited with {server.returncode}")

    reads = rewarm + ops + closed
    failures = check_answers(spec, texts, mirror, reads, writes, done["outcomes"],
                             bodies)
    open_reads = [op.done - op.due for op in ops]
    found_reads = {name: [op.done - op.due for op in ops if op.name == name]
                   for name in spec["reads"]}
    write_latency = {"insert": [], "delete": []}
    for op in writes.done:
        write_latency[op.name].append(op.done - op.sent)
    all_writes = write_latency["insert"] + write_latency["delete"]
    read_tail, read_tail_pct, read_count = tail(open_reads)
    figures = {
        "setup_s": (median(ready["setup_s"]), "s"),
        "peak_rss_mb": (done["peak_rss_mb"], "MB"),
        "cold_pass_s": (median(done["cold_pass_s"]), "s"),
        "read_p50_ms": (mean_of_medians(found_reads) * 1000.0, "ms"),
        "write_p50_ms": (mean_of_medians(write_latency) * 1000.0, "ms"),
    }
    late = late_metrics(lateness)
    lines = [
        f"document {ready['document_nodes']} nodes, summary "
        f"{ready['summary_nodes']} nodes, {ready['views']} views; "
        f"set-ups: {len(ready['setup_s'])}",
        f"{len(done['cold_pass_s'])} cold passes of the read set: " + ", ".join(
            f"{query} {'/'.join(sorted(set(outcomes)))}"
            for query, outcomes in done["outcomes"].items())
        + f"; slowest query {median(done['cold_slowest_query_s']):.4f} s "
        f"(median over passes)",
        f"open-loop segments: {len(open_reads)} reads at "
        f"{spec['open_loop_rps']} req/s offered, {spec['threads']} threads, "
        f"one connection per request "
        f"({sum(client.opened for client in clients)} opened); "
        f"read_tail_ms = {read_tail * 1000.0:.6g} ms: p{read_tail_pct:g} of "
        f"{read_count}; p99 {percentile(open_reads, 0.99) * 1000:.2f} ms",
        "open-loop p50 per query (ms): " + ", ".join(
            f"{name} {median(latencies) * 1000.0:.3f}"
            for name, latencies in found_reads.items()),
        f"closed-loop segments: {len(closed)} requests from {spec['threads']} "
        f"clients, {closed_rps:.1f} req/s",
        f"writes: {len(all_writes)}, p50 insert "
        f"{median(write_latency['insert']) * 1000:.2f} ms, delete "
        f"{median(write_latency['delete']) * 1000:.2f} ms, "
        f"max {max(all_writes) * 1000:.2f} ms",
        "generator lateness: p50 {:.3f} ms, max {:.3f} ms, late share {:.4f}".format(
            late["loadgen.late_p50_ms"], late["loadgen.late_max_ms"],
            late["loadgen.late_share"]),
    ]
    report = {
        "attempted": len(reads) + len(writes.done),
        "failures": failures,
        "figures": figures,
        "lines": lines,
        "record": {
            "offered_rps": spec["open_loop_rps"],
            "cycle_s": spec["cycle_seconds"],
            "threads": spec["threads"],
            "connections": "one per request, one open per thread at a time",
            "connections_opened": sum(client.opened for client in clients),
            "open_loop_reads": len(open_reads),
            "closed_loop_requests": len(closed),
            "closed_loop_rps": closed_rps,
            "cold_slowest_query_s": median(done["cold_slowest_query_s"]),
            "writes": len(all_writes),
            "read_tail_ms": read_tail * 1000.0,
            "read_tail_percentile": read_tail_pct,
            "late_p50_ms": late["loadgen.late_p50_ms"],
            "late_max_ms": late["loadgen.late_max_ms"],
            "late_share": late["loadgen.late_share"],
            "outcomes": done["outcomes"],
        },
    }
    if trace:
        report["per_layer"], report["ratio_bases"] = per_layer(
            done, reads, late, figures)
    return report


def load(spec, seconds, texts, mix, clients, cold_pass):
    """Run ``cycle_seconds`` cycles for ``seconds``.

    Each cycle starts with an open-loop segment (reads on a fixed schedule,
    split over the threads), then calls ``cold_pass()`` and fills the rest
    with a closed-loop segment.  Returns the open-loop reads, the
    closed-loop reads, the senders' lateness and the closed-loop reads per
    second.
    """
    cycle = spec["cycle_seconds"]
    rate = spec["open_loop_rps"]
    cycles = max(1, round(seconds / cycle))
    start = time.perf_counter() + 0.05
    open_ops, closed_ops, lateness = [], [], []
    closed_seconds, completed = 0.0, 0
    for index in range(cycles):
        segment = start + index * cycle
        open_end = segment + cycle * spec["open_loop_share"]
        per_thread: list[list[Op]] = [[] for _ in clients]
        for slot in range(round((open_end - segment) * rate)):
            op = Op(next(mix), segment + slot / rate)
            per_thread[slot % len(clients)].append(op)

        def drive_open(thread_ops, client):
            for op in thread_ops:
                pause = op.due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                _read(op, client, texts)
                lateness.append(max(0.0, op.sent - op.due))

        run_threads(drive_open, per_thread, clients)
        open_ops.extend(op for ops in per_thread for op in ops)
        cold_pass()

        deadline = segment + cycle
        closed_start = time.perf_counter()
        if closed_start >= deadline:
            continue
        per_thread = [[] for _ in clients]
        lock = threading.Lock()

        def drive_closed(thread_ops, client):
            while time.perf_counter() < deadline:
                with lock:
                    op = Op(next(mix), time.perf_counter())
                _read(op, client, texts)
                thread_ops.append(op)

        run_threads(drive_closed, per_thread, clients)
        closed_seconds += deadline - closed_start
        for op in (op for ops in per_thread for op in ops):
            closed_ops.append(op)
            completed += op.done <= deadline
    rps = completed / closed_seconds if closed_seconds else 0.0
    return open_ops, closed_ops, lateness, rps


def run_threads(drive, per_thread, clients) -> None:
    threads = [
        threading.Thread(target=drive, args=(ops, client))
        for ops, client in zip(per_thread, clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=SERVER_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a load-generator thread did not finish")


class LineReader:
    """Lines from a child's standard output, with a timeout."""

    def __init__(self, process: subprocess.Popen):
        self.process = process
        self.buffer = b""

    def line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("the server did not answer in time")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("the server exited before answering")
                self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode("utf-8")


# --------------------------------------------------------------------------- #
# the answer oracle
# --------------------------------------------------------------------------- #
def check_answers(spec, texts, mirror, reads, sequence: Writes, outcomes: dict,
                  bodies: dict) -> list[str]:
    """Every failure: a wrong status, wrong rows, or a write that diverged.

    The reads all ran before the first write, so each is checked against
    the document as served; the writes are then replayed on the mirror.
    """
    from repro.ingest.changelog import decode_subtree
    from repro.patterns.parser import parse_pattern
    from repro.patterns.semantics import evaluate_pattern
    from repro.service.models import relation_from_payload
    from repro.xmltree.ids import DeweyID

    failures = []
    for query, seen in outcomes.items():
        wanted = "found" if query in spec["reads"] else "proven_none"
        failures.extend(f"cold pass {query}: {outcome}, expected {wanted}"
                        for outcome in seen if outcome != wanted)

    expected = {
        name: evaluate_pattern(parse_pattern(texts[name], name=name), mirror)
        for name in spec["reads"]
    }
    matched: dict[tuple, bool] = {}
    for op in reads:
        if op.name in spec["negatives"]:
            if op.status != 422:
                failures.append(f"{op.name}: HTTP {op.status}, expected 422")
        elif op.status != 200:
            failures.append(f"{op.name}: HTTP {op.status}")
        else:
            key = (op.name, op.digest)
            if key not in matched:
                served = json.loads(bodies[op.digest])["result"]
                matched[key] = relation_from_payload(served).same_contents(
                    expected[op.name])
            if not matched[key]:
                failures.append(f"{op.name}: wrong rows")

    asia = mirror.node_by_id(DeweyID.from_string(sequence.parent))
    inserted = None
    for index, write in enumerate(sequence.done):
        if write.status != 200:
            failures.append(f"write {index} ({write.name}): HTTP {write.status}")
            break
        if write.name == "insert":
            inserted = mirror.insert_subtree(
                asia, decode_subtree(write.payload["subtree"]))
            dewey = str(inserted.dewey)
        else:
            dewey = str(mirror.delete_subtree(inserted).dewey)
        if dewey != write.body["dewey"]:
            failures.append(f"write {index} ({write.name}): Dewey "
                            f"{write.body['dewey']}, the mirror gives {dewey}")
    return failures


def per_layer(done: dict, reads: list, late: dict, figures: dict):
    """The server's per-layer metrics plus what the client measured."""
    metrics = dict(done["per_layer"])
    bases = {name: tuple(pair) for name, pair in done["ratio_bases"].items()}
    handle_s = done["handle_s"]
    answered = [op for op in reads if op.request_id in handle_s]
    sizes = [op.size for op in answered if op.status == 200]
    http = [op.done - op.sent - handle_s[op.request_id] for op in answered]
    metrics["service.payload_bytes"] = median(sizes)
    metrics["service.http_ms"] = median(http) * 1000.0
    metrics.update(late)
    shares, share_bases = share_metrics(
        done["read_layer_self"], sum(op.done - op.sent for op in answered), sum(http))
    metrics.update(shares)
    bases.update(share_bases)
    metrics["trace.read_p50_ms"] = figures["read_p50_ms"][0]
    return complete(metrics), bases
