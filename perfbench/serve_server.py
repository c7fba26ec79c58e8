"""Server process of ``serve_read`` (started by ``serve.py``).

Sets up ``setup_repeats`` times — document, summary, views, ``Database``
with a change log attached (one fsync per record, the only flush policy
the log has), and a ``QueryService`` with default settings — and keeps the
last one serving, and prints one JSON line when ready.  Then it reads
commands from standard input: on ``cold`` it plans the read set cold,
with both memos emptied, through a fresh session over the served views
(the load generator sends it once per cycle, while no request is in
flight, so that these passes sample the whole run) and prints an empty
JSON line; on ``stop`` it stops serving and prints one JSON line with the
cold passes, its peak memory and, in a traced run, its per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from collections import Counter, defaultdict

from spans import (
    ATTRS,
    CACHE_RATIOS,
    END,
    START,
    Recorder,
    SpanIndex,
    install_layers,
    layer_metrics,
)
from workload import (
    WORK_DIR,
    bootstrap,
    build_database,
    build_document,
    clear_memos,
    document_facts,
    load_record,
    peak_rss_mb,
    plan_cold,
    query_texts,
    rewriting_config,
)

NAME = "serve_read"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    bootstrap()
    from repro.service.server import QueryService

    spec = load_record()["workloads"][NAME]
    texts = query_texts(spec["reads"] + spec["negatives"])
    budget = rewriting_config().time_budget_seconds
    WORK_DIR.mkdir(exist_ok=True)
    log_path = WORK_DIR / f"{NAME}-changes.log"
    setups = []
    cold = {"seconds": [], "slowest": [], "outcomes": defaultdict(list)}
    database = service = None
    for _ in range(spec["setup_repeats"]):
        if service is not None:
            service.stop()
            database.close()
            service = database = None
        gc.collect()
        started = time.perf_counter()
        database = build_database(
            build_document(spec["scale"], options.seed, "xmark-serve")
        )
        log_path.unlink(missing_ok=True)
        database.attach_log(log_path)
        service = QueryService(database).start()
        setups.append(time.perf_counter() - started)
    recorder = None
    if options.trace:
        recorder = Recorder()
        install_layers(recorder)
    served = Counter()
    base = counters(database, log_path)
    print(json.dumps({
        "url": service.url,
        "setup_s": setups,
        **document_facts(database),
    }), flush=True)

    while sys.stdin.readline().strip() == "cold":
        # the cold passes are not part of the traced serving phase, and
        # emptying the memos resets their counters
        served.update(since(base, counters(database, log_path)))
        if recorder is not None:
            recorder.uninstall()
        cold_pass(database, texts, budget, cold)
        if recorder is not None:
            install_layers(recorder)
        base = counters(database, log_path)
        print("{}", flush=True)
    service.stop()
    served.update(since(base, counters(database, log_path)))
    done = {}
    if recorder is not None:
        recorder.uninstall()
        done.update(traced(recorder, served))
    done.update(peak_rss_mb=peak_rss_mb(), cold_pass_s=cold["seconds"],
                cold_slowest_query_s=cold["slowest"], outcomes=cold["outcomes"])
    database.close()
    print(json.dumps(done), flush=True)
    return 0


def cold_pass(database, texts, budget, cold: dict) -> None:
    """Plan the read set through a fresh session over the served views,
    with both memos emptied; record time and outcomes."""
    from repro import Database

    session = Database(database.document, views=list(database.views),
                       config=rewriting_config())
    clear_memos()
    gc.collect()
    started = time.perf_counter()
    answers = plan_cold(session, texts, budget)
    cold["seconds"].append(time.perf_counter() - started)
    session.close()
    cold["slowest"].append(max(answer["seconds"] for answer in answers.values()))
    for name, answer in answers.items():
        cold["outcomes"][name].append(answer["outcome"])


def counters(database, log_path) -> dict:
    """Cache hit and lookup counts and the change log's size, right now."""
    from repro.canonical.model import canonical_model_cache
    from repro.containment.core import containment_cache

    plan = database.plan_cache.info()
    caches = {
        "plan": (plan["hits"], plan["misses"]),
        "containment": (containment_cache().hits, containment_cache().misses),
        "model": (canonical_model_cache().hits, canonical_model_cache().misses),
    }
    flat = {"log_bytes": log_path.stat().st_size}
    for key, (hits, misses) in caches.items():
        flat[f"{key}.hits"] = hits
        flat[f"{key}.lookups"] = hits + misses
    return flat


def since(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def traced(recorder, served: Counter) -> dict:
    """Per-layer metrics of the serving phase, measured inside the server.

    Spans, counts and totals cover everything served after set-up, without
    the cold passes.  The client adds what only it sees (HTTP time, payload
    sizes, its own lateness).
    """
    index = SpanIndex(recorder.spans)
    metrics, bases = layer_metrics(index, lambda root: "run")
    for key, name in CACHE_RATIOS.items():
        hits, lookups = served[f"{key}.hits"], served[f"{key}.lookups"]
        metrics[name] = hits / lookups if lookups else 0.0
        bases[name] = (hits, lookups)
    appends = len(index.by_name.get("ingest.log_append", []))
    log_bytes = served["log_bytes"]
    metrics["ingest.log_bytes_per_write"] = log_bytes / appends if appends else 0.0
    reads = [
        root for root in index.by_name.get("service.handle", [])
        if root[ATTRS]["path"] == "/query"
    ]
    recorder.dump(WORK_DIR / f"spans-{NAME}-server.jsonl", index)
    return {
        "per_layer": metrics,
        "ratio_bases": {name: list(pair) for name, pair in bases.items()},
        "read_layer_self": index.layer_self(reads),
        "handle_s": {
            root[ATTRS]["request_id"]: root[END] - root[START]
            for root in reads
        },
    }


if __name__ == "__main__":
    raise SystemExit(main())
