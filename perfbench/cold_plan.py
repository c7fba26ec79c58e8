"""``cold_plan``: serial cold planning of the fig13 queries, in process.

Each pass sets up a fresh ``Database`` over XMark scale 1 (the set-up is
timed ``setups_per_pass`` times and the last one kept), empties the
containment and canonical-model memos, and answers the query set once:
the searches that find a rewriting and the ones proven to have none.
Passes repeat until ``--seconds`` is spent (at least ``min_passes``).
Right after its cold answer each found query is answered again warm, in
process (plan-cache hits), and after each pass a few asia items are
inserted and deleted through the session.  Set-up, warm reads and writes
are timed apart from the cold answers, and each is sampled throughout the
run, so that a slow stretch of the machine does not land on one of them
alone.
"""

from __future__ import annotations

import gc
import time

from spans import (
    CACHE_RATIOS,
    NAME as SPAN_NAME,
    REQUEST,
    SpanIndex,
    complete,
    layer_metrics,
    share_metrics,
)
from workload import (
    WORK_DIR,
    build_database,
    build_document,
    clear_memos,
    load_record,
    mean_of_medians,
    median,
    peak_rss_mb,
    plan_cold,
    query_texts,
    rewriting_config,
    tail,
    write_subtrees,
)

NAME = "cold_plan"


def run(seed: int, seconds: float, recorder=None) -> dict:
    """Run the workload; returns the report ``run.py`` prints."""
    from repro.canonical.model import canonical_model_cache
    from repro.containment.core import containment_cache
    from repro.patterns.parser import parse_pattern
    from repro.patterns.semantics import evaluate_pattern

    spec = load_record()["workloads"][NAME]
    expected_outcome = {name: "found" for name in spec["found"]}
    expected_outcome.update({name: "proven_none" for name in spec["proven_none"]})
    texts = query_texts(expected_outcome)
    budget = rewriting_config().time_budget_seconds

    # the answer oracle: direct evaluation, outside every timed section
    reference = build_document(spec["scale"], seed, "xmark-cold")
    expected = {
        name: evaluate_pattern(parse_pattern(texts[name], name=name), reference)
        for name in spec["found"]
    }

    failures: list[str] = []
    attempted = 0
    setups, passes, slowest, cycles = [], [], [], []
    warm = {name: [] for name in spec["found"]}
    writes = {"insert": [], "delete": []}
    outcome_table = {name: [] for name in texts}
    cache_counts = {"plan": [0, 0], "containment": [0, 0], "model": [0, 0]}
    around = None
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        index = len(passes)
        if recorder is not None:
            def around(name, function, text, index=index):
                return recorder.call("bench.cold", function, (text, name), {},
                                     request=f"pass{index}:{name}")
        for repeat in range(spec["setups_per_pass"]):
            if repeat:
                database.close()
            gc.collect()
            setup_started = time.perf_counter()
            database = build_database(
                build_document(spec["scale"], seed, "xmark-cold"))
            setups.append(time.perf_counter() - setup_started)
        clear_memos()
        gc.collect()
        answers = {}
        for name, text in texts.items():
            before = database.plan_cache.info()
            answers[name] = answer = plan_cold(database, {name: text}, budget, around)[name]
            after = database.plan_cache.info()
            cache_counts["plan"][0] += after["hits"] - before["hits"]
            cache_counts["plan"][1] += (after["hits"] + after["misses"]
                                        - before["hits"] - before["misses"])
            # warm reads right after each cold answer spread them over the run
            if answer["relation"] is None:
                continue
            for _ in range(spec["warm_repeats"]):
                call = time.perf_counter()
                relation = database.query(text, name=name)
                warm[name].append(time.perf_counter() - call)
                attempted += 1
                if not relation.same_contents(expected[name]):
                    failures.append(f"warm {name}: wrong rows")
        passes.append(sum(answer["seconds"] for answer in answers.values()))
        slowest.append(max(answer["seconds"] for answer in answers.values()))
        for key, cache in (("containment", containment_cache()),
                           ("model", canonical_model_cache())):
            cache_counts[key][0] += cache.hits
            cache_counts[key][1] += cache.hits + cache.misses

        for name, answer in answers.items():
            attempted += 1
            outcome_table[name].append((answer["seconds"], answer["outcome"]))
            if answer["outcome"] != expected_outcome[name]:
                failures.append(f"pass {index} {name}: {answer['outcome']}, "
                                f"expected {expected_outcome[name]}")
            elif answer["relation"] is not None and not answer[
                "relation"
            ].same_contents(expected[name]):
                failures.append(f"pass {index} {name}: wrong rows")

        for kind, latencies in probe_writes(database, spec["write_pairs"], seed).items():
            writes[kind].extend(latencies)
            attempted += len(latencies)
        if not database.query(texts["Q6"], name="Q6").same_contents(expected["Q6"]):
            failures.append(f"pass {index} Q6 after the writes: wrong rows")
        if database.document.size != reference.size:
            failures.append(f"pass {index}: the writes did not restore the document")
        database.close()
        cycles.append(time.perf_counter() - cycle_started)
        if len(passes) >= spec["min_passes"] and (
            time.perf_counter() - started + median(cycles) > seconds
        ):
            break

    all_warm = [latency for latencies in warm.values() for latency in latencies]
    read_tail, read_tail_pct, read_count = tail(
        all_warm, spec["min_passes"] * len(spec["found"]) * spec["warm_repeats"])
    figures = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cold_pass_s": (median(passes), "s"),
        "read_p50_ms": (mean_of_medians(warm) * 1000.0, "ms"),
        "write_p50_ms": (mean_of_medians(writes) * 1000.0, "ms"),
    }
    read_rps = len(all_warm) / sum(all_warm)
    lines = [f"cold passes: {len(passes)}; set-ups: {len(setups)}; slowest query "
             f"{median(slowest):.4f} s (median over passes)",
             "outcome table (seconds per pass):"]
    for name, rows in outcome_table.items():
        times = " ".join(f"{elapsed:.3f}" for elapsed, _ in rows)
        outcomes = sorted({outcome for _, outcome in rows})
        lines.append(f"  {name:>4} {'/'.join(outcomes):<16} {times}")
    lines.append(f"read_tail_ms = {read_tail * 1000.0:.6g} ms: p{read_tail_pct:g} "
                 f"of {read_count} warm in-process reads (1 client)")
    lines.append("warm p50 per query (ms): " + ", ".join(
        f"{name} {median(latencies) * 1000.0:.4f}" for name, latencies in warm.items())
        + f"; {read_rps:.1f} reads/s from 1 in-process caller")
    lines.append(f"write p50 (ms) over {len(writes['insert'])} inserts and "
                 f"{len(writes['delete'])} deletes after the passes, no change log: "
                 f"insert {median(writes['insert']) * 1000.0:.3f}, "
                 f"delete {median(writes['delete']) * 1000.0:.3f}")
    report = {
        "attempted": attempted,
        "failures": failures,
        "figures": figures,
        "lines": lines,
        "record": {
            "passes": len(passes),
            "outcomes": {name: [[round(s, 4), o] for s, o in rows]
                         for name, rows in outcome_table.items()},
            "cold_slowest_query_s": median(slowest),
            "warm_reads": read_count,
            "read_rps": read_rps,
            "read_tail_ms": read_tail * 1000.0,
            "read_tail_percentile": read_tail_pct,
            "writes": len(writes["insert"]) + len(writes["delete"]),
        },
    }
    if recorder is not None:
        recorder.uninstall()
        report["per_layer"], report["ratio_bases"] = per_layer(
            recorder, cache_counts, sum(passes), figures
        )
    return report


def per_layer(recorder, cache_counts: dict, pass_seconds: float, figures: dict):
    """Per-layer metrics of a traced run; counts and totals are per pass."""
    index = SpanIndex(recorder.spans)

    def pass_of(root):
        return root[REQUEST].split(":")[0] if root[SPAN_NAME] == "bench.cold" else None

    metrics, bases = layer_metrics(index, pass_of)
    for key, name in CACHE_RATIOS.items():
        hits, lookups = cache_counts[key]
        metrics[name] = hits / lookups if lookups else 0.0
        bases[name] = (hits, lookups)
    shares, share_bases = share_metrics(
        index.layer_self(index.by_name["bench.cold"]), pass_seconds
    )
    metrics.update(shares)
    bases.update(share_bases)
    metrics["trace.cold_pass_s"] = figures["cold_pass_s"][0]
    metrics["trace.read_p50_ms"] = figures["read_p50_ms"][0]
    recorder.dump(WORK_DIR / f"spans-{NAME}.jsonl", index)
    return complete(metrics), bases


def probe_writes(database, pairs: int, seed: int) -> dict[str, list[float]]:
    """Insert and delete ``pairs`` asia items; the latencies of each kind."""
    from repro.ingest.changelog import decode_subtree

    parent, subtrees = write_subtrees(database.document, pairs, seed)
    latencies = {"insert": [], "delete": []}
    for encoded in subtrees:
        call = time.perf_counter()
        node = database.insert_subtree(parent, decode_subtree(encoded))
        latencies["insert"].append(time.perf_counter() - call)
        call = time.perf_counter()
        database.delete_subtree(node.dewey)
        latencies["delete"].append(time.perf_counter() - call)
    return latencies
