"""Executor A/B: the vectorized kernels against the tuple oracle, one worker.

The fig13 (XMark) and fig14 (DBLP) workloads are planned once through the
session planner.  Every distinct chosen plan then runs in-process under
``executor="tuple"`` (the row-at-a-time oracle) and
``executor="vectorized"`` (the columnar batch kernels):

* rows are asserted identical for every plan, on every host;
* the vectorized path must win by >= 1.2x in total.  The measurement is
  single-threaded, so the floor arms on every host shape.

One BENCH JSON point is printed (``BENCH_JSON:`` prefix) and written to
``bench-results/executor_ab.json``; its ``single_worker_speedup`` fields
are what ``tools/compare_bench.py`` tracks across nightly runs.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro import Database, MaterializedView, build_summary
from repro.algebra.execution import PlanExecutor
from repro.algebra.tuples import _hashable
from repro.rewriting.algorithm import RewritingConfig
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.synthetic import (
    SyntheticPatternConfig,
    generate_random_pattern,
    generate_random_views,
    seed_tag_views,
)
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns

pytestmark = [pytest.mark.bench, pytest.mark.slow]

AB_REPEATS = 3
"""Timing passes over the distinct plans per executor."""
SINGLE_WORKER_MIN_SPEEDUP = 1.2
"""The vectorized executor must beat the tuple oracle by this much on one
worker — a single-threaded floor, armed on every host shape."""


def _query_labels(queries):
    labels = set()
    for query in queries:
        for node in query.root.iter_subtree():
            if node.label and node.label != "*":
                labels.add(node.label)
    return labels


def _materialised_views(summary, document, labels, random_view_count, seed):
    views = []
    for index, pattern in enumerate(seed_tag_views(summary)):
        if pattern.name.removeprefix("seed_") not in labels:
            continue
        views.append(
            MaterializedView(pattern, document, name=f"seed{index}_{pattern.name}")
        )
    for index, pattern in enumerate(
        generate_random_views(summary, count=random_view_count, seed=seed)
    ):
        views.append(MaterializedView(pattern, document, name=f"rand{index}"))
    return views


def _workload():
    """Both paper workloads, views materialised, rewritable queries only."""
    probe = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=2.0,
    )
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=30.0,
    )
    xmark_doc = generate_xmark_document(scale=30.0, seed=548, name="xmark-ab")
    xmark_queries = list(xmark_query_patterns().values())
    xmark_views = _materialised_views(
        build_summary(xmark_doc), xmark_doc, _query_labels(xmark_queries),
        random_view_count=8, seed=3,
    )

    dblp_doc = generate_dblp_document("2005", scale=30.0, seed=5, name="dblp-ab")
    dblp_summary = build_summary(dblp_doc)
    rng = random.Random(17)
    pattern_config = SyntheticPatternConfig(
        size=4,
        optional_probability=0.5,
        return_count=2,
        return_labels=("author", "title", "year"),
    )
    dblp_queries = [
        generate_random_pattern(dblp_summary, pattern_config, rng=rng, name=f"q{i}")
        for i in range(10)
    ]
    dblp_views = _materialised_views(
        dblp_summary, dblp_doc, _query_labels(dblp_queries),
        random_view_count=6, seed=11,
    )

    workload = []
    for name, document, views, queries in [
        ("fig13-xmark", xmark_doc, xmark_views, xmark_queries),
        ("fig14-dblp", dblp_doc, dblp_views, dblp_queries),
    ]:
        db = Database(document, views=views, config=config)
        rewritable = [
            outcome.query
            for outcome in db.rewrite_many(queries, config=probe)
            if outcome.found
        ]
        assert rewritable, f"the {name} workload is degenerate"
        workload.append((name, db, rewritable))
    return workload


def _executor_ab(db, queries):
    """Time every chosen plan under both executors, in-process.

    Plans once through the session planner, asserts row identity between
    the tuple oracle and the vectorized kernels, then times ``AB_REPEATS``
    passes of pure execution per strategy.  A fresh :class:`PlanExecutor`
    per run keeps the per-plan result memo from carrying over; the columnar
    layer's batch and Dewey-key caches on the long-lived view relations do
    persist across runs — that steady state is exactly what a session
    answering a query stream sees.
    """
    plans = [db.prepare(query).plan.rewriting.plan for query in queries]
    for plan in plans:
        oracle = PlanExecutor(db.views, executor="tuple").execute(plan)
        vectorized = PlanExecutor(db.views, executor="vectorized").execute(plan)
        assert [_hashable(row) for row in oracle.rows] == [
            _hashable(row) for row in vectorized.rows
        ], "vectorized execution must be row-identical to the tuple oracle"
    timings = {}
    for strategy in ("tuple", "vectorized"):
        start = time.perf_counter()
        for _ in range(AB_REPEATS):
            for plan in plans:
                PlanExecutor(db.views, executor=strategy).execute(plan)
        timings[strategy] = time.perf_counter() - start
    return timings["tuple"], timings["vectorized"]


def _ratio(numerator, denominator):
    return round(numerator / denominator, 2) if denominator else float("inf")


@pytest.mark.benchmark(group="executor-ab")
def test_vectorized_executor_beats_the_tuple_oracle(bench_writer):
    workload = _workload()
    point = {"bench": "executor_ab", "repeats": AB_REPEATS, "workloads": []}
    total_tuple = total_vectorized = 0.0
    try:
        for name, db, queries in workload:
            tuple_seconds, vectorized_seconds = _executor_ab(db, queries)
            total_tuple += tuple_seconds
            total_vectorized += vectorized_seconds
            point["workloads"].append(
                {
                    "workload": name,
                    "views": len(db.views),
                    "plans": len(queries),
                    "tuple_executor_seconds": round(tuple_seconds, 4),
                    "vectorized_executor_seconds": round(vectorized_seconds, 4),
                    "single_worker_speedup": _ratio(tuple_seconds, vectorized_seconds),
                }
            )
    finally:
        for _, db, _ in workload:
            db.close()

    single_speedup = (
        total_tuple / total_vectorized if total_vectorized else float("inf")
    )
    point["tuple_executor_seconds"] = round(total_tuple, 4)
    point["vectorized_executor_seconds"] = round(total_vectorized, 4)
    point["single_worker_speedup"] = round(single_speedup, 2)
    for entry in point["workloads"]:
        print(
            f"\n{entry['workload']}: vectorized {entry['single_worker_speedup']}x "
            f"over the tuple oracle on {entry['plans']} plans"
        )
    print(f"\nBENCH_JSON: {json.dumps(point)}")
    bench_writer("executor_ab.json", point)

    assert single_speedup >= SINGLE_WORKER_MIN_SPEEDUP, (
        f"vectorized execution only {single_speedup:.2f}x faster than the "
        f"tuple oracle on one worker "
        f"({total_tuple:.2f}s vs {total_vectorized:.2f}s)"
    )
