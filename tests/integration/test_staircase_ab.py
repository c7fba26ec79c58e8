"""Results-identity A/B harness: staircase merge join vs. nested-loop oracle.

The merge join must be *plan-result-identical* to the seed's nested loop on
every plan the rewriting pipeline actually produces.  This harness runs the
two paper workloads end to end:

* **fig13 workload** — the XMark document and the 20 XMark query patterns
  (the workload behind Figures 13 and 15), rewritten against the seed tag
  views plus random 3-node views, all materialised;
* **fig14 workload** — the DBLP'05 document with random synthetic query
  patterns (the Figure 14 setup), rewritten against the DBLP seed views.

Every rewriting found for every query is executed twice — once by the
default merge executor, once by the nested-loop oracle — and the relations
are compared as sets.  Scales are kept small so the whole harness stays
tier-1 material; the paper-scale crossover numbers live in
``benchmarks/test_bench_structural_join.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import MaterializedView, build_summary
from repro.algebra.execution import PlanExecutor
from repro.planning.planner import Planner
from repro.rewriting.algorithm import RewritingConfig
from repro.rewriting.rewriter import Rewriter
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.synthetic import (
    SyntheticPatternConfig,
    generate_random_pattern,
    generate_random_views,
    seed_tag_views,
)
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns


def _materialised_views(summary, document, labels=None, random_view_count=8, seed=3):
    """Seed tag views plus a few random 3-node views, all materialised.

    ``labels`` restricts the seed views to the tags the workload's queries
    actually mention — the A/B harness exercises join execution, not search
    breadth, and a full per-tag view set makes the rewriting search (not the
    executions under test) dominate tier-1 runtime.
    """
    views = []
    for index, pattern in enumerate(seed_tag_views(summary)):
        if labels is not None and pattern.name.removeprefix("seed_") not in labels:
            continue
        views.append(
            MaterializedView(pattern, document, name=f"seed{index}_{pattern.name}")
        )
    for index, pattern in enumerate(
        generate_random_views(summary, count=random_view_count, seed=seed)
    ):
        views.append(MaterializedView(pattern, document, name=f"rand{index}"))
    return views


def _query_labels(queries):
    """Every label mentioned by any node of any query pattern."""
    labels = set()
    for query in queries:
        for node in query.root.iter_subtree():
            if node.label and node.label != "*":
                labels.add(node.label)
    return labels


def _assert_merge_matches_oracle(rewriter, queries):
    """Execute every rewriting of every query under both strategies."""
    executed = 0
    for query in queries:
        outcome = rewriter.rewrite(query)
        for rewriting in outcome.rewritings:
            merge = PlanExecutor(
                rewriter.views, structural_join_strategy="merge"
            ).execute(rewriting.plan)
            oracle = PlanExecutor(
                rewriter.views, structural_join_strategy="nested-loop"
            ).execute(rewriting.plan)
            assert merge.same_contents(oracle), (
                f"merge join diverges from the nested-loop oracle on "
                f"{query.name!r} via views {rewriting.views_used}"
            )
            executed += 1
    return executed


@pytest.fixture(scope="module")
def xmark_fixture():
    document = generate_xmark_document(scale=0.4, seed=548, name="xmark-ab")
    summary = build_summary(document)
    queries = [
        pattern
        for _, pattern in sorted(
            xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
        )
    ]
    views = _materialised_views(summary, document, labels=_query_labels(queries))
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=1.0,
    )
    return summary, views, queries, config


def test_fig13_xmark_workload_merge_equals_oracle(xmark_fixture):
    summary, views, queries, config = xmark_fixture
    rewriter = Rewriter(summary, views, config)
    executed = _assert_merge_matches_oracle(rewriter, queries)
    # with the 1 s search budget the rewritable XMark queries yield ≥ 12
    # plans on this fixture; 8 keeps headroom for slow CI hosts where the
    # budget truncates more searches
    assert executed >= 8, (
        "the A/B harness must actually execute a meaningful share of plans"
    )


def test_fig14_dblp_workload_merge_equals_oracle():
    document = generate_dblp_document("2005", scale=0.6, seed=5, name="dblp-ab")
    summary = build_summary(document)
    rng = random.Random(17)
    pattern_config = SyntheticPatternConfig(
        size=4,
        optional_probability=0.5,
        return_count=2,
        return_labels=("author", "title", "year"),
    )
    queries = [
        generate_random_pattern(summary, pattern_config, rng=rng, name=f"dblp-q{i}")
        for i in range(8)
    ]
    views = _materialised_views(
        summary, document, labels=_query_labels(queries),
        random_view_count=6, seed=11,
    )
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=1.0,
    )
    rewriter = Rewriter(summary, views, config)
    executed = _assert_merge_matches_oracle(rewriter, queries)
    assert executed >= 1, "no plan was executed — the workload is degenerate"


def test_default_executor_is_the_merge_path(xmark_fixture):
    """`Planner.answer` (the production path) runs the merge executor and
    still agrees with a from-scratch oracle execution of the chosen plan."""
    summary, views, queries, config = xmark_fixture
    rewriter = Rewriter(summary, views, config)
    query = queries[0]
    outcome = rewriter.rewrite(query)
    if not outcome.found:  # pragma: no cover - workload-dependent guard
        pytest.skip("the first XMark query has no rewriting under this view set")
    answer = Planner(rewriter).answer(query)
    oracle = PlanExecutor(
        rewriter.views, structural_join_strategy="nested-loop"
    ).execute(outcome.best.plan)
    assert answer.same_contents(oracle)
