"""Inputs and statistics shared by every workload of the benchmark.

The benchmark runs from the root of a source checkout and imports the
library from ``src/``; it installs nothing.  Everything a workload needs
derives from the ``--seed`` argument:

* the document: the reference XMark element structure (generator seed 548,
  the setup ``tools/load_test.py`` and the ROADMAP measure) with every node
  value drawn again from the seed.  The rewriting search depends only on
  the structural summary and the views, so each query runs the same search
  for every seed, while the rows it returns differ;
* the write subtrees: copies of existing ``asia`` items, picked and given
  fresh values from the seed, so a write never adds a summary path;
* the request mix of ``serve_read``.

The query sets, rates and sizes live in ``workloads.json`` next to this
file; the workloads read them from there, so the record is what runs.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
"""Scratch output of a run (change logs, span dumps); git-ignored."""

STRUCTURE_SEED = 548
"""Generator seed of the reference XMark element structure."""

TAIL_BEYOND = 50
"""A tail percentile needs at least this many samples beyond it.  With 10,
p99 of the serve_read reads spread 0.93 (IQR over median) across ten
seeds: it sits on a handful of rare stalls per run."""

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
"""The percentiles a tail is reported at."""


def bootstrap() -> None:
    """Make ``src/`` importable, or stop: the benchmark needs the library."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no library source at {SRC}; run from the root of a "
            f"source checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_record() -> dict:
    """The workload record (``workloads.json``)."""
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# documents, views, sessions
# --------------------------------------------------------------------------- #
def build_document(scale: float, seed: int, name: str):
    """The reference XMark structure at ``scale`` with values drawn from ``seed``."""
    from repro.workloads.xmark import generate_xmark_document, xmark_spec

    document = generate_xmark_document(scale, seed=STRUCTURE_SEED, name=name)
    candidates = xmark_spec().values
    rng = random.Random(seed)
    for node in document.iter_nodes():
        values = candidates.get(node.label)
        if values:
            node.value = rng.choice(list(values))
    return document


def rewriting_config():
    """The search settings of ``tools/load_test.py``."""
    from repro.rewriting.algorithm import RewritingConfig

    return RewritingConfig(**load_record()["rewriting_config"])


def build_database(document):
    """Summary, the 2-node seed tag views (ID and V) and a ``Database``."""
    from repro import Database, MaterializedView, build_summary
    from repro.workloads.synthetic import seed_tag_views

    summary = build_summary(document)
    views = [
        MaterializedView(pattern, document, name=f"seed{index}_{pattern.name}")
        for index, pattern in enumerate(seed_tag_views(summary))
    ]
    return Database(document, views=views, config=rewriting_config())


def clear_memos() -> None:
    """Empty the process-wide containment and canonical-model memos."""
    from repro.canonical.model import clear_canonical_model_cache
    from repro.containment.core import clear_containment_cache

    clear_containment_cache()
    clear_canonical_model_cache()


def query_texts(names) -> dict[str, str]:
    """name → pattern text of the named fig13 (XMark) queries, in order."""
    from repro.workloads.xmark import XMARK_QUERY_PATTERNS

    return {name: XMARK_QUERY_PATTERNS[name] for name in names}


def plan_cold(database, texts: dict[str, str], budget: float, around=None) -> dict:
    """Answer each query once through ``database``; time and classify it.

    Returns name → ``{"seconds", "outcome", "relation"}`` where the outcome
    is ``found``, ``proven_none``, or ``budget_exhausted`` when a search
    that found nothing took the configured budget.  ``around(name,
    function, text)``, when given, makes the call (the traced run wraps
    each query in a root span with it).
    """
    from repro.errors import RewritingError

    def answer(text, name):
        return database.query(text, name=name)

    answers = {}
    for name, text in texts.items():
        started = time.perf_counter()
        try:
            if around is None:
                relation = answer(text, name)
            else:
                relation = around(name, answer, text)
            outcome = "found"
        except RewritingError:
            relation = None
            outcome = "proven_none"
        seconds = time.perf_counter() - started
        if relation is None and seconds >= budget:
            outcome = "budget_exhausted"
        answers[name] = {"seconds": seconds, "outcome": outcome, "relation": relation}
    return answers


def write_subtrees(document, count: int, seed: int) -> tuple[str, list]:
    """``count`` encoded item subtrees to insert under ``/site/regions/asia``.

    Each is a copy of an existing asia item with values drawn again, so the
    insert changes counts but never the summary's paths.  Returns the
    parent's Dewey text and the encoded subtrees.
    """
    from repro.ingest.changelog import encode_subtree
    from repro.workloads.xmark import xmark_spec

    regions = document.root.children_with_label("regions")[0]
    asia = regions.children_with_label("asia")[0]
    items = asia.children_with_label("item")
    candidates = xmark_spec().values
    rng = random.Random(seed * 7919 + 1)
    subtrees = []
    for _ in range(count):
        copy = rng.choice(items).copy()
        for node in copy.iter_subtree():
            values = candidates.get(node.label)
            if values:
                node.value = rng.choice(list(values))
        subtrees.append(encode_subtree(copy))
    return str(asia.dewey), subtrees


def document_facts(database) -> dict:
    """Document nodes, summary nodes and views of a session."""
    return {
        "document_nodes": database.document.size,
        "summary_nodes": database.summary.size,
        "views": len(database.views),
    }


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean_of_medians(groups: dict) -> float:
    """The mean over ``groups`` (name → samples) of each group's median.

    Used where samples of a few different operations mix: the median of
    the mixture sits at a boundary between two operations' clusters and
    jumps between them from run to run; the median of each does not.
    """
    return statistics.fmean(median(samples) for samples in groups.values())


def tail(values, count: int | None = None) -> tuple[float, float, int]:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it.

    ``count`` picks the percentile when the number of samples varies from
    run to run: pass the number every run is sure to have, so that all runs
    report the same percentile.  Returns ``(value, percentile, samples)``;
    with too few samples for the median, the maximum as percentile 100.
    """
    count = len(values) if count is None else count
    usable = [p for p in TAIL_LADDER if count * (100.0 - p) / 100.0 >= TAIL_BEYOND]
    if not usable:
        return max(values, default=0.0), 100.0, count
    return percentile(values, usable[-1] / 100.0), usable[-1], len(values)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def with_units(values: dict, section: str, default=None) -> dict:
    """``values`` as result-line metrics, in the order and with the units of
    ``section`` (``end_to_end`` or ``per_layer``) of ``BENCHMARK.json``.

    Without a ``default``, a metric missing from ``values`` is an error.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        listed = json.load(handle)[section]
    return {
        entry["name"]: {
            "value": values[entry["name"]] if default is None
            else values.get(entry["name"], default),
            "unit": entry["unit"],
        }
        for entry in listed
    }
