"""Span recording around each layer's public entry points (``--trace 1``).

Tracing is done from the benchmark's own files: :func:`install_layers`
replaces each entry point with a timing wrapper under the name its caller
looks up (a module global, or a class attribute for methods), and
:meth:`Recorder.uninstall` puts the originals back.  Untraced runs never
call it, so they run the library unchanged.

A span records its name, start, end, parent span and, through its root,
the request it belongs to.  Spans stay in memory and are written as JSON
lines when the run ends.  A span's self time is its duration minus the
durations of its children; children nest strictly inside their parent on
one thread, so they never overlap each other.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from workload import median, percentile, with_units

# span record slots
ID, PARENT, NAME, START, END, REQUEST, ATTRS = range(7)

LAYERS = (
    "patterns", "canonical", "session", "rewriting", "containment",
    "planning", "algebra", "service", "views", "summary", "ingest",
)


class Recorder:
    """In-memory spans of one process, with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, function, args, kwargs, observe=None, request=None):
        """Run ``function`` inside a span named ``name``."""
        stack = self._stack()
        record = [
            next(self._ids), stack[-1][ID] if stack else None, name,
            time.perf_counter(), None, request, None,
        ]
        stack.append(record)
        try:
            result = function(*args, **kwargs)
            if observe is not None:
                record[ATTRS] = observe(result, args)
                if record[REQUEST] is None:
                    record[REQUEST] = record[ATTRS].get("request_id")
            return result
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attribute: str, name: str, observe=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, observe)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path, index: "SpanIndex") -> None:
        """Write the spans as JSON lines (at the end of a run).

        Each line carries the request of the span's root and its self time.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "id": record[ID], "parent": record[PARENT],
                    "name": record[NAME], "start": record[START],
                    "end": record[END],
                    "request": index.root[record[ID]][REQUEST],
                    "self": index.self_time[record[ID]],
                    "attrs": record[ATTRS],
                }, default=str) + "\n")


# --------------------------------------------------------------------------- #
# what is wrapped
# --------------------------------------------------------------------------- #
def _rewrite_outcome(outcome, args) -> dict:
    stats = outcome.statistics
    rewriter = args[0]
    config = args[2] if len(args) > 2 and args[2] is not None else rewriter.config
    budget = config.time_budget_seconds
    if outcome.rewritings:
        verdict = "found"
    elif budget is not None and stats.total_seconds >= budget:
        verdict = "budget_exhausted"
    else:
        verdict = "proven_none"
    return {
        "setup": stats.setup_seconds, "total": stats.total_seconds,
        "candidates": stats.candidates_explored,
        "joins": stats.joins_attempted, "found": stats.rewritings_found,
        "pruned": stats.alignments_pruned, "outcome": verdict,
    }


def _handled(response, args) -> dict:
    return {"path": args[2], "status": response.status,
            "request_id": response.request_id}


def install_layers(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.canonical.model as canonical_model
    import repro.containment.core as containment_core
    import repro.rewriting.algorithm as rewriting_algorithm
    import repro.rewriting.fusion as rewriting_fusion
    import repro.service.app as service_app
    import repro.session.database as session_database
    import repro.views.catalog as views_catalog
    from repro.ingest.changelog import ChangeLog
    from repro.planning.planner import Planner
    from repro.rewriting.rewriter import Rewriter
    from repro.service.app import ServiceApp
    from repro.summary.dataguide import Summary
    from repro.views.view import MaterializedView

    wrap = recorder.wrap
    for module in (session_database, service_app):
        wrap(module, "parse_pattern", "patterns.parse")
        wrap(module, "pattern_key", "canonical.fingerprint")
    # annotate_paths is looked up as a global of each calling module; the
    # statistics module imports it from canonical.model at call time
    for module in (canonical_model, views_catalog, rewriting_algorithm,
                   rewriting_fusion):
        wrap(module, "annotate_paths", "canonical.annotate_paths")
    wrap(canonical_model, "associated_paths", "canonical.associated_paths")
    wrap(containment_core, "containment_decision", "containment.test")
    wrap(session_database.Database, "plan_query", "session.plan")
    wrap(session_database.Database, "insert_subtree", "session.write")
    wrap(session_database.Database, "delete_subtree", "session.write")
    wrap(Rewriter, "rewrite", "rewriting.search", observe=_rewrite_outcome)
    wrap(Planner, "rank", "planning.rank")
    wrap(session_database.Database, "execute_choice", "algebra.execute",
         observe=lambda result, args: {"rows": len(result[0])})
    wrap(service_app, "relation_to_payload", "service.encode")
    wrap(ServiceApp, "handle", "service.handle", observe=_handled)
    wrap(MaterializedView, "apply_delta", "views.apply_delta",
         observe=lambda status, args: {"status": status})
    wrap(Summary, "observe_insert", "summary.observe")
    wrap(Summary, "observe_delete", "summary.observe")
    wrap(ChangeLog, "append", "ingest.log_append")


# --------------------------------------------------------------------------- #
# from spans to per-layer metrics
# --------------------------------------------------------------------------- #
class SpanIndex:
    """Self times, roots and per-name groupings of a list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        by_id = {record[ID]: record for record in spans}
        child_time: dict[int, float] = defaultdict(float)
        for record in spans:
            if record[PARENT] is not None:
                child_time[record[PARENT]] += record[END] - record[START]
        self.self_time = {
            record[ID]: record[END] - record[START] - child_time[record[ID]]
            for record in spans
        }
        self.root: dict[int, list] = {}
        for record in spans:
            chain = []
            node = record
            while node[PARENT] is not None and node[ID] not in self.root:
                chain.append(node)
                node = by_id[node[PARENT]]
            top = self.root.get(node[ID], node)
            for member in chain + [node]:
                self.root[member[ID]] = top
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for record in spans:
            self.by_name[record[NAME]].append(record)

    def durations(self, name: str) -> list[float]:
        return [r[END] - r[START] for r in self.by_name.get(name, ())]

    def layer_self(self, roots) -> dict[str, float]:
        """Self time per layer of every span under one of ``roots``."""
        wanted = {root[ID] for root in roots}
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            if self.root[record[ID]][ID] in wanted:
                totals[record[NAME].split(".")[0]] += self.self_time[record[ID]]
        return totals


def layer_metrics(index: SpanIndex, group_of) -> tuple[dict, dict]:
    """Every per-layer value the spans support, and the bases of its ratios.

    ``group_of(root_span)`` names the unit a count or a total belongs to (a
    pass of ``cold_plan``, the whole measured phase of ``serve_read``) or
    returns None to leave the span out of counts and totals; a count or a
    total is the median over groups.  ``*_ms`` and ``*_s`` metrics without
    "total" in their meaning are p50 per call, over every call.
    """
    groups: dict[object, list[list]] = defaultdict(list)
    for record in index.spans:
        group = group_of(index.root[record[ID]])
        if group is not None:
            groups[group].append(record)

    def per_group(select) -> float:
        if not groups:
            return 0.0
        return median(sum(select(r) for r in members)
                      for members in groups.values())

    def count(name):
        return per_group(lambda r: r[NAME] == name)

    def total(name):
        return per_group(lambda r: (r[END] - r[START]) if r[NAME] == name else 0.0)

    def attr_sum(name, key):
        return per_group(lambda r: r[ATTRS][key] if r[NAME] == name else 0)

    def p50_ms(name):
        return median(index.durations(name)) * 1000.0

    searches = index.by_name.get("rewriting.search", [])
    join_loops = [a["total"] - a["setup"] for a in (r[ATTRS] for r in searches)]
    outcome = {
        key: per_group(lambda r, key=key: int(
            r[NAME] == "rewriting.search" and r[ATTRS]["outcome"] == key))
        for key in ("found", "proven_none", "budget_exhausted")
    }
    joins = attr_sum("rewriting.search", "joins")
    found = attr_sum("rewriting.search", "found")
    deltas = [r[ATTRS]["status"] for r in index.by_name.get("views.apply_delta", [])]
    handles = index.by_name.get("service.handle", [])
    reads = [r for r in handles if r[ATTRS] and r[ATTRS]["path"] == "/query"]
    plans = index.durations("session.plan")
    metrics = {
        "patterns.parse_ms": p50_ms("patterns.parse"),
        "canonical.fingerprint_ms": p50_ms("canonical.fingerprint"),
        "canonical.annotate_paths_calls": count("canonical.annotate_paths"),
        "canonical.annotate_paths_s": total("canonical.annotate_paths"),
        "canonical.associated_paths_calls": count("canonical.associated_paths"),
        "canonical.associated_paths_s": total("canonical.associated_paths"),
        "session.plan_s": median(plans),
        "session.plan_max_s": max(plans, default=0.0),
        "session.write_ms": p50_ms("session.write"),
        "rewriting.search_s": median(index.durations("rewriting.search")),
        "rewriting.setup_s": median(r[ATTRS]["setup"] for r in searches),
        "rewriting.join_loop_s": median(join_loops),
        "rewriting.candidates_explored": attr_sum("rewriting.search", "candidates"),
        "rewriting.joins_attempted": joins,
        "rewriting.rewritings_found": found,
        "rewriting.join_yield": found / joins if joins else 0.0,
        "rewriting.alignments_pruned": attr_sum("rewriting.search", "pruned"),
        "rewriting.outcome.found": outcome["found"],
        "rewriting.outcome.proven_none": outcome["proven_none"],
        "rewriting.outcome.budget_exhausted": outcome["budget_exhausted"],
        "containment.tests": count("containment.test"),
        "containment.s": total("containment.test"),
        "planning.rank_ms": p50_ms("planning.rank"),
        "algebra.execute_ms": p50_ms("algebra.execute"),
        "algebra.rows_out": median(
            r[ATTRS]["rows"] for r in index.by_name.get("algebra.execute", [])),
        "service.encode_ms": p50_ms("service.encode"),
        "service.handle_ms": median(r[END] - r[START] for r in reads) * 1000.0,
        "service.handle_self_ms":
            median(index.self_time[r[ID]] for r in reads) * 1000.0,
        "views.apply_delta_ms": p50_ms("views.apply_delta"),
        "views.delta_ratio": deltas.count("delta") / len(deltas) if deltas else 0.0,
        "views.rematerialized": deltas.count("rematerialized"),
        "summary.observe_ms": p50_ms("summary.observe"),
        "ingest.log_append_ms": p50_ms("ingest.log_append"),
    }
    bases = {
        "rewriting.join_yield": (found, joins),
        "views.delta_ratio": (deltas.count("delta"), len(deltas)),
    }
    return metrics, bases


def late_metrics(lateness: list[float]) -> dict:
    """How late an open-loop generator sent, against its schedule."""
    late = [value for value in lateness if value > 0.001]
    return {
        "loadgen.late_p50_ms": percentile(lateness, 0.5) * 1000.0,
        "loadgen.late_max_ms": max(lateness, default=0.0) * 1000.0,
        "loadgen.late_share": len(late) / len(lateness) if lateness else 0.0,
    }


CACHE_RATIOS = {
    "plan": "session.plan_cache_hit_ratio",
    "containment": "containment.memo_hit_ratio",
    "model": "canonical.model_memo_hit_ratio",
}
"""Cache counters (read from the caches' own hit / miss counts) → metric."""

def share_metrics(layer_self: dict, total: float, http: float = 0.0):
    """Each layer's self time as a share of ``total`` (with the bases).

    ``http`` is time outside the server process (client latency minus the
    time inside ``ServiceApp.handle``); ``other`` is what no span covers.
    """
    parts = {layer: layer_self.get(layer, 0.0) for layer in LAYERS}
    parts["http"] = http
    parts["other"] = total - sum(parts.values())
    metrics, bases = {}, {}
    for layer, seconds in parts.items():
        name = f"share.{layer}"
        metrics[name] = seconds / total if total else 0.0
        bases[name] = (seconds, total)
    return metrics, bases


def complete(per_layer: dict) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` with its unit, in its
    order; a layer the workload does not exercise reports 0."""
    return with_units(per_layer, "per_layer", default=0.0)
