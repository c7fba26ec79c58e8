"""Containment deciders (Propositions 3.1, 3.2, 4.1, 4.2 and Section 4.2).

The central test follows the paper's canonical-model characterisation: to
decide ``p ⊆S q`` we enumerate the canonical trees of ``p`` and verify that
on each of them every result tuple of ``p`` is also a result tuple of ``q``
(evaluated with decorated semantics, so value predicates are handled by
formula implication).  The extra conditions for attribute patterns
(Prop. 4.1) and nested patterns (Prop. 4.2) are purely structural and are
checked first; the value-coverage condition of Section 4.2 is applied to
union containment.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.caching import BoundedLruCache
from repro.canonical.hashing import pattern_key, summary_token
from repro.canonical.model import canonical_model_cache, iter_canonical_model
from repro.canonical.trees import CanonicalTree
from repro.containment.formulas import implies_disjunction, tree_formula
from repro.containment.nesting import nesting_depths, nesting_sequences_compatible
from repro.errors import ContainmentBudgetExceeded, ContainmentError
from repro.patterns.embedding import EmbeddingMode
from repro.patterns.pattern import TreePattern
from repro.patterns.semantics import evaluate_node_tuples
from repro.summary.dataguide import Summary

__all__ = [
    "ContainmentCache",
    "ContainmentDecision",
    "clear_containment_cache",
    "containment_cache",
    "containment_cache_disabled",
    "export_containment_delta",
    "merge_containment_delta",
    "is_contained",
    "is_contained_in_union",
    "are_equivalent",
]


# --------------------------------------------------------------------------- #
# memoisation
# --------------------------------------------------------------------------- #
class ContainmentCache(BoundedLruCache):
    """A bounded LRU memo for containment decisions.

    Containment is a pure function of (contained pattern, container pattern,
    summary), so decisions are cached under the canonical keys of
    :mod:`repro.canonical.hashing`.  Across a batch-rewriting workload the
    same (view pattern, query pattern) questions recur constantly — repeated
    queries, shared views, identical join shapes — and each hit saves a full
    canonical-model enumeration.
    """

    def __init__(self, maxsize: int = 65536):
        super().__init__(maxsize)


_CACHE = ContainmentCache()


def containment_cache() -> ContainmentCache:
    """The process-wide containment memo."""
    return _CACHE


def clear_containment_cache() -> None:
    """Reset the containment memo *and* the canonical-model memo.

    The two caches answer the same underlying question at different
    granularities, so every honest-measurement caller (figures, benchmark
    baselines) wants both gone at once."""
    _CACHE.clear()
    canonical_model_cache().clear()


@contextmanager
def containment_cache_disabled():
    """Temporarily bypass both memo layers (reads and writes).

    Used by benchmarks that need an honest un-memoised baseline; the
    canonical-model memo is switched off alongside the decision memo
    because a warm model cache would make "un-memoised" containment times
    meaningless."""
    model_cache = canonical_model_cache()
    previous = _CACHE.enabled
    previous_model = model_cache.enabled
    _CACHE.enabled = False
    model_cache.enabled = False
    try:
        yield
    finally:
        _CACHE.enabled = previous
        model_cache.enabled = previous_model


# --------------------------------------------------------------------------- #
# memo keys and cross-process merging
# --------------------------------------------------------------------------- #
# Every containment cache key is built by _cache_key and nothing else, so
# the token slot used by the delta export/merge below cannot drift away
# from the key shape: change the layout here and _TOKEN_POSITION with it.
_TOKEN_POSITION = 3


def _cache_key(kind: str, left, right, token, check_attributes: bool) -> tuple:
    """The canonical memo key layout for both "single" and "union" entries."""
    return (kind, left, right, token, check_attributes)


def _replace_token(key: tuple, token) -> tuple:
    """Swap the summary-token slot of a key built by :func:`_cache_key`."""
    return key[:_TOKEN_POSITION] + (token,) + key[_TOKEN_POSITION + 1 :]


def export_containment_delta(summary: "Summary") -> list[tuple[tuple, object]]:
    """Export this process's decisions about ``summary`` in portable form.

    Summary tokens are process-local identity, so they are blanked out of
    every key; :func:`merge_containment_delta` re-binds the entries to the
    receiving process's token for the same summary.  This is how parallel
    batch-rewriting workers hand their containment work back to the parent:
    the memo is a pure function table, so merging can only add true facts.
    """
    token = summary_token(summary)
    exported = []
    for key, value in _CACHE._data.items():
        if len(key) > _TOKEN_POSITION and key[_TOKEN_POSITION] == token:
            exported.append((_replace_token(key, None), value))
    return exported


def merge_containment_delta(
    summary: "Summary", delta: list[tuple[tuple, object]]
) -> int:
    """Merge decisions exported by another process; returns how many were new.

    A no-op (returning 0) while the memo is disabled — storing would be
    dropped anyway, and reporting phantom merges would mislead callers."""
    if not _CACHE.enabled:
        return 0
    token = summary_token(summary)
    merged = 0
    for portable, value in delta:
        key = _replace_token(portable, token)
        if key not in _CACHE._data:
            merged += 1
        _CACHE.store(key, value)
    return merged


# --------------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------------- #
_deadline: ContextVar[Optional[float]] = ContextVar(
    "containment_deadline", default=None
)


@contextmanager
def containment_deadline(deadline: Optional[float]):
    """Arm a wall-clock deadline (``time.perf_counter()`` value) for every
    containment test run inside the block.

    A test whose canonical-model enumeration crosses the deadline raises
    :class:`ContainmentBudgetExceeded` instead of running to completion
    (patterns with many optional edges have exponentially many canonical
    trees, so an uninterruptible test would defeat any search time budget).
    Aborted tests are not memoised.  Nested deadlines keep the tighter one.
    The deadline is a context variable, so it is per thread: one thread
    entering or leaving a deadline never changes another thread's.
    """
    previous = _deadline.get()
    if deadline is not None and previous is not None:
        deadline = min(deadline, previous)
    token = _deadline.set(deadline if deadline is not None else previous)
    try:
        yield
    finally:
        _deadline.reset(token)


def _check_deadline() -> None:
    deadline = _deadline.get()
    if deadline is not None and time.perf_counter() > deadline:
        raise ContainmentBudgetExceeded(
            "containment test aborted: caller's time budget exhausted"
        )


@dataclass
class ContainmentDecision:
    """Outcome of a containment test, with a few statistics for reporting."""

    contained: bool
    reason: str
    canonical_trees_checked: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.contained


# --------------------------------------------------------------------------- #
# structural pre-conditions
# --------------------------------------------------------------------------- #
def _attribute_signature(pattern: TreePattern) -> list[frozenset[str]]:
    return [frozenset(node.attributes) for node in pattern.return_nodes()]


def _structural_preconditions(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool,
) -> Optional[str]:
    """Return a failure reason, or None when all pre-conditions hold."""
    if contained.arity != container.arity:
        return (
            f"arity mismatch: {contained.arity} vs {container.arity}"
        )
    if check_attributes and _attribute_signature(contained) != _attribute_signature(
        container
    ):
        return "return-node attribute annotations differ (Prop. 4.1 condition 1)"
    if nesting_depths(contained) != nesting_depths(container):
        return "nesting depths of return nodes differ (Prop. 4.2 condition 2a)"
    if not nesting_sequences_compatible(contained, container, summary):
        return "nesting sequences are not compatible (Prop. 4.2 condition 2b)"
    return None


def _strip_predicates(pattern: TreePattern) -> TreePattern:
    clone = pattern.copy(name=f"{pattern.name}-nopred")
    for node in clone.root.iter_subtree():
        node.predicate = None
    return clone


# --------------------------------------------------------------------------- #
# single containment
# --------------------------------------------------------------------------- #
def containment_decision(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
    max_trees: Optional[int] = None,
) -> ContainmentDecision:
    """Full containment test ``contained ⊆S container`` with statistics.

    Decisions are memoised in the process-wide :class:`ContainmentCache`
    (except when ``max_trees`` caps the enumeration, because a capped test
    may abort with :class:`ContainmentError` instead of deciding).
    """
    cache_key: Optional[tuple] = None
    if max_trees is None:
        cache_key = _cache_key(
            "single",
            pattern_key(contained),
            pattern_key(container),
            summary_token(summary),
            check_attributes,
        )
        cached = _CACHE.lookup(cache_key)
        if cached is not None:
            return cached
    decision = _containment_decision_uncached(
        contained, container, summary, check_attributes, max_trees
    )
    if cache_key is not None:
        _CACHE.store(cache_key, decision)
    return decision


def _containment_decision_uncached(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool,
    max_trees: Optional[int],
) -> ContainmentDecision:
    failure = _structural_preconditions(
        contained, container, summary, check_attributes
    )
    if failure is not None:
        return ContainmentDecision(False, failure)

    checked = 0
    deadline = _deadline.get()
    for tree in iter_canonical_model(contained, summary, deadline=deadline):
        checked += 1
        _check_deadline()
        if max_trees is not None and checked > max_trees:
            raise ContainmentError(
                f"canonical model of {contained.name!r} exceeds {max_trees} trees"
            )
        # the deadline must tick *inside* the evaluation too: one decorated
        # evaluation over an adversarial (pattern, tree) pair can cost more
        # than every other step of the test combined
        tick = _check_deadline if deadline is not None else None
        left_tuples = evaluate_node_tuples(
            contained, tree.root, EmbeddingMode.DECORATED, tick=tick
        )
        right_tuples = evaluate_node_tuples(
            container, tree.root, EmbeddingMode.DECORATED, tick=tick
        )
        if not left_tuples <= right_tuples:
            return ContainmentDecision(
                False,
                "a canonical tree of the contained pattern has a result tuple "
                "the container does not produce (Prop. 3.1 condition 3)",
                checked,
            )
    if checked == 0:
        # an S-unsatisfiable pattern is contained in anything of the same shape
        return ContainmentDecision(True, "contained pattern is S-unsatisfiable", 0)
    return ContainmentDecision(True, "all canonical trees pass", checked)


def is_contained(
    contained: TreePattern,
    container: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    """``contained ⊆S container`` (Definition 3.1 plus the Section 4 extensions)."""
    return containment_decision(
        contained, container, summary, check_attributes=check_attributes
    ).contained


# --------------------------------------------------------------------------- #
# union containment
# --------------------------------------------------------------------------- #
def is_contained_in_union(
    contained: TreePattern,
    containers: Sequence[TreePattern],
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    """``contained ⊆S containers[0] ∪ ... ∪ containers[m-1]`` (Prop. 3.2).

    When value predicates are present, the value-coverage condition of
    Section 4.2 is verified on top of the structural membership condition.
    Results are memoised like single containment decisions; the union pass
    of the rewriting search re-asks the same subset questions constantly.
    """
    cache_key = _cache_key(
        "union",
        pattern_key(contained),
        tuple(pattern_key(container) for container in containers),
        summary_token(summary),
        check_attributes,
    )
    cached = _CACHE.lookup(cache_key)
    if cached is not None:
        return cached
    result = _is_contained_in_union_uncached(
        contained, containers, summary, check_attributes
    )
    _CACHE.store(cache_key, result)
    return result


def _is_contained_in_union_uncached(
    contained: TreePattern,
    containers: Sequence[TreePattern],
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    if not containers:
        return not _has_canonical_tree(contained, summary)

    eligible = [
        container
        for container in containers
        if _structural_preconditions(contained, container, summary, check_attributes)
        is None
    ]
    if not eligible:
        return False
    if len(eligible) == 1:
        return containment_decision(
            contained, eligible[0], summary, check_attributes=check_attributes
        ).contained

    any_predicates = contained.has_predicates() or any(
        container.has_predicates() for container in eligible
    )
    stripped = [_strip_predicates(container) for container in eligible]
    container_models: Optional[list[list[CanonicalTree]]] = None
    deadline = _deadline.get()

    for tree in iter_canonical_model(contained, summary, deadline=deadline):
        _check_deadline()
        tick = _check_deadline if deadline is not None else None
        left_tuples = evaluate_node_tuples(
            contained, tree.root, EmbeddingMode.DECORATED, tick=tick
        )
        # each container's tuples depend only on (container, tree) — compute
        # them once per tree, not once per left tuple
        container_tuples = [
            evaluate_node_tuples(
                container, tree.root, EmbeddingMode.DECORATED, tick=tick
            )
            for container in stripped
        ] if left_tuples else []
        matching_indexes: set[int] = set()
        for tuple_ in left_tuples:
            found = False
            for index, right_tuples in enumerate(container_tuples):
                if tuple_ in right_tuples:
                    matching_indexes.add(index)
                    found = True
            if not found:
                return False
        if not any_predicates:
            continue

        # Section 4.2 condition 2: the formulas of this canonical tree must be
        # covered by the disjunction of the formulas of the matching
        # containers' canonical trees with the same return paths.
        if container_models is None:
            container_models = [
                list(iter_canonical_model(container, summary, deadline=deadline))
                for container in eligible
            ]
        same_return = []
        for index in matching_indexes:
            for candidate in container_models[index]:
                if candidate.return_paths() == tree.return_paths():
                    same_return.append(candidate)
        if not implies_disjunction(
            tree_formula(tree), [tree_formula(candidate) for candidate in same_return]
        ):
            return False
    return True


def _has_canonical_tree(pattern: TreePattern, summary: Summary) -> bool:
    for _ in iter_canonical_model(pattern, summary, deadline=_deadline.get()):
        return True
    return False


# --------------------------------------------------------------------------- #
# equivalence
# --------------------------------------------------------------------------- #
def are_equivalent(
    left: TreePattern,
    right: TreePattern,
    summary: Summary,
    check_attributes: bool = True,
) -> bool:
    """``left ≡S right``: two-way containment."""
    return is_contained(
        left, right, summary, check_attributes=check_attributes
    ) and is_contained(right, left, summary, check_attributes=check_attributes)
