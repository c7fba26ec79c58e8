"""Execution of logical plans over materialised views.

The :class:`PlanExecutor` interprets a tree of
:class:`~repro.algebra.operators.PlanOperator` against a view store (any
mapping-like object resolving view names to objects exposing ``relation``,
the view's materialised :class:`~repro.algebra.tuples.Relation`).

Structural joins compare Dewey identifiers, so they work on any view whose
ID columns were materialised with the default structural ``fID``
(Section 1, "Exploiting ID properties").

Structural joins run as a *staircase* sort-merge: both inputs are brought
into document order on their join columns (a no-op for view extents, which
are materialised Dewey-sorted, and for merge-join outputs, which stay
sorted on the descendant column) and merged in a single pass with a stack
of open ancestors — the stack-tree algorithm of the structural-join
literature, done on Dewey prefixes.  The cost is ``O(l + r + output)``
plus whatever sorts are actually needed, which is what
:class:`~repro.planning.cost.CostModel` now charges.  The seed's
``O(l × r)`` nested loop survives behind
``PlanExecutor(views, structural_join_strategy="nested-loop")`` as the
debugging oracle the A/B tests compare against.

Since PR 6 the default execution mode is *vectorized*: plans evaluate as
:class:`~repro.algebra.columnar.ColumnBatch` pipelines, with the hot
operators (scan, ``σ``, ``π``, ``⋈=``, the staircase ``⋈≺``/``⋈≺≺`` and
the ordered ``∪``-merge) running as batch kernels from
:mod:`repro.algebra.kernels` over cached column vectors and Dewey keys.
Operators without a kernel (nested projections, group-by, unnest, content
navigation...) transparently fall back to the tuple interpreter on
materialised children.  The complete tuple-at-a-time interpreter survives
behind ``PlanExecutor(views, executor="tuple")`` as the oracle the
vectorized A/B suites assert row-identity against — the same pattern as
the nested-loop join oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algebra import kernels
from repro.algebra.columnar import ColumnBatch, joined_batch, projected_batch
from repro.algebra.operators import (
    ContentNavigation,
    GroupBy,
    IdEqualityJoin,
    IndexScan,
    NestedProjection,
    NestedStructuralJoin,
    ParentIdDerivation,
    PlanOperator,
    Projection,
    Selection,
    StructuralJoin,
    UnionPlan,
    Unnest,
    ViewScan,
)
from repro.algebra.tuples import Column, Relation, as_dewey
from repro.errors import AlgebraError, PlanExecutionError, ReproError
from repro.patterns.pattern import Axis
from repro.xmltree.ids import DeweyID
from repro.xmltree.node import XMLNode

__all__ = [
    "OperatorRunStats",
    "PlanExecutor",
    "EXECUTOR_STRATEGIES",
    "ID_JOIN_STRATEGIES",
    "STRUCTURAL_JOIN_STRATEGIES",
]

EXECUTOR_STRATEGIES = ("vectorized", "tuple")
"""Accepted values for ``PlanExecutor(..., executor=...)``.

``"vectorized"`` (the default) evaluates plans as columnar batch pipelines
with the kernels of :mod:`repro.algebra.kernels`; ``"tuple"`` keeps the
complete tuple-at-a-time interpreter — the oracle path.  Results are
identical, row order included.
"""

STRUCTURAL_JOIN_STRATEGIES = ("merge", "nested-loop")
"""Accepted values for ``PlanExecutor(..., structural_join_strategy=...)``."""

ID_JOIN_STRATEGIES = ("merge", "hash")
"""Accepted values for ``PlanExecutor(..., id_join_strategy=...)``.

``"merge"`` (the default) runs ``⋈=`` as a single-pass merge on Dewey order
whenever *both* inputs arrive annotated as sorted on their join columns
(the order annotation the staircase machinery already propagates), falling
back to the hash join otherwise; ``"hash"`` forces the seed hash join
unconditionally — the oracle the A/B identity tests compare against.
Results are identical either way, row order included.
"""


@dataclass
class OperatorRunStats:
    """Measured execution statistics for one distinct plan operator.

    Collected by a profiling executor (``PlanExecutor(..., profile=True)``)
    and consumed by ``EXPLAIN ANALYZE`` reports: the *actual* counterpart of
    the planner's :class:`~repro.planning.cost.OperatorEstimate`.
    """

    operator: PlanOperator
    rows: int
    """Rows in the operator's output relation."""

    seconds: float
    """Wall time spent in this operator alone (children excluded)."""

    inclusive_seconds: float
    """Wall time of the whole sub-plan rooted here (children included,
    shared sub-plans charged to their first caller — like the memo)."""


class PlanExecutor:
    """Evaluate logical plans against a store of materialised views.

    Plans produced by the rewriting search are DAGs, not strict trees: the
    search shares sub-plans between candidates (``ensure_column`` wraps a
    shared plan rather than copying it), so e.g. both inputs of a self-join
    may be the very same ``ViewScan`` object.  The executor memoises results
    per operator *object* for its own lifetime, so shared sub-plans are
    evaluated once — which is also what the planner's DAG cost model
    charges.  Operators never mutate their inputs (every operator builds a
    fresh output relation), so sharing results is safe; create a fresh
    executor after re-materialising views.

    Parameters
    ----------
    views:
        Mapping from view name to an object exposing ``relation``.
    structural_join_strategy:
        ``"merge"`` (default) runs ``⋈≺`` / ``⋈≺≺`` as the single-pass
        staircase sort-merge; ``"nested-loop"`` keeps the seed's ``O(l×r)``
        pair loop as a debugging / oracle path.  Results are identical.
    id_join_strategy:
        ``"merge"`` (default) runs ``⋈=`` as a Dewey merge when both inputs
        are annotated sorted on their join columns (hash otherwise);
        ``"hash"`` forces the hash join — the oracle path.  Results are
        identical, row order included.
    executor:
        ``"vectorized"`` (default) evaluates plans as columnar
        :class:`~repro.algebra.columnar.ColumnBatch` pipelines — kernels
        produce index vectors, columns materialise lazily, and extent
        scans reuse cached column vectors and Dewey keys across queries;
        ``"tuple"`` runs the row-at-a-time interpreter — the oracle path.
        Results are identical, row order included.
    profile:
        When True, the executor records an :class:`OperatorRunStats` per
        distinct operator (rows produced, own and inclusive wall time),
        retrievable via :meth:`run_stats` — the measurement side of
        ``EXPLAIN ANALYZE``.  Under the vectorized executor, lazy column
        decode is charged to the operator that first touches the column
        (usually a join or selection), not to the scan that deferred it.

    Example
    -------
    >>> from repro import MaterializedView, parse_parenthesized, parse_pattern
    >>> from repro.algebra.operators import ViewScan
    >>> doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
    >>> view = MaterializedView(parse_pattern("site(//item[ID,V])", name="v"), doc)
    >>> executor = PlanExecutor({"v": view})
    >>> result = executor.execute(ViewScan("v"))
    >>> result.column_names
    ['v.ID1', 'v.V1']
    >>> len(result)
    2
    >>> result.sorted_by  # extents arrive in document order
    'v.ID1'
    """

    def __init__(
        self,
        views: Mapping[str, object],
        structural_join_strategy: str = "merge",
        id_join_strategy: str = "merge",
        executor: str = "vectorized",
        profile: bool = False,
    ):
        if structural_join_strategy not in STRUCTURAL_JOIN_STRATEGIES:
            raise PlanExecutionError(
                f"unknown structural join strategy {structural_join_strategy!r}; "
                f"expected one of {STRUCTURAL_JOIN_STRATEGIES}"
            )
        if id_join_strategy not in ID_JOIN_STRATEGIES:
            raise PlanExecutionError(
                f"unknown id join strategy {id_join_strategy!r}; "
                f"expected one of {ID_JOIN_STRATEGIES}"
            )
        if executor not in EXECUTOR_STRATEGIES:
            raise PlanExecutionError(
                f"unknown executor strategy {executor!r}; "
                f"expected one of {EXECUTOR_STRATEGIES}"
            )
        self._views = views
        self._merge_joins = structural_join_strategy == "merge"
        self._merge_id_joins = id_join_strategy == "merge"
        self.executor = executor
        self._vectorized = executor == "vectorized"
        self.profile = profile
        # id() -> (operator, result); the operator reference keeps the id alive
        self._memo: dict[int, tuple[PlanOperator, Relation]] = {}
        self._batch_memo: dict[int, tuple[PlanOperator, ColumnBatch]] = {}
        self._run_stats: dict[int, OperatorRunStats] = {}
        self._child_seconds: list[float] = []

    # ------------------------------------------------------------------ #
    def execute(self, plan: PlanOperator) -> Relation:
        """Evaluate ``plan`` and return its result relation."""
        if self._vectorized:
            return self.execute_batch(plan).to_relation()
        cached = self._memo.get(id(plan))
        if cached is not None:
            return cached[1]
        if not self.profile:
            result = self._execute(plan)
        else:
            start = time.perf_counter()
            self._child_seconds.append(0.0)
            result = self._execute(plan)
            children = self._child_seconds.pop()
            elapsed = time.perf_counter() - start
            if self._child_seconds:
                self._child_seconds[-1] += elapsed
            self._run_stats[id(plan)] = OperatorRunStats(
                operator=plan,
                rows=len(result.rows),
                seconds=max(elapsed - children, 0.0),
                inclusive_seconds=elapsed,
            )
        self._memo[id(plan)] = (plan, result)
        return result

    def execute_batch(self, plan: PlanOperator) -> ColumnBatch:
        """Evaluate ``plan`` as a columnar batch — the vectorized spine.

        Memoised per operator object like :meth:`execute` (plans are DAGs);
        profiling uses the same own/inclusive wall-time bookkeeping.  Under
        ``executor="tuple"`` the tuple interpreter runs and its relation is
        wrapped (one transpose), so streaming callers work under either
        strategy.
        """
        if not self._vectorized:
            return ColumnBatch.from_relation(self.execute(plan))
        cached = self._batch_memo.get(id(plan))
        if cached is not None:
            return cached[1]
        if not self.profile:
            result = self._execute_batch(plan)
        else:
            start = time.perf_counter()
            self._child_seconds.append(0.0)
            result = self._execute_batch(plan)
            children = self._child_seconds.pop()
            elapsed = time.perf_counter() - start
            if self._child_seconds:
                self._child_seconds[-1] += elapsed
            self._run_stats[id(plan)] = OperatorRunStats(
                operator=plan,
                rows=result.row_count,
                seconds=max(elapsed - children, 0.0),
                inclusive_seconds=elapsed,
            )
        self._batch_memo[id(plan)] = (plan, result)
        return result

    def run_stats(self, plan: PlanOperator) -> Optional[OperatorRunStats]:
        """The measured statistics for one operator object, if profiled.

        Shared sub-plans execute once (the memo), so repeated occurrences of
        the same operator object report the same measurement; operators whose
        result came back entirely from the memo of a previous :meth:`execute`
        call keep the stats of the run that actually computed them.
        """
        return self._run_stats.get(id(plan))

    def _execute(self, plan: PlanOperator) -> Relation:
        if isinstance(plan, ViewScan):
            return self._execute_scan(plan)
        if isinstance(plan, IndexScan):
            return self._execute_index_scan(plan)
        if isinstance(plan, IdEqualityJoin):
            return self._execute_id_join(plan)
        if isinstance(plan, StructuralJoin):
            return self._execute_structural_join(plan)
        if isinstance(plan, NestedStructuralJoin):
            return self._execute_nested_structural_join(plan)
        if isinstance(plan, Projection):
            return self._execute_projection(plan)
        if isinstance(plan, NestedProjection):
            return self._execute_nested_projection(plan)
        if isinstance(plan, Selection):
            return self._execute_selection(plan)
        if isinstance(plan, Unnest):
            return self._execute_unnest(plan)
        if isinstance(plan, GroupBy):
            return self._execute_group_by(plan)
        if isinstance(plan, ContentNavigation):
            return self._execute_content_navigation(plan)
        if isinstance(plan, ParentIdDerivation):
            return self._execute_parent_derivation(plan)
        if isinstance(plan, UnionPlan):
            return self._execute_union(plan)
        raise PlanExecutionError(f"unknown plan operator {type(plan).__name__}")

    # ------------------------------------------------------------------ #
    # vectorized operators
    # ------------------------------------------------------------------ #
    def _execute_batch(self, plan: PlanOperator) -> ColumnBatch:
        if isinstance(plan, ViewScan):
            return self._scan_batch(plan)
        if isinstance(plan, IndexScan):
            return self._index_scan_batch(plan)
        if isinstance(plan, Selection):
            return self._selection_batch(plan)
        if isinstance(plan, Projection):
            return self._projection_batch(plan)
        if isinstance(plan, IdEqualityJoin):
            return self._id_join_batch(plan)
        if isinstance(plan, StructuralJoin) and self._merge_joins:
            return self._structural_join_batch(plan)
        if isinstance(plan, UnionPlan):
            return self._union_batch(plan)
        # operators without a kernel (and the nested-loop oracle) run the
        # tuple interpreter over materialised children — children still
        # route through execute() and thus the batch memo
        return ColumnBatch.from_relation(self._execute(plan))

    def _view_batch(self, plan: ViewScan | IndexScan) -> ColumnBatch:
        """The scanned view's extent as a batch — one cached transpose per
        extent, shared by every scan of it."""
        try:
            view = self._views[plan.view_name]
        except KeyError as exc:
            raise PlanExecutionError(f"unknown view {plan.view_name!r}") from exc
        return ColumnBatch.from_relation(view.relation)

    def _scan_batch(self, plan: ViewScan | IndexScan) -> ColumnBatch:
        base = self._view_batch(plan)
        alias = plan.effective_alias
        columns = [column.renamed(f"{alias}.{column.name}") for column in base.columns]
        sorted_by = None
        if base.sorted_by is not None:
            sorted_by = f"{alias}.{base.sorted_by}"
        return base.with_schema(columns, sorted_by)

    def _index_scan_batch(self, plan: IndexScan) -> ColumnBatch:
        """Scan + pushed σ: probe the column's value index, gather positions.

        The index is cached on the *base* batch's column source (shared
        across queries through the per-relation batch cache), built lazily
        on the first probe.  An unindexable column falls back to the
        selection kernel over the same source — identical rows either way.
        Probe positions come back ascending, so the Dewey-order annotation
        survives exactly as it does for a filter.
        """
        base = self._view_batch(plan)
        source = base.source(base.column_index(plan.base_column))
        from repro.views.indexes import index_for_source

        index = index_for_source(source)
        if index is not None:
            keep = index.probe(plan.formula)
        else:
            keep = kernels.selection_indices(source.values(), plan.formula)
        scanned = self._scan_batch(plan)
        return scanned.gather(keep, sorted_by=scanned.sorted_by)

    def _batch_keys(self, batch: ColumnBatch, index: int) -> list:
        """Cached Dewey component keys, error-wrapped like :meth:`_as_dewey`."""
        try:
            return batch.dewey_keys(index)
        except AlgebraError as exc:
            raise PlanExecutionError(str(exc)) from exc

    @staticmethod
    def _concat_schema(left: ColumnBatch, right: ColumnBatch) -> list[Column]:
        overlap = {column.name for column in left.columns} & {
            column.name for column in right.columns
        }
        if overlap:
            raise AlgebraError(f"overlapping columns in concatenation: {overlap}")
        return list(left.columns) + list(right.columns)

    def _selection_batch(self, plan: Selection) -> ColumnBatch:
        child = self.execute_batch(plan.child)
        values = child.values(child.column_index(plan.column))
        keep = kernels.selection_indices(values, plan.formula)
        # a subset in order stays in order
        return child.gather(keep, sorted_by=child.sorted_by)

    def _projection_batch(self, plan: Projection) -> ColumnBatch:
        child = self.execute_batch(plan.child)
        names = list(plan.columns)
        indexes = [child.column_index(name) for name in names]
        keep = kernels.distinct_indices(
            [child.values(index) for index in indexes], child.row_count
        )
        columns = [child.columns[index] for index in indexes]
        sorted_by = child.sorted_by if child.sorted_by in names else None
        if plan.renames:
            mapping = dict(plan.renames)
            columns = [
                column.renamed(mapping.get(column.name, column.name))
                for column in columns
            ]
            if sorted_by is not None:
                sorted_by = mapping.get(sorted_by, sorted_by)
        return projected_batch(child, indexes, columns, keep, sorted_by)

    def _id_join_batch(self, plan: IdEqualityJoin) -> ColumnBatch:
        left = self.execute_batch(plan.left)
        right = self.execute_batch(plan.right)
        columns = self._concat_schema(left, right)
        left_keys = self._batch_keys(left, left.column_index(plan.left_column))
        right_keys = self._batch_keys(right, right.column_index(plan.right_column))
        if (
            self._merge_id_joins
            and left.sorted_by == plan.left_column
            and right.sorted_by == plan.right_column
        ):
            pairs = kernels.merge_id_join_pairs(left_keys, right_keys)
        else:
            pairs = kernels.hash_id_join_pairs(left_keys, right_keys)
        # probe order is left order
        return joined_batch(left, right, columns, pairs[0], pairs[1], left.sorted_by)

    def _structural_join_batch(self, plan: StructuralJoin) -> ColumnBatch:
        left = self.execute_batch(plan.left)
        right = self.execute_batch(plan.right)
        columns = self._concat_schema(left, right)
        left_keys = self._batch_keys(left, left.column_index(plan.left_column))
        right_keys = self._batch_keys(right, right.column_index(plan.right_column))
        ancestors = kernels.group_runs(
            kernels.dewey_ordered(left_keys, left.sorted_by == plan.left_column)
        )
        descendants = kernels.dewey_ordered(
            right_keys, right.sorted_by == plan.right_column
        )
        left_out, right_out = kernels.staircase_pairs(ancestors, descendants, plan.axis)
        # output is produced in descendant document order
        return joined_batch(left, right, columns, left_out, right_out, plan.right_column)

    def _union_batch(self, plan: UnionPlan) -> ColumnBatch:
        if not plan.plans:
            raise PlanExecutionError("a union plan needs at least one branch")
        branches = [self.execute_batch(branch) for branch in plan.plans]
        merged = self._merge_union_batches(branches)
        if merged is not None:
            return merged
        relations = [branch.to_relation() for branch in branches]
        result = relations[0]
        for relation in relations[1:]:
            result = result.union(relation)
        return ColumnBatch.from_relation(result.distinct())

    def _merge_union_batches(
        self, branches: list[ColumnBatch]
    ) -> Optional[ColumnBatch]:
        """Batch counterpart of :meth:`_merge_union`, same fallback contract.

        Sort keys come from the branches' cached Dewey key vectors, so a
        union over extent scans re-uses the keys the staircase machinery
        already computed.
        """
        first = branches[0]
        if first.sorted_by is None:
            return None
        sort_index = first.column_index(first.sorted_by)
        arity = len(first.columns)
        for branch in branches:
            if (
                len(branch.columns) != arity
                or branch.sorted_by is None
                or branch.column_index(branch.sorted_by) != sort_index
            ):
                return None
        null_rows: list[tuple] = []
        keyed_streams: list[list[tuple[tuple, tuple]]] = []
        try:
            for branch in branches:
                keys = branch.dewey_keys(sort_index)
                keyed = []
                for key, row in zip(keys, branch.to_relation().rows):
                    if key is None:
                        null_rows.append(row)
                    else:
                        keyed.append((key, row))
                keyed_streams.append(keyed)
        except ReproError:
            # a mis-annotated branch: fall back, order-blind
            return None
        result = Relation(first.columns)
        result.sorted_by = first.sorted_by
        result.rows = kernels.ordered_union_rows(null_rows, keyed_streams)
        return ColumnBatch.from_relation(result)

    # ------------------------------------------------------------------ #
    # leaves
    # ------------------------------------------------------------------ #
    def _execute_scan(self, plan: ViewScan) -> Relation:
        try:
            view = self._views[plan.view_name]
        except KeyError as exc:
            raise PlanExecutionError(f"unknown view {plan.view_name!r}") from exc
        relation: Relation = view.relation
        alias = plan.effective_alias
        qualified = Relation(
            [column.renamed(f"{alias}.{column.name}") for column in relation.columns]
        )
        qualified.rows = list(relation.rows)
        if relation.sorted_by is not None:
            # extents are materialised in document order; the annotation
            # survives qualification so downstream merges skip their sort
            qualified.sorted_by = f"{alias}.{relation.sorted_by}"
        return qualified

    def _execute_index_scan(self, plan: IndexScan) -> Relation:
        """The tuple oracle for :class:`IndexScan`: scan, then filter.

        Deliberately *never* touches an index — it is the literal
        composition of :meth:`_execute_scan` and :meth:`_execute_selection`,
        so A/B suites can assert exact row identity between the index path
        and the semantics it claims to implement.
        """
        try:
            view = self._views[plan.view_name]
        except KeyError as exc:
            raise PlanExecutionError(f"unknown view {plan.view_name!r}") from exc
        relation: Relation = view.relation
        alias = plan.effective_alias
        result = Relation(
            [column.renamed(f"{alias}.{column.name}") for column in relation.columns]
        )
        if relation.sorted_by is not None:
            result.sorted_by = f"{alias}.{relation.sorted_by}"
        index = relation.column_index(plan.base_column)
        for row in relation.rows:
            value = row[index]
            if isinstance(value, XMLNode):
                value = value.value
            if plan.formula.evaluate(value):
                result.rows.append(row)
        return result

    # ------------------------------------------------------------------ #
    # joins
    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_dewey(value) -> Optional[DeweyID]:
        try:
            return as_dewey(value)
        except AlgebraError as exc:
            raise PlanExecutionError(str(exc)) from exc

    def _execute_id_join(self, plan: IdEqualityJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_index = left.column_index(plan.left_column)
        right_index = right.column_index(plan.right_column)
        result = left.natural_concat(right)
        if (
            self._merge_id_joins
            and left.is_sorted_by(plan.left_column)
            and right.is_sorted_by(plan.right_column)
        ):
            self._merge_id_join(plan, left, right, left_index, right_index, result)
        else:
            by_id: dict[str, list[tuple]] = {}
            for row in right.rows:
                identifier = self._as_dewey(row[right_index])
                if identifier is not None:
                    by_id.setdefault(str(identifier), []).append(row)
            for left_row in left.rows:
                identifier = self._as_dewey(left_row[left_index])
                if identifier is None:
                    continue
                for right_row in by_id.get(str(identifier), ()):
                    result.rows.append(left_row + right_row)
        result.sorted_by = left.sorted_by  # probe order is left order
        return result

    def _merge_id_join(
        self,
        plan: IdEqualityJoin,
        left: Relation,
        right: Relation,
        left_index: int,
        right_index: int,
        result: Relation,
    ) -> None:
        """``⋈=`` as a single merge pass over two Dewey-sorted inputs.

        Equal identifiers are adjacent on both sides, so the right side
        collapses into per-identifier groups and one non-retreating cursor
        pairs them with the (non-decreasing) left identifiers.  Rows with a
        ``⊥`` join value can never match and are skipped — exactly what the
        hash join does — and output rows come out in left-row order, so the
        two strategies produce *identical* row lists, not just equal sets.
        """
        groups: list[tuple[tuple, list[tuple]]] = []
        for row in right.rows:
            identifier = self._as_dewey(row[right_index])
            if identifier is None:
                continue
            key = identifier.components
            if groups and groups[-1][0] == key:
                groups[-1][1].append(row)
            else:
                groups.append((key, [row]))
        position = 0
        for left_row in left.rows:
            identifier = self._as_dewey(left_row[left_index])
            if identifier is None:
                continue
            key = identifier.components
            while position < len(groups) and groups[position][0] < key:
                position += 1
            if position < len(groups) and groups[position][0] == key:
                for right_row in groups[position][1]:
                    result.rows.append(left_row + right_row)

    def _structural_match(self, upper, lower, axis: Axis) -> bool:
        upper_id = self._as_dewey(upper)
        lower_id = self._as_dewey(lower)
        if upper_id is None or lower_id is None:
            return False
        if axis is Axis.CHILD:
            return upper_id.is_parent_of(lower_id)
        return upper_id.is_ancestor_of(lower_id)

    # -------------------------- staircase machinery -------------------- #
    def _dewey_sorted(
        self, relation: Relation, column: str
    ) -> list[tuple[DeweyID, tuple]]:
        """``(identifier, row)`` pairs in document order, nulls dropped.

        Rows whose join value is ``⊥`` can never satisfy a structural
        predicate (the nested-loop oracle rejects them row by row); the
        merge drops them up front.  When the relation is not annotated as
        sorted on ``column``, the pairs are sorted here — the sort-then-
        merge fallback the cost model charges for.
        """
        index = relation.column_index(column)
        pairs = []
        for row in relation.rows:
            identifier = self._as_dewey(row[index])
            if identifier is not None:
                pairs.append((identifier, row))
        if not relation.is_sorted_by(column):
            pairs.sort(key=lambda pair: pair[0].components)
        return pairs

    @staticmethod
    def _group_by_id(
        pairs: list[tuple[DeweyID, tuple]]
    ) -> list[tuple[DeweyID, list[tuple]]]:
        """Collapse document-ordered pairs into per-identifier row groups."""
        groups: list[tuple[DeweyID, list[tuple]]] = []
        for identifier, row in pairs:
            if groups and groups[-1][0] == identifier:
                groups[-1][1].append(row)
            else:
                groups.append((identifier, [row]))
        return groups

    def _staircase_sweep(
        self,
        ancestors: list[tuple[DeweyID, list[tuple]]],
        descendants: list[tuple[DeweyID, tuple]],
        axis: Axis,
        emit,
    ) -> None:
        """One merge pass over both document-ordered inputs.

        ``ancestors`` holds the upper side grouped by identifier,
        ``descendants`` the lower side row by row.  For every descendant,
        ``emit(group_index, descendant_row)`` is called once per matching
        ancestor group.  The stack holds the currently *open* ancestor
        groups — those whose subtree interval contains the sweep position —
        as ``(identifier, group_index)``; Dewey order equals document order
        and subtrees are contiguous intervals, so a group popped because the
        sweep left its subtree can never match a later descendant.
        """
        stack: list[tuple[DeweyID, int]] = []
        next_group = 0
        for lower_id, lower_row in descendants:
            while next_group < len(ancestors) and not (
                lower_id < ancestors[next_group][0]
            ):
                upper_id = ancestors[next_group][0]
                while stack and not stack[-1][0].is_ancestor_of(upper_id):
                    stack.pop()
                stack.append((upper_id, next_group))
                next_group += 1
            while stack and not stack[-1][0].is_ancestor_or_self_of(lower_id):
                stack.pop()
            if not stack:
                continue
            # every open group strictly above an equal top matches; an equal
            # top itself never does (ancestry is strict)
            top = len(stack) - (1 if stack[-1][0] == lower_id else 0)
            if axis is Axis.CHILD:
                target_depth = lower_id.depth - 1
                for position in range(top - 1, -1, -1):
                    upper_id, group_index = stack[position]
                    if upper_id.depth == target_depth:
                        emit(group_index, lower_row)
                        break
                    if upper_id.depth < target_depth:
                        break
            else:
                for position in range(top):
                    emit(stack[position][1], lower_row)

    def _execute_structural_join(self, plan: StructuralJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_index = left.column_index(plan.left_column)
        right_index = right.column_index(plan.right_column)
        result = left.natural_concat(right)
        if not self._merge_joins:
            for left_row in left.rows:
                for right_row in right.rows:
                    if self._structural_match(
                        left_row[left_index], right_row[right_index], plan.axis
                    ):
                        result.rows.append(left_row + right_row)
            return result
        ancestors = self._group_by_id(self._dewey_sorted(left, plan.left_column))
        descendants = self._dewey_sorted(right, plan.right_column)
        rows = result.rows

        def emit(group_index: int, lower_row: tuple) -> None:
            for upper_row in ancestors[group_index][1]:
                rows.append(upper_row + lower_row)

        self._staircase_sweep(ancestors, descendants, plan.axis, emit)
        # output is produced in descendant document order
        result.sorted_by = plan.right_column
        return result

    def _execute_nested_structural_join(self, plan: NestedStructuralJoin) -> Relation:
        left = self.execute(plan.left)
        right = self.execute(plan.right)
        left_index = left.column_index(plan.left_column)
        right_index = right.column_index(plan.right_column)
        nested_schema = list(right.columns)
        result = Relation(list(left.columns) + [Column(plan.group_column, kind="NESTED")])
        if not self._merge_joins:
            for left_row in left.rows:
                matches = [
                    right_row
                    for right_row in right.rows
                    if self._structural_match(
                        left_row[left_index], right_row[right_index], plan.axis
                    )
                ]
                if not matches and not plan.keep_unmatched:
                    continue
                nested = Relation(nested_schema, rows=matches)
                result.rows.append(left_row + (nested,))
            return result
        ancestors = self._group_by_id(self._dewey_sorted(left, plan.left_column))
        descendants = self._dewey_sorted(right, plan.right_column)
        matches_per_group: list[list[tuple]] = [[] for _ in ancestors]

        def emit(group_index: int, lower_row: tuple) -> None:
            matches_per_group[group_index].append(lower_row)

        self._staircase_sweep(ancestors, descendants, plan.axis, emit)
        for (_identifier, upper_rows), matches in zip(ancestors, matches_per_group):
            if not matches and not plan.keep_unmatched:
                continue
            for upper_row in upper_rows:
                nested = Relation(nested_schema, rows=matches)
                result.rows.append(upper_row + (nested,))
        if plan.keep_unmatched:
            # left rows with a ⊥ join value never match anything; the oracle
            # keeps them with an empty group, so the merge does too
            for left_row in left.rows:
                if self._as_dewey(left_row[left_index]) is None:
                    result.rows.append(left_row + (Relation(nested_schema),))
        # output is produced in ancestor document order (the annotation only
        # speaks about non-null identifiers, so trailing ⊥ rows are fine)
        result.sorted_by = plan.left_column
        return result

    # ------------------------------------------------------------------ #
    # unary operators
    # ------------------------------------------------------------------ #
    def _execute_projection(self, plan: Projection) -> Relation:
        child = self.execute(plan.child)
        projected = child.project(list(plan.columns))
        if plan.renames:
            projected = projected.rename(dict(plan.renames))
        return projected

    def _execute_nested_projection(self, plan: NestedProjection) -> Relation:
        child = self.execute(plan.child)
        index = child.column_index(plan.nested_column)
        result = Relation(child.columns)
        if child.sorted_by != plan.nested_column:
            result.sorted_by = child.sorted_by  # outer rows keep their order
        for row in child.rows:
            value = row[index]
            if isinstance(value, Relation):
                projected = value.project(list(plan.columns))
                if plan.renames:
                    projected = projected.rename(dict(plan.renames))
                value = projected
            result.rows.append(row[:index] + (value,) + row[index + 1 :])
        return result

    def _execute_selection(self, plan: Selection) -> Relation:
        child = self.execute(plan.child)
        index = child.column_index(plan.column)
        result = Relation(child.columns)
        result.sorted_by = child.sorted_by  # a subset in order stays in order
        for row in child.rows:
            value = row[index]
            if isinstance(value, XMLNode):
                value = value.value
            if plan.formula.evaluate(value):
                result.rows.append(row)
        return result

    def _execute_unnest(self, plan: Unnest) -> Relation:
        child = self.execute(plan.child)
        index = child.column_index(plan.nested_column)
        nested_columns: Optional[list[Column]] = None
        for row in child.rows:
            value = row[index]
            if isinstance(value, Relation):
                nested_columns = value.columns
                break
        if nested_columns is None:
            nested_columns = []
        outer_columns = [c for i, c in enumerate(child.columns) if i != index]
        result = Relation(outer_columns + nested_columns)
        if child.sorted_by != plan.nested_column:
            # outer rows expand in place, so non-decreasing order survives
            result.sorted_by = child.sorted_by
        for row in child.rows:
            outer = tuple(v for i, v in enumerate(row) if i != index)
            nested = row[index]
            if not isinstance(nested, Relation) or not nested.rows:
                if plan.keep_empty:
                    result.rows.append(outer + tuple([None] * len(nested_columns)))
                continue
            for nested_row in nested.rows:
                result.rows.append(outer + tuple(nested_row))
        return result

    def _execute_group_by(self, plan: GroupBy) -> Relation:
        child = self.execute(plan.child)
        key_indexes = [child.column_index(name) for name in plan.key_columns]
        nested_indexes = [child.column_index(name) for name in plan.nested_columns]
        nested_schema = [child.columns[i] for i in nested_indexes]
        result = Relation(
            [child.columns[i] for i in key_indexes]
            + [Column(plan.group_column, kind="NESTED")]
        )
        if child.sorted_by in plan.key_columns:
            # groups are emitted in first-appearance order of their keys
            result.sorted_by = child.sorted_by
        groups: dict[tuple, list[tuple]] = {}
        order: list[tuple] = []
        for row in child.rows:
            key = tuple(_group_key(row[i]) for i in key_indexes)
            if key not in groups:
                groups[key] = []
                order.append(tuple(row[i] for i in key_indexes))
            inner = tuple(row[i] for i in nested_indexes)
            if not all(value is None for value in inner):
                groups[key].append(inner)
        for key_values in order:
            key = tuple(_group_key(value) for value in key_values)
            nested = Relation(nested_schema, rows=groups[key]).distinct()
            result.rows.append(tuple(key_values) + (nested,))
        return result

    def _execute_content_navigation(self, plan: ContentNavigation) -> Relation:
        child = self.execute(plan.child)
        index = child.column_index(plan.content_column)
        result = Relation(
            list(child.columns) + [Column(plan.new_column, kind=plan.attribute)]
        )
        result.sorted_by = child.sorted_by  # rows expand in place
        for row in child.rows:
            content = row[index]
            matches = self._navigate(content, list(plan.steps))
            if not matches:
                if plan.optional:
                    result.rows.append(row + (None,))
                continue
            for node in matches:
                result.rows.append(row + (self._extract(node, plan.attribute),))
        return result

    def _navigate(self, content, steps: list[tuple[Axis, str]]) -> list[XMLNode]:
        if not isinstance(content, XMLNode):
            return []
        frontier = [content]
        for axis, label in steps:
            next_frontier: list[XMLNode] = []
            for node in frontier:
                if axis is Axis.CHILD:
                    next_frontier.extend(node.children_with_label(label))
                else:
                    next_frontier.extend(node.descendants_with_label(label))
            frontier = next_frontier
        return frontier

    @staticmethod
    def _extract(node: XMLNode, attribute: str):
        if attribute == "ID":
            return node.dewey
        if attribute == "L":
            return node.label
        if attribute == "V":
            return node.value
        return node

    def _execute_parent_derivation(self, plan: ParentIdDerivation) -> Relation:
        child = self.execute(plan.child)
        index = child.column_index(plan.id_column)
        result = Relation(list(child.columns) + [Column(plan.new_column, kind="ID")])
        result.sorted_by = child.sorted_by  # one output row per input row
        for row in child.rows:
            identifier = self._as_dewey(row[index])
            derived = None
            if identifier is not None and identifier.depth > plan.levels_up:
                derived = identifier.ancestor(plan.levels_up)
            result.rows.append(row + (derived,))
        return result

    def _execute_union(self, plan: UnionPlan) -> Relation:
        if not plan.plans:
            raise PlanExecutionError("a union plan needs at least one branch")
        relations = [self.execute(branch) for branch in plan.plans]
        merged = self._merge_union(relations)
        if merged is not None:
            return merged
        result = relations[0]
        for relation in relations[1:]:
            result = result.union(relation)
        return result.distinct()

    def _merge_union(self, relations: list[Relation]) -> Optional[Relation]:
        """Ordered k-way union merge, when every branch shares the sort column.

        Union set semantics never needed order, so ``UnionPlan`` used to drop
        the ``sorted_by`` annotation unconditionally — forcing a re-sort on
        any staircase merge join consuming the union.  When every branch
        arrives Dewey-sorted on the same column *position*, a
        :func:`heapq.merge` over the branches produces the union already in
        document order, so the annotation survives.  Duplicate elimination
        stays exact with bounded memory: duplicate rows carry equal sort
        identifiers, so they always land inside the same identifier run and
        a per-run seen-set suffices.  Rows with a ``⊥`` sort value (which
        the annotation says nothing about) are emitted first, deduplicated
        globally — the same null placement ``sorted_in_dewey_order`` uses.
        Returns ``None`` when the branches do not share a sort column (or a
        sort value refuses Dewey coercion): the caller falls back to the
        order-blind union, results identical.
        """
        first = relations[0]
        if first.sorted_by is None:
            return None
        sort_index = first.column_index(first.sorted_by)
        arity = first.arity
        for relation in relations:
            if (
                relation.arity != arity
                or relation.sorted_by is None
                or relation.column_index(relation.sorted_by) != sort_index
            ):
                return None
        null_rows: list[tuple] = []
        keyed_streams: list[list[tuple[tuple, tuple]]] = []
        try:
            for relation in relations:
                keyed = []
                for row in relation.rows:
                    identifier = as_dewey(row[sort_index])
                    if identifier is None:
                        # ⊥, or a node with no assigned identifier — both
                        # are nulls to sorted_in_dewey_order, so both sort
                        # ahead of every real identifier here too
                        null_rows.append(row)
                    else:
                        keyed.append((identifier.components, row))
                keyed_streams.append(keyed)
        except ReproError:
            # a mis-annotated branch (non-Dewey sort values, AlgebraError or
            # a malformed identifier string): fall back, order-blind
            return None
        result = Relation(first.columns)
        result.sorted_by = first.sorted_by
        result.rows = kernels.ordered_union_rows(null_rows, keyed_streams)
        return result


def _group_key(value):
    if isinstance(value, DeweyID):
        return str(value)
    if isinstance(value, XMLNode):
        return ("node", str(value.dewey) if value.dewey else id(value))
    return value
