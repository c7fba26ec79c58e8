"""Columnar batches: the vectorized executor's in-memory representation.

* :class:`ColumnBatch` is the executor's unit of work: a schema plus one
  :class:`_ColumnSource` per column.  Sources are either direct value lists
  or gathers over a parent source, so selections, projections and joins
  emit index vectors and never copy a column nobody reads.
* Dewey component keys are cached per source and *shared through gathers*,
  which is where the vectorized executor's single-worker win comes from: a
  view extent's sort keys are computed once and reused by every query that
  scans it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.algebra.tuples import Column, Relation, as_dewey

__all__ = [
    "ColumnBatch",
    "joined_batch",
    "projected_batch",
]


# --------------------------------------------------------------------------- #
# column sources and batches
# --------------------------------------------------------------------------- #
class _ColumnSource:
    """One column's values, materialised lazily and cached.

    A source is *direct* (``values`` given) or a *gather* over a parent
    source (``parent`` + ``indices`` — what selection and join kernels
    emit, so a column nobody reads is never copied).  Dewey component keys
    are cached per source, and a gather reuses its parent's key cache, so
    renaming and joining share one key computation per underlying column.
    """

    __slots__ = ("_values", "_keys", "_parent", "_indices", "index")

    def __init__(
        self,
        values: Optional[list] = None,
        parent: Optional["_ColumnSource"] = None,
        indices: Optional[Sequence[int]] = None,
    ) -> None:
        self._values = values
        self._parent = parent
        self._indices = indices
        self._keys: Optional[list] = None
        # value-index cache (repro.views.indexes): the built index or the
        # UNINDEXABLE sentinel.  Deliberately NOT propagated through
        # gathers — a gather's row positions differ from its parent's.
        self.index = None

    def values(self) -> list:
        if self._values is None:
            parent_values = self._parent.values()
            self._values = [parent_values[i] for i in self._indices]
        return self._values

    def dewey_keys(self) -> list:
        """Per-row Dewey component tuples (``None`` for ⊥) — cached.

        Raises like :func:`~repro.algebra.tuples.as_dewey` on values that
        are not structural identifiers; nothing is cached then.
        """
        if self._keys is None:
            if self._parent is not None:
                parent_keys = self._parent.dewey_keys()
                keys = [parent_keys[i] for i in self._indices]
            else:
                keys = []
                for value in self.values():
                    identifier = as_dewey(value)
                    keys.append(None if identifier is None else identifier.components)
            self._keys = keys
        return self._keys


class ColumnBatch:
    """A column-major relation: schema plus one lazy source per column.

    The vectorized executor's unit of work.  Construction never touches
    cell values — gathers materialise on first read — and
    :meth:`to_relation` round-trips back to the tuple representation the
    rest of the library speaks.  ``sorted_by`` carries the same physical
    Dewey-order annotation as :class:`~repro.algebra.tuples.Relation`.

    >>> from repro.xmltree.ids import DeweyID
    >>> relation = Relation(["ID", "V"], rows=[(DeweyID((1, 1)), "pen"),
    ...                                        (DeweyID((1, 2)), "ink")])
    >>> batch = ColumnBatch.from_relation(relation.mark_sorted_by("ID"))
    >>> batch.row_count, batch.sorted_by
    (2, 'ID')
    >>> batch.values(1)
    ['pen', 'ink']
    >>> batch.gather([1], sorted_by="ID").to_relation().rows
    [(DeweyID(1.2), 'ink')]
    """

    __slots__ = ("columns", "row_count", "sorted_by", "_sources", "_relation", "_row_twin")

    def __init__(
        self,
        columns: Sequence[Column | str],
        sources: Sequence[_ColumnSource],
        row_count: int,
        sorted_by: Optional[str] = None,
    ) -> None:
        self.columns = [
            column if isinstance(column, Column) else Column(column)
            for column in columns
        ]
        self._sources = list(sources)
        self.row_count = row_count
        self.sorted_by = sorted_by
        self._relation: Optional[Relation] = None
        # a schema-sharing parent whose materialised rows equal ours — lets
        # to_relation() reuse the parent's row tuples instead of re-zipping
        self._row_twin: Optional[ColumnBatch] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnBatch":
        """Wrap a relation (transposed lazily, cached on the relation).

        The cache makes repeated scans of one extent free: the second query
        over a materialised view reuses the first one's column vectors and
        Dewey key caches.
        """
        cached = getattr(relation, "_column_batch", None)
        if cached is not None:
            return cached
        count = len(relation.rows)
        if count:
            sources = [
                _ColumnSource(values=list(column_values))
                for column_values in zip(*relation.rows)
            ]
        else:
            sources = [_ColumnSource(values=[]) for _ in relation.columns]
        batch = cls(relation.columns, sources, count, relation.sorted_by)
        batch._relation = relation
        relation._column_batch = batch
        return batch

    def to_relation(self) -> Relation:
        """Materialise as a row-major :class:`Relation` (cached)."""
        if self._relation is None:
            relation = Relation(self.columns)
            twin = self._row_twin
            if twin is not None and twin._relation is not None:
                relation.rows = list(twin._relation.rows)
            elif self.row_count:
                relation.rows = list(zip(*(source.values() for source in self._sources)))
            relation.sorted_by = self.sorted_by
            self._relation = relation
        return self._relation

    # ------------------------------------------------------------------ #
    def column_index(self, name: str) -> int:
        """Index of the column named ``name`` (raises like Relation's)."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise _column_error(name, [column.name for column in self.columns])

    def source(self, index: int) -> _ColumnSource:
        return self._sources[index]

    def values(self, index: int) -> list:
        """The materialised value list of column ``index``."""
        return self._sources[index].values()

    def dewey_keys(self, index: int) -> list:
        """Cached Dewey component keys of column ``index`` (None for ⊥)."""
        return self._sources[index].dewey_keys()

    # ------------------------------------------------------------------ #
    def with_schema(
        self, columns: Sequence[Column], sorted_by: Optional[str]
    ) -> "ColumnBatch":
        """The same rows under different column names (scan qualification).

        Sources are shared, so value and key caches carry over; the result
        also reuses this batch's materialised rows on ``to_relation``.
        """
        batch = ColumnBatch(columns, self._sources, self.row_count, sorted_by)
        batch._row_twin = self._row_twin if self._row_twin is not None else self
        return batch

    def gather(
        self, indices: Sequence[int], sorted_by: Optional[str] = None
    ) -> "ColumnBatch":
        """Select rows by index vector; every column becomes a lazy gather."""
        sources = [
            _ColumnSource(parent=source, indices=indices) for source in self._sources
        ]
        return ColumnBatch(self.columns, sources, len(indices), sorted_by)

    def __repr__(self) -> str:
        names = ", ".join(column.name for column in self.columns)
        return f"<ColumnBatch [{names}] rows={self.row_count} sorted_by={self.sorted_by}>"


def _column_error(name, names):
    from repro.errors import AlgebraError

    return AlgebraError(f"no column named {name!r}; have {names}")


def projected_batch(
    batch: ColumnBatch,
    column_indexes: Sequence[int],
    columns: Sequence[Column],
    row_indices: Sequence[int],
    sorted_by: Optional[str] = None,
) -> ColumnBatch:
    """Project + gather in one step (what the Project kernel emits)."""
    sources = [
        _ColumnSource(parent=batch.source(i), indices=row_indices)
        for i in column_indexes
    ]
    return ColumnBatch(columns, sources, len(row_indices), sorted_by)


def joined_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    columns: Sequence[Column],
    left_indices: Sequence[int],
    right_indices: Sequence[int],
    sorted_by: Optional[str] = None,
) -> ColumnBatch:
    """The concatenated-schema batch a pair-producing join kernel emits.

    Every output column is a lazy gather over one input, so a joined
    column nobody projects afterwards is never copied.
    """
    sources = [
        _ColumnSource(parent=source, indices=left_indices)
        for source in left._sources
    ]
    sources += [
        _ColumnSource(parent=source, indices=right_indices)
        for source in right._sources
    ]
    return ColumnBatch(columns, sources, len(left_indices), sorted_by)
