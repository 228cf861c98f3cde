"""Columnar task state for the Spark scheduler.

A 10,000-worker cluster running ~1M tiles cannot afford a dataclass per tile,
one :class:`TaskResult` per tile and several interned label strings — at that
scale object construction alone dominates the simulation.  Every job, modeled
or functional, is therefore one :class:`TaskTable` of parallel numpy arrays
(one row per tile); :class:`TaskResult` objects are materialized **lazily**,
only for the rows that reports, journals, checkpoint commits or tests
actually touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, overload

import numpy as np


@dataclass
class TaskResult:
    """Which task ran where and when, and what it produced."""

    task_id: int
    split: int
    worker_id: str
    start: float
    end: float
    #: Stage label — the source loop this tile belongs to.
    stage: str = ""
    value: Any = None
    attempts: int = 1
    collected_at: float = 0.0
    #: True when a speculative copy beat the original attempt.
    speculative: bool = False


class TaskTable:
    """One job's task set as parallel arrays, one row per tile (after
    Algorithm 1).

    Durations are split by phase so the timeline can reproduce Figure 5's
    decomposition.  ``stage`` labels every row with the source loop the job
    tiles: a fused region (docs/TASKGRAPH.md) submits one map stage per
    member loop under a single offload, so the label is what keeps each tile
    attributable to its member region in the timeline and exported traces.
    ``closures`` is ``None`` for modeled jobs; functional jobs carry one
    callable (or ``None``) per row, executed for real.

    A column handed in as an array of its own dtype is adopted, not copied:
    a closure that measures its result writes ``output_bytes[row]`` and the
    scheduler reads the size back from the same array.
    """

    __slots__ = ("task_id", "split", "compute_s", "jni_s", "decompress_s",
                 "compress_s", "input_bytes", "output_bytes", "stage",
                 "closures")

    def __init__(
        self,
        *,
        task_id: np.ndarray | Sequence[int],
        split: np.ndarray | Sequence[int],
        compute_s: np.ndarray | Sequence[float] | None = None,
        jni_s: np.ndarray | Sequence[float] | None = None,
        decompress_s: np.ndarray | Sequence[float] | None = None,
        compress_s: np.ndarray | Sequence[float] | None = None,
        input_bytes: np.ndarray | Sequence[int] | None = None,
        output_bytes: np.ndarray | Sequence[int] | None = None,
        stage: str = "",
        closures: Sequence[Callable[[], Any] | None] | None = None,
    ) -> None:
        self.task_id = np.asarray(task_id, dtype=np.int64)
        n = len(self.task_id)

        def column(x: Any, dtype: type) -> np.ndarray:
            return (np.zeros(n, dtype=dtype) if x is None
                    else np.asarray(x, dtype=dtype))

        self.split = column(split, np.int64)
        self.compute_s = column(compute_s, np.float64)
        self.jni_s = column(jni_s, np.float64)
        self.decompress_s = column(decompress_s, np.float64)
        self.compress_s = column(compress_s, np.float64)
        self.input_bytes = column(input_bytes, np.int64)
        self.output_bytes = column(output_bytes, np.int64)
        self.stage = stage
        self.closures = list(closures) if closures is not None else None
        for col in (self.split, self.compute_s, self.jni_s, self.decompress_s,
                    self.compress_s, self.input_bytes, self.output_bytes,
                    self.closures):
            if col is not None and len(col) != n:
                raise ValueError(
                    f"column length mismatch: {len(col)} rows vs {n} task ids")

    def __len__(self) -> int:
        return len(self.task_id)

    def slot_durations(self) -> np.ndarray:
        """Per-row intended slot seconds (always summed in this order: the
        schedule is bit-reproducible)."""
        return self.compute_s + self.jni_s + self.decompress_s + self.compress_s

    def closure_of(self, row: int) -> Callable[[], Any] | None:
        return self.closures[row] if self.closures is not None else None


class LazyResults(Sequence[TaskResult]):
    """``JobStats.results`` at scale: a split-ordered sequence of
    :class:`TaskResult` materialized row by row on first access.

    The scheduler fills plain per-row columns (start/end/worker/...) during
    the run; a modeled 1M-task run whose results are never touched allocates
    no :class:`TaskResult` at all.
    """

    __slots__ = ("_table", "_order", "_start", "_end", "_collected",
                 "_attempts", "_worker_pos", "_worker_ids", "_spec_rows",
                 "_values", "_cache")

    def __init__(
        self,
        table: TaskTable,
        *,
        order: Sequence[int] | None,
        start: Sequence[float],
        end: Sequence[float],
        collected_at: Sequence[float],
        attempts: Sequence[int],
        worker_pos: Sequence[int],
        worker_ids: Sequence[str],
        speculative_rows: set[int],
        values: list[Any],
    ) -> None:
        self._table = table
        self._order = order  # result position -> row; None = identity
        self._start = start
        self._end = end
        self._collected = collected_at
        self._attempts = attempts
        self._worker_pos = worker_pos
        self._worker_ids = worker_ids
        self._spec_rows = speculative_rows
        self._values = values
        self._cache: dict[int, TaskResult] = {}

    def __len__(self) -> int:
        return len(self._table)

    def values(self) -> list[Any]:
        """Each result's closure value (``None`` where no closure ran), in
        result order, without materializing a single :class:`TaskResult`."""
        if self._order is None:
            return self._values
        return [self._values[int(row)] for row in self._order]

    def _row_result(self, row: int) -> TaskResult:
        res = self._cache.get(row)
        if res is None:
            table = self._table
            res = TaskResult(
                task_id=int(table.task_id[row]),
                split=int(table.split[row]),
                worker_id=self._worker_ids[self._worker_pos[row]],
                start=self._start[row],
                end=self._end[row],
                stage=table.stage,
                value=self._values[row],
                attempts=self._attempts[row],
                collected_at=self._collected[row],
                speculative=row in self._spec_rows,
            )
            self._cache[row] = res
        return res

    @overload
    def __getitem__(self, i: int) -> TaskResult: ...
    @overload
    def __getitem__(self, i: slice) -> list[TaskResult]: ...

    def __getitem__(self, i: int | slice) -> TaskResult | list[TaskResult]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        row = i if self._order is None else int(self._order[i])
        return self._row_result(row)

    def __iter__(self) -> Iterator[TaskResult]:
        n = len(self)
        order = self._order
        for i in range(n):
            yield self._row_result(i if order is None else int(order[i]))
