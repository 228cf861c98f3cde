"""Resilient Distributed Datasets.

The execution model of the paper (Section III-C) is expressed entirely in RDD
terms: ``RDD_IN`` is a parallelized collection of ``(i, V_IN(i))`` pairs, a
``map`` applies the loop body, and the outputs are collected and reconstructed
on the driver.  This module implements the RDD abstraction with the three
properties OmpCloud relies on:

* **partitioning** — elements are split into equal parts across workers
  (Eq. 3), here via :func:`repro.spark.partitioner.range_partition`;
* **laziness + lineage** — transformations build a DAG; ``compute(split)``
  materializes one partition by recursively computing its parents, which is
  also exactly the **fault recovery** story: a lost task is re-run from
  lineage, nothing else;
* **one job per action** — :meth:`repro.spark.driver.Driver.run_job` runs
  one task per partition and hands the results back in partition order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TYPE_CHECKING

from repro.spark.partitioner import range_partition

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext


@dataclass(frozen=True)
class Partition:
    """A handle on one split of an RDD."""

    rdd_id: int
    index: int


class RDD:
    """Base class; subclasses define :meth:`compute`."""

    _ids = itertools.count()

    def __init__(self, context: "SparkContext", num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"an RDD needs >= 1 partition, got {num_partitions}")
        self.context = context
        self.id = next(RDD._ids)
        self.num_partitions = num_partitions
        self._cache: dict[int, list[Any]] | None = None

    # ------------------------------------------------------------- lineage
    def compute(self, split: int) -> list[Any]:
        """Materialize partition ``split`` (recursively via parents)."""
        raise NotImplementedError

    def partitions(self) -> list[Partition]:
        return [Partition(self.id, i) for i in range(self.num_partitions)]

    def iterator(self, split: int) -> list[Any]:
        """compute() with cache lookup, like Spark's ``RDD.iterator``."""
        self._check_split(split)
        if self._cache is not None:
            if split not in self._cache:
                self._cache[split] = self.compute(split)
            return self._cache[split]
        return self.compute(split)

    def cache(self) -> "RDD":
        """Keep computed partitions around (driver-side block manager)."""
        if self._cache is None:
            self._cache = {}
        return self

    def unpersist(self) -> "RDD":
        self._cache = None
        return self

    def _check_split(self, split: int) -> None:
        if not 0 <= split < self.num_partitions:
            raise IndexError(
                f"RDD {self.id} has {self.num_partitions} partitions, asked for {split}"
            )

    # ------------------------------------------------------ transformations
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return MappedRDD(self, lambda it: [fn(x) for x in it])


class ParallelCollectionRDD(RDD):
    """An RDD born from a driver-side sequence (``sc.parallelize``)."""

    def __init__(self, context: "SparkContext", data: Sequence[Any], num_partitions: int) -> None:
        super().__init__(context, num_partitions)
        # Slicing is lazy: modeled jobs never call ``compute``, so eagerly
        # materialising one list per partition would be pure allocation
        # overhead at million-task scale.  ``data`` is driver-side and
        # immutable by convention (``parallelize`` callers hand over fresh
        # sequences), so deferred slicing reads the same values.
        self._data = data
        self._bounds = range_partition(len(data), num_partitions)

    def compute(self, split: int) -> list[Any]:
        self._check_split(split)
        lo, hi = self._bounds[split]
        return list(self._data[lo:hi])


class MappedRDD(RDD):
    """A narrow one-parent transformation: ``fn`` maps a whole parent
    partition to this RDD's partition."""

    def __init__(self, parent: RDD, fn: Callable[[list[Any]], Iterable[Any]]) -> None:
        super().__init__(parent.context, parent.num_partitions)
        self.parent = parent
        self.fn = fn

    def compute(self, split: int) -> list[Any]:
        self._check_split(split)
        return list(self.fn(self.parent.iterator(split)))


class UnionRDD(RDD):
    """Partition-wise concatenation of two parents (narrow, no shuffle)."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(left.context, left.num_partitions + right.num_partitions)
        self.left = left
        self.right = right

    def compute(self, split: int) -> list[Any]:
        self._check_split(split)
        if split < self.left.num_partitions:
            return self.left.iterator(split)
        return self.right.iterator(split - self.left.num_partitions)


class ZippedRDD(RDD):
    """Position-wise pairing of two identically-partitioned parents, like
    Spark's ``zip``."""

    def __init__(self, left: RDD, right: RDD) -> None:
        if right.num_partitions != left.num_partitions:
            raise ValueError(
                f"can only zip RDDs with the same number of partitions "
                f"({left.num_partitions} != {right.num_partitions})"
            )
        super().__init__(left.context, left.num_partitions)
        self.left = left
        self.right = right

    def compute(self, split: int) -> list[Any]:
        self._check_split(split)
        a = self.left.iterator(split)
        b = self.right.iterator(split)
        if len(a) != len(b):
            raise ValueError(
                f"cannot zip partition {split}: {len(a)} vs {len(b)} elements "
                f"(Spark requires the same number of elements per partition)"
            )
        return list(zip(a, b))


def lineage_depth(rdd: RDD) -> int:
    """Number of transformation hops back to a source RDD (diagnostics)."""
    depth = 0
    node = rdd
    while isinstance(node, MappedRDD):
        node = node.parent
        depth += 1
    return depth
