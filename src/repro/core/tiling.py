"""Algorithm 1: tiling the parallel loop to the cluster size.

"Since each iteration will require one call to JNI, the closer the number of
iterations is to the number of cores, the smaller will be the overhead."  The
transformed loop runs ``ii`` over tiles of size ``floor(N/C)``:

    for ii = 0 to N-1 by floor(N/C):
        for i = ii to min(ii + floor(N/C) - 1, N-1):
            loopbody

The total core count C "is passed as an argument when Spark is calling the
map functions to avoid any recompilation when executing on different
clusters" — here, ``tile_iterations`` is evaluated at job-generation time
with the live cluster's core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Tile:
    """One tile: iterations [lo, hi) of the original loop.

    ``lo == hi`` is a legal *empty* tile: it denotes zero iterations, the
    way ``range_partition(n, parts)`` yields empty chunks when ``parts > n``.
    Empty tiles are values, not work — the job generator drops them (via
    :func:`drop_empty_tiles`) before any task is built, so no launch, JNI
    call, or transfer is ever charged for one.
    """

    index: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError(f"bad tile bounds [{self.lo}, {self.hi})")

    @staticmethod
    def _unchecked(index: int, lo: int, hi: int) -> "Tile":
        """Build a tile bypassing dataclass ``__init__``.

        The frozen-dataclass constructor costs three ``object.__setattr__``
        calls plus validation per tile; bulk tilers whose bounds are valid by
        construction (``0 <= lo <= hi`` falls out of the loop structure) use
        this to stay cheap at million-tile counts.  Equality/hash/repr are
        field-based, so the result is indistinguishable from ``Tile(...)``.
        """
        t = object.__new__(Tile)
        d = t.__dict__
        d["index"] = index
        d["lo"] = lo
        d["hi"] = hi
        return t

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def iterations(self) -> range:
        return range(self.lo, self.hi)


def tile_iterations(n: int, cores: int) -> list[Tile]:
    """Transcription of Algorithm 1.

    Tiles are ``floor(N/C)`` wide; because N rarely divides C exactly, the
    trailing remainder becomes one extra (smaller) tile — the algorithm's
    ``min(ii + floor(N/C) - 1, N-1)`` upper clamp.  When ``C >= N`` the tile
    width clamps to 1 (one iteration per task; no fewer is possible).

    >>> [(t.lo, t.hi) for t in tile_iterations(10, 4)]
    [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    """
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    if cores < 1:
        raise ValueError(f"need at least one core, got {cores!r}")
    if n == 0:
        return []
    width = max(1, n // cores)
    tiles = []
    index = 0
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        tiles.append(Tile(index=index, lo=lo, hi=hi))
        index += 1
    return tiles


def untiled(n: int) -> list[Tile]:
    """The original loop: one tile per iteration (the ablation baseline —
    every iteration pays a JNI call and a task launch)."""
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    mk = Tile._unchecked
    return [mk(i, i, i + 1) for i in range(n)]


def tile_weighted(n: int, capacities: Sequence[float]) -> list[Tile]:
    """Capacity-aware tiling — schedule mode ``weighted``.

    Algorithm 1 sizes every tile to ``floor(N/C)`` because it assumes C
    identical, healthy cores.  On a heterogeneous or degraded cluster the
    slowest slot then owns the critical path.  Here ``capacities`` carries
    one relative speed per task slot (cluster order:
    :meth:`~repro.spark.cluster.SparkCluster.slot_capacities`), and the
    iteration space is split at the cumulative-capacity boundaries

        bound_k = round(N * (c_1 + ... + c_k) / total)

    — Eq. 3's widened partition bounds, with capacity replacing the uniform
    tile width.  The boundaries are monotone by construction, so the tiles
    partition ``[0, N)`` exactly, with no overlap; a zero-capacity slot
    contributes no boundary movement and therefore gets no tile.  Empty
    tiles are dropped and indices renumbered contiguously.

    >>> [(t.lo, t.hi) for t in tile_weighted(10, [1.0, 1.0, 0.5])]
    [(0, 4), (4, 8), (8, 10)]
    """
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    caps = [float(c) for c in capacities]
    if not caps:
        raise ValueError("tile_weighted needs at least one slot capacity")
    if any(not math.isfinite(c) or c < 0.0 for c in caps):
        raise ValueError(f"slot capacities must be finite and >= 0, got {caps!r}")
    total = sum(caps)
    if total <= 0.0:
        raise ValueError("total slot capacity must be > 0")
    if n == 0:
        return []
    bounds = [0]
    cum = 0.0
    for c in caps:
        cum += c
        bounds.append(min(n, round(n * cum / total)))
    bounds[-1] = n  # float round-off must never drop trailing iterations
    tiles: list[Tile] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            tiles.append(Tile(index=len(tiles), lo=lo, hi=hi))
    return tiles


def drop_empty_tiles(tiles: Iterable[Tile]) -> list[Tile]:
    """Remove zero-size tiles and renumber indices contiguously.

    The scheduler-facing half of the empty-tile contract (see
    :class:`Tile`): an empty tile is representable but never schedulable.
    """
    out: list[Tile] = []
    for t in tiles:
        if t.size > 0:
            out.append(t if t.index == len(out)
                       else Tile(index=len(out), lo=t.lo, hi=t.hi))
    return out


def tiles_cover(tiles: list[Tile], n: int) -> bool:
    """True when the tiles partition ``range(n)`` exactly (test invariant).

    Empty tiles are ignored: they contribute no iterations, so they can sit
    anywhere without breaking the cover.
    """
    covered: list[tuple[int, int]] = sorted(
        (t.lo, t.hi) for t in tiles if t.size > 0)
    cursor = 0
    for lo, hi in covered:
        if lo != cursor:
            return False
        cursor = hi
    return cursor == n


def tile_by_chunk(n: int, chunk: int) -> list[Tile]:
    """Fixed-width tiles for an explicit ``schedule(static|dynamic, chunk)``.

    OpenMP's chunked schedules override Algorithm 1's cluster-size width: the
    programmer trades per-task overhead for finer-grained load balancing.
    The tiles are contiguous, non-empty and indexed from 0, so they need no
    :func:`drop_empty_tiles` pass.
    """
    if n < 0:
        raise ValueError(f"negative trip count {n!r}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk!r}")
    mk = Tile._unchecked
    last = n - chunk
    return [mk(index, lo, lo + chunk if lo <= last else n)
            for index, lo in enumerate(range(0, n, chunk))]
