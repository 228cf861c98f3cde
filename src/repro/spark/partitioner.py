"""Range partitioning (Eq. 3 of the paper).

The driver divides ``RDD_IN`` "automatically ... in equal parts" among the
workers: worker ``w`` gets iterations ``w*floor(N/W) .. (w+1)*floor(N/W)-1``.
A literal reading strands the last ``N mod W`` iterations, so — like Spark's
``ParallelCollectionRDD.slice`` — the remainder is spread one extra element
per leading partition, preserving the paper's "equal parts" intent while
covering the whole range.  The exact-cover property is what the hypothesis
tests pin down.
"""

from __future__ import annotations


def range_partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous [lo, hi) chunks.

    Chunk sizes differ by at most one; empty chunks appear only when
    ``parts > n``.  Concatenating all chunks reproduces ``range(n)`` exactly.

    >>> range_partition(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative range ({n})")
    if parts < 1:
        raise ValueError(f"need at least one partition, got {parts}")
    base, extra = divmod(n, parts)
    out: list[tuple[int, int]] = []
    lo = 0
    for p in range(parts):
        hi = lo + base + (1 if p < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out
