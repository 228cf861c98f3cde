"""Broadcast variables.

Unpartitioned inputs (matrix ``B`` in the paper's running example) are sent
to every worker node once: "the communication overhead will be limited by the
efficiency of BitTorrent protocol used by Spark to broadcast variables".  The
value lives on the driver; executors receive a reference and the network cost
model charges one BitTorrent distribution per job that reads it.
"""

from __future__ import annotations

import itertools
from typing import Generic, TypeVar

T = TypeVar("T")


class Broadcast(Generic[T]):
    """A read-only variable shipped once per node.

    ``nbytes`` drives the cost model: the caller prices the wire payload
    (the codegen passes the compressed size; a modeled job has no value).
    """

    _ids = itertools.count()

    def __init__(self, value: T, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative broadcast size {nbytes!r}")
        self.id = next(Broadcast._ids)
        self.value = value
        self.nbytes = nbytes
        #: Nodes that already hold the blocks (filled in by the scheduler).
        self.nodes_seeded: set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Broadcast(id={self.id}, nbytes={self.nbytes})"
