"""Recovery state: what the journal says survived a crash.

:func:`replay_journal` folds an offload journal into a
:class:`RecoveryState` — which tiles of which offload committed verified
checkpoints, so the resubmitted job schedules only the remainder.

Replay is pure and idempotent: the same journal always folds to the same
state, so recovery can be re-entered safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.resilience.journal import JournalRecord


@dataclass(frozen=True)
class TileCheckpoint:
    """One committed tile output, verifiable by key + checksum."""

    region: str
    loop: int          # the loop's ordinal in its region (with `tile`, the identity)
    loop_var: str      # informational: loops of one region may share it
    tile: int          # tile index within the loop's tiling
    lo: int            # iteration bounds the tile covered
    hi: int
    key: str           # storage key of the committed output
    checksum: str      # content/virtual checksum recorded at commit
    nbytes: int
    completed_at: float


class RecoveryState:
    """The fold of a journal: durable progress, keyed for fast lookup."""

    def __init__(self) -> None:
        #: (correlation id, loop ordinal) -> {tile index: checkpoint}.  A
        #: fused submission is one correlation (docs/TASKGRAPH.md).
        self._tiles: dict[tuple[str, int], dict[int, TileCheckpoint]] = {}

    def completed_tiles(self, correlation_id: str
                        ) -> dict[int, dict[int, TileCheckpoint]]:
        """``{loop ordinal: {tile index: checkpoint}}`` for one offload."""
        out: dict[int, dict[int, TileCheckpoint]] = {}
        for (corr, loop), tiles in self._tiles.items():
            if corr == correlation_id and tiles:
                out[loop] = dict(tiles)
        return out


def replay_journal(records: Iterable[JournalRecord]) -> RecoveryState:
    """Fold ``records`` (in journal order) into a :class:`RecoveryState`."""
    state = RecoveryState()
    for rec in records:  # every record is a tile_done (RECORD_KINDS)
        p = rec.payload
        ckpt = TileCheckpoint(
            region=str(p.get("region", "")),
            loop=int(p.get("loop", 0)),
            loop_var=str(p.get("loop_var", "")),
            tile=int(p.get("tile", -1)),
            lo=int(p.get("lo", 0)), hi=int(p.get("hi", 0)),
            key=str(p.get("key", "")),
            checksum=str(p.get("checksum", "")),
            nbytes=int(p.get("nbytes", 0)),
            completed_at=float(p.get("end", rec.time)),
        )
        if ckpt.tile >= 0 and ckpt.key:
            bucket = state._tiles.setdefault((rec.correlation_id, ckpt.loop), {})
            bucket[ckpt.tile] = ckpt
    return state
