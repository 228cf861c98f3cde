"""Recovery state: what the journal says survived a crash.

:func:`replay_journal` folds an offload journal into a
:class:`RecoveryState` — the durable facts a replacement driver can rely on:

* which tiles of which offload committed verified checkpoints
  (→ the resubmitted job schedules only the remainder);
* which mapped buffers still have a trustworthy device copy
  (→ ``data_begin`` re-adopts the handle instead of re-staging);
* which dirty entries were already synced back to the host
  (→ ``invalidate_data_env`` syncs each exactly once, even if recovery
  itself is interrupted and re-run).

Replay is pure and idempotent: the same journal always folds to the same
state, so recovery can be re-entered safely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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
        #: correlation id -> number of region_submit records seen.
        self.submissions: dict[str, int] = {}
        #: correlation id -> member region names of a fused submission
        #: (docs/TASKGRAPH.md): checkpoints replay against the fused job's
        #: correlation, never against the member regions on their own.
        self.fused_members: dict[str, tuple[str, ...]] = {}
        #: (correlation id, loop ordinal) -> {tile index: checkpoint}.
        self._tiles: dict[tuple[str, int], dict[int, TileCheckpoint]] = {}
        #: buffer name -> (storage key, checksum) of its live device copy.
        self._env_handles: dict[str, tuple[str, str]] = {}
        #: (buffer name, storage key) pairs already synced back to the host.
        self._synced: set[tuple[str, str]] = set()
        #: correlation id -> {output name: storage key} of committed outputs.
        self.output_commits: dict[str, dict[str, str]] = {}
        #: corruption detections recorded in the journal.
        self.corruptions: int = 0
        #: resume records seen (a resubmission picked up from checkpoints).
        self.resumes: int = 0

    # ------------------------------------------------------------------ tiles
    def completed_tiles(self, correlation_id: str
                        ) -> dict[int, dict[int, TileCheckpoint]]:
        """``{loop ordinal: {tile index: checkpoint}}`` for one offload."""
        out: dict[int, dict[int, TileCheckpoint]] = {}
        for (corr, loop), tiles in self._tiles.items():
            if corr == correlation_id and tiles:
                out[loop] = dict(tiles)
        return out

    # ----------------------------------------------------- data environments
    def env_handle(self, name: str) -> tuple[str, str] | None:
        """The (key, checksum) of ``name``'s durable device copy, if any."""
        return self._env_handles.get(name)

    def live_env_names(self) -> frozenset[str]:
        return frozenset(self._env_handles)

    def already_synced(self, name: str, key: str) -> bool:
        """Whether this dirty device copy was already synced to the host."""
        return (name, key) in self._synced


def replay_journal(records: Iterable[JournalRecord]) -> RecoveryState:
    """Fold ``records`` (in journal order) into a :class:`RecoveryState`."""
    state = RecoveryState()
    for rec in records:
        p: Mapping = rec.payload
        if rec.kind == "region_submit":
            corr = rec.correlation_id
            state.submissions[corr] = state.submissions.get(corr, 0) + 1
        elif rec.kind == "region_fused":
            state.fused_members[rec.correlation_id] = tuple(
                str(m) for m in p.get("members", ()))
        elif rec.kind == "tile_done":
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
                bucket = state._tiles.setdefault(
                    (rec.correlation_id, ckpt.loop), {})
                bucket[ckpt.tile] = ckpt
        elif rec.kind == "output_commit":
            name = str(p.get("name", ""))
            key = str(p.get("key", ""))
            if name and key:
                outs = state.output_commits.setdefault(rec.correlation_id, {})
                outs[name] = key
                # A committed output *is* that buffer's device copy now
                # (data_end defers downloads for persistent mappings).
                state._env_handles[name] = (key, str(p.get("checksum", "")))
        elif rec.kind == "env_enter" or rec.kind == "env_update":
            name = str(p.get("name", ""))
            key = str(p.get("key", ""))
            if name and key:
                state._env_handles[name] = (key, str(p.get("checksum", "")))
        elif rec.kind == "env_exit":
            state._env_handles.pop(str(p.get("name", "")), None)
        elif rec.kind == "env_sync":
            name = str(p.get("name", ""))
            key = str(p.get("key", ""))
            if name and key:
                state._synced.add((name, key))
        elif rec.kind == "resume":
            state.resumes += 1
        elif rec.kind == "corruption":
            state.corruptions += 1
    return state
