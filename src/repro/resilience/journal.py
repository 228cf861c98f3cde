"""Write-ahead offload journal: crash-consistent records of offload progress.

The journal is the checkpoint log of ``recovery = "resume"``: the Spark job
appends one ``tile_done`` record per tile output it commits to storage,
keyed by the offload's correlation id.  After a driver death the standby
driver replays the journal (:meth:`OffloadJournal.replay`) and schedules
only the tiles whose committed checkpoints it can still verify.

Records serialize to JSON Lines.  Each line carries a monotonically
increasing sequence number and a CRC over its own canonical encoding, so a
journal truncated mid-write (a torn tail — the classic crash artifact) is
detected and the damaged suffix is dropped instead of poisoning recovery:
:meth:`OffloadJournal.from_lines` keeps the longest valid prefix.

Everything is in-memory and deterministic; ``dump``/``from_lines`` exist so
the chaos harness can persist journals as CI artifacts and tests can
round-trip them through real crash-shaped corruption.
"""

from __future__ import annotations

import itertools
import json
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

#: Every record kind the journal accepts: a resume replays nothing else.
#: Unknown kinds are rejected at write time so a typo fails fast.
RECORD_KINDS = frozenset({
    "tile_done",       # one tile's output was committed to storage
})


def _crc(payload: str) -> int:
    return zlib.crc32(payload.encode()) & 0xFFFFFFFF


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry.  ``payload`` is kind-specific detail (tile bounds,
    storage key, checksum...); ``correlation_id`` ties the record to one
    offload (``"<region>#<seq>"``, as stamped by the event bus)."""

    seq: int
    kind: str
    correlation_id: str
    time: float
    payload: Mapping[str, Any] = field(default_factory=dict)

    def _body(self) -> str:
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, "corr": self.correlation_id,
             "time": self.time, "payload": dict(self.payload)},
            sort_keys=True, separators=(",", ":"),
        )

    def encode(self) -> str:
        """One JSONL line, CRC-sealed against torn or bit-flipped writes."""
        body = self._body()
        return json.dumps({"crc": _crc(body), "rec": body},
                          separators=(",", ":"))

    @classmethod
    def decode(cls, line: str) -> "JournalRecord | None":
        """Parse one line; ``None`` for anything damaged (bad JSON, missing
        fields, CRC mismatch) — the caller decides how much tail to drop."""
        try:
            outer = json.loads(line)
            body = outer["rec"]
            if _crc(body) != outer["crc"]:
                return None
            raw = json.loads(body)
            kind = raw["kind"]
            if kind not in RECORD_KINDS:
                return None
            return cls(seq=int(raw["seq"]), kind=kind,
                       correlation_id=str(raw["corr"]),
                       time=float(raw["time"]),
                       payload=dict(raw.get("payload", {})))
        except (ValueError, KeyError, TypeError):
            return None


class OffloadJournal:
    """Append-only, thread-safe record log for one device.

    Thread-safe: each append is atomic and sequence numbers stay strictly
    increasing whichever thread appends.
    """

    def __init__(self) -> None:
        self._records: list[JournalRecord] = []
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    def record(self, kind: str, correlation_id: str = "",
               time: float = 0.0, **payload: Any) -> JournalRecord:
        """Append one record and return it."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        with self._lock:
            rec = JournalRecord(seq=next(self._seq), kind=kind,
                                correlation_id=correlation_id,
                                time=time, payload=payload)
            self._records.append(rec)
        return rec

    def records(self, kind: str | None = None) -> list[JournalRecord]:
        with self._lock:
            recs = list(self._records)
        if kind is not None:
            recs = [r for r in recs if r.kind == kind]
        return recs

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.records())

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # ------------------------------------------------------------ persistence
    def lines(self) -> list[str]:
        """The journal as JSONL lines (CRC-sealed, ready to write out)."""
        return [r.encode() for r in self.records()]

    def dump(self, path: str) -> None:
        """Write the journal to ``path`` as JSONL (chaos-harness artifacts)."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "OffloadJournal":
        """Rebuild a journal from JSONL, keeping the longest valid prefix.

        A record that fails to decode — or whose sequence number does not
        follow its predecessor — marks the torn tail: it and everything
        after it are dropped.  This is the crash-consistency contract: a
        partially flushed journal yields a consistent (if shorter) history,
        never a corrupted one.
        """
        journal = cls()
        last_seq = 0
        kept: list[JournalRecord] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec = JournalRecord.decode(line)
            if rec is None or rec.seq <= last_seq:
                break
            kept.append(rec)
            last_seq = rec.seq
        journal._records = kept
        journal._seq = itertools.count(last_seq + 1)
        return journal

    # --------------------------------------------------------------- recovery
    def replay(self) -> "RecoveryState":
        """Fold the journal into the recovery view of durable state."""
        from repro.resilience.recovery import replay_journal
        return replay_journal(self.records())
