"""Device data environments.

The target-agnostic wrapper of the accelerator model manages "the creation of
devices' data environments": for each mapped host variable, a device-side
entry with a reference count, created at ``tgt_data_begin`` and released —
copying outputs back — at ``tgt_data_end``.  The bookkeeping is shared by the
host and cloud plugins; only the transport differs.

Two kinds of entry coexist, exactly as in libomptarget's mapping table:

* *transient* entries, created by a ``target`` construct's ``data_begin`` and
  released by its ``data_end`` (lifetime = one offload);
* *persistent* entries, created by ``target data`` / ``target enter data``
  (:meth:`DataEnvironment.begin` with ``persistent=True``) and released only
  by the matching exit.  A ``target`` inside the environment merely bumps the
  reference count; the plugin skips the transfer and reuses the entry's
  ``device_handle`` (a cloud storage key, a host array...) in place.

Host identity is *data* identity, not wrapper identity: the front end builds
a fresh :class:`~repro.core.buffers.Buffer` per offload, so two wrappers
around the same ndarray (or two virtual buffers with the same description)
denote the same host variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.buffers import Buffer
from repro.core.omp_ast import MapType
from repro.simtime.timeline import Timeline


class DataEnvError(Exception):
    """Mapping protocol violation (unbalanced begin/end, unknown variable)."""


@dataclass
class MapEntry:
    """One host-variable <-> device-copy association."""

    buffer: Buffer
    map_type: MapType
    device_handle: Any = None  # plugin-specific: storage key, ndarray copy, ...
    ref_count: int = 1
    dirty: bool = False  # device copy diverged from host (needs copy-back)
    persistent: bool = False  # created by target data / enter data


def _same_host_variable(a: Buffer, b: Buffer) -> bool:
    """Do two buffer wrappers denote the same host variable?

    Real buffers: the same backing ndarray.  Virtual buffers carry no
    storage, so identity is their full description (the same convention as
    :meth:`~repro.core.staging_cache.CacheKey.for_buffer`).
    """
    if a is b:
        return True
    if a.is_virtual != b.is_virtual:
        return False
    if a.is_virtual:
        return (a.name == b.name and a.length == b.length
                and a.dtype == b.dtype and a.density == b.density)
    return a.data is b.data


class DataEnvironment:
    """The set of live map entries on one device."""

    def __init__(self, device_name: str) -> None:
        self.device_name = device_name
        self._entries: dict[str, MapEntry] = {}
        self.begun = 0
        self.ended = 0

    def begin(self, buffer: Buffer, map_type: MapType,
              persistent: bool = False) -> MapEntry:
        """Enter a mapping (``tgt_data_begin``): create or re-reference."""
        self.begun += 1
        entry = self._entries.get(buffer.name)
        if entry is not None:
            if not _same_host_variable(entry.buffer, buffer):
                raise DataEnvError(
                    f"{buffer.name!r} is already mapped to a different host buffer "
                    f"on {self.device_name}"
                )
            entry.ref_count += 1
            # A persistent entry keeps the map type its construct declared:
            # the enclosing `target data` decides the exit transfers, not the
            # inner targets that reference it.
            if not entry.persistent and map_type != entry.map_type:
                entry.map_type = MapType.TOFROM
            return entry
        entry = MapEntry(buffer=buffer, map_type=map_type, persistent=persistent)
        self._entries[buffer.name] = entry
        return entry

    def end(self, name: str) -> MapEntry | None:
        """Leave a mapping (``tgt_data_end``); returns the entry when its
        reference count hits zero (i.e. copy-back time), else None."""
        self.ended += 1
        entry = self._entries.get(name)
        if entry is None:
            raise DataEnvError(f"{name!r} is not mapped on {self.device_name}")
        entry.ref_count -= 1
        if entry.ref_count > 0:
            return None
        del self._entries[name]
        return entry

    def lookup(self, name: str) -> MapEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise DataEnvError(f"{name!r} is not mapped on {self.device_name}")
        return entry

    def entry_or_none(self, name: str) -> MapEntry | None:
        return self._entries.get(name)

    def is_mapped(self, name: str) -> bool:
        return name in self._entries

    def ref_count(self, name: str) -> int:
        """Current reference count of ``name`` (0 when not mapped)."""
        entry = self._entries.get(name)
        return 0 if entry is None else entry.ref_count

    def live_entries(self) -> list[MapEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class DataEnvReport:
    """Transfer accounting of one ``target data`` environment.

    Mirrors the transfer fields of :class:`~repro.core.report.OffloadReport`
    for the enter/exit/update traffic the environment itself moves (the
    offloads inside it keep their own reports).  ``retries``/``backoff_s``/
    ``timeline`` make it duck-compatible with the cloud plugin's retry
    accounting helpers.
    """

    device_name: str
    mode: str
    timeline: Timeline = field(default_factory=Timeline)
    bytes_up_raw: int = 0
    bytes_up_wire: int = 0
    bytes_down_raw: int = 0
    bytes_down_wire: int = 0
    enter_s: float = 0.0
    exit_s: float = 0.0
    update_s: float = 0.0
    updates_to: int = 0
    updates_from: int = 0
    resident_hits: int = 0  # nested enters that found the entry present
    retries: int = 0
    backoff_s: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "device": self.device_name,
            "mode": self.mode,
            "bytes_up_raw": self.bytes_up_raw,
            "bytes_up_wire": self.bytes_up_wire,
            "bytes_down_raw": self.bytes_down_raw,
            "bytes_down_wire": self.bytes_down_wire,
            "enter_s": self.enter_s,
            "exit_s": self.exit_s,
            "update_s": self.update_s,
            "updates_to": self.updates_to,
            "updates_from": self.updates_from,
            "resident_hits": self.resident_hits,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
        }
