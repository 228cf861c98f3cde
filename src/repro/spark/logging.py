"""Spark log streaming.

"Additionally, the user can choose to print the log messages of Spark to the
standard output of the host computer to check the current state of the
computation."  Components append structured records to a :class:`SparkLog`;
the cloud plugin relays them to stdout when the configuration sets
``verbose = true``.  Log lines carry the *simulated* timestamp, so the stream
reads like a real driver log.

Every record is also mirrored onto the process event bus as a
:class:`~repro.obs.events.LogEvent`, so traces and ``verbose=true`` output
stay consistent; conversely a :class:`~repro.obs.subscribers.SparkLogSink`
can rebuild a SparkLog purely from the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.obs.events import LogEvent, get_bus

#: Minimum-severity ordering used by :meth:`SparkLog.lines`.
LEVELS = ("DEBUG", "INFO", "WARN", "ERROR")
_SEVERITY = {name: i for i, name in enumerate(LEVELS)}


@dataclass(frozen=True)
class LogRecord:
    time: float
    level: str
    component: str
    message: str

    def format(self) -> str:
        return f"{self.time:10.3f} {self.level:<5} {self.component:<12} {self.message}"


@dataclass
class SparkLog:
    """Append-only log with optional live sinks."""

    records: list[LogRecord] = field(default_factory=list)
    sinks: list[Callable[[str], None]] = field(default_factory=list)

    def log(self, time: float, component: str, message: str, level: str = "INFO") -> None:
        self.append_record(time, component, message, level)
        # Mirror onto the bus; resource names this log so a SparkLogSink
        # subscribed to the same bus does not echo our own records back.
        get_bus().emit(LogEvent(time=time, resource=f"sparklog-{id(self)}",
                                level=level, component=component,
                                message=message))

    def append_record(self, time: float, component: str, message: str,
                      level: str = "INFO") -> None:
        """Append without re-publishing (sink path; avoids bus echo loops)."""
        rec = LogRecord(time=time, level=level, component=component, message=message)
        self.records.append(rec)
        for sink in self.sinks:
            sink(rec.format())

    def debug(self, time: float, component: str, message: str) -> None:
        self.log(time, component, message, "DEBUG")

    def info(self, time: float, component: str, message: str) -> None:
        self.log(time, component, message, "INFO")

    def warn(self, time: float, component: str, message: str) -> None:
        self.log(time, component, message, "WARN")

    def error(self, time: float, component: str, message: str) -> None:
        self.log(time, component, message, "ERROR")

    def lines(self, component: str | None = None,
              level: str | None = None) -> Iterable[str]:
        """Formatted records, optionally filtered by component and by
        *minimum* severity (``level="WARN"`` yields WARN and ERROR)."""
        threshold = None
        if level is not None:
            if level not in _SEVERITY:
                raise ValueError(f"unknown log level {level!r}; use one of {LEVELS}")
            threshold = _SEVERITY[level]
        for rec in self.records:
            if component is not None and rec.component != component:
                continue
            if threshold is not None and _SEVERITY.get(rec.level, 0) < threshold:
                continue
            yield rec.format()

    def __len__(self) -> int:
        return len(self.records)
