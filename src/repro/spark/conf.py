"""Spark configuration.

Only the keys the paper tunes are interpreted (``spark.task.cpus``,
``spark.cores.max``, ``spark.executor.memory``) but arbitrary keys
round-trip, like real ``SparkConf``.
"""

from __future__ import annotations

from typing import Iterator


class SparkConf:
    """String key/value configuration with typed accessors.

    >>> conf = SparkConf().set("spark.task.cpus", "2")
    >>> conf.task_cpus
    2
    """

    _DEFAULTS = {
        "spark.task.cpus": "1",
        "spark.cores.max": "0",  # 0 = unlimited
        "spark.executor.memory": "40g",
        "spark.io.compression.codec": "lz4",
        "spark.broadcast.blockSize": "4m",
    }

    def __init__(self, entries: dict[str, str] | None = None) -> None:
        self._entries: dict[str, str] = dict(self._DEFAULTS)
        if entries:
            for k, v in entries.items():
                self.set(k, v)

    def set(self, key: str, value: str | int | float) -> "SparkConf":
        if not key.startswith("spark."):
            raise ValueError(f"Spark configuration keys start with 'spark.', got {key!r}")
        self._entries[key] = str(value)
        return self

    def get(self, key: str, default: str | None = None) -> str:
        if key in self._entries:
            return self._entries[key]
        if default is None:
            raise KeyError(key)
        return default

    def get_int(self, key: str, default: int = 0) -> int:
        raw = self._entries.get(key)
        return int(raw) if raw is not None else default

    def get_bytes(self, key: str, default: int = 0) -> int:
        """Parse a JVM-style size suffix (k/m/g)."""
        raw = self._entries.get(key)
        if raw is None:
            return default
        raw = raw.strip().lower()
        multipliers = {"k": 1024, "m": 1024**2, "g": 1024**3}
        if raw and raw[-1] in multipliers:
            return int(float(raw[:-1]) * multipliers[raw[-1]])
        return int(raw)

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(sorted(self._entries.items()))

    # ----------------------------------------------------- interpreted keys
    @property
    def task_cpus(self) -> int:
        """vCPUs reserved per task; the paper sets 2 (one physical core)."""
        v = self.get_int("spark.task.cpus", 1)
        if v < 1:
            raise ValueError(f"spark.task.cpus must be >= 1, got {v}")
        return v

    @property
    def cores_max(self) -> int:
        """Upper bound on vCPUs used across the cluster; 0 = no bound."""
        v = self.get_int("spark.cores.max", 0)
        if v < 0:
            raise ValueError(f"spark.cores.max must be >= 0, got {v}")
        return v

    @property
    def executor_memory_bytes(self) -> int:
        return self.get_bytes("spark.executor.memory", 40 * 1024**3)

    def copy(self) -> "SparkConf":
        return SparkConf(dict(self._entries))
