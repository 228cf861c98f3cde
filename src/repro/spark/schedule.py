"""Adaptive execution policy for the Spark substrate.

Algorithm 1's static tiling is optimal only when every worker is identical
and healthy — the very assumption the fault plans (spot preemption, executor
loss) and heterogeneous cluster configs violate.  A :class:`ScheduleConfig`
selects how far the scheduler may adapt:

* ``mode`` — ``static`` keeps the paper's ``floor(N/C)`` tiles;
  ``weighted`` sizes tiles proportionally to per-slot capacity
  (:func:`repro.core.tiling.tile_weighted`) so a slow or shrunken worker
  does not own the critical path.
* ``speculation`` / ``speculation_multiplier`` — Spark's
  ``spark.speculation`` semantics: a task running at least
  ``multiplier x median task duration`` is a straggler, and the driver
  races a speculative copy on another executor, first result wins.

The default :data:`STATIC_SCHEDULE` reproduces the paper exactly; every
adaptive feature is strictly opt-in, passed as
``CloudDevice(schedule=ScheduleConfig(...))``, so Figure 4/5 baselines are
untouched unless a caller asks otherwise.  See ``docs/SCHEDULING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Recognised tiling modes for ``ScheduleConfig.mode``.
SCHEDULE_MODES = ("static", "weighted")


@dataclass(frozen=True)
class ScheduleConfig:
    """How adaptively one Spark job is scheduled (immutable, shareable)."""

    mode: str = "static"
    speculation: bool = False
    speculation_multiplier: float = 1.5

    def __post_init__(self) -> None:
        if self.mode not in SCHEDULE_MODES:
            raise ValueError(
                f"schedule mode must be one of {SCHEDULE_MODES}, got {self.mode!r}"
            )
        if self.speculation_multiplier < 1.0:
            raise ValueError(
                "speculation_multiplier must be >= 1.0 (a task is never a "
                f"straggler before the median), got {self.speculation_multiplier!r}"
            )

    @property
    def weighted(self) -> bool:
        return self.mode == "weighted"


#: The paper's behaviour: static Algorithm-1 tiles, no speculation.  Shared immutable default.
STATIC_SCHEDULE = ScheduleConfig()
