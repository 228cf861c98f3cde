"""Resource pools for deterministic list scheduling in simulated time.

The Spark driver in this reproduction assigns map/reduce tasks to executor
*core slots*.  A :class:`SlotPool` models a group of identical slots (e.g. the
16 physical cores of one c3.8xlarge worker); ``acquire`` implements
earliest-available-slot list scheduling, which is exactly what a greedy
work-queue scheduler (like Spark's) converges to for independent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Slot:
    """One schedulable unit (a physical core, a network lane, ...)."""

    index: int
    free_at: float = 0.0


@dataclass
class Reservation:
    """Outcome of scheduling one task onto a slot."""

    slot: Slot
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SlotPool:
    """A pool of identical slots with earliest-available allocation.

    >>> pool = SlotPool(2)
    >>> [pool.acquire(0.0, 10.0).start for _ in range(3)]
    [0.0, 0.0, 10.0]
    """

    def __init__(self, n_slots: int, label: str = "") -> None:
        if n_slots <= 0:
            raise ValueError(f"pool needs at least one slot, got {n_slots}")
        self.label = label
        self.slots = [Slot(index=i) for i in range(n_slots)]
        self._earliest: float | None = 0.0

    def __len__(self) -> int:
        return len(self.slots)

    def acquire(self, ready_at: float, duration: float) -> Reservation:
        """Reserve the slot that can start a ``duration``-second task soonest.

        ``ready_at`` is when the task becomes runnable (its inputs are
        available); the chosen slot may itself be free earlier or later.

        Selection key is ``(max(free_at, ready_at), index)``.  Any slot
        already free at ``ready_at`` has key ``(ready_at, index)``, which
        beats every still-busy slot — so the first free slot in index order
        wins and the scan short-circuits; otherwise the earliest-free slot
        (lowest index on ties) is chosen.
        """
        if duration < 0.0:
            raise ValueError(f"negative duration {duration!r}")
        chosen: Slot | None = None
        best_f = float("inf")
        for s in self.slots:
            f = s.free_at
            if f <= ready_at:
                chosen = s
                break
            if f < best_f:
                chosen, best_f = s, f
        assert chosen is not None
        start = chosen.free_at if chosen.free_at > ready_at else ready_at
        end = start + duration
        chosen.free_at = end
        self._earliest = None
        return Reservation(slot=chosen, start=start, end=end)

    def earliest_free(self) -> float:
        """Time at which the first slot becomes idle (cached between acquires)."""
        e = self._earliest
        if e is None:
            # Plain loop: ~3x faster than min()-over-genexpr on the small
            # slot counts (8-32) pools have, and this runs twice per task.
            e = self.slots[0].free_at
            for s in self.slots:
                f = s.free_at
                if f < e:
                    e = f
            self._earliest = e
        return e

    def invalidate_cache(self) -> None:
        """Call after mutating ``slot.free_at`` directly (e.g. worker death)."""
        self._earliest = None

    def reset(self, at: float = 0.0) -> None:
        """Release all slots at time ``at``."""
        for s in self.slots:
            s.free_at = at
        self._earliest = at
