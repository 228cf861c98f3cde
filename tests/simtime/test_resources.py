"""SlotPool list scheduling."""

import pytest

from repro.simtime import SlotPool


def test_single_slot_serializes_tasks():
    pool = SlotPool(1)
    r1 = pool.acquire(0.0, 5.0)
    r2 = pool.acquire(0.0, 5.0)
    assert (r1.start, r1.end) == (0.0, 5.0)
    assert (r2.start, r2.end) == (5.0, 10.0)


def test_two_slots_run_in_parallel():
    pool = SlotPool(2)
    starts = [pool.acquire(0.0, 10.0).start for _ in range(3)]
    assert starts == [0.0, 0.0, 10.0]


def test_ready_time_delays_start():
    pool = SlotPool(2)
    r = pool.acquire(3.0, 1.0)
    assert r.start == 3.0


def test_earliest_available_slot_wins():
    pool = SlotPool(2)
    pool.acquire(0.0, 10.0)  # slot 0 busy till 10
    pool.acquire(0.0, 2.0)  # slot 1 busy till 2
    r = pool.acquire(0.0, 1.0)
    assert r.slot.index == 1
    assert r.start == 2.0


def test_makespan_and_earliest_free():
    pool = SlotPool(2)
    pool.acquire(0.0, 4.0)
    pool.acquire(0.0, 9.0)
    assert max(s.free_at for s in pool.slots) == 9.0
    assert pool.earliest_free() == 4.0


def test_reset_clears_state():
    pool = SlotPool(1)
    pool.acquire(0.0, 5.0)
    pool.reset(at=2.0)
    r = pool.acquire(0.0, 1.0)
    assert r.start == 2.0


def test_zero_duration_reservation():
    pool = SlotPool(1)
    r = pool.acquire(1.0, 0.0)
    assert r.duration == 0.0


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        SlotPool(1).acquire(0.0, -1.0)


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        SlotPool(0)


def test_greedy_schedule_is_work_conserving():
    """No slot idles while a task could have started earlier on it."""
    pool = SlotPool(3)
    reservations = [pool.acquire(0.0, d) for d in (5.0, 1.0, 1.0, 1.0, 1.0)]
    # Slots 1 and 2 absorb the short tasks; the long task does not block them.
    assert max(s.free_at for s in pool.slots) == pytest.approx(5.0)
    assert max(r.end for r in reservations) == pytest.approx(5.0)

