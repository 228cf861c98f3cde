"""Bit-identity of the scaled simulation core (docs/PERFORMANCE.md).

The 10k-worker/1M-task scaling work rebuilt the hot paths — vectorized cost
synthesis, columnar task state, O(log n) executor selection, per-job task
span columns — under one contract: **no observable result changes**.  These
properties pin that contract on randomized small grids:

* a modeled offload is bit-deterministic run to run — same
  ``OffloadReport.to_dict()`` and the same journal records;
* a job's task spans held as columns (:class:`TaskSpans`) answer every
  timeline query exactly as the same spans recorded one by one do;
* the vectorized kernels agree with the scalar reference implementations
  (still shipped and exercised by the functional path) to the last bit:
  ``partition_windows`` vs :func:`partition_for_tile`,
  ``task_timing_vec`` vs :meth:`ComputeModel.task_timing`.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.exprs import parse_expr
from repro.core.omp_ast import MapType
from repro.core.partition import (PartitionSpec, partition_for_tile,
                                  partition_windows)
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.core.tiling import Tile
from repro.metrics.figures import demo_config
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.perfmodel.compute import ComputeModel
from repro.simtime.timeline import Phase, Timeline
from repro.spark.faults import FaultPlan
from repro.spark.schedule import ScheduleConfig


def _region(chunk: int | None, maps: str, flops: float) -> TargetRegion:
    """``maps`` is "to+from", or "to" / "from" alone: the other side's rows
    then move zero bytes (no scatter, or no collect)."""
    sched = f"schedule(static, {chunk})" if chunk else "schedule(static)"
    to, frm = "to" in maps, "from" in maps
    whole = [c for c, on in (("map(to: A[:N*R])", to),
                             ("map(from: C[:N*R])", frm)) if on]
    tile = [c for c, on in (("map(to: A[i*R:(i+1)*R])", to),
                            ("map(from: C[i*R:(i+1)*R])", frm)) if on]
    return TargetRegion(
        name="ident",
        pragmas=["omp target device(CLOUD)", "omp " + " ".join(whole)],
        loops=[ParallelLoop(
            pragma=f"omp parallel for {sched}",
            loop_var="i", trip_count="N",
            reads=("A",) if to else (), writes=("C",) if frm else (),
            partition_pragma="omp target data " + " ".join(tile),
            flops_per_iter=flops,
            body=None,
        )],
    )


def _offload_once(workers: int, tasks: int, r: int, density: float,
                  sigma: float, chunk: int | None, mode: str,
                  speculation: bool, ssh_failures: int,
                  maps: str = "to+from", die_at: float | None = None,
                  preempt_at: float | None = None, cores_per_worker: int = 4,
                  slow: float | None = None, flops: float = 2.5e5):
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=sigma)
    # Jobs of this grid run from about 3.4 s of simulated time: a death
    # there kills tasks mid-run (recomputed, or rescued by a speculative
    # copy); a spot preemption is such a death plus a replacement worker.
    plan = FaultPlan(
        ssh_connect_failures=ssh_failures,
        die_at={"worker-1": die_at} if die_at is not None else {},
        preempt_at={"worker-1": preempt_at} if preempt_at is not None else {})
    dev = CloudDevice(demo_config(workers),
                      physical_cores=workers * cores_per_worker,
                      calibration=cal, fault_plan=plan,
                      worker_speeds=[slow] if slow is not None else None,
                      schedule=ScheduleConfig(mode=mode,
                                              speculation=speculation))
    rt = OffloadRuntime()
    rt.register(dev)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # host fallback
        rep = offload(_region(chunk, maps, flops),
                      scalars={"N": tasks, "R": r}, runtime=rt,
                      mode=ExecutionMode.MODELED,
                      densities={"A": density, "C": density})
    journal = [dataclasses.asdict(rec) for rec in dev.journal.records()]
    for rec in journal:
        # The correlation id embeds a process-global offload counter
        # (`ident#3`, `ident#4`, ...) — session state, not run state.
        rec.pop("correlation_id", None)
    return rep, journal


GRID = dict(
    workers=st.sampled_from([1, 2, 3]),
    tasks=st.integers(min_value=1, max_value=40),
    r=st.integers(min_value=1, max_value=4),
    density=st.sampled_from([0.25, 1.0]),
    sigma=st.sampled_from([0.0, 0.3]),
    chunk=st.sampled_from([None, 1, 3]),
    mode=st.sampled_from(["static", "weighted"]),
    speculation=st.booleans(),
    ssh_failures=st.integers(min_value=0, max_value=2),
)
FAULTS = dict(
    maps=st.sampled_from(["to+from", "to", "from"]),
    die_at=st.sampled_from([None, 3.45, 3.5, 3.55, 3.8]),
    preempt_at=st.sampled_from([None, 3.5]),
    # 4 cores a worker packs the job onto one executor; 16 gives one
    # executor per worker, so a death leaves survivors to recompute on.
    cores_per_worker=st.sampled_from([4, 16]),
    # A slow worker-0 runs stragglers: speculative copies race them.
    slow=st.sampled_from([None, 0.2]),
    # Tasks far shorter than a launch all run on worker-0; long ones spread
    # over the cluster and overlap the deaths above.
    flops=st.sampled_from([2.5e5, 2.5e8]),
)


@given(**GRID, **FAULTS)
@settings(max_examples=20, deadline=None)
def test_offload_is_bit_deterministic(workers, tasks, r, density, sigma,
                                      chunk, mode, speculation, ssh_failures,
                                      maps, die_at, preempt_at,
                                      cores_per_worker, slow, flops):
    args = (workers, tasks, r, density, sigma, chunk, mode, speculation,
            ssh_failures, maps, die_at, preempt_at, cores_per_worker, slow,
            flops)
    rep_a, journal_a = _offload_once(*args)
    rep_b, journal_b = _offload_once(*args)
    assert rep_a.to_dict() == rep_b.to_dict()
    assert journal_a == journal_b
    assert rep_a.timeline.spans == rep_b.timeline.spans


@given(**GRID, **FAULTS)
@settings(max_examples=60, deadline=None)
def test_task_columns_answer_as_their_spans_do(workers, tasks, r, density,
                                               sigma, chunk, mode,
                                               speculation, ssh_failures,
                                               maps, die_at, preempt_at,
                                               cores_per_worker, slow,
                                               flops):
    rep, _ = _offload_once(workers, tasks, r, density, sigma, chunk, mode,
                           speculation, ssh_failures, maps, die_at,
                           preempt_at, cores_per_worker, slow, flops)
    _assert_columns_match(rep.timeline)


@pytest.mark.parametrize("slow, die_at", [
    (0.2, None),   # copies beat worker-0's stragglers; originals killed
    (0.2, 3.55),   # ... and a copy on the dying worker-1 is lost
    (None, 3.55),  # a copy rescues a task that died with worker-1
])
def test_task_columns_answer_as_their_spans_do_under_speculation(slow,
                                                                 die_at):
    rep, _ = _offload_once(3, 30, 2, 1.0, 0.0, None, "static", True, 0,
                           die_at=die_at, cores_per_worker=16, slow=slow,
                           flops=2.5e8)
    assert rep.speculation_wins and not rep.fell_back_to_host
    _assert_columns_match(rep.timeline)


def _assert_columns_match(timeline: Timeline) -> None:
    """Every query answers the same on ``timeline`` as on a timeline that
    records its materialised spans one by one."""
    flat = Timeline()
    for s in timeline.spans:
        flat.record(s.phase, s.start, s.end, s.resource, s.label)
    assert len(timeline) == len(flat)
    assert timeline.span() == flat.span()
    assert timeline.last_end == flat.last_end
    assert timeline.by_resource() == flat.by_resource()
    for phase in (None, *Phase):
        assert timeline.busy(phase) == flat.busy(phase), phase
        assert timeline.wall(phase) == flat.wall(phase), phase
    for phases in ([Phase.COMPUTE, Phase.JNI_CALL], *([p] for p in Phase)):
        a, b = timeline.filter(phases), flat.filter(phases)
        assert len(a) == len(b), phases
        assert a.span() == b.span(), phases
        assert a.last_end == b.last_end, phases


# ------------------------------------------------- vectorized vs scalar
@given(
    tasks=st.integers(min_value=1, max_value=60),
    r=st.integers(min_value=1, max_value=7),
    chunk=st.integers(min_value=1, max_value=5),
    off=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_partition_windows_matches_scalar_reference(tasks, r, chunk, off):
    spec = PartitionSpec(
        name="A", map_type=MapType.TO,
        lower=parse_expr(f"i*{r}+{off}"),
        upper=parse_expr(f"(i+1)*{r}+{off}"),
        loop_var="i")
    tiles = [Tile(index=j, lo=lo, hi=min(lo + chunk, tasks))
             for j, lo in enumerate(range(0, tasks, chunk))]
    lo = np.fromiter((t.lo for t in tiles), dtype=np.int64, count=len(tiles))
    hi = np.fromiter((t.hi for t in tiles), dtype=np.int64, count=len(tiles))
    wlo, whi = partition_windows(spec, lo, hi, {})
    for j, t in enumerate(tiles):
        s_lo, s_hi = partition_for_tile(spec, t, {})
        assert (int(wlo[j]), int(whi[j])) == (s_lo, s_hi)


@given(
    n=st.integers(min_value=1, max_value=50),
    sigma=st.sampled_from([0.0, 0.2, 0.7]),
    tasks_on_node=st.integers(min_value=1, max_value=64),
    slots=st.integers(min_value=1, max_value=16),
    intensity=st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False),
    jni_calls=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_task_timing_vec_matches_scalar_reference(n, sigma, tasks_on_node,
                                                  slots, intensity,
                                                  jni_calls):
    cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=sigma)
    model = ComputeModel(cal)
    flops = np.arange(1, n + 1, dtype=np.float64) * 1.25e5
    idx = np.arange(n, dtype=np.int64)
    compute_vec, jni_vec = model.task_timing_vec(
        flops, tasks_on_node, slots, intensity, idx, jni_calls=jni_calls)
    for j in range(n):
        t = model.task_timing(float(flops[j]), tasks_on_node, slots,
                              intensity, task_index=j, jni_calls=jni_calls)
        assert compute_vec[j] == t.compute_s, j
        assert jni_vec[j] == t.jni_s, j
