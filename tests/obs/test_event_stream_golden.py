"""Golden event streams: what a per-event subscriber (and the recorded
history) sees, pinned before task events became columnar batches.

Every digest below was computed at the commit *preceding* batch delivery,
from ``[e.to_dict() for e in bus.events]``: kinds, every field, ``span_id`` /
``parent_id`` and order.  Batching must be invisible here — a run of task rows
is flushed before any ordinary ``emit``, so ``TaskSpeculated`` /
``SpeculationWon`` / ``ExecutorLost`` and whatever a functional run emits
between two jobs land exactly where they always did.

Two things are normalised, nothing else:

* process-global identities (``sparklog-<id>``, ``broadcast-<n>``);
* the loop component of a tile-checkpoint key (``…/ckpt/<loop>/<tile>.bin``):
  the PR that introduced batching also re-keyed checkpoints by the loop's
  ordinal in the region instead of its variable name (two loops of one region
  may share a variable — ``tests/resilience/test_checkpoint_keys.py``).
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import replace

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.obs.events import EventBus, use_bus
from repro.simtime.timeline import Phase
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.spark.schedule import ScheduleConfig
from repro.workloads import WORKLOADS
from repro.workloads.polybench import mm3_chain_regions


def _lines(events: list[dict]) -> list[str]:
    out = []
    for d in events:
        line = json.dumps(d, sort_keys=True, default=repr)
        line = re.sub(r"(broadcast|sparklog)-\d+", r"\1", line)
        out.append(re.sub(r"/ckpt/[^/]+/", "/ckpt/<loop>/", line))
    return out


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ordered_digest(bus: EventBus) -> str:
    return _sha(_lines([e.to_dict() for e in bus.events]))


def _matmul(cloud_config, bus=None, **device_kwargs):
    spec = WORKLOADS["matmul"]
    rt = OffloadRuntime()
    rt.register(CloudDevice(cloud_config, physical_cores=32, **device_kwargs))
    with use_bus(bus if bus is not None else EventBus()):
        return offload(spec.build_region("CLOUD"), scalars=spec.scalars(800),
                       runtime=rt, mode=ExecutionMode.MODELED)


def test_modeled_preemption_with_speculation(cloud_config):
    """A spot preemption mid-task, rescued by a speculative copy:
    ``executor_lost`` / ``task_speculated`` / ``speculation_won`` /
    ``preemption`` / ``recovery`` interleave with the task events."""
    dry = _matmul(cloud_config, fault_plan=NO_FAULTS)
    victim = max((s for s in dry.timeline.spans if s.phase is Phase.COMPUTE),
                 key=lambda s: (s.start, s.resource))
    plan = FaultPlan(preempt_at={
        victim.resource: victim.start + 0.9 * victim.duration})
    bus = EventBus(keep_history=True)
    rep = _matmul(cloud_config, bus, fault_plan=plan,
                  schedule=ScheduleConfig(speculation=True))
    assert rep.speculation_wins >= 1 and rep.preemptions >= 1
    counts = bus.counts()
    assert counts["speculation_won"] >= 1 and counts["executor_lost"] >= 1
    assert _ordered_digest(bus) == (
        "6824a3e7c28e345519967086e1dbbd5be201b483db6306774653efdadd00b27e")


def test_modeled_straggler_speculation_on_a_slow_worker(cloud_config):
    """One worker at 5 % speed (``worker_speeds``): every slow task is
    re-raced, so speculation events sit between most pairs of task events
    and ``duration_s`` differs per worker."""
    bus = EventBus(keep_history=True)
    rep = _matmul(cloud_config, bus, worker_speeds=[1.0, 0.05],
                  schedule=ScheduleConfig(speculation=True))
    assert rep.tasks_speculated >= 1 and rep.speculation_wins >= 1
    assert _ordered_digest(bus) == (
        "693e19135e0ddce1bea41b50e0b55c6b745f17a44388329a2d8e01b59c1c91cd")


def test_functional_gemm_resumes_after_driver_death(cloud_config):
    """Functional ``recovery="resume"`` gemm with a driver death mid-wave:
    real closures run inside the scheduler, and checkpoint commits, storage
    ops and log records are emitted between the two jobs' task runs.

    The staging threads race for span ids and emission order, so the whole
    stream is compared order-free and without ``span_id``; the deterministic
    part — first ``ssh_connect`` to last ``spark_submit``, i.e. both jobs —
    is compared in order, span ids rebased to its first event.

    Re-pinned once, for one reason: the host prices its deflate and
    inflate by the device's ``min_compress_size`` (256 B here) instead of
    the 1 MiB calibration default, so every time after the first upload
    moved.  With every float field blanked, both digests are the values the
    commit before this change produces too."""
    spec = WORKLOADS["gemm"]
    config = replace(cloud_config, recovery="resume")

    def run(plan: FaultPlan):
        rt = OffloadRuntime()
        rt.register(CloudDevice(config, physical_cores=16, fault_plan=plan))
        arrays = spec.inputs(spec.test_size, density=1.0, seed=0)
        bus = EventBus(keep_history=True)
        with use_bus(bus), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = offload(spec.build_region("CLOUD"), arrays=arrays,
                          scalars=spec.scalars(spec.test_size), runtime=rt)
        return rt, bus, rep

    dry_rt, _, _ = run(NO_FAULTS)
    ends = sorted(r.payload["end"]
                  for r in dry_rt.device("CLOUD").journal.records("tile_done"))
    _, bus, rep = run(FaultPlan(driver_dies_at=ends[len(ends) // 2]))
    assert rep.resumes == 1 and rep.tiles_skipped >= 1

    events = [e.to_dict() for e in bus.events]
    kinds = [e["kind"] for e in events]
    lo = kinds.index("ssh_connect")
    hi = len(kinds) - kinds[::-1].index("spark_submit")
    window = [dict(e, span_id=e["span_id"] - events[lo]["span_id"])
              for e in events[lo:hi]]
    assert {"checkpoint_commit", "task_end", "resubmit"} <= set(kinds[lo:hi])
    for e in events:
        del e["span_id"]
    assert _sha(_lines(window)) == (
        "fcf175e597bccabed11b9391c6eb3e7fa7d0aad723e0b5b669032eceec3b8088")
    assert _sha(sorted(_lines(events))) == (
        "8caf95379941bbe46b654a9ca335f50486d5c27588bd665565cc43b1389584af")


def test_modeled_fused_chained_3mm(cloud_config):
    """Three ``nowait`` regions fused into one Spark job inside a
    ``target data`` environment: three labelled map stages, one job.

    Re-pinned once, for the reason given in
    :func:`test_functional_gemm_resumes_after_driver_death`; only float
    (time) fields moved."""
    n = WORKLOADS["3mm"].test_size
    names = "ABCDEFG"
    rt = OffloadRuntime()
    rt.register(CloudDevice(cloud_config, physical_cores=16))
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        with rt.target_data(device="CLOUD",
                            map_to={v: n * n for v in "ABCD"},
                            map_alloc={"E": n * n, "F": n * n},
                            mode=ExecutionMode.MODELED):
            for region in mm3_chain_regions("CLOUD"):
                offload(region, scalars={"N": n}, runtime=rt, nowait=True,
                        mode=ExecutionMode.MODELED,
                        lengths={v: n * n for v in names})
            reports = rt.taskwait()
    assert reports[0].fused_regions == 3
    assert bus.counts()["region_fused"] == 1
    assert _ordered_digest(bus) == (
        "1c13021c77fbebb3259643c47c651d35ce821802b3aaf2934ce514cd9f73d990")
