"""A job's task spans are columns: no per-task span exists until read."""

from __future__ import annotations

from repro.core.buffers import ExecutionMode
from repro.omp import CloudDevice, OffloadRuntime, demo_config, offload
from repro.simtime.timeline import Phase, Span
from repro.workloads import WORKLOADS


def _matmul(physical_cores: int):
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(16), physical_cores=physical_cores))
    spec = WORKLOADS["matmul"]
    return offload(spec.build_region("CLOUD"), scalars=spec.scalars(2048),
                   runtime=rt, mode=ExecutionMode.MODELED)


def test_no_task_span_is_built_unless_the_spans_are_read(monkeypatch):
    built = [0]
    post_init = Span.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Span, "__post_init__", counting)
    per_tasks = {}
    for cores in (64, 256):
        built[0] = 0
        report = _matmul(cores)
        per_tasks[report.tasks_run] = built[0]
    assert set(per_tasks) == {64, 256}
    # Only the offload's own host/driver spans: none per task.
    assert per_tasks[64] == per_tasks[256] < 64

    assert len(report.timeline) == 1805
    assert len(report.timeline.filter([Phase.COMPUTE])) == 256
    assert built[0] == per_tasks[256]  # counting built nothing
    spans = report.timeline.spans
    assert len(spans) == 1805
    assert sum(s.phase is Phase.COMPUTE for s in spans) == 256
