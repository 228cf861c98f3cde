"""The Spark driver's storage hop has one structure in both execution modes.

A functional run moves real objects and a modeled run only sizes them, but
both read the same inputs, restore and commit the same checkpoints and write
the same outputs, in the same order, under the same keys."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.obs.events import EventBus, use_bus
from repro.simtime.timeline import Phase
from repro.workloads import WORKLOADS

STORAGE_PHASES = (Phase.STORAGE_READ, Phase.STORAGE_WRITE)


def _driver_hop(cloud_config, name: str, mode: ExecutionMode):
    """The ``(phase, resource, label)`` of every storage span of one
    fault-free ``recovery="resume"`` offload, and every key the driver PUT
    (the host stages its inputs on one thread per buffer, in no fixed
    order)."""
    spec = WORKLOADS[name]
    rt = OffloadRuntime()
    rt.register(CloudDevice(replace(cloud_config, recovery="resume"),
                            physical_cores=16))
    arrays = spec.inputs(spec.test_size, density=1.0, seed=0)
    if mode == ExecutionMode.MODELED:
        arrays = {nm: arr.size for nm, arr in arrays.items()}
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        report = offload(spec.build_region("CLOUD"), arrays=arrays,
                         scalars=spec.scalars(spec.test_size), runtime=rt,
                         mode=mode)
    spans = [(s.phase, s.resource, s.label) for s in report.timeline.spans
             if s.phase in STORAGE_PHASES]
    puts = [e.key for e in bus.events
            if e.kind == "storage_op" and e.op == "PUT" and "/in/" not in e.key]
    return spans, puts


@pytest.mark.parametrize("name,n_spans", [
    ("gemm", 5), ("matmul", 4), ("2mm", 7), ("3mm", 8)])
def test_driver_hop_has_the_same_structure_in_both_modes(cloud_config, name,
                                                         n_spans):
    functional = _driver_hop(cloud_config, name, ExecutionMode.FUNCTIONAL)
    modeled = _driver_hop(cloud_config, name, ExecutionMode.MODELED)
    assert len(functional[0]) == n_spans
    assert {resource for _, resource, _ in functional[0]} == {
        "driver", "cluster"}
    assert any("/ckpt/" in key for key in functional[1])
    assert functional == modeled
