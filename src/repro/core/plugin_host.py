"""Host device: the fallback target.

When a region names no device, or the cloud is unreachable, the loops run on
the initial device.  Execution semantics are kept deliberately identical to
the worker-side semantics of the cloud path (zero-initialized ``from``
outputs, identity-initialized reduction partials merged with the original
value) so that functional tests can assert host ≡ cloud bit-for-bit.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from repro.core.api import TargetRegion
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.device import Device, DeviceError
from repro.core.omp_ast import REDUCTION_OPS, MapType
from repro.core.report import OffloadReport
from repro.obs.events import ResidentHit, TaskEnd, TaskStart, get_bus
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compute import ComputeModel


class HostDevice(Device):
    """The initial device: sequential native execution."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION) -> None:
        super().__init__(name="HOST")
        self.compute_model = ComputeModel(calibration)

    def _do_initialize(self) -> None:
        pass

    def is_available(self) -> bool:
        return True

    def offload(
        self,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        mode: ExecutionMode,
    ) -> OffloadReport:
        report = OffloadReport(region_name=region.name, device_name=self.name,
                               mode=mode.value)
        bus = get_bus()
        mapped = {i.name for c in region.maps for i in c.items}
        for name in mapped:
            resident = self.env.is_mapped(name)
            self.env.begin(buffers[name], region.map_type_of(name) or MapType.TOFROM)
            if resident:
                # Presence semantics hold on the host too, but its "device
                # copy" IS the host array, so nothing was ever retransferred.
                report.resident_hits += 1
                bus.emit(ResidentHit(resource=self.name, device=self.name,
                                     buffer=name, bytes_saved=0))
        try:
            total_flops = 0.0
            local_arrays: dict[str, np.ndarray] = {}
            for loop in region.loops:
                n = loop.trip_count_value(scalars)
                total_flops += loop.tile_flops(0, n, scalars)
                if mode == ExecutionMode.FUNCTIONAL:
                    self._run_loop(loop, n, region, buffers, scalars, local_arrays)
            # Sequential native time: the Figure-4 speedup baseline.
            seq = self.compute_model.sequential_time(total_flops)
            report.computation_s = seq
            report.spark_job_s = seq  # no cluster: the "job" is the computation
            # The host runs the whole region as one sequential "task".
            report.tasks_run = 1
            bus.emit(TaskStart(time=0.0, resource="host", task_id=0, worker="host"))
            bus.emit(TaskEnd(time=seq, resource="host", task_id=0, worker="host",
                             duration_s=seq))
        finally:
            for name in mapped:
                self.env.end(name)
        return report

    # -------------------------------------------------------------- internals
    def _run_loop(
        self,
        loop,
        n: int,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        local_arrays: dict[str, np.ndarray],
    ) -> None:
        if loop.body is None:
            raise DeviceError(
                f"loop over {loop.loop_var!r} in region {region.name!r} has no body; "
                f"functional execution is impossible"
            )
        arrays: dict[str, object] = {}
        staging: list[tuple[str, np.ndarray, str]] = []  # (name, scratch, kind)
        reductions = loop.reduction_vars

        for name in dict.fromkeys((*loop.reads, *loop.writes)):
            host = self._array_for(name, region, buffers, scalars, local_arrays)
            writes = name in loop.writes
            if not writes:
                arrays[name] = host
                continue
            if name in reductions:
                identity, _ = REDUCTION_OPS[reductions[name]]
                scratch = np.full_like(host, identity)
                arrays[name] = scratch
                staging.append((name, scratch, "reduction"))
            elif (region.map_type_of(name) or MapType.TOFROM) == MapType.FROM \
                    and name not in region.locals_:
                scratch = np.zeros_like(host)
                arrays[name] = scratch
                staging.append((name, scratch, "overwrite"))
            else:
                arrays[name] = host  # tofrom / locals: update in place

        loop.body(0, n, arrays, scalars)

        for name, scratch, kind in staging:
            host = self._array_for(name, region, buffers, scalars, local_arrays)
            if kind == "reduction":
                _, combine = REDUCTION_OPS[reductions[name]]
                for idx in range(host.shape[0]):
                    host[idx] = combine(host[idx], scratch[idx])
            else:
                host[:] = scratch

    @staticmethod
    def _array_for(
        name: str,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        local_arrays: dict[str, np.ndarray],
    ) -> np.ndarray:
        if name in buffers:
            return buffers[name].require_data()
        if name in region.locals_:
            if name not in local_arrays:
                length = region.declared_length(name, scalars)
                local_arrays[name] = np.zeros(length, dtype=np.float32)
            return local_arrays[name]
        raise DeviceError(f"unknown variable {name!r} in region {region.name!r}")
