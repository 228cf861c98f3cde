"""``repro.omp`` — the documented front-end surface of the reproduction.

One import gives the whole OpenMP-flavoured programming model::

    from repro import omp

    @omp.omp_kernel("#pragma omp target device(CLOUD) map(to: A) map(from: B)",
                    "#pragma omp parallel for",
                    loop_var="i", trip_count="n",
                    reads=("A",), writes=("B",))
    def scale(lo, hi, arrays, scalars):
        arrays["B"][lo:hi] = 2 * arrays["A"][lo:hi]

    with omp.target_data(device="CLOUD", map_to={"A": a}) as env:
        scale.offload(arrays={"A": a, "B": b}, scalars={"n": n})

The module mirrors the split of the OpenMP accelerator model:

* *directives* — :func:`omp_kernel`, :class:`TargetRegion`,
  :func:`region_from_source`, :func:`offload`, :func:`target_data`,
  :func:`target_update`, and the task-graph clauses
  (``offload(..., nowait=True, depend=omp.depend(in_="E"))`` /
  :func:`taskwait`, docs/TASKGRAPH.md);
* *runtime routines* — :func:`omp_get_num_devices`,
  :func:`omp_get_default_device` / :func:`omp_set_default_device`,
  :func:`omp_target_alloc` / :func:`omp_target_free` /
  :func:`omp_target_is_present`;
* *infrastructure types* — devices, configuration, reports, events.

The package-root aliases for these names (``from repro import ...``)
finished their deprecation cycle and were removed (migration table in
``docs/API.md``).  Import from ``repro.omp`` (model surface) or the
defining submodule (internals).

Module-level helpers operate on :meth:`OffloadRuntime.default` unless an
explicit ``runtime=`` is given, matching the global-state flavour of the C
API they are named after.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

import numpy as np

from repro.analysis import AnalysisError, AnalysisReport, verify_region
from repro.core.api import (
    FlopsPerIter,
    OffloadOptions,
    ParallelLoop,
    RegionError,
    TargetRegion,
    offload,
    omp_get_num_devices,
)
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.config import CloudConfig, load_config
from repro.core.data_env import DataEnvError, DataEnvReport, MapEntry
from repro.core.decorators import OmpKernel, omp_kernel
from repro.core.device import Device, DeviceError
from repro.core.omp_ast import MapType
from repro.core.parser import DirectiveError, parse_pragma
from repro.core.plugin_cloud import CloudDevice
from repro.core.plugin_host import HostDevice
from repro.core.report import OffloadReport
from repro.core.runtime import (
    DEVICE_HOST,
    MapValue,
    OffloadRuntime,
    TargetDataScope,
)
from repro.core.source_scan import region_from_source
from repro.core.taskgraph import Depend, TaskHandle, depend
from repro.metrics.figures import demo_config
from repro.simtime.timeline import Phase

__all__ = [
    # directives / regions
    "TargetRegion", "ParallelLoop", "RegionError", "FlopsPerIter",
    "omp_kernel", "OmpKernel", "region_from_source", "parse_pragma",
    "DirectiveError",
    # offload execution
    "offload", "OffloadOptions", "ExecutionMode", "Buffer", "OffloadReport",
    # deferred target tasks (nowait / depend / taskwait)
    "taskwait", "depend", "Depend", "TaskHandle",
    # persistent data environments
    "target_data", "target_data_begin", "target_data_end", "target_update",
    "TargetDataScope", "DataEnvError", "DataEnvReport", "MapEntry", "MapType",
    # user-level runtime routines
    "omp_get_num_devices", "omp_get_default_device", "omp_set_default_device",
    "omp_target_alloc", "omp_target_free", "omp_target_is_present",
    # devices and configuration
    "OffloadRuntime", "Device", "DeviceError", "CloudDevice", "HostDevice",
    "DEVICE_HOST", "CloudConfig", "load_config", "demo_config",
    # analysis + timeline
    "AnalysisError", "AnalysisReport", "verify_region", "Phase",
]


def _runtime(runtime: OffloadRuntime | None) -> OffloadRuntime:
    return runtime if runtime is not None else OffloadRuntime.default()


# --------------------------------------------------- default-device routines
def omp_get_default_device(runtime: OffloadRuntime | None = None) -> int:
    """``omp_get_default_device()``."""
    return _runtime(runtime).get_default_device()


def omp_set_default_device(ident: Union[int, str],
                           runtime: OffloadRuntime | None = None) -> None:
    """``omp_set_default_device()`` (accepts a device name too)."""
    _runtime(runtime).set_default_device(ident)


# ------------------------------------------------------ deferred target tasks
def taskwait(runtime: OffloadRuntime | None = None) -> list[OffloadReport]:
    """``#pragma omp taskwait``: execute every deferred (``nowait``) target
    region enqueued on the runtime and block until all complete.

    This is where the task graph is built and compatible chained regions
    fuse into single Spark jobs; see :meth:`OffloadRuntime.taskwait` and
    docs/TASKGRAPH.md.  Returns the reports in enqueue order (an empty list
    when nothing was pending)."""
    return _runtime(runtime).taskwait()


# ------------------------------------------------ persistent data environment
def target_data(
    device: Union[int, str, None] = None,
    *,
    map_to: Mapping[str, MapValue] | None = None,
    map_from: Mapping[str, MapValue] | None = None,
    map_tofrom: Mapping[str, MapValue] | None = None,
    map_alloc: Mapping[str, MapValue] | None = None,
    densities: Mapping[str, float] | None = None,
    mode: ExecutionMode | None = None,
    runtime: OffloadRuntime | None = None,
):
    """``#pragma omp target data`` on the default (or given) runtime; see
    :meth:`OffloadRuntime.target_data`."""
    return _runtime(runtime).target_data(
        device, map_to=map_to, map_from=map_from, map_tofrom=map_tofrom,
        map_alloc=map_alloc, densities=densities, mode=mode)


def target_data_begin(
    device: Union[int, str, None] = None,
    *,
    runtime: OffloadRuntime | None = None,
    **map_clauses,
) -> TargetDataScope:
    """``omp target enter data``; see
    :meth:`OffloadRuntime.target_data_begin`."""
    return _runtime(runtime).target_data_begin(device, **map_clauses)


def target_data_end(scope: TargetDataScope) -> DataEnvReport:
    """``omp target exit data``; see
    :meth:`OffloadRuntime.target_data_end`."""
    return scope.runtime.target_data_end(scope)


def target_update(
    scope: TargetDataScope,
    *,
    to: "str | Iterable[str] | None" = None,
    from_: "str | Iterable[str] | None" = None,
) -> DataEnvReport:
    """``#pragma omp target update``; see
    :meth:`OffloadRuntime.target_update`."""
    return scope.runtime.target_update(scope, to=to, from_=from_)


# --------------------------------------------------- target memory routines
def omp_target_alloc(
    name: str,
    length: int,
    *,
    device: Union[int, str, None] = None,
    runtime: OffloadRuntime | None = None,
    dtype=np.float32,
    density: float = 1.0,
) -> str:
    """``omp_target_alloc()``: reserve device space for ``name`` without any
    host association (a persistent ``alloc`` map entry).  Returns ``name`` —
    the reproduction's analogue of the device pointer.  Pair with
    :func:`omp_target_free`."""
    rt = _runtime(runtime)
    dev = rt._resolve_device(device)
    dev.initialize()
    buf = Buffer(name, length=length, dtype=dtype, density=density)
    if dev.env.is_mapped(name):
        raise DataEnvError(f"{name!r} is already mapped on {dev.name}")
    dev.env.begin(buf, MapType.ALLOC, persistent=True)
    return name


def omp_target_free(
    name: str,
    *,
    device: Union[int, str, None] = None,
    runtime: OffloadRuntime | None = None,
) -> None:
    """``omp_target_free()``: release an :func:`omp_target_alloc` entry."""
    rt = _runtime(runtime)
    dev = rt._resolve_device(device)
    dev.env.end(name)


def omp_target_is_present(
    name: str,
    *,
    device: Union[int, str, None] = None,
    runtime: OffloadRuntime | None = None,
) -> bool:
    """``omp_target_is_present()``: does the device hold a map entry?"""
    rt = _runtime(runtime)
    dev = rt._resolve_device(device)
    return dev.env.is_mapped(name)
