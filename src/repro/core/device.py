"""Target-device plugin interface.

"Target-specific offloading plug-ins ... perform the direct interaction with
the devices ... and provide services such as the initialization and
transmission of input and output data, and the execution of offloaded
computation."  Every device implements this interface; the runtime's wrapper
(:mod:`repro.core.runtime`) is the only caller.

An offload is one call, :meth:`Device.offload`: it maps the region's data,
runs its loops, copies the outputs back and releases what it mapped, and
returns the region's report.  Everything one offload needs lives in that
call, so a finished offload leaves nothing behind on the device object.  A
failed attempt raises :class:`DeviceError` with the partial report attached
(:attr:`DeviceError.report`); the runtime folds its recovery counters into
the host rerun's report.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence, Union

from repro.core.api import TargetRegion
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.data_env import DataEnvironment, DataEnvReport
from repro.core.omp_ast import MapType
from repro.core.report import OffloadReport


class DeviceError(Exception):
    """Device initialization or execution failure."""

    #: The failed attempt's partial report, attached by
    #: :meth:`Device.offload` as the error leaves it: what the attempt cost
    #: and recorded (retries, backoff, resubmissions...) before it gave up.
    #: None for failures outside an offload.
    report: OffloadReport | None = None


class Device(abc.ABC):
    """One offloading target.

    Protocol: :meth:`initialize` once, :meth:`is_available` before each
    offload, then :meth:`offload` per ``target`` construct.  The
    ``target data`` methods (:meth:`enter_data`, :meth:`exit_data`,
    :meth:`update_data`, :meth:`invalidate_data_env`) manage the mappings
    that outlive one offload (:attr:`env`); an offload's own state never
    outlives its :meth:`offload` call."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.device_id = -1  # assigned by the runtime at registration
        self.env = DataEnvironment(device_name=name)
        self._initialized = False

    # ------------------------------------------------------------- lifecycle
    def initialize(self) -> None:
        """Idempotent device bring-up (RTL load, cluster connection...)."""
        if not self._initialized:
            self._do_initialize()
            self._initialized = True

    @abc.abstractmethod
    def _do_initialize(self) -> None:
        ...

    @abc.abstractmethod
    def is_available(self) -> bool:
        """Can this device accept offloads right now?  The runtime falls back
        to the host when the answer is no ("if the cloud is not available the
        computation is performed locally")."""

    # --------------------------------------------------------------- offload
    @abc.abstractmethod
    def offload(
        self,
        region: TargetRegion,
        buffers: Mapping[str, Buffer],
        scalars: Mapping[str, Union[int, float]],
        mode: ExecutionMode,
    ) -> OffloadReport:
        """Run one ``target`` construct: create the region's data
        environment and ship its inputs, run its loops, copy the outputs back
        and tear the environment down.  Returns the region's report.

        On failure raises :class:`DeviceError` with :attr:`DeviceError.report`
        set to the partial report, after releasing every mapping this offload
        took (mappings of an enclosing ``target data`` environment survive)."""

    # ------------------------------------------- persistent data environments
    def enter_data(self, buffers: Mapping[str, Buffer],
                   map_types: Mapping[str, MapType], mode: ExecutionMode,
                   report: DataEnvReport) -> None:
        """``__tgt_target_data_begin``: create persistent map entries and ship
        ``to``/``tofrom`` inputs to the device.  The base implementation is
        transport-free (suits the host, whose "device copy" is the host
        array); plugins with real transport override it."""
        for name, buf in buffers.items():
            existing = self.env.entry_or_none(name)
            if existing is not None:
                self.env.begin(buf, map_types[name])
                report.resident_hits += 1
                continue
            self.env.begin(buf, map_types[name], persistent=True)

    def exit_data(self, names: Sequence[str], mode: ExecutionMode,
                  report: DataEnvReport) -> None:
        """``__tgt_target_data_end``: drop one reference per name; entries
        that reach zero are released (plugins download dirty outputs)."""
        for name in names:
            self.env.end(name)

    def update_data(self, to_names: Sequence[str], from_names: Sequence[str],
                    mode: ExecutionMode, report: DataEnvReport) -> None:
        """``__tgt_target_data_update``: refresh present device copies from
        the host (``to``) or host copies from the device (``from``).  Names
        that are not present are ignored, as OpenMP 5.x specifies for motion
        clauses on absent list items."""
        report.updates_to += sum(1 for n in to_names if self.env.is_mapped(n))
        report.updates_from += sum(1 for n in from_names if self.env.is_mapped(n))

    def invalidate_data_env(self) -> None:
        """Called by the runtime when this device failed mid-offload: the
        device copies can no longer be trusted.  Plugins sync dirty outputs
        back best-effort and drop their handles so residents re-stage on the
        next use; reference counts stay intact, so a later ``exit data``
        remains balanced."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r}, id={self.device_id})"
