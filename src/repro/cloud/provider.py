"""Abstract cloud compute provider: instance types, lifecycle, billing hooks.

The OmpCloud plugin can "(on-the-fly) start and stop virtual machines from the
EC2 service ... the EC2 instance can be started when offloading the code and
stopped after it ends its execution", so the lifecycle state machine — with
realistic boot/stop delays charged to simulated time — is a first-class part
of the substrate, as is per-hour billing.
"""

from __future__ import annotations

import abc
import enum
import itertools
from dataclasses import dataclass, field

from repro.cloud.billing import BillingLedger
from repro.cloud.credentials import Credentials


def billed_hours(seconds: float) -> float:
    """EC2-2017-style billing: whole hours, rounded up, minimum one hour."""
    return max(1.0, float(-(-int(seconds) // 3600)))


class ProviderError(Exception):
    """Lifecycle or capacity errors from a compute provider."""


class InstanceState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"
    TERMINATED = "terminated"


@dataclass(frozen=True)
class InstanceType:
    """A purchasable machine shape.

    ``vcpus`` counts hyper-threads; ``physical_cores`` counts dedicated cores
    (the paper: "each EC2 vCPU corresponds to one hyper-threaded core ...
    1 dedicated CPU core corresponds 2 vCPUs").
    """

    name: str
    vcpus: int
    ram_gb: float
    hourly_usd: float
    network_gbps: float = 10.0

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ValueError(f"instance type needs >= 1 vCPU, got {self.vcpus}")
        if self.vcpus % 2:
            raise ValueError(f"vCPUs come in hyper-thread pairs, got {self.vcpus}")

    @property
    def physical_cores(self) -> int:
        return self.vcpus // 2


@dataclass
class Instance:
    """One virtual machine."""

    instance_id: str
    itype: InstanceType
    state: InstanceState = InstanceState.PENDING
    launched_at: float = 0.0
    running_since: float | None = None
    billed_hours: float = 0.0
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def is_usable(self) -> bool:
        return self.state == InstanceState.RUNNING


class CloudProvider(abc.ABC):
    """Base class for EC2 / Azure / private-cloud simulators."""

    #: Seconds of simulated time an instance spends PENDING before RUNNING.
    boot_delay_s: float = 45.0
    #: Seconds spent STOPPING before STOPPED.
    stop_delay_s: float = 20.0

    def __init__(self, credentials: Credentials | None = None) -> None:
        self._instances: dict[str, Instance] = {}
        self._ids = itertools.count(1)
        self.ledger = BillingLedger()
        self._credentials = credentials

    # -------------------------------------------------------------- identity
    @property
    @abc.abstractmethod
    def kind(self) -> str:
        """Provider kind keyword, e.g. ``"ec2"``."""

    @abc.abstractmethod
    def instance_type(self, name: str) -> InstanceType:
        """Look up a purchasable instance type by name."""

    def authenticate(self, credentials: Credentials | None = None) -> None:
        creds = credentials if credentials is not None else self._credentials
        if creds is None:
            raise ProviderError(f"{self.kind}: no credentials supplied")
        creds.validated_for(self.kind)

    # -------------------------------------------------------------- lifecycle
    def launch(self, type_name: str, now: float, count: int = 1, tags: dict[str, str] | None = None) -> list[Instance]:
        """Request ``count`` instances; they become RUNNING after the boot delay."""
        self.authenticate()
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        itype = self.instance_type(type_name)
        out = []
        for _ in range(count):
            iid = f"{self.kind}-{next(self._ids):05d}"
            inst = Instance(instance_id=iid, itype=itype, launched_at=now, tags=dict(tags or {}))
            self._instances[iid] = inst
            out.append(inst)
        return out

    def wait_running(self, instances: list[Instance], now: float) -> float:
        """Block (in simulated time) until all instances are RUNNING.

        Returns the time at which the last instance came up.  Boot proceeds in
        parallel, so the wait is one boot delay, not ``count`` of them.
        """
        ready_at = now
        for inst in instances:
            if inst.state == InstanceState.TERMINATED:
                raise ProviderError(f"{inst.instance_id} is terminated")
            if inst.state == InstanceState.RUNNING:
                continue
            up = max(inst.launched_at + self.boot_delay_s, now)
            inst.state = InstanceState.RUNNING
            inst.running_since = up
            ready_at = max(ready_at, up)
        return ready_at

    def stop(self, instance_id: str, now: float) -> float:
        """Stop a running instance, billing the elapsed run time.

        Returns the time at which the instance is fully stopped.
        """
        inst = self._get(instance_id)
        if inst.state != InstanceState.RUNNING:
            raise ProviderError(f"cannot stop {instance_id} in state {inst.state.value}")
        assert inst.running_since is not None
        self._bill(inst, start=inst.running_since, end=now)
        inst.state = InstanceState.STOPPING
        stopped_at = now + self.stop_delay_s
        inst.state = InstanceState.STOPPED
        inst.running_since = None
        return stopped_at

    def start(self, instance_id: str, now: float) -> float:
        """Restart a stopped instance; returns when it is RUNNING again."""
        inst = self._get(instance_id)
        if inst.state != InstanceState.STOPPED:
            raise ProviderError(f"cannot start {instance_id} in state {inst.state.value}")
        up = now + self.boot_delay_s
        inst.state = InstanceState.RUNNING
        inst.running_since = up
        return up

    def terminate(self, instance_id: str, now: float) -> None:
        inst = self._get(instance_id)
        if inst.state == InstanceState.RUNNING and inst.running_since is not None:
            self._bill(inst, start=inst.running_since, end=now)
        inst.state = InstanceState.TERMINATED
        inst.running_since = None

    # ------------------------------------------------------------- accounting
    def _bill(self, inst: Instance, start: float, end: float) -> None:
        """Bill ``inst`` for ``start..end`` by :func:`billed_hours`."""
        if end < start:
            raise ValueError(f"billing interval ends before it starts ({start}..{end})")
        hours = billed_hours(end - start)
        inst.billed_hours += hours
        self.ledger.charge(
            sku=inst.itype.name,
            quantity=hours,
            unit_usd=inst.itype.hourly_usd,
            note=f"{inst.instance_id} ran {end - start:.0f}s",
        )

    def _get(self, instance_id: str) -> Instance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise ProviderError(f"unknown instance {instance_id!r}") from None

    def instances(self, state: InstanceState | None = None) -> list[Instance]:
        out = list(self._instances.values())
        if state is not None:
            out = [i for i in out if i.state == state]
        return out

    def describe(self, instance_id: str) -> Instance:
        return self._get(instance_id)
