"""cgcloud-style cluster provisioner.

The paper instantiates its Spark cluster "using a third-party script called
cgcloud [which] allowed us to quickly instantiate a fully operational and
highly customizable Spark cluster within AWS".  ``provision_cluster`` plays
that role: it launches 1 driver + N worker instances from any provider, waits
for them (in simulated time), and wires up the driver's SSH endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.provider import CloudProvider, Instance
from repro.cloud.ssh import SSHEndpoint
from repro.simtime.clock import SimClock


@dataclass(frozen=True)
class ClusterSpec:
    """What to provision: the paper's default is 16 x c3.8xlarge workers."""

    instance_type: str = "c3.8xlarge"
    n_workers: int = 16
    driver_type: str | None = None  # defaults to the worker type
    authorized_users: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"a Spark cluster needs >= 1 worker, got {self.n_workers}")


@dataclass
class ProvisionedCluster:
    """Handle on a live cluster: instances plus the driver's SSH endpoint."""

    provider: CloudProvider
    driver: Instance
    workers: list[Instance]
    ssh_endpoint: SSHEndpoint
    ready_at: float = 0.0
    torn_down: bool = False
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def total_physical_cores(self) -> int:
        return sum(w.itype.physical_cores for w in self.workers)

    @property
    def worker_ram_gb(self) -> float:
        return self.workers[0].itype.ram_gb if self.workers else 0.0

    def teardown(self, now: float) -> None:
        """Terminate every instance (idempotent)."""
        if self.torn_down:
            return
        for inst in [self.driver, *self.workers]:
            if inst.state.value not in ("terminated",):
                self.provider.terminate(inst.instance_id, now)
        self.torn_down = True

    def stop_all(self, now: float) -> float:
        """Stop (not terminate) every instance; returns when all are stopped."""
        done = now
        for inst in [self.driver, *self.workers]:
            if inst.state.value == "running":
                done = max(done, self.provider.stop(inst.instance_id, now))
        return done

    def start_all(self, now: float) -> float:
        """Restart a stopped cluster; returns when all instances are running."""
        up = now
        for inst in [self.driver, *self.workers]:
            if inst.state.value == "stopped":
                up = max(up, self.provider.start(inst.instance_id, now))
        self.ready_at = up
        return up


def provision_cluster(
    provider: CloudProvider,
    spec: ClusterSpec,
    clock: SimClock,
    driver_hostname: str = "spark-driver",
) -> ProvisionedCluster:
    """Launch and boot a 1-driver + N-worker cluster.

    Advances ``clock`` past the (parallel) boot of all instances, mirroring
    cgcloud's blocking ``create-cluster`` behaviour.  A launch or wait that
    fails terminates every instance already launched, then re-raises: a
    failed attempt leaves nothing behind.
    """
    provider.authenticate()
    driver_type = spec.driver_type or spec.instance_type
    now = clock.now
    launched: list[Instance] = []
    try:
        launched += provider.launch(driver_type, now, count=1,
                                    tags={"role": "driver"})
        launched += provider.launch(spec.instance_type, now,
                                    count=spec.n_workers, tags={"role": "worker"})
        ready = provider.wait_running(launched, now)
    except Exception:
        for inst in launched:
            provider.terminate(inst.instance_id, now)
        raise
    driver, *workers = launched
    clock.advance_to(ready)
    endpoint = SSHEndpoint(
        hostname=driver_hostname,
        authorized_users=set(spec.authorized_users),
    )
    return ProvisionedCluster(
        provider=provider,
        driver=driver,
        workers=workers,
        ssh_endpoint=endpoint,
        ready_at=ready,
    )
