"""Dollar-cost estimation of the experiments.

The paper's pay-as-you-go argument ("the programmer can automatically control
the usage of the cloud infrastructure, thus allowing him/her to pay for just
the amount of computational resources used") becomes measurable here: given
an offload's duration, charge the cluster's instances at the 2017 on-demand
rates with EC2's hour-rounded billing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.ec2 import EC2_INSTANCE_TYPES
from repro.cloud.provider import billed_hours


@dataclass(frozen=True)
class CostEstimate:
    """Cost of keeping a cluster up for one offload."""

    instance_type: str
    n_instances: int  # workers + driver
    hours_billed: float
    total_usd: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.n_instances} x {self.instance_type} for {self.hours_billed:.0f} "
            f"billed hour(s): ${self.total_usd:.2f}"
        )


def experiment_cost(
    duration_s: float,
    n_workers: int = 16,
    instance_type: str = "c3.8xlarge",
    include_driver: bool = True,
) -> CostEstimate:
    """Cost of ``duration_s`` of cluster time, billed by
    :func:`~repro.cloud.provider.billed_hours`."""
    if duration_s < 0:
        raise ValueError(f"negative duration {duration_s!r}")
    itype = EC2_INSTANCE_TYPES[instance_type]
    hours = billed_hours(duration_s)
    n = n_workers + (1 if include_driver else 0)
    return CostEstimate(
        instance_type=instance_type,
        n_instances=n,
        hours_billed=hours,
        total_usd=hours * itype.hourly_usd * n,
    )
