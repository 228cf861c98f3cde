"""OmpCloud reproduction: the cloud as an OpenMP offloading device.

A Python reproduction of Yviquel & Araújo, *The Cloud as an OpenMP Offloading
Device* (ICPP 2017).  The package turns OpenMP 4.5 ``target device(CLOUD)``
regions into map-reduce jobs on an in-process Spark substrate backed by
simulated cloud infrastructure (EC2/Azure/private providers, S3/HDFS/Azure
storage, WAN/LAN network models) and a calibrated performance model that
regenerates the paper's evaluation figures.

The documented programming surface is :mod:`repro.omp`::

    import numpy as np
    from repro.omp import (TargetRegion, ParallelLoop, offload,
                           OffloadRuntime, CloudDevice, demo_config)

    region = TargetRegion(
        name="matmul",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*N], B[:N*N]) map(from: C[:N*N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A", "B"), writes=("C",),
            partition_pragma="omp target data map(to: A[i*N:(i+1)*N]) "
                             "map(from: C[i*N:(i+1)*N])",
            body=my_tile_body)],
    )
    runtime = OffloadRuntime()
    runtime.register(CloudDevice(demo_config()))
    offload(region, arrays={"A": a, "B": b, "C": c}, scalars={"N": n},
            runtime=runtime)

The package root itself exports only ``__version__`` (the single source of
the distribution's version: ``pyproject.toml`` reads it from here).

See DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-measured
results.
"""

from __future__ import annotations

__version__ = "1.1.0"

__all__ = ["__version__"]
