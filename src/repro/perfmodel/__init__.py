"""Performance models and calibration.

The reproduction runs on a laptop, not a 256-core EC2 cluster, so task
durations, compression times and transfer times are *modelled*.  This package
holds all the constants in one place (:mod:`~repro.perfmodel.calibration`),
the compute-time model with per-node memory contention and straggler noise
(:mod:`~repro.perfmodel.compute`) and the gzip compressibility model — which
also provides the *real* zlib round-trip used in functional mode
(:mod:`~repro.perfmodel.compression`).  The host-target communication is
priced by the cloud device itself (:mod:`repro.core.transfer`).

Calibration targets are the paper's headline observations, recorded in
EXPERIMENTS.md; no constant is chosen per-figure after the fact — one global
set reproduces all of them.
"""

from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.compression import (
    CompressionModel,
    DENSE_MODEL,
    SPARSE_MODEL,
    gzip_compress,
    gzip_decompress,
    measure_ratio,
    model_for_density,
)
from repro.perfmodel.compute import ComputeModel, TaskTiming

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "CompressionModel",
    "DENSE_MODEL",
    "SPARSE_MODEL",
    "gzip_compress",
    "gzip_decompress",
    "measure_ratio",
    "model_for_density",
    "ComputeModel",
    "TaskTiming",
]
