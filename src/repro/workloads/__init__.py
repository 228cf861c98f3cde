"""Benchmark workloads: Polybench + MgBench kernels as target regions.

The paper evaluates "SYRK, SYR2K, COVAR, GEMM, 2MM and 3MM from Polybench;
and Mat-mul and Collinear-list from MgBench", all on 32-bit floats with
matrices scaled to ~1 GB.  Each workload here provides:

* ``build_region()`` — the OpenMP-annotated target region (pragmas exactly in
  the paper's dialect, tile bodies in global coordinates);
* ``make_inputs(n, density, seed)`` — dense or sparse input generation;
* ``reference(...)`` — an independent NumPy oracle for correctness tests;
* a :class:`~repro.workloads.specs.WorkloadSpec` with the paper-scale problem
  size, flop model and memory intensity used by the figure benches.
"""

from repro.workloads.specs import WorkloadSpec, WORKLOADS
from repro.workloads import polybench, mgbench
from repro.workloads.datagen import random_matrix, sparse_matrix, random_points

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "polybench",
    "mgbench",
    "random_matrix",
    "sparse_matrix",
    "random_points",
]
