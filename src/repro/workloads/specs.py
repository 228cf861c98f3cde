"""Workload registry: one spec per paper benchmark.

Problem sizes follow Section IV: "most matrices used by the benchmarks have
been scaled to about 1GB" — i.e. N = 16384 for square float32 — while
collinear-list keeps a small point list whose O(M^3) work is sized to land in
the same 8-core runtime band as the matrix kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.api import TargetRegion
from repro.workloads import mgbench, polybench

#: Square-matrix dimension giving 1 GiB float32 matrices (16384^2 * 4 B).
PAPER_N = 16384
#: Point count for collinear-list (~90 KB of input, ~1.5 h of single-core
#: work); divisible by every core count in the sweep so Algorithm 1's static
#: tiles land in exactly one wave, as the paper's power-of-two matrix sizes do.
PAPER_M = 11264

#: Small sizes for functional tests (seconds, not hours).
TEST_N = 48
TEST_M = 40


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the benches need to run one paper benchmark."""

    name: str
    figure_panel: str  # which Figure 4/5 chart this is
    build_region: Callable[..., TargetRegion]
    make_inputs: Callable[..., dict[str, np.ndarray]]
    reference: Callable[..., dict[str, np.ndarray]]
    size_var: str  # scalar holding the problem size ("N" or "M")
    paper_size: int
    test_size: int
    extra_scalars: Mapping[str, float]
    suite: str  # "polybench" | "mgbench"

    def scalars(self, size: int | None = None) -> dict[str, float]:
        out = dict(self.extra_scalars)
        out[self.size_var] = size if size is not None else self.paper_size
        return out

    def inputs(self, size: int | None = None, density: float = 1.0, seed: int = 0):
        n = size if size is not None else self.test_size
        return self.make_inputs(n, density=density, seed=seed)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="syrk",
            figure_panel="4a/5a",
            build_region=polybench.syrk_region,
            make_inputs=polybench.syrk_inputs,
            reference=polybench.syrk_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars=polybench.DEFAULT_SCALARS,
            suite="polybench",
        ),
        WorkloadSpec(
            name="syr2k",
            figure_panel="4b/5b",
            build_region=polybench.syr2k_region,
            make_inputs=polybench.syr2k_inputs,
            reference=polybench.syr2k_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars=polybench.DEFAULT_SCALARS,
            suite="polybench",
        ),
        WorkloadSpec(
            name="covar",
            figure_panel="4c/5c",
            build_region=polybench.covar_region,
            make_inputs=polybench.covar_inputs,
            reference=polybench.covar_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars={},
            suite="polybench",
        ),
        WorkloadSpec(
            name="gemm",
            figure_panel="4d/5d",
            build_region=polybench.gemm_region,
            make_inputs=polybench.gemm_inputs,
            reference=polybench.gemm_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars=polybench.DEFAULT_SCALARS,
            suite="polybench",
        ),
        WorkloadSpec(
            name="2mm",
            figure_panel="4e/5e",
            build_region=polybench.mm2_region,
            make_inputs=polybench.mm2_inputs,
            reference=polybench.mm2_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars=polybench.DEFAULT_SCALARS,
            suite="polybench",
        ),
        WorkloadSpec(
            name="3mm",
            figure_panel="4f/5f",
            build_region=polybench.mm3_region,
            make_inputs=polybench.mm3_inputs,
            reference=polybench.mm3_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars={},
            suite="polybench",
        ),
        WorkloadSpec(
            name="matmul",
            figure_panel="4g/5g",
            build_region=mgbench.matmul_region,
            make_inputs=mgbench.matmul_inputs,
            reference=mgbench.matmul_reference,
            size_var="N",
            paper_size=PAPER_N,
            test_size=TEST_N,
            extra_scalars={},
            suite="mgbench",
        ),
        WorkloadSpec(
            name="collinear",
            figure_panel="4h/5h",
            build_region=mgbench.collinear_region,
            make_inputs=mgbench.collinear_inputs,
            reference=mgbench.collinear_reference,
            size_var="M",
            paper_size=PAPER_M,
            test_size=TEST_M,
            extra_scalars={},
            suite="mgbench",
        ),
    )
}
