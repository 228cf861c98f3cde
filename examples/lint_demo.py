"""A deliberately broken offload region, caught by the static verifier.

The region below smuggles in two classic OmpCloud mistakes:

* the kernel body reads ``arrays["B"]`` but ``B`` never appears in a map
  clause — the runtime would ship nothing and the workers would crash or
  compute on garbage (``OMP101 unmapped-array``);
* the partition pragma claims each iteration owns ``C[i*N:(i+2)*N]`` — two
  rows per iteration, so consecutive iterations' output slices *overlap*
  and the indexed merge of Eq. 8-10 keeps an arbitrary winner
  (``OMP121 partition-overlap``).

Run:  python examples/lint_demo.py

or point the linter at this file directly (exit code 2 = errors found):

    python -m repro lint examples/lint_demo.py

Strict mode (``offload(..., strict=True)``) raises before a single byte is uploaded, so the mistake costs nothing.
"""

import numpy as np

from repro.omp import AnalysisError, ParallelLoop, TargetRegion, offload, verify_region


def broken_tile(lo, hi, arrays, scalars):
    n = int(scalars["N"])
    c = arrays["C"]
    b = arrays["B"]  # oops: B is not mapped on the region
    for i in range(lo, hi):
        c[i * n:(i + 1) * n] = b[i * n:(i + 1) * n] * 2.0


#: Module-level so ``python -m repro lint examples/lint_demo.py`` finds it.
BROKEN_REGION = TargetRegion(
    name="lint_demo",
    pragmas=[
        "omp target device(CLOUD)",
        "omp map(to: A[0:N*N]) map(from: C[0:N*N])",
    ],
    loops=[
        ParallelLoop(
            pragma="omp parallel for",
            loop_var="i",
            trip_count="N",
            reads=("A",),
            writes=("C",),
            # oops: (i+2) makes adjacent iterations' slices overlap
            partition_pragma="omp target data map(from: C[i*N:(i+2)*N])",
            body=broken_tile,
        )
    ],
)


def main() -> None:
    n = 16
    report = verify_region(BROKEN_REGION, {"N": n})
    print("verifier report for the broken region:\n")
    print(report.render())

    assert report.has("OMP101"), "the unmapped read of B must be caught"
    assert report.has("OMP121"), "the overlapping partition must be caught"
    assert report.exit_code == 2, "errors map to exit code 2"

    print("\nstrict offload refuses the region before any upload:\n")
    arrays = {"A": np.ones(n * n), "B": np.ones(n * n), "C": np.zeros(n * n)}
    try:
        offload(BROKEN_REGION, arrays=arrays, scalars={"N": n}, strict=True)
    except AnalysisError as exc:
        print(f"AnalysisError: region {exc.region_name!r} blocked with "
              f"{len(exc.report)} diagnostics")
    else:
        raise AssertionError("strict mode should have blocked the offload")

    print("\nfix both mistakes (map B, make the slices disjoint) and the "
          "same region lints clean.")


if __name__ == "__main__":
    main()
