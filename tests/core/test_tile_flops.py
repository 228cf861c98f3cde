"""``ParallelLoop.tile_flops`` over arrays of tile bounds.

The oracle is the per-iteration sum ``tile_flops`` computes for one tile: one
``flops_per_iter`` call and one left-to-right float add per iteration.  The
index-array path must equal it bit for bit on every tile, for callables it
can vectorize (integer constants, affine and quadratic functions of ``i``)
and for every kind it must hand back to the scalar path (non-integer values,
a raise on arrays, a wrong-length array, a scalar the sample check refutes,
sums past 2**53), over empty and non-contiguous tiles alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import ParallelLoop, offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.workloads.specs import WORKLOADS

ENV = {"N": 7}


def _loop(fpi):
    return ParallelLoop(pragma="omp parallel for", loop_var="i", trip_count="N",
                        flops_per_iter=fpi)


def _reference(fpi, lo, hi, env):
    """Per-tile flops, one scalar call and one Python add per iteration."""
    return np.array([sum(float(fpi(i, env)) for i in range(a, b))
                     for a, b in zip(lo.tolist(), hi.tolist())], dtype=np.float64)


@st.composite
def tilings(draw):
    """A contiguous tiling of ``[start, start + n)`` — repeated cuts make
    empty tiles — restricted by a mask, as a resumed job's tiling is."""
    start = draw(st.integers(0, 1000))
    n = draw(st.integers(0, 300))
    cuts = sorted(draw(st.lists(st.integers(start, start + n), max_size=12)))
    bounds = np.array([start, *cuts, start + n], dtype=np.int64)
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(bounds) - 1,
                                  max_size=len(bounds) - 1)), dtype=bool)
    return bounds[:-1][keep], bounds[1:][keep]


coef = st.integers(-1000, 1000)

#: Callables whose index-array evaluation is provably exact: at most
#: ``tiles + 2`` calls.
vectorizable = st.one_of(
    coef.map(lambda c: lambda i, env: float(c)),
    st.tuples(coef, coef).map(lambda ab: lambda i, env: ab[0] * i + ab[1]),
    st.tuples(coef, coef).map(
        lambda ab: lambda i, env: 2.0 * ab[0] * i + ab[1] * env["N"]),
    st.tuples(coef, coef, coef).map(
        lambda abc: lambda i, env: abc[0] * i * i + abc[1] * i + abc[2]),
    st.just(lambda i, env: -0.0 * (i + 1)),
)

#: Callables the index-array path must refuse (or, on a one-iteration span,
#: may verify as a scalar).
fallbacks = st.one_of(
    st.just(lambda i, env: 0.1),
    st.integers(0, 1300).map(lambda k: lambda i, env: 1.0 if i < k else 2.0),
    st.just(lambda i, env: np.ones(len(i) - 1) if np.ndim(i) else 1.0),
    st.just(lambda i, env: float(len(str(i)))),
    st.integers(2 ** 47 + 1, 2 ** 52).map(lambda c: lambda i, env: float(c) + i),
)


@settings(max_examples=400, deadline=None)
@given(tiles=tilings(),
       case=st.one_of(vectorizable.map(lambda f: (f, True)),
                      fallbacks.map(lambda f: (f, False))))
def test_tile_flops_on_arrays_equals_the_per_iteration_sum(tiles, case):
    fpi, cheap = case
    lo, hi = tiles
    calls = []

    def counted(i, env):
        calls.append(i)
        return fpi(i, env)

    expected = _reference(fpi, lo, hi, ENV)
    got = _loop(counted).tile_flops(lo, hi, ENV)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    if cheap:
        assert len(calls) <= len(lo) + 2
    for a, b, want in zip(lo.tolist(), hi.tolist(), expected):
        one = _loop(fpi).tile_flops(a, b, ENV)
        assert type(one) is float
        assert np.float64(one).tobytes() == want.tobytes()


def test_none_and_constant_flops_over_arrays():
    lo = np.array([0, 3, 3], dtype=np.int64)
    hi = np.array([3, 3, 8], dtype=np.int64)
    assert _loop(None).tile_flops(lo, hi, ENV).tolist() == [0.0, 0.0, 0.0]
    assert _loop(2.5).tile_flops(lo, hi, ENV).tolist() == [7.5, 0.0, 12.5]


def test_paper_size_gemm_prices_its_loop_in_one_array_call():
    """A modeled paper-size gemm calls ``flops_per_iter`` once on the index
    array plus once per tile's first iteration and once at the last one,
    not once per iteration."""
    spec = WORKLOADS["gemm"]
    region = spec.build_region("CLOUD")
    loop = region.loops[0]
    fpi = loop.flops_per_iter
    calls = []

    def counted(i, env):
        calls.append(i)
        return fpi(i, env)

    loop.flops_per_iter = counted
    runtime = OffloadRuntime()
    runtime.register(CloudDevice(demo_config(n_workers=16), physical_cores=256))
    report = offload(region, scalars=spec.scalars(), runtime=runtime,
                     mode=ExecutionMode.MODELED)
    assert 0 < report.tasks_run < spec.paper_size
    assert len(calls) <= report.tasks_run + 2
