"""The Spark driver inflates each staged input once per stored object.

A warm ``cache=true`` offload re-reads an object the staging cache reused.
The driver still HEADs and checksum-verifies it on every job; what it keeps
on the device's :class:`~repro.core.transfer.TransferEngine` is the inflated,
read-only array of its most recent job's inputs, keyed on storage key, dtype
and length and reused only for the very object the verified GET returned.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.transfer as transfer
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.obs.events import EventBus, use_bus

from tests.conftest import make_cloud_runtime


def _matvec() -> TargetRegion:
    def body(lo, hi, arrays, scalars):
        n = int(scalars["N"])
        x = np.asarray(arrays["x"])
        rows = np.asarray(arrays["A"][lo * n:hi * n]).reshape(hi - lo, n)
        arrays["y"][lo:hi] = rows @ x

    return TargetRegion(
        name="matvec",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*N], x[:N]) map(from: y[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A", "x"), writes=("y",),
            partition_pragma="omp target data map(to: A[i*N:(i+1)*N]) "
                             "map(from: y[i:i+1])",
            body=body,
        )],
    )


def _plus_one() -> TargetRegion:
    def body(lo, hi, arrays, scalars):
        arrays["y"][lo:hi] = np.asarray(arrays["a"][lo:hi]) + 1

    return TargetRegion(
        name="plus_one",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: a[:N]) map(from: y[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("a",), writes=("y",),
            partition_pragma="omp target data map(to: a[i:i+1]) "
                             "map(from: y[i:i+1])",
            body=body,
        )],
    )


# N = 32: A (4 KiB) is gzip'd, x and y (128 B) stay under the 256 B
# threshold, so every gunzip of a run is the driver's read of A.  Small
# integer values keep the float32 products and sums exact.
N = 32


def _matvec_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, N * N).astype(np.float32)
    x = rng.integers(0, 4, N).astype(np.float32)
    return a, x


def _run_matvec(rt, a, x):
    y = np.zeros(N, dtype=np.float32)
    report = offload(_matvec(), arrays={"A": a, "x": x, "y": y},
                     scalars={"N": N}, runtime=rt)
    assert not report.fell_back_to_host
    assert np.array_equal(y, a.reshape(N, N) @ x)
    return report


def test_warm_offloads_inflate_a_cached_input_once(cloud_config, monkeypatch):
    calls = []
    real = transfer.gzip_decompress

    def counting(payload):
        calls.append(len(payload))
        return real(payload)

    monkeypatch.setattr(transfer, "gzip_decompress", counting)
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    a, x = _matvec_inputs(0)
    reports = [_run_matvec(rt, a, x) for _ in range(5)]
    assert [r.cache_hits for r in reports] == [0, 2, 2, 2, 2]
    assert len(calls) == 1


def test_one_object_read_as_two_dtypes_is_inflated_per_dtype(cloud_config):
    """The staging cache hashes bytes only, so an int32 view of a float32
    input hits the float32 offload's object; the memo must not hand the
    int32 job the float32 array."""
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    n = 128
    ones = np.ones(n, dtype=np.float32)
    as_int = ones.view(np.int32)
    for a in (ones, as_int):
        y = np.zeros(n, dtype=a.dtype)
        report = offload(_plus_one(), arrays={"a": a, "y": y},
                         scalars={"N": n}, runtime=rt)
        assert np.array_equal(y, a + 1), a.dtype
    assert report.cache_hits == 1
    assert y[0] == 1065353217  # 1.0f's bit pattern, plus one


def test_memo_holds_at_most_one_jobs_inputs(cloud_config):
    rt = make_cloud_runtime(cloud_config)  # cache=False: every key is new
    dev = rt.device("CLOUD")
    for seed in range(30):
        _run_matvec(rt, *_matvec_inputs(seed))
        assert len(dev.transfer._driver_inputs) <= 2  # A and x


def test_corrupt_warm_read_is_detected_retried_and_repaired(cloud_config):
    """The memo is consulted only after a verified GET: a corrupt warm read
    is caught and re-fetched exactly as a cold one."""
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    dev = rt.device("CLOUD")
    a, x = _matvec_inputs(0)
    _run_matvec(rt, a, x)
    dev.storage.arm_corruption("in/A", 1)
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        report = _run_matvec(rt, a, x)
    assert report.cache_hits == 2
    assert report.corruption_detected == 1
    kinds = [e.kind for e in bus.events]
    assert kinds.count("corruption_detected") == 1
    retry = [e for e in bus.events if e.kind == "retry"]
    assert [e.op for e in retry] == ["GET"]


def _rewrites_its_input() -> TargetRegion:
    """``a`` is map(to:), yet the first loop writes it on the device."""
    def bump(lo, hi, arrays, scalars):
        arrays["a"][lo:hi] = np.asarray(arrays["a"][lo:hi]) + 1

    def double(lo, hi, arrays, scalars):
        arrays["y"][lo:hi] = 2 * np.asarray(arrays["a"][lo:hi])

    return TargetRegion(
        name="rewrite",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: a[:N]) map(from: y[:N])"],
        loops=[
            ParallelLoop(
                pragma="omp parallel for", loop_var="i", trip_count="N",
                reads=("a",), writes=("a",),
                partition_pragma="omp target data map(tofrom: a[i:i+1])",
                body=bump),
            ParallelLoop(
                pragma="omp parallel for", loop_var="j", trip_count="N",
                reads=("a",), writes=("y",),
                partition_pragma="omp target data map(to: a[j:j+1]) "
                                 "map(from: y[j:j+1])",
                body=double),
        ],
    )


def test_a_written_input_never_pollutes_the_memo(cloud_config):
    rt = make_cloud_runtime(replace(cloud_config, cache=True))
    a = np.arange(128, dtype=np.float32)
    pristine = a.copy()
    reports = []
    for _ in range(2):
        y = np.zeros_like(a)
        reports.append(offload(_rewrites_its_input(), arrays={"a": a, "y": y},
                               scalars={"N": len(a)}, runtime=rt))
        assert np.array_equal(y, 2 * (pristine + 1))
        assert np.array_equal(a, pristine)
    assert reports[1].cache_hits == 1


@pytest.mark.parametrize("cache", [False, True], ids=["plain", "cache"])
def test_memo_arrays_are_read_only(cloud_config, cache):
    rt = make_cloud_runtime(replace(cloud_config, cache=cache))
    _run_matvec(rt, *_matvec_inputs(0))
    memo = rt.device("CLOUD").transfer._driver_inputs
    assert memo and all(not arr.flags.writeable for _, arr in memo.values())
