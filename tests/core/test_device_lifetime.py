"""A finished offload leaves nothing behind on the device.

Everything one offload needs lives in the one ``Device.offload`` call, so
a dropped device (with its staged objects) and a dropped report are freed
by reference counting alone — these tests run with the cyclic GC off.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.core.api import offload
from repro.workloads import WORKLOADS

from tests.conftest import make_cloud_runtime


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _offload_gemm(rt):
    spec = WORKLOADS["gemm"]
    n = spec.test_size
    report = offload(spec.build_region("CLOUD"),
                     arrays=spec.inputs(n, density=1.0, seed=0),
                     scalars=spec.scalars(n), runtime=rt)
    assert not report.fell_back_to_host
    assert report.tasks_run > 0
    return report


@pytest.mark.parametrize("options", [{}, {"cache": True},
                                     {"recovery": "resume"}],
                         ids=["plain", "cache", "resume"])
def test_dropped_device_is_freed_by_refcount(cloud_config, no_gc, options):
    rt = make_cloud_runtime(replace(cloud_config, **options))
    dev = rt.device("CLOUD")
    report = _offload_gemm(rt)
    _offload_gemm(rt)
    dev_ref, storage_ref = weakref.ref(dev), weakref.ref(dev.storage)
    (_, inflated), *_ = dev.transfer._driver_inputs.values()
    memo_ref = weakref.ref(inflated)
    del rt, dev, inflated
    assert dev_ref() is None, "the dropped CloudDevice is still referenced"
    assert storage_ref() is None, "its storage (staged objects) is still alive"
    assert memo_ref() is None, "the driver's inflated input is still alive"
    assert report.tasks_run > 0  # the caller's report outlives the device


def test_report_is_freed_once_the_caller_drops_it(cloud_config, no_gc):
    rt = make_cloud_runtime(cloud_config)
    report = _offload_gemm(rt)
    ref = weakref.ref(report)
    del report
    assert ref() is None, "the device kept the finished offload's report"
    _offload_gemm(rt)  # the device itself stays usable
