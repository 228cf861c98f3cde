"""Strict mode: the verifier as a runtime gate, enforced before upload."""

import numpy as np
import pytest

from repro.analysis import AnalysisError, enforce_strict
from repro.core.api import offload
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.workloads import WORKLOADS
from tests.analysis.fixtures import CASES, SCALARS, clean_region


def _arrays(n=8):
    return {"A": np.ones(n * n), "C": np.zeros(n * n)}


def _cloud_runtime():
    runtime = OffloadRuntime()
    device = CloudDevice(demo_config(n_workers=4), physical_cores=16)
    runtime.register(device)
    return runtime, device


def test_strict_blocks_broken_region_before_any_upload():
    bad121, _ = CASES["OMP121"]
    runtime, device = _cloud_runtime()
    with pytest.raises(AnalysisError) as err:
        offload(bad121(), arrays=_arrays(), scalars=dict(SCALARS),
                runtime=runtime, strict=True)
    assert err.value.report.has("OMP121")
    # Zero bytes reached cloud storage: the gate sits before data_begin.
    assert device.storage._objects == {}


def test_strict_kwarg_blocks_without_any_runtime_config():
    bad121, _ = CASES["OMP121"]
    with pytest.raises(AnalysisError):
        offload(bad121(), arrays=_arrays(), scalars=dict(SCALARS), strict=True)


def test_strict_error_does_not_fall_back_to_host():
    # AnalysisError is not a DeviceError: a broken contract is broken on
    # the host too, so the runtime must not swallow it into a fallback.
    bad121, _ = CASES["OMP121"]
    runtime, _device = _cloud_runtime()
    with pytest.raises(AnalysisError):
        offload(bad121(), arrays=_arrays(), scalars=dict(SCALARS),
                runtime=runtime, strict=True)
    assert runtime.fallbacks == 0


def test_strict_clean_region_offloads_normally():
    runtime, _device = _cloud_runtime()
    n = SCALARS["N"]
    arrays = _arrays(n)
    report = offload(clean_region(), arrays=arrays, scalars=dict(SCALARS),
                     runtime=runtime, strict=True)
    assert report is not None
    np.testing.assert_allclose(arrays["C"], arrays["A"])


def test_fail_on_warning_escalates_warnings():
    bad113, _ = CASES["OMP113"]  # phantom access: warning-level
    runtime, _device = _cloud_runtime()
    offload(bad113(), arrays=_arrays(), scalars=dict(SCALARS), runtime=runtime,
            strict=True)  # blocks on errors only
    with pytest.raises(AnalysisError):
        enforce_strict(bad113(), dict(SCALARS), fail_on="warning")


def test_strict_workloads_all_pass_the_gate():
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        region = spec.build_region("CLOUD")
        scalars = spec.scalars(spec.test_size)
        enforce_strict(region, scalars, fail_on="warning")
        runtime, _device = _cloud_runtime()
        arrays = spec.inputs(spec.test_size, density=1.0, seed=0)
        report = offload(region, arrays=arrays, scalars=scalars,
                         runtime=runtime, strict=True)
        assert report is not None, name
