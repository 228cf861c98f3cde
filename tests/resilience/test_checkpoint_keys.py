"""Tile checkpoints are keyed by the loop's ordinal in its region.

2mm and 3mm (and any hand-written chain) run several loops that all iterate
over ``i``.  Keyed by loop variable, a later loop's tile ``k`` overwrote an
earlier loop's tile ``k`` — same storage key, same ``RecoveryState`` slot — so
a replacement driver restored the *later* loop's rows into the earlier loop's
output and the offload finished with a wrong answer and no error.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.api import offload
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.resilience.chaos import TOLERANCE
from repro.spark.faults import NO_FAULTS, FaultPlan
from repro.workloads import WORKLOADS


@pytest.mark.parametrize("name", ["2mm", "3mm"])
def test_resume_restores_each_loops_own_tiles(cloud_config, name):
    spec = WORKLOADS[name]
    config = dataclasses.replace(cloud_config, recovery="resume")
    scalars = spec.scalars(spec.test_size)

    def run(plan):
        rt = OffloadRuntime()
        rt.register(CloudDevice(config, physical_cores=16, fault_plan=plan))
        arrays = spec.inputs(spec.test_size, density=1.0, seed=0)
        expected = spec.reference({k: v.copy() for k, v in arrays.items()},
                                  scalars)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = offload(spec.build_region("CLOUD"), arrays=arrays,
                          scalars=scalars, runtime=rt)
        return rt.device("CLOUD"), rep, arrays, expected

    dry_dev, _, _, _ = run(NO_FAULTS)
    commits = [r.payload for r in dry_dev.journal.records("tile_done")]
    # The premise: more loops than loop variables, yet no two commits share
    # a storage key.
    assert len({c["loop"] for c in commits}) > len({c["loop_var"]
                                                    for c in commits})
    assert len({c["key"] for c in commits}) == len(commits)

    # Die once every loop but the last has committed all its tiles: the
    # standby driver must restore each of them from its own checkpoints.
    ends = sorted(c["end"] for c in commits)
    dev, rep, arrays, expected = run(
        FaultPlan(driver_dies_at=ends[int(0.8 * len(ends))]))
    assert rep.resumes == 1 and rep.tiles_skipped > 0
    assert not rep.fell_back_to_host
    restored = dev.journal.replay().completed_tiles(
        dev.journal.records("resume")[0].correlation_id)
    assert len(restored) == len(spec.build_region("CLOUD").loops)
    for out, want in expected.items():
        assert np.allclose(arrays[out], want, **TOLERANCE), out
