"""``--quick`` smoke: tiny sizes, one rep, numbers never reported.

Every workload's correctness check must be able to pass and — against a
deliberately corrupted oracle — to fail.
"""

import json

import pytest

from perf import run

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_check_passes_and_a_corrupt_oracle_fails(name, tmp_path):
    good = run.run_workload(name, seed=3, seconds=0, trace=False,
                            out=tmp_path, quick=True)
    assert good["failed"] == 0 and good["attempted"] >= 2
    line = json.loads(run.contract_line(good, SPEC["end_to_end"], trace=False))
    assert line["correct"] and all(v["value"] > 0 for v in line["metrics"].values())

    bad = run.run_workload(name, seed=3, seconds=0, trace=False,
                           out=tmp_path, quick=True, corrupt_oracle=True)
    assert bad["failed"] > 0
    assert not json.loads(run.contract_line(bad, SPEC["end_to_end"], False))["correct"]


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    traced = run.run_workload("func_chain", seed=3, seconds=0, trace=True,
                              out=tmp_path, quick=True)
    assert traced["failed"] == 0
    line = json.loads(run.contract_line(traced, SPEC["per_layer"], trace=True))
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    got = {k: v["value"] for k, v in line["metrics"].items()}
    assert got["count.fused_regions"] == 3 and got["taskgraph.calls"] == 1
    assert got["kernel.self_s"] > 0 and got["probe.calib_s"] > 0
    assert 0.5 < got["attributed_ratio"] <= 1.0
    spans = json.loads((tmp_path / "trace_func_chain.json").read_text())
    assert spans["columns"][:2] == ["id", "layer"] and spans["spans"]
