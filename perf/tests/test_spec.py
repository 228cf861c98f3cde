"""BENCHMARK.json is the one list of workloads, metrics and bounds; the code
must emit exactly what it names, within the limits of the builder contract."""

import re

from perf import run
from perf.probes import PROBES
from perf.trace import LAYERS
from perf.workloads import COUNT_NAMES, WORKLOAD_CLASSES

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DERIVED = ("count.spans", "sim_digest", "attributed_ratio",
           "trace_overhead_ratio", "us_per_task", "ms_per_point",
           "obs_us_per_task", "overhead_x")


def test_workloads_are_the_ones_the_code_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_CLASSES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])


def test_per_layer_names_are_the_ones_the_code_emits():
    expected = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
    expected += [f"count.{c}" for c in COUNT_NAMES]
    expected += list(DERIVED) + list(PROBES)
    assert [m["name"] for m in SPEC["per_layer"]] == expected
    assert len(expected) <= 128


def test_names_units_and_bounds_meet_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["perf"] and 1 <= SPEC["run_seconds"] <= 60
