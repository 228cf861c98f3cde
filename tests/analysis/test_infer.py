"""Clause inference: synthesis, safe degradation, and end-to-end oracles.

The synthesis engine (:mod:`repro.analysis.infer`) must (a) reconstruct
minimal clauses for every shipped workload from its clause-less naive
counterpart, (b) never narrow anything it cannot prove — any analysis limit
degrades to the user-written region — and (c) produce regions the verifier
accepts and the runtime executes bit-close to the reference kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    Severity,
    infer_region,
    naive_tofrom_region,
    verify_region,
)
from repro.analysis.infer import analyze_ranges
from repro.core.api import offload
from repro.core.omp_ast import MapType
from repro.workloads.specs import WORKLOADS
from tests.analysis.fixtures import SCALARS, clean_region, make_region
from tests.conftest import make_cloud_runtime


def _map_types(region):
    return {item.name: clause.map_type
            for clause in region.maps for item in clause.items}


# ----------------------------------------------------------------- synthesis
def test_naive_gemm_reconstructs_minimal_clauses():
    spec = WORKLOADS["gemm"]
    naive = naive_tofrom_region(spec.build_region("CLOUD"))
    assert _map_types(naive) == {"A": MapType.TOFROM, "B": MapType.TOFROM,
                                 "C": MapType.TOFROM}
    rep = infer_region(naive, spec.scalars(spec.test_size))
    assert not rep.degraded
    assert rep.changed
    types = _map_types(rep.region)
    assert types["A"] is MapType.TO
    assert types["B"] is MapType.TO
    assert types["C"] is MapType.TOFROM  # read-modify-write stays tofrom
    assert rep.narrowed >= 2
    assert rep.partitions_added >= 1
    assert rep.region.loops[0].partitions  # synthesized partition spec
    assert rep.map_pragma is not None and "map(to:" in rep.map_pragma


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inferred_regions_verify_clean(name):
    spec = WORKLOADS[name]
    scalars = spec.scalars(spec.test_size)
    rep = infer_region(naive_tofrom_region(spec.build_region("CLOUD")), scalars)
    assert not rep.degraded, rep.reasons
    report = verify_region(rep.region, scalars)
    assert not report.at_least(Severity.WARNING), report.render()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shipped_clauses_are_already_minimal(name):
    spec = WORKLOADS[name]
    rep = infer_region(spec.build_region("CLOUD"), spec.scalars(spec.test_size))
    assert not rep.degraded, rep.reasons
    assert not rep.changed  # inference is a no-op on the hand-tuned clauses


def test_analyze_ranges_recovers_row_windows():
    loop = make_region().loops[0]
    ranges = analyze_ranges(loop)
    assert ranges.complete
    env = {"i": 2, "N": 8}
    lo, hi = ranges.read_windows["A"]
    assert (lo.eval(env), hi.eval(env)) == (16, 24)
    lo, hi = ranges.write_windows["C"]
    assert (lo.eval(env), hi.eval(env)) == (16, 24)


def test_suggestions_cover_maps_and_partitions():
    spec = WORKLOADS["gemm"]
    naive = naive_tofrom_region(spec.build_region("CLOUD"))
    rep = infer_region(naive, spec.scalars(spec.test_size))
    kinds = {s["kind"] for s in rep.suggestions()}
    assert kinds == {"map", "partition"}
    for sug in rep.suggestions():
        assert {"region", "kind", "loop", "name", "current",
                "suggested"} <= set(sug)


# ---------------------------------------------------------------- degradation
def _helper_mutates(x):
    x[:] = 1.0  # invisible to the analyzer


def tile_opaque(lo, hi, arrays, scalars):
    _helper_mutates(arrays["C"])


_EXEC_NS: dict = {}
exec(
    "def tile_no_source(lo, hi, arrays, scalars):\n"
    "    arrays['C'][lo:hi] = 0.0\n",
    _EXEC_NS,
)


def test_opaque_call_degrades_to_original():
    naive = naive_tofrom_region(make_region(body=tile_opaque))
    rep = infer_region(naive, SCALARS)
    assert rep.degraded
    assert rep.region is naive  # never narrows on incomplete dataflow
    assert not rep.changed and rep.narrowed == 0 and rep.partitions_added == 0
    assert rep.map_pragma is None
    assert any("opaque" in reason for reason in rep.reasons)


def test_unavailable_source_degrades_to_original():
    naive = naive_tofrom_region(make_region(body=_EXEC_NS["tile_no_source"]))
    rep = infer_region(naive, SCALARS)
    assert rep.degraded
    assert rep.region is naive
    assert any("source" in reason for reason in rep.reasons)


def test_missing_body_degrades_to_original():
    naive = naive_tofrom_region(make_region(body=None))
    rep = infer_region(naive, SCALARS)
    assert rep.degraded
    assert rep.region is naive
    assert any("no kernel body" in reason for reason in rep.reasons)


def test_degraded_region_keeps_user_partitions_verbatim():
    region = make_region(body=tile_opaque)
    rep = infer_region(region, SCALARS)
    assert rep.degraded
    assert rep.region.loops[0].partition_pragma == region.loops[0].partition_pragma


# ----------------------------------------------------------------- advisories
def test_advisories_are_notes_and_carry_fixits():
    spec = WORKLOADS["gemm"]
    naive = naive_tofrom_region(spec.build_region("CLOUD"))
    report = verify_region(naive, spec.scalars(spec.test_size))
    advisories = [d for d in report.diagnostics if d.code in ("OMP201", "OMP202")]
    assert {d.code for d in advisories} == {"OMP201", "OMP202"}
    for diag in advisories:
        assert diag.severity is Severity.NOTE
        assert diag.hint  # the inferred clause rides along as the fix-it


def test_clean_region_has_no_advisories():
    report = verify_region(clean_region(), SCALARS)
    assert not report.diagnostics, report.render()


# -------------------------------------------------------------------- oracle
@pytest.mark.parametrize("name", ["gemm", "covar", "3mm"])
def test_infer_maps_offload_matches_reference(name, cloud_config):
    spec = WORKLOADS[name]
    arrays = spec.inputs(spec.test_size)
    scalars = spec.scalars(spec.test_size)
    expected = spec.reference({k: v.copy() for k, v in arrays.items()}, scalars)
    naive = naive_tofrom_region(spec.build_region("CLOUD"))
    runtime = make_cloud_runtime(cloud_config)
    offload(naive, arrays=arrays, scalars=scalars, runtime=runtime,
            infer_maps=True)
    for key, want in expected.items():
        np.testing.assert_allclose(arrays[key], want, rtol=1e-4, atol=1e-5)
