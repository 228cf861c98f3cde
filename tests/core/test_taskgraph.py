"""Deferred target tasks and task-graph fusion (docs/TASKGRAPH.md).

The legality matrix: every planner rejection reason has a test that
constructs it, and every runtime-level degradation (buffer conflict,
strict verification of the merged region, driver death mid-fused-job)
ends in bit-identical results with the reason on record.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import ParallelLoop, RegionError, TargetRegion, offload
from repro.core.taskgraph import GraphNode, build_plan, depend
from repro.obs.events import EventBus, use_bus
from repro.spark.faults import FaultPlan
from repro.workloads.polybench import mm3_chain_regions, mm3_inputs

from tests.conftest import make_cloud_runtime

N = 48


def _chain_inputs(n=N, seed=7):
    arrays = mm3_inputs(n, seed=seed)
    for name in ("E", "F"):
        arrays[name] = np.zeros(n * n, dtype=np.float32)
    return arrays


def _run_chain(rt, arrays, n=N, *, nowait, managed=True, explicit_depend=False):
    """The 3MM chain: synchronous when ``nowait`` is False, deferred (and
    flushed by one taskwait) when True.  Returns (handles_or_reports,
    taskwait_reports)."""
    regions = mm3_chain_regions("CLOUD")
    deps = (
        (depend(in_=("A", "B"), out="E"),
         depend(in_=("C", "D"), out="F"),
         depend(in_=("E", "F"), out="G"))
        if explicit_depend else (None, None, None)
    )

    def run_all():
        out = [offload(region, arrays=arrays, scalars={"N": n}, runtime=rt,
                       nowait=nowait, depend=dep)
               for region, dep in zip(regions, deps)]
        waited = rt.taskwait() if nowait else []
        return out, waited

    if not managed:
        return run_all()
    with rt.target_data(
            device="CLOUD",
            map_to={v: arrays[v] for v in ("A", "B", "C", "D")},
            map_alloc={"E": arrays["E"], "F": arrays["F"]}):
        return run_all()


# --------------------------------------------------------------- end to end
def test_fused_chain_is_bit_identical_and_shares_one_report(cloud_config):
    serial = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    _run_chain(rt, serial, nowait=False)

    fused_arrays = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        handles, reports = _run_chain(rt, fused_arrays, nowait=True,
                                      explicit_depend=True)

    for name in serial:
        assert np.array_equal(serial[name], fused_arrays[name]), name

    assert len(reports) == 3
    fused = handles[2].wait()
    assert all(h.done and h.report is fused for h in handles)
    assert all(r is fused for r in reports)
    assert fused.fused_regions == 3
    assert fused.fusion_wire_bytes_saved > 0
    assert handles[0].fused_into == handles[2].fused_into is not None

    (event,) = [e for e in bus.events if e.kind == "region_fused"]
    assert sorted(event.members) == ["3mm_e", "3mm_f", "3mm_g"]
    assert sorted(event.elided) == ["E", "F"]


def test_inferred_dataflow_orders_clauseless_chain(cloud_config):
    """No depend clauses at all: the planner falls back to buffer dataflow
    and still fuses the chain correctly."""
    serial = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    _run_chain(rt, serial, nowait=False)

    arrays = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    handles, _ = _run_chain(rt, arrays, nowait=True, explicit_depend=False)
    assert handles[2].wait().fused_regions == 3
    assert np.array_equal(serial["G"], arrays["G"])


def test_unmanaged_chain_degrades_with_reason_but_stays_correct(cloud_config):
    serial = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    _run_chain(rt, serial, nowait=False, managed=False)

    arrays = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    handles, reports = _run_chain(rt, arrays, nowait=True, managed=False)

    assert len({id(r) for r in reports}) == 3
    assert all(r.fused_regions == 0 for r in reports)
    reasons = {reason for r in reports for _, reason in r.fusion_rejected}
    assert "intermediate-not-resident" in reasons
    assert np.array_equal(serial["G"], arrays["G"])


def test_scope_exit_flushes_the_deferred_queue(cloud_config):
    arrays = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    regions = mm3_chain_regions("CLOUD")
    with rt.target_data(
            device="CLOUD",
            map_to={v: arrays[v] for v in ("A", "B", "C", "D")},
            map_alloc={"E": arrays["E"], "F": arrays["F"]}):
        handles = [offload(r, arrays=arrays, scalars={"N": N}, runtime=rt,
                           nowait=True) for r in regions]
        assert not any(h.done for h in handles)
    assert all(h.done for h in handles)

    serial = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    _run_chain(rt, serial, nowait=False)
    assert np.array_equal(serial["G"], arrays["G"])


def test_target_update_demotes_fusion_that_would_elide_its_array(cloud_config):
    arrays = _chain_inputs()
    rt = make_cloud_runtime(cloud_config)
    regions = mm3_chain_regions("CLOUD")
    with rt.target_data(
            device="CLOUD",
            map_to={v: arrays[v] for v in ("A", "B", "C", "D")},
            map_alloc={"E": arrays["E"], "F": arrays["F"]}) as env:
        handles = [offload(r, arrays=arrays, scalars={"N": N}, runtime=rt,
                           nowait=True) for r in regions]
        env.update(from_="E")  # sync point: flushes, demotes the fusion
        assert all(h.done for h in handles)
    reasons = {reason for h in handles
               for _, reason in h.report.fusion_rejected}
    assert reasons == {"dirty-target-update"}
    assert all(h.report.fused_regions == 0 for h in handles)

    n = N
    expect_e = (arrays["A"].reshape(n, n) @ arrays["B"].reshape(n, n))
    assert np.allclose(arrays["E"].reshape(n, n), expect_e,
                       rtol=3e-5, atol=1e-4)


def test_taskwait_with_nothing_pending_is_a_noop(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    assert rt.taskwait() == []


def test_depend_without_nowait_is_rejected(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    arrays = _chain_inputs()
    region = mm3_chain_regions("CLOUD")[0]
    with pytest.raises(RegionError, match="without nowait"):
        offload(region, arrays=arrays, scalars={"N": N}, runtime=rt,
                depend=depend(in_=("A", "B"), out="E"))


def test_depend_needs_at_least_one_side():
    with pytest.raises(RegionError):
        depend()


# ------------------------------------------------------- planner-level matrix
def _nodes(regions, **overrides):
    common = dict(device="CLOUD", host=False, mode="modeled", strict=False,
                  depend=None, scalars={"N": N}, nbytes={})
    nodes = []
    for i, region in enumerate(regions):
        kw = dict(common)
        for key, per_node in overrides.items():
            kw[key] = per_node[i]
        nodes.append(GraphNode(index=i, region=region, **kw))
    return nodes


def _resident_chain(_device, name):
    return "alloc" if name in ("E", "F") else "to"


def _not_resident(_device, _name):
    return None


def test_plan_fuses_resident_chain_bridging_both_producers():
    plan = build_plan(_nodes(mm3_chain_regions("CLOUD")),
                      resident=_resident_chain)
    (group,) = plan.groups
    assert group.fused and group.members == (0, 1, 2)
    assert group.elided == ("E", "F")
    assert plan.waves == ((0,),)
    assert plan.rejected == ()


def test_plan_rejects_unresident_intermediates():
    plan = build_plan(_nodes(mm3_chain_regions("CLOUD")),
                      resident=_not_resident)
    assert len(plan.groups) == 3
    assert not any(g.fused for g in plan.groups)
    assert len(plan.waves) == 2  # E, F independent; G waits on both
    assert any(reason == "intermediate-not-resident"
               for _, reason in plan.rejected)


@pytest.mark.parametrize("override, reason", [
    ({"host": (False, False, True)}, "host-fallback"),
    ({"device": ("CLOUD", "CLOUD", "CLOUD2")}, "device-mismatch"),
    ({"mode": ("modeled", "modeled", "functional")}, "mode-mismatch"),
    ({"scalars": ({"N": N}, {"N": N}, {"N": N + 1})}, "scalar-conflict"),
])
def test_plan_rejects_incompatible_member(override, reason):
    plan = build_plan(_nodes(mm3_chain_regions("CLOUD"), **override),
                      resident=_resident_chain)
    assert not any(g.fused for g in plan.groups)
    assert any(r == reason for _, r in plan.rejected), plan.rejected


def _tiny(name, reads, writes, trip="N", extra_reads=(), locals_=None,
          device="CLOUD"):
    def body(lo, hi, arrays, scalars):
        acc = np.zeros(hi - lo, dtype=np.float32)
        for r in reads:
            acc += np.asarray(arrays[r][lo:hi])
        arrays[writes][lo:hi] = acc + np.float32(1.0)

    to = ", ".join(f"{r}[:{trip}]" for r in reads)
    return TargetRegion(
        name=name,
        pragmas=[f"omp target device({device})",
                 f"omp map(to: {to}) map(from: {writes}[:{trip}])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count=trip,
            reads=tuple(reads) + tuple(extra_reads), writes=(writes,),
            partition_pragma=(f"omp target data map(to: {reads[0]}[i:i+1]) "
                              f"map(from: {writes}[i:i+1])"),
            body=body,
        )],
        locals_=locals_ or {},
    )


def test_plan_rejects_incompatible_tilings():
    regions = [_tiny("p", ("A",), "X", trip="N"),
               _tiny("q", ("X",), "Y", trip="M")]
    nodes = _nodes(regions, scalars=({"N": 8, "M": 16}, {"N": 8, "M": 16}))
    plan = build_plan(nodes, resident=lambda _d, _n: "alloc")
    assert not any(g.fused for g in plan.groups)
    assert any(reason == "incompatible-tilings"
               for _, reason in plan.rejected)


def test_plan_dirty_target_update_demotes_eliding_group():
    plan = build_plan(_nodes(mm3_chain_regions("CLOUD")),
                      resident=_resident_chain,
                      update_names=frozenset({"E"}))
    assert not any(g.fused for g in plan.groups)
    assert any(reason == "dirty-target-update"
               for _, reason in plan.rejected)


def test_plan_depend_edges_need_clauses_on_both_sides():
    """OpenMP 4.5 §2.13.9: an explicit dependence needs depend clauses on
    both tasks; one-sided clauses degrade to inferred dataflow."""
    regions = [_tiny("p", ("A",), "X"), _tiny("q", ("X",), "Y")]
    one_sided = _nodes(regions, depend=(depend(out="X"), None))
    (edge,) = build_plan(one_sided, resident=lambda _d, _n: "alloc").edges
    assert edge.kind == "dataflow" and edge.arrays == ("X",)

    both = _nodes(regions,
                  depend=(depend(out="X"), depend(in_="X", out="Y")))
    (edge,) = build_plan(both, resident=lambda _d, _n: "alloc").edges
    assert edge.kind == "depend" and (edge.src, edge.dst) == (0, 1)


def test_plan_convexity_never_sandwiches_an_outside_dependence():
    """A node may not join a group when an outside node sits on a
    dependence path through it: here the host region consumes Y from the
    fused pair and feeds Z to node 3, so fusing 3 into {0, 1} would
    sandwich it."""
    regions = [
        _tiny("w0", ("A",), "X"),
        _tiny("w1", ("X",), "Y"),
        _tiny("hz", ("Y",), "Z"),          # host: breaks the chain
        _tiny("w3", ("X", "Z"), "W"),
    ]
    nodes = _nodes(regions, host=(False, False, True, False))
    plan = build_plan(nodes, resident=lambda _d, _n: "alloc")
    members = sorted(tuple(g.members) for g in plan.groups)
    assert members == [(0, 1), (2,), (3,)]
    assert [g.wave for g in plan.groups] == [0, 1, 2]


# --------------------------------------------- runtime-level late degradation
def test_buffer_conflict_degrades_to_serialized(cloud_config):
    """Both regions stage an un-resident input named B, but bind it to
    *different* host arrays: the merged job cannot serve both, so the group
    degrades and each region stages its own B."""
    n = 64
    rt = make_cloud_runtime(cloud_config)
    rng = np.random.default_rng(3)
    a, b1, b2 = (rng.uniform(-1, 1, n).astype(np.float32) for _ in range(3))
    x = np.zeros(n, dtype=np.float32)
    y = np.zeros(n, dtype=np.float32)
    with rt.target_data(device="CLOUD", map_to={"A": a},
                        map_alloc={"X": x}):
        h_p = offload(_tiny("p", ("A", "B"), "X"),
                      arrays={"A": a, "B": b1, "X": x},
                      scalars={"N": n}, runtime=rt, nowait=True)
        h_q = offload(_tiny("q", ("X", "B"), "Y"),
                      arrays={"X": x, "B": b2, "Y": y},
                      scalars={"N": n}, runtime=rt, nowait=True)
        rt.taskwait()
    assert h_p.report is not h_q.report
    for handle in (h_p, h_q):
        assert handle.report.fused_regions == 0
        assert ("p+q", "buffer-conflict") in handle.report.fusion_rejected
    expect_x = a + b1 + np.float32(1.0)
    assert np.array_equal(y, expect_x + b2 + np.float32(1.0))


def test_strict_member_gates_the_merged_region(cloud_config, monkeypatch):
    """A strict member gates the *merged* region, not just itself (each
    member already passed the submission-time strict gate).  When the
    merged verification fails, the group degrades to serialized execution
    — still correct, reason on record."""
    import repro.analysis as analysis

    real_enforce = analysis.enforce_strict

    def merged_fails(region, scalars=None, **kwargs):
        if getattr(region, "fused_members", ()):
            raise analysis.AnalysisError(analysis.AnalysisReport(),
                                         region.name)
        return real_enforce(region, scalars, **kwargs)

    monkeypatch.setattr(analysis, "enforce_strict", merged_fails)

    n = 64
    rt = make_cloud_runtime(cloud_config)
    a = np.random.default_rng(4).uniform(-1, 1, n).astype(np.float32)
    x = np.zeros(n, dtype=np.float32)
    y = np.zeros(n, dtype=np.float32)
    with rt.target_data(device="CLOUD", map_to={"A": a}, map_alloc={"X": x}):
        offload(_tiny("p", ("A",), "X"), arrays={"A": a, "X": x},
                scalars={"N": n}, runtime=rt, nowait=True)
        h_q = offload(_tiny("q", ("X",), "Y"),
                      arrays={"X": x, "Y": y}, scalars={"N": n},
                      runtime=rt, nowait=True, strict=True)
        rt.taskwait()
    assert h_q.report.fused_regions == 0
    assert ("p+q", "strict-analysis-failure") in h_q.report.fusion_rejected
    assert np.array_equal(y, a + np.float32(1.0) + np.float32(1.0))


def test_strict_members_still_fuse_when_verification_passes(cloud_config):
    n = 64
    rt = make_cloud_runtime(cloud_config)
    a = np.random.default_rng(5).uniform(-1, 1, n).astype(np.float32)
    x = np.zeros(n, dtype=np.float32)
    y = np.zeros(n, dtype=np.float32)
    with rt.target_data(device="CLOUD", map_to={"A": a}, map_alloc={"X": x}):
        h_p = offload(_tiny("p", ("A",), "X"), arrays={"A": a, "X": x},
                      scalars={"N": n}, runtime=rt, nowait=True, strict=True)
        offload(_tiny("q", ("X",), "Y"), arrays={"X": x, "Y": y},
                scalars={"N": n}, runtime=rt, nowait=True, strict=True)
        rt.taskwait()
    assert h_p.report.fused_regions == 2
    assert np.array_equal(y, a + np.float32(1.0) + np.float32(1.0))


# ------------------------------------------------------ fused-job durability
def test_driver_death_mid_fused_job_resumes_tile_granular(cloud_config):
    """A driver death halfway through the fused chain's tile wave under
    ``recovery = resume`` replays the journal against the *fused* job (every
    ``tile_done`` record carries its one correlation) and re-executes only
    the missing tiles — bit-identical to the healthy fused run."""
    cfg = replace(cloud_config, recovery="resume")

    healthy = _chain_inputs()
    rt = make_cloud_runtime(cfg)
    _run_chain(rt, healthy, nowait=True)
    ends = sorted(r.payload["end"] for r in
                  rt.device("CLOUD").journal.records("tile_done"))
    assert ends[0] < ends[-1]
    death = ends[len(ends) // 2]

    arrays = _chain_inputs()
    rt = make_cloud_runtime(cfg, fault_plan=FaultPlan(driver_dies_at=death))
    handles, _ = _run_chain(rt, arrays, nowait=True)
    report = handles[2].wait()

    assert not report.fell_back_to_host
    assert report.fused_regions == 3
    assert report.resumes == 1
    assert report.tiles_skipped > 0
    assert report.tiles_checkpointed > 0
    commits = rt.device("CLOUD").journal.records("tile_done")
    (corr,) = {r.correlation_id for r in commits}
    assert {r.payload["region"] for r in commits} == {report.region_name}
    assert rt.device("CLOUD").journal.replay().completed_tiles(corr)
    for name in healthy:
        assert np.array_equal(healthy[name], arrays[name]), name
