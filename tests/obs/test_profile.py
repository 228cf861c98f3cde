"""Critical-path profiler: graph, chain, attribution, what-ifs, billing."""

import dataclasses
import json

import pytest

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.report import OffloadReport
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.obs.events import EventBus, use_bus
from repro.obs.flamegraph import folded_stacks
from repro.obs.profile import (
    WAIT,
    SpanGraph,
    _critical_chain,
    _eps_for,
    profile_offloads,
    profile_report,
)
from repro.simtime.timeline import Phase
from repro.workloads.specs import WORKLOADS


def _report(spans):
    """An OffloadReport with exactly ``spans`` = (phase, t0, t1, resource)."""
    rep = OffloadReport(region_name="synthetic", device_name="CLOUD",
                        mode="modeled")
    for phase, t0, t1, resource, *label in spans:
        rep.timeline.record(phase, t0, t1, resource=resource,
                            label=label[0] if label else "")
    return rep


def run_gemm(n_workers=4, billing=False, fault_plan=None, schedule=None):
    """One modeled gemm offload under a history bus; returns (report, bus,
    device)."""
    spec = WORKLOADS["gemm"]
    cfg = demo_config(n_workers)
    if billing:
        cfg = dataclasses.replace(cfg, manage_instances=True)
    kwargs = {}
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if schedule is not None:
        kwargs["schedule"] = schedule
    bus = EventBus(keep_history=True)
    rt = OffloadRuntime()
    dev = CloudDevice(cfg, physical_cores=32, **kwargs)
    rt.register(dev)
    with use_bus(bus):
        rep = offload(spec.build_region("CLOUD"),
                      scalars=spec.scalars(spec.test_size),
                      runtime=rt, mode=ExecutionMode.MODELED)
    return rep, bus, dev


# ---------------------------------------------------------------- the chain
def test_serial_chain_covers_everything():
    rep = _report([
        (Phase.HOST_UPLOAD, 0.0, 1.0, "host"),
        (Phase.CLUSTER_INIT, 1.0, 4.0, "driver"),
        (Phase.COMPUTE, 4.0, 9.0, "worker-0"),
        (Phase.HOST_DOWNLOAD, 9.0, 9.5, "host"),
    ])
    p = profile_report(rep)
    assert p.wall_s == pytest.approx(9.5)
    assert p.critical_s == pytest.approx(9.5)
    assert p.wait_s == 0.0
    assert [s.phase for s in p.critical_spans] == [
        Phase.HOST_UPLOAD, Phase.CLUSTER_INIT, Phase.COMPUTE,
        Phase.HOST_DOWNLOAD]


def test_chain_picks_the_slowest_parallel_branch():
    rep = _report([
        (Phase.INTRA_TRANSFER, 0.0, 1.0, "driver-nic"),
        (Phase.COMPUTE, 1.0, 2.0, "worker-0"),   # fast branch
        (Phase.COMPUTE, 1.0, 5.0, "worker-1"),   # straggler
        (Phase.COLLECT, 5.0, 5.5, "driver-nic"),
    ])
    p = profile_report(rep)
    assert p.critical_s == pytest.approx(5.5)
    chain_resources = [s.resource for s in p.critical_spans]
    assert "worker-1" in chain_resources
    assert "worker-0" not in chain_resources


def test_gap_becomes_wait_and_attribution_sums_exactly():
    rep = _report([
        (Phase.HOST_UPLOAD, 0.0, 1.0, "host"),
        (Phase.COMPUTE, 3.0, 4.0, "worker-0"),   # 2s of nothing before it
    ])
    p = profile_report(rep)
    assert p.wall_s == pytest.approx(4.0)
    assert p.wait_s == pytest.approx(2.0)
    assert sum(p.phase_self_s.values()) == pytest.approx(p.wall_s, abs=1e-12)
    assert p.phase_self_s[WAIT] == pytest.approx(2.0)


def test_chain_never_exceeds_makespan_with_overlaps():
    rep = _report([
        (Phase.COMPUTE, 0.0, 3.0, "worker-0"),
        (Phase.COMPUTE, 1.0, 4.0, "worker-1"),
        (Phase.COMPUTE, 2.0, 5.0, "worker-2"),
    ])
    p = profile_report(rep)
    assert p.critical_s <= p.wall_s + p.graph.eps
    assert sum(p.phase_self_s.values()) == pytest.approx(p.wall_s)


def test_zero_duration_spans_do_not_cycle():
    spans = [(Phase.RECONSTRUCT, 1.0, 1.0, "driver", f"z{i}")
             for i in range(5)]
    rep = _report([(Phase.HOST_UPLOAD, 0.0, 1.0, "host")] + spans)
    p = profile_report(rep)  # must terminate; graph stays a DAG
    assert p.critical_s == pytest.approx(1.0)


def test_empty_timeline_profiles_cleanly():
    p = profile_report(_report([]))
    assert p.wall_s == 0.0
    assert p.critical_indices == ()
    assert p.to_item()["critical_path"] == []


# ---------------------------------------------------------------- the graph
def test_graph_edge_kinds():
    rep = _report([
        (Phase.HOST_UPLOAD, 0.0, 1.0, "host"),
        (Phase.CLUSTER_INIT, 1.0, 2.0, "driver"),     # dep (cross-resource)
        (Phase.STORAGE_READ, 2.0, 3.0, "driver"),     # seq (same resource)
        (Phase.RETRY_BACKOFF, 3.0, 4.0, "host"),
        (Phase.RESUBMIT, 4.0, 5.0, "host"),           # retry
        (Phase.COMPUTE, 7.0, 8.0, "worker-0"),        # wait (2s gap)
    ])
    g = profile_report(rep).graph
    kinds = {(e.src, e.dst): e.kind
             for preds in g.preds for e in preds}
    spans = g.spans
    by_phase = {s.phase: i for i, s in enumerate(spans)}
    assert kinds[(by_phase[Phase.HOST_UPLOAD],
                  by_phase[Phase.CLUSTER_INIT])] == "dep"
    assert kinds[(by_phase[Phase.CLUSTER_INIT],
                  by_phase[Phase.STORAGE_READ])] == "seq"
    assert kinds[(by_phase[Phase.RETRY_BACKOFF],
                  by_phase[Phase.RESUBMIT])] == "retry"
    wait_edges = [e for preds in g.preds for e in preds if e.kind == "wait"]
    assert len(wait_edges) == 1
    assert wait_edges[0].lag_s == pytest.approx(2.0)


def test_graph_edges_point_forward():
    rep, _, _ = run_gemm()
    g = profile_report(rep).graph
    for preds in g.preds:
        for e in preds:
            su, sv = g.spans[e.src], g.spans[e.dst]
            assert (su.start, e.src) < (sv.start, e.dst)


def test_critical_chain_is_deterministic():
    rep, _, _ = run_gemm()
    spans = sorted(rep.timeline.spans,
                   key=lambda s: (s.start, s.end, s.resource, s.phase.value,
                                  s.label))
    eps = _eps_for(max(s.end for s in spans))
    assert _critical_chain(spans, eps) == _critical_chain(spans, eps)
    assert SpanGraph(spans, eps).edge_count() == \
        SpanGraph(spans, eps).edge_count()


# ---------------------------------------------------------------- what-ifs
def test_what_if_free_upload_shifts_a_serial_chain():
    rep = _report([
        (Phase.HOST_UPLOAD, 0.0, 2.0, "host"),
        (Phase.COMPUTE, 2.0, 5.0, "worker-0"),
        (Phase.HOST_DOWNLOAD, 5.0, 6.0, "host"),
    ])
    p = profile_report(rep)
    assert p.scaled_phases({Phase.HOST_UPLOAD: 0.0}) == pytest.approx(4.0)
    assert p.scaled_phases({}) == pytest.approx(p.wall_s)


def test_what_if_keeps_recorded_wait_lags():
    rep = _report([
        (Phase.HOST_UPLOAD, 0.0, 1.0, "host"),
        (Phase.COMPUTE, 3.0, 4.0, "worker-0"),  # 2s unrecorded wait
    ])
    p = profile_report(rep)
    # Shrinking the upload cannot shrink the unexplained gap after it.
    assert p.scaled_phases({Phase.HOST_UPLOAD: 0.0}) == pytest.approx(3.0)


def test_what_if_scenarios_never_estimate_negative():
    rep, _, _ = run_gemm()
    p = profile_report(rep)
    for w in p.what_if_scenarios():
        assert 0.0 <= w.estimate_s <= p.wall_s + p.graph.eps
        assert w.baseline_s == pytest.approx(p.wall_s)


# ----------------------------------------------------- end-to-end profiling
def test_real_run_is_gap_free_and_exact():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    assert p.critical_s == pytest.approx(p.wall_s)
    assert p.wait_s == pytest.approx(0.0, abs=1e-9)
    assert sum(p.phase_self_s.values()) == pytest.approx(p.wall_s)
    assert p.correlation_id  # paired with the target_begin event


def test_real_run_byte_attribution_from_events():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    assert p.phase_bytes_wire[Phase.HOST_UPLOAD.value] == rep.bytes_up_wire
    assert p.phase_bytes_wire[Phase.HOST_DOWNLOAD.value] == rep.bytes_down_wire
    assert p.phase_bytes_wire[Phase.INTRA_TRANSFER.value] == \
        rep.cluster_bytes_wire
    total = sum(p.phase_bytes_wire.values())
    wire = rep.bytes_up_wire + rep.bytes_down_wire + rep.cluster_bytes_wire
    assert total >= 0.95 * wire


def test_billing_attribution_spreads_the_ledger():
    rep, bus, dev = run_gemm(billing=True)
    ledger = dev.billing_ledger
    assert ledger is not None and ledger.total_usd() > 0
    p = profile_offloads(bus, [rep], ledger=ledger)[0]
    assert p.billed_usd == pytest.approx(ledger.total_usd())
    assert sum(p.phase_usd.values()) == pytest.approx(p.billed_usd)
    assert WAIT not in p.phase_usd  # dollars only land on named phases
    assert sum(p.worker_usd.values()) == pytest.approx(p.billed_usd)


def test_unmanaged_run_attributes_zero_dollars():
    rep, bus, dev = run_gemm(billing=False)
    assert dev.billing_ledger is None
    p = profile_offloads(bus, [rep])[0]
    assert p.billed_usd == rep.billed_usd == 0.0
    assert p.phase_usd == {}


def test_straggler_stats_cover_every_tile():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    st = p.straggler
    assert st is not None
    assert st.tiles == len(p.tile_s) > 0
    assert st.max_s >= st.median_s > 0
    assert st.skew >= 1.0
    assert st.modeled_skew >= 1.0
    assert set(st.quantiles) == {"p50", "p95", "p99"}
    assert st.quantiles["p50"] <= st.quantiles["p95"] <= st.quantiles["p99"]
    assert st.worst_idle_worker in st.idle_s


def test_profile_offloads_pairs_reports_in_order():
    spec = WORKLOADS["gemm"]
    bus = EventBus(keep_history=True)
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(4), physical_cores=32))
    reports = []
    with use_bus(bus):
        for _ in range(2):
            reports.append(offload(spec.build_region("CLOUD"),
                                   scalars=spec.scalars(spec.test_size),
                                   runtime=rt, mode=ExecutionMode.MODELED))
    profiles = profile_offloads(bus, reports)
    corr = [p.correlation_id for p in profiles]
    assert len(set(corr)) == 2 and all(corr)


def test_to_item_is_json_serializable():
    rep, bus, dev = run_gemm(billing=True)
    p = profile_offloads(bus, [rep], ledger=dev.billing_ledger)[0]
    item = json.loads(json.dumps(p.to_item()))
    assert item["wall_s"] == pytest.approx(p.wall_s)
    assert item["critical_path"][0]["phase"] == Phase.HOST_UPLOAD.value
    assert item["critical_path"][-1]["phase"] in (
        Phase.HOST_DOWNLOAD.value, Phase.HOST_DECOMPRESS.value)
    assert len(item["what_if"]) == 4


def test_render_mentions_the_essentials():
    rep, bus, dev = run_gemm(billing=True)
    p = profile_offloads(bus, [rep], ledger=dev.billing_ledger)[0]
    text = p.render()
    for needle in ("critical path", "wall", "what-if", "billed",
                   "upload_free", "tiles:"):
        assert needle in text


# ---------------------------------------------------------------- flamegraph
def test_folded_busy_stacks_sum_to_busy_time():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    text = folded_stacks(p, mode="busy")
    total_us = sum(int(line.rsplit(" ", 1)[1]) for line in text.splitlines())
    busy_us = sum(round(s.duration * 1e6) for s in p.spans)
    assert total_us == pytest.approx(busy_us, rel=1e-3)


def test_folded_critical_stacks_sum_to_wall_clock():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    text = folded_stacks(p, mode="critical")
    total_us = sum(int(line.rsplit(" ", 1)[1]) for line in text.splitlines())
    assert total_us == pytest.approx(p.wall_s * 1e6, rel=1e-3)


def test_folded_output_is_deterministic_and_sorted():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    text = folded_stacks(p)
    assert text == folded_stacks(p)
    stacks = [line.rsplit(" ", 1)[0] for line in text.splitlines()]
    assert stacks == sorted(stacks)


def test_folded_rejects_unknown_mode():
    rep, bus, _ = run_gemm()
    p = profile_offloads(bus, [rep])[0]
    with pytest.raises(ValueError, match="mode"):
        folded_stacks(p, mode="flame")


# ------------------------------------------------------- inferred what-if
def test_inferred_twin_of_a_naive_region_moves_fewer_bytes():
    """The inferred-minimal what-if is an applied twin: the naive all-tofrom
    region offloaded again with ``infer_maps=True`` moves fewer bytes and
    finishes no later."""
    from repro.analysis.infer import naive_tofrom_region
    from repro.obs.bench import _config, _offload

    spec = WORKLOADS["gemm"]
    naive = naive_tofrom_region(spec.build_region("CLOUD"))
    scalars = spec.scalars(spec.test_size)
    _, rep = _offload(naive, scalars, _config(4), physical_cores=32)
    _, twin = _offload(naive, scalars, _config(4), infer_maps=True,
                       physical_cores=32)
    assert (twin.bytes_up_raw + twin.bytes_down_raw
            < rep.bytes_up_raw + rep.bytes_down_raw)
    assert profile_report(twin).wall_s <= profile_report(rep).wall_s
