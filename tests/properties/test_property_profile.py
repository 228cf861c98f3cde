"""Property tests for the critical-path profiler.

The invariants the profiler promises by construction:

* the critical path never exceeds the wall clock (the chain is a set of
  pairwise non-overlapping spans inside ``[t0, t1]``);
* per-phase self-time — including the synthetic WAIT residual — always sums
  to the wall clock exactly;
* a fault-free run under the default ``ScheduleConfig`` has a gap-free
  timeline, so the chain covers the whole wall and WAIT is zero;
* all of the above keep holding when faults force retries, resubmissions,
  and preemption recovery into the timeline.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.report import OffloadReport
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import demo_config
from repro.obs.events import EventBus, use_bus
from repro.obs.profile import WAIT, profile_offloads, profile_report
from repro.simtime.timeline import Phase
from repro.spark.faults import FaultPlan
from repro.workloads.specs import WORKLOADS

PHASES = sorted(Phase, key=lambda p: p.value)

span_strategy = st.tuples(
    st.sampled_from(PHASES),
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),  # start
    st.floats(min_value=0.0, max_value=50.0,
              allow_nan=False, allow_infinity=False),  # duration
    st.sampled_from(["host", "driver", "driver-nic",
                     "worker-0", "worker-1", "worker-2"]),
)


def _profile_of(raw_spans):
    rep = OffloadReport(region_name="synthetic", device_name="CLOUD",
                        mode="modeled")
    for phase, start, dur, resource in raw_spans:
        rep.timeline.record(phase, start, start + dur, resource=resource)
    return profile_report(rep)


# ----------------------------------------------------- structural invariants
@given(spans=st.lists(span_strategy, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_critical_path_never_exceeds_wall_clock(spans):
    p = _profile_of(spans)
    assert p.critical_s <= p.wall_s + p.graph.eps


@given(spans=st.lists(span_strategy, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_attribution_sums_to_wall_clock(spans):
    p = _profile_of(spans)
    total = sum(p.phase_self_s.values())
    assert abs(total - p.wall_s) <= 1e-6 * max(1.0, p.wall_s)
    assert all(v >= 0 for v in p.phase_self_s.values())


@given(spans=st.lists(span_strategy, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_chain_spans_are_ordered_and_disjoint(spans):
    p = _profile_of(spans)
    chain = p.critical_spans
    for a, b in zip(chain, chain[1:]):
        assert a.end <= b.start + p.graph.eps  # non-overlapping, in order
    # Wall = chain coverage + waits, by construction.
    assert p.critical_s + p.wait_s <= p.wall_s + len(chain) * p.graph.eps


# ------------------------------------------------------ fault-free equality
@given(
    workload=st.sampled_from(["gemm", "2mm", "covar"]),
    cores=st.sampled_from([8, 32, 128]),
    n_workers=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=12, deadline=None)
def test_serialized_run_has_no_interior_wait(workload, cores, n_workers):
    """Default schedule, no faults: every simulated wait is some recorded
    span's duration, so the chain covers the whole wall."""
    spec = WORKLOADS[workload]
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(n_workers), physical_cores=cores))
    rep = offload(spec.build_region("CLOUD"),
                  scalars=spec.scalars(spec.test_size),
                  runtime=rt, mode=ExecutionMode.MODELED)
    p = profile_report(rep)
    assert p.wait_s <= 1e-6 * p.wall_s
    assert p.critical_s >= 0.999 * p.wall_s
    assert WAIT not in p.phase_total_s


# --------------------------------------------------------- chaos-seeded runs
@given(
    ssh_failures=st.integers(min_value=0, max_value=3),
    submit_failures=st.integers(min_value=0, max_value=2),
    preempt=st.booleans(),
    n_workers=st.sampled_from([2, 4]),
)
@settings(max_examples=10, deadline=None)
def test_invariants_survive_faults(ssh_failures, submit_failures, preempt,
                                   n_workers):
    plan = FaultPlan(
        ssh_connect_failures=ssh_failures,
        spark_submit_failures=submit_failures,
        preempt_at={"worker-0": 0.5} if preempt else {},
    )
    spec = WORKLOADS["gemm"]
    bus = EventBus(keep_history=True)
    rt = OffloadRuntime()
    rt.register(CloudDevice(demo_config(n_workers), physical_cores=32,
                            fault_plan=plan))
    with use_bus(bus):
        rep = offload(spec.build_region("CLOUD"),
                      scalars=spec.scalars(spec.test_size),
                      runtime=rt, mode=ExecutionMode.MODELED)
    p = profile_offloads(bus, [rep])[0]
    assert p.critical_s <= p.wall_s + p.graph.eps
    assert abs(sum(p.phase_self_s.values()) - p.wall_s) <= 1e-6 * p.wall_s
    if ssh_failures or submit_failures:
        # Retries leave their mark on the timeline and the profile sees it
        # (ssh retries back off; submit failures resubmit).
        assert any(s.phase in (Phase.RETRY_BACKOFF, Phase.RESUBMIT)
                   for s in p.spans)
