"""Persistent device data environments (`target data`) end to end.

Covers the mapping-table semantics (refcount nesting, identity checks), the
runtime front end (``target_data`` / ``target_update`` / presence queries),
the cloud plugin's residency behaviour (the second offload of a chain skips
the upload of environment-mapped buffers), the host-fallback interaction
(dirty device copies are synced home and the environment survives), and the
``repro.omp`` facade entry points.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import Buffer, ExecutionMode
from repro.core.data_env import DataEnvError, DataEnvironment
from repro.core.omp_ast import MapType
from repro.obs.events import EventBus, use_bus
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber
from repro.spark.faults import FaultPlan

from tests.conftest import make_cloud_runtime


def _copy_region(n_scalar="N"):
    def body(lo, hi, arrays, scalars):
        arrays["C"][lo:hi] = np.asarray(arrays["A"][lo:hi])

    return TargetRegion(
        name="envcopy",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N]) map(from: C[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count=n_scalar,
            reads=("A",), writes=("C",),
            partition_pragma="omp target data map(to: A[i:i+1]) map(from: C[i:i+1])",
            body=body,
        )],
    )


def _chain_regions():
    """B = A (region 1), C = B (region 2): B crosses between offloads."""

    def mk(name, src, dst):
        def body(lo, hi, arrays, scalars):
            arrays[dst][lo:hi] = np.asarray(arrays[src][lo:hi])

        return TargetRegion(
            name=name,
            pragmas=["omp target device(CLOUD)",
                     f"omp map(to: {src}[:N]) map(from: {dst}[:N])"],
            loops=[ParallelLoop(
                pragma="omp parallel for", loop_var="i", trip_count="N",
                reads=(src,), writes=(dst,),
                partition_pragma=(f"omp target data map(to: {src}[i:i+1]) "
                                  f"map(from: {dst}[i:i+1])"),
                body=body,
            )],
        )

    return mk("stage1", "A", "B"), mk("stage2", "B", "C")


# ------------------------------------------------------------- mapping table
def test_refcount_nesting_keeps_entry_alive():
    env = DataEnvironment("CLOUD")
    a = np.zeros(8, dtype=np.float32)
    buf = Buffer("A", a)
    outer = env.begin(buf, MapType.TO, persistent=True)
    inner = env.begin(Buffer("A", a), MapType.TO)
    assert inner is outer
    assert env.ref_count("A") == 2
    assert env.end("A") is None  # inner exit: still referenced
    assert env.is_mapped("A")
    released = env.end("A")  # outer exit: copy-back time
    assert released is outer
    assert not env.is_mapped("A")
    assert env.ref_count("A") == 0


def test_persistent_entry_keeps_declared_map_type():
    env = DataEnvironment("CLOUD")
    a = np.zeros(8, dtype=np.float32)
    entry = env.begin(Buffer("A", a), MapType.TO, persistent=True)
    # An inner target mapping the variable from: does NOT promote the
    # persistent entry — the enclosing `target data` owns the exit transfers.
    env.begin(Buffer("A", a), MapType.FROM)
    assert entry.map_type is MapType.TO


def test_transient_conflicting_map_types_promote_to_tofrom():
    env = DataEnvironment("CLOUD")
    a = np.zeros(8, dtype=np.float32)
    entry = env.begin(Buffer("A", a), MapType.TO)
    env.begin(Buffer("A", a), MapType.FROM)
    assert entry.map_type is MapType.TOFROM


def test_same_name_different_host_array_is_rejected():
    env = DataEnvironment("CLOUD")
    env.begin(Buffer("A", np.zeros(8, dtype=np.float32)), MapType.TO)
    with pytest.raises(DataEnvError, match="different host buffer"):
        env.begin(Buffer("A", np.ones(8, dtype=np.float32)), MapType.TO)


def test_end_of_unmapped_variable_raises():
    env = DataEnvironment("CLOUD")
    with pytest.raises(DataEnvError, match="not mapped"):
        env.end("ghost")


# ------------------------------------------------------ runtime: target data
def test_target_data_presence_and_nested_refcounts(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    a = np.arange(64, dtype=np.float32)
    dev_env = rt.device("CLOUD").env

    with rt.target_data(device="CLOUD", map_to={"A": a}) as outer:
        assert outer.is_present("A")
        assert dev_env.ref_count("A") == 1
        inner = rt.target_data_begin(device="CLOUD", map_to={"A": a})
        assert dev_env.ref_count("A") == 2
        assert inner.report.resident_hits == 1  # found, not re-staged
        rt.target_data_end(inner)
        # Inner exit decrements but the outer reference keeps A resident.
        assert dev_env.ref_count("A") == 1
        assert outer.is_present("A")
    assert not dev_env.is_mapped("A")


def test_target_data_end_is_idempotent(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    a = np.arange(16, dtype=np.float32)
    scope = rt.target_data_begin(device="CLOUD", map_to={"A": a})
    first = rt.target_data_end(scope)
    assert not scope.active
    assert rt.target_data_end(scope) is first  # no double-decrement
    assert not rt.device("CLOUD").env.is_mapped("A")


def test_duplicate_name_across_map_clauses_rejected(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    a = np.zeros(8, dtype=np.float32)
    with pytest.raises(DataEnvError, match="more than one map clause"):
        rt.target_data_begin(device="CLOUD", map_to={"A": a},
                             map_from={"A": a})


def test_update_to_and_from_move_fresh_data(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    n = 128
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    region = _copy_region()

    with rt.target_data(device="CLOUD", map_to={"A": a},
                        map_from={"C": c}) as env:
        offload(region, arrays={"A": a, "C": c}, scalars={"N": n}, runtime=rt)

        # Host mutates A; without `target update to`, the device would keep
        # computing on the stale resident copy.
        a[:] = a + 100.0
        env.update(to="A")
        offload(region, arrays={"A": a, "C": c}, scalars={"N": n}, runtime=rt)

        # `target update from` syncs the device's C home *inside* the region.
        env.update(from_="C")
        assert np.allclose(c, a)
        assert env.report.updates_to == 1
        assert env.report.updates_from == 1
    assert np.allclose(c, a)  # exit copy-out agrees


def test_update_on_closed_scope_raises(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    a = np.arange(8, dtype=np.float32)
    scope = rt.target_data_begin(device="CLOUD", map_to={"A": a})
    scope.close()
    with pytest.raises(DataEnvError, match="closed"):
        scope.update(to="A")


# ----------------------------------------------- residency: transfer skipping
def test_second_offload_reuses_resident_buffers(cloud_config):
    """The acceptance scenario: a chained run inside `target data` uploads
    the shared buffers once; later offloads report resident hits and zero
    upload traffic — visible in the offload report AND in the
    ``repro_data_env_bytes_not_retransferred`` metric."""
    rt = make_cloud_runtime(cloud_config)
    n = 256
    a = np.arange(n, dtype=np.float32)
    b = np.zeros(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    stage1, stage2 = _chain_regions()

    bus = EventBus(keep_history=True)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(bus)
    with use_bus(bus):
        with rt.target_data(device="CLOUD", map_to={"A": a},
                            map_alloc={"B": b}, map_from={"C": c}) as env:
            r1 = offload(stage1, arrays={"A": a, "B": b, "C": c},
                         scalars={"N": n}, runtime=rt)
            r2 = offload(stage2, arrays={"A": a, "B": b, "C": c},
                         scalars={"N": n}, runtime=rt)

    assert np.allclose(c, a)
    # The environment staged A once at enter; both offloads found their
    # inputs resident and uploaded nothing.
    assert env.report.bytes_up_raw == a.nbytes
    assert r1.resident_hits >= 1
    assert r2.resident_hits >= 1
    assert r1.bytes_up_raw == 0
    assert r2.bytes_up_raw == 0
    # stage2's input B was produced on-device by stage1 and never crossed
    # the WAN in either direction mid-environment.
    assert r1.bytes_down_raw == 0
    assert r2.bytes_not_retransferred >= b.nbytes

    saved = registry.get("repro_data_env_bytes_not_retransferred").total()
    hits = registry.get("repro_data_env_resident_hits_total").total()
    assert saved == r1.bytes_not_retransferred + r2.bytes_not_retransferred
    assert saved > 0
    assert hits == r1.resident_hits + r2.resident_hits
    assert registry.get("repro_data_env_enters_total").total() == 1
    assert registry.get("repro_data_env_exits_total").total() == 1


def test_alloc_mapped_output_stays_on_device(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    n = 64
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    with rt.target_data(device="CLOUD", map_to={"A": a},
                        map_alloc={"C": c}):
        offload(_copy_region(), arrays={"A": a, "C": c}, scalars={"N": n},
                runtime=rt)
    # map(alloc:) means space only — no copy-out at exit.
    assert not np.any(c)


# ----------------------------------------------------- fallback interaction
def test_host_fallback_invalidates_environment(cloud_config):
    """A mid-environment cloud failure falls back to host: dirty device
    copies are synced home first, handles are dropped, refcounts survive,
    and the host rerun (plus the environment exit) stays correct."""
    n = 128
    a = np.arange(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    plan = FaultPlan(spark_submit_failures=99)
    rt = make_cloud_runtime(cloud_config, fault_plan=plan)
    dev_env = rt.device("CLOUD").env

    with rt.target_data(device="CLOUD", map_to={"A": a},
                        map_from={"C": c}) as env:
        with pytest.warns(RuntimeWarning, match="falling back to host"):
            offload(_copy_region(), arrays={"A": a, "C": c},
                    scalars={"N": n}, runtime=rt)
        # The environment is still open (refcounts intact) but no longer
        # holds device copies.
        assert env.is_present("A")
        assert dev_env.ref_count("A") == 1
        assert dev_env.lookup("A").device_handle is None
        assert np.allclose(c, a)  # host ran the region correctly
    assert np.allclose(c, a)
    assert not dev_env.is_mapped("A")


def test_fallback_syncs_dirty_outputs_home(cloud_config):
    """If the device already computed an output in an earlier (successful)
    offload, the fallback invalidation must GET it home before dropping
    the handle — otherwise the host rerun reads stale data."""
    n = 128
    a = np.arange(n, dtype=np.float32)
    b = np.zeros(n, dtype=np.float32)
    c = np.zeros(n, dtype=np.float32)
    stage1, stage2 = _chain_regions()
    rt = make_cloud_runtime(cloud_config)

    with rt.target_data(device="CLOUD", map_to={"A": a}, map_alloc={"B": b},
                        map_from={"C": c}):
        offload(stage1, arrays={"A": a, "B": b, "C": c}, scalars={"N": n},
                runtime=rt)
        assert not np.any(b)  # B still lives only on the device
        # From here on every spark-submit fails: stage2 must fall back.
        rt.device("CLOUD")._submit_faults_left = 10**6
        with pytest.warns(RuntimeWarning, match="falling back to host"):
            offload(stage2, arrays={"A": a, "B": b, "C": c},
                    scalars={"N": n}, runtime=rt)
        # Invalidation pulled the device's B into the host array so the
        # host rerun of stage2 saw stage1's result.
        assert np.allclose(b, a)
    assert np.allclose(c, a)


# ------------------------------------------------------------- repro.omp API
def test_omp_facade_target_alloc_free_is_present(cloud_config):
    from repro import omp

    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    name = omp.omp_target_alloc("scratch", 1024, device="CLOUD", runtime=rt)
    assert name == "scratch"
    assert omp.omp_target_is_present("scratch", device="CLOUD", runtime=rt)
    assert dev.env.lookup("scratch").persistent
    with pytest.raises(DataEnvError):
        omp.omp_target_alloc("scratch", 1024, device="CLOUD", runtime=rt)
    omp.omp_target_free("scratch", device="CLOUD", runtime=rt)
    assert not omp.omp_target_is_present("scratch", device="CLOUD", runtime=rt)


def test_root_package_reexports_removed_with_migration_hint():
    import repro

    # The deprecation cycle is complete: the legacy package-root surface is
    # gone and fails like any unknown name.
    for name in ("offload", "WORKLOADS", "not_a_name"):
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)
    # The documented surface itself is untouched.
    from repro.omp import offload as facade_offload

    assert callable(facade_offload)


def test_pyproject_version_is_read_from_the_package():
    pyproject = (Path(__file__).parents[2] / "pyproject.toml").read_text()
    assert ('version = {attr = "repro.__version__"}' in pyproject
            and '\nversion = "' not in pyproject)


def test_offload_options_override_precedence(cloud_config):
    from repro.core.api import OffloadOptions
    from repro.workloads import WORKLOADS

    mm = WORKLOADS["matmul"]
    rt = make_cloud_runtime(cloud_config)
    base = OffloadOptions(runtime=rt, mode=ExecutionMode.FUNCTIONAL)
    # Keyword overrides refine the dataclass without mutating it.
    report = offload(mm.build_region("CLOUD"), scalars=mm.scalars(),
                     options=base, mode=ExecutionMode.MODELED)
    assert report.mode == "modeled"
    assert base.mode is ExecutionMode.FUNCTIONAL
