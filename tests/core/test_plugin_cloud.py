"""Cloud plugin behaviours: staging, compression threshold, SSH submission,
instance management, reports."""

import hashlib
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.perfmodel.compression import DENSE_MODEL
from repro.simtime import Phase
from repro.spark.serialization import JavaArrayLimitError

from tests.conftest import make_cloud_runtime


def _copy_region(device="CLOUD", src="A", dst="C", name="copy"):
    def body(lo, hi, arrays, scalars):
        arrays[dst][lo:hi] = np.asarray(arrays[src][lo:hi])

    return TargetRegion(
        name=name,
        pragmas=[f"omp target device({device})",
                 f"omp map(to: {src}[:N]) map(from: {dst}[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=(src,), writes=(dst,),
            partition_pragma=(f"omp target data map(to: {src}[i:i+1]) "
                              f"map(from: {dst}[i:i+1])"),
            body=body, flops_per_iter=2.0,
        )],
    )


def _run(runtime, n=64, dtype=np.float32):
    a = np.arange(n, dtype=dtype)
    c = np.zeros(n, dtype=dtype)
    report = offload(_copy_region(), arrays={"A": a, "C": c},
                     scalars={"N": n}, runtime=runtime)
    return a, c, report


def test_inputs_staged_to_storage(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    _run(rt)
    keys = list(dev.storage.list_keys())
    assert any("in/A" in k for k in keys)
    assert any("out/C" in k for k in keys)


def test_small_buffers_skip_compression(cloud_config):
    # min_compress_size = 256 in the fixture; 64 floats = 256 bytes... use 32.
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    a, c, report = _run(rt, n=32)
    key = next(k for k in dev.storage.list_keys() if "in/A" in k)
    assert dev.storage.size_of(key) == 128  # stored raw


def test_large_buffers_gzip(cloud_config):
    cfg = replace(cloud_config, min_compress_size=64)
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")
    # Zero-filled input compresses dramatically.
    a = np.zeros(1024, dtype=np.float32)
    c = np.zeros(1024, dtype=np.float32)
    offload(_copy_region(), arrays={"A": a, "C": c}, scalars={"N": 1024}, runtime=rt)
    key = next(k for k in dev.storage.list_keys() if "in/A" in k)
    assert dev.storage.size_of(key) < 4096
    assert np.array_equal(c, a)


def test_compression_disabled_by_config(cloud_config):
    cfg = replace(cloud_config, compression=False, min_compress_size=0)
    rt = make_cloud_runtime(cfg)
    dev = rt.device("CLOUD")
    a = np.zeros(1024, dtype=np.float32)
    c = np.zeros(1024, dtype=np.float32)
    offload(_copy_region(), arrays={"A": a, "C": c}, scalars={"N": 1024}, runtime=rt)
    key = next(k for k in dev.storage.list_keys() if "in/A" in k)
    assert dev.storage.size_of(key) == 4096


def test_host_hop_prices_gzip_by_the_device_threshold(cloud_config):
    """The host's deflate and inflate seconds follow the device's
    ``min_compress_size`` (256 B in the fixture), the threshold that decides
    which objects are gzip'd, not the 1 MiB default."""
    rt = make_cloud_runtime(cloud_config)
    a = np.arange(1024, dtype=np.float32)
    c = np.zeros(1024, dtype=np.float32)
    report = offload(_copy_region(), arrays={"A": a, "C": c},
                     scalars={"N": 1024}, runtime=rt)
    keys = list(rt.device("CLOUD").storage.list_keys())
    assert any(k.endswith("in/A.bin.gz") for k in keys)
    assert any(k.endswith("out/C.bin.gz") for k in keys)
    codec_s = {s.phase: s.duration for s in report.timeline.spans
               if s.phase in (Phase.HOST_COMPRESS, Phase.HOST_DECOMPRESS)}
    assert codec_s == {
        Phase.HOST_COMPRESS: pytest.approx(DENSE_MODEL.compress_time(4096)),
        Phase.HOST_DECOMPRESS: pytest.approx(DENSE_MODEL.decompress_time(4096))}


def _sum_region(k):
    """C = A0 + ... + A(k-1): ``k`` mapped inputs of N floats each."""
    names = [f"A{i}" for i in range(k)]
    return TargetRegion(
        name=f"sum{k}",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: " + ", ".join(f"{a}[:N]" for a in names)
                 + ") map(from: C[:N])"],
        loops=[ParallelLoop(pragma="omp parallel for", loop_var="i",
                            trip_count="N", reads=tuple(names), writes=("C",),
                            flops_per_iter=float(k))],
    )


def test_host_upload_deflates_one_thread_per_buffer_by_density(cloud_config):
    """Modeled: each mapped buffer gets its own host thread, so 1 and 4
    equal 2 MiB inputs pay the same ``host_compress`` span; sparse inputs
    deflate faster and ship fewer bytes, so their host upload is shorter."""
    n = 1 << 19  # 2 MiB of float32

    def upload_spans(k, density):
        report = offload(_sum_region(k), scalars={"N": n},
                         runtime=make_cloud_runtime(cloud_config),
                         mode=ExecutionMode.MODELED,
                         densities={f"A{i}": density for i in range(k)})
        return {s.phase: s.duration for s in report.timeline.spans
                if s.phase in (Phase.HOST_COMPRESS, Phase.HOST_UPLOAD)}

    one, four = upload_spans(1, 1.0), upload_spans(4, 1.0)
    assert one[Phase.HOST_COMPRESS] == pytest.approx(
        DENSE_MODEL.compress_time(4 * n))
    assert four[Phase.HOST_COMPRESS] == one[Phase.HOST_COMPRESS]
    sparse = upload_spans(1, 0.05)
    assert sum(sparse.values()) < sum(one.values())


def test_report_milestones_consistent(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    _, _, report = _run(rt)
    assert report.full_s == pytest.approx(report.host_comm_s + report.spark_job_s)
    assert report.spark_job_s >= report.computation_s >= 0
    assert report.tasks_run >= 1
    stack = report.figure5_stack()
    assert sum(stack.values()) == pytest.approx(report.full_s)


def test_spark_submit_goes_over_ssh(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    dev = rt.device("CLOUD")
    commands = []
    dispatch = dev.endpoint.dispatch
    dev.endpoint.dispatch = lambda cmd: commands.append(cmd) or dispatch(cmd)
    _run(rt)
    _run(rt)
    assert [c.split()[0] for c in commands] == ["spark-submit"] * 2
    # Each job is served for its own submission only: none stays installed.
    assert dev.endpoint._handlers == []


def test_offload_report_traffic_counts(cloud_config):
    cfg = replace(cloud_config, compression=False, min_compress_size=0)
    rt = make_cloud_runtime(cfg)
    a, c, report = _run(rt, n=256)
    assert report.bytes_up_raw == 1024  # A only (C is output-only)
    assert report.bytes_up_wire == 1024
    assert report.bytes_down_raw == 1024
    assert report.timeline.busy(Phase.HOST_UPLOAD) > 0
    assert report.timeline.busy(Phase.HOST_DOWNLOAD) > 0


def test_jvm_array_limit_enforced(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    region = _copy_region()
    with pytest.raises(JavaArrayLimitError):
        offload(region, scalars={"N": 2**30}, runtime=rt,
                mode=ExecutionMode.MODELED)


def test_modeled_mode_stages_virtual_objects(cloud_config):
    rt = make_cloud_runtime(cloud_config, physical_cores=32)
    dev = rt.device("CLOUD")
    report = offload(_copy_region(), scalars={"N": 1 << 20}, runtime=rt,
                     mode=ExecutionMode.MODELED)
    key = next(k for k in dev.storage.list_keys() if "in/A" in k)
    obj = dev.storage.get(key)
    assert obj.is_virtual
    assert report.computation_s > 0


def test_instance_management_starts_and_stops(cloud_config):
    cfg = replace(cloud_config, manage_instances=True, n_workers=2)
    rt = make_cloud_runtime(cfg, physical_cores=16)
    dev = rt.device("CLOUD")
    _, _, report = _run(rt)
    assert dev._provisioned is not None
    states = {i.state.value for i in [dev._provisioned.driver, *dev._provisioned.workers]}
    assert states == {"stopped"}
    assert report.billed_usd > 0  # pay-as-you-go: billed for the offload hour


def test_failed_provisioning_falls_back_to_host_and_leaks_no_instance(
        cloud_config):
    """Provisioning that exhausts its retries (80 workers over EC2's
    64-instance limit) leaves the device unavailable: gemm runs on the host
    behind a ``fallback`` event, and every instance a failed attempt
    launched is terminated."""
    from repro.obs.events import EventBus, use_bus
    from repro.workloads import WORKLOADS

    spec = WORKLOADS["gemm"]
    scalars = spec.scalars(spec.test_size)
    arrays = spec.inputs(spec.test_size, density=1.0, seed=0)
    expected = spec.reference({k: v.copy() for k, v in arrays.items()},
                              scalars)
    rt = make_cloud_runtime(replace(cloud_config, manage_instances=True,
                                    n_workers=80))
    dev = rt.device("CLOUD")
    bus = EventBus(keep_history=True)
    with use_bus(bus):
        report = offload(spec.build_region("CLOUD"), arrays=arrays,
                         scalars=scalars, runtime=rt)
    assert report.fell_back_to_host
    assert bus.counts()["fallback"] == 1
    assert not dev.is_available()
    launched = dev._provider.instances()
    assert launched
    assert {inst.state.value for inst in launched} == {"terminated"}
    for name, want in expected.items():
        assert np.allclose(arrays[name], want, rtol=3e-5, atol=1e-4), name


def test_successive_offloads_reuse_device(cloud_config):
    rt = make_cloud_runtime(cloud_config)
    _run(rt)
    a, c, report = _run(rt)
    assert np.array_equal(c, a)
    assert report.tasks_run >= 1


def test_report_json_roundtrip(cloud_config):
    import json

    rt = make_cloud_runtime(cloud_config)
    _, _, report = _run(rt)
    payload = json.loads(report.to_json())
    assert payload["device"] == "CLOUD"
    assert payload["full_s"] == pytest.approx(report.full_s)
    assert sum(payload["figure5_stack"].values()) == pytest.approx(report.full_s)


# ------------------------------------------------------ golden transfer trace
def _golden_regions():
    """``y = A @ x`` (A above, x and y below the 256-byte compression
    threshold), the two-stage copy chain B = A, C = B, and z = y."""

    def matvec(lo, hi, arrays, scalars):
        n = scalars["N"]
        rows = np.asarray(arrays["A"][lo * n:hi * n]).reshape(hi - lo, n)
        arrays["y"][lo:hi] = rows @ np.asarray(arrays["x"])

    def copy(src, dst):
        return _copy_region(src=src, dst=dst, name=f"copy_{dst}")

    mv = TargetRegion(
        name="matvec",
        pragmas=["omp target device(CLOUD)",
                 "omp map(to: A[:N*N], x[:N]) map(from: y[:N])"],
        loops=[ParallelLoop(
            pragma="omp parallel for", loop_var="i", trip_count="N",
            reads=("A", "x"), writes=("y",),
            partition_pragma=("omp target data map(to: A[i*N:(i+1)*N]) "
                              "map(from: y[i:i+1])"),
            body=matvec, flops_per_iter=lambda i, env: 2.0 * env["N"])])
    return mv, copy("A", "B"), copy("B", "C"), copy("y", "z")


def _golden_transfer_trace(cloud_config, mode):
    """Drive every host<->storage transfer site of the cloud plugin —
    ``data_begin``/``data_end`` (plain and ``cache=true``), ``enter_data``/
    ``exit_data``/``update_data`` to+from around a chained 3MM,
    ``invalidate_data_env`` after a host fallback — over both links, with
    injected transient PUT/GET/HEAD/EXISTS failures and
    one exhausted retry budget per site.  Returns everything a caller can
    observe: reports, data-env reports, bus events, journal lines, spans,
    error texts and (functional mode) the host arrays."""
    from repro.core.device import DeviceError
    from repro.obs.events import EventBus, use_bus
    from repro.omp import depend
    from repro.workloads.polybench import mm3_chain_regions, mm3_inputs

    functional = mode == ExecutionMode.FUNCTIONAL
    matvec, copy_b, copy_c, copy_yz = _golden_regions()
    mm3 = mm3_chain_regions("CLOUD")
    n = 16
    out: dict[str, list] = {"reports": [], "envs": [], "journals": [],
                            "spans": [], "errors": [], "arrays": []}
    bus = EventBus(keep_history=True)

    def runtime(config=cloud_config, **kw):
        rt = make_cloud_runtime(config, **kw)
        return rt, rt.device("CLOUD")

    def arm_after_job(dev, **failures):
        """Arm storage failures between execute() and data_end(), once."""
        armed = []

        def hook(event):
            if event.ok and not armed:
                armed.append(True)
                dev.storage.inject_failures(**failures)
        bus.subscribe(hook, kinds=("spark_submit",))

    def arrays_for(names, length):
        return {nm: ((np.arange(length, dtype=np.float32) % 7) + i
                     if functional else length)
                for i, nm in enumerate(names)}

    def spans_of(timeline):
        return [(s.phase.value, s.start, s.end, s.resource, s.label)
                for s in timeline.spans]

    def record(rep):
        out["reports"].append(rep.to_dict())
        out["spans"].append(spans_of(rep.timeline))

    def run(rt, region, arrays, scalars, **kw):
        if functional:
            rep = offload(region, arrays=arrays, scalars=scalars, runtime=rt,
                          **kw)
        else:
            rep = offload(region, scalars=scalars, runtime=rt, mode=mode,
                          lengths=arrays, **kw)
        if not kw:
            record(rep)

    def close(dev, env=None, arrays=None):
        if env is not None:
            out["envs"].append(env.report.to_dict())
            out["spans"].append(spans_of(env.report.timeline))
        out["journals"].append(dev.journal.lines())
        if functional and arrays:
            out["arrays"].append({k: v.tolist() for k, v in arrays.items()})

    def env_maps(arrays, to=(), from_=(), alloc=()):
        return dict(device="CLOUD", mode=mode,
                    map_to={k: arrays[k] for k in to} or None,
                    map_from={k: arrays[k] for k in from_} or None,
                    map_alloc={k: arrays[k] for k in alloc} or None)

    with use_bus(bus), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for colocated in (False, True):
            link = dict(colocated=colocated)
            # Plain offload: PUT retry going up, HEAD + GET retries coming
            # down, one buffer on each side of the compression threshold.
            rt, dev = runtime(**link)
            mv = arrays_for(("A",), n * n) | arrays_for(("x", "y"), n)
            dev.storage.inject_failures(puts=1)
            arm_after_job(dev, gets=1, metas=1)
            run(rt, matvec, mv, {"N": n})
            close(dev, arrays=mv)

            # Chained 3MM in `target data` with `target update` to and from.
            rt, dev = runtime(replace(cloud_config, recovery="resume"), **link)
            mm = (arrays_for("ABCD", n * n) | arrays_for("EFG", n * n))
            dev.storage.inject_failures(puts=1)
            with rt.target_data(**env_maps(mm, to="ABCD", alloc="EF",
                                           from_="G")) as env:
                run(rt, mm3[0], mm, {"N": n})
                run(rt, mm3[1], mm, {"N": n})
                if functional:
                    mm["A"] += 1.0
                dev.storage.inject_failures(puts=1)
                env.update(to="A")
                run(rt, mm3[0], mm, {"N": n})
                dev.storage.inject_failures(metas=1, gets=1)
                env.update(from_=("E", "nosuch"))
                run(rt, mm3[2], mm, {"N": n})
                dev.storage.inject_failures(metas=2, gets=1)
            close(dev, env, mm)

        # cache=true: cold, warm (EXISTS probe retried), and a hit on an
        # output that data_end recorded while downloading it.
        rt, dev = runtime(replace(cloud_config, cache=True))
        mv = arrays_for(("A",), n * n) | arrays_for(("x", "y", "z"), n)
        run(rt, matvec, mv, {"N": n})
        dev.storage.inject_failures(metas=1)
        run(rt, matvec, mv, {"N": n})
        run(rt, copy_yz, mv, {"N": n})
        close(dev, arrays=mv)

        # Host fallback mid-environment: invalidate_data_env syncs the dirty
        # intermediate home, drops the handles, the host reruns the region.
        rt, dev = runtime()
        fb = arrays_for("ABC", 128)
        with rt.target_data(**env_maps(fb, to="A", alloc="B",
                                       from_="C")) as env:
            run(rt, copy_b, fb, {"N": 128})
            dev._submit_faults_left = 10**6
            run(rt, copy_c, fb, {"N": 128})
            dev._submit_faults_left = 0
            run(rt, copy_b, fb, {"N": 128})  # A lost its handle: re-staged
        close(dev, env, fb)

        # A fused nowait chain elides E and F; the next target that maps them
        # stages their values from the fusion spill, not the host arrays.
        rt, dev = runtime()
        fz = arrays_for("ABCDEFG", n * n)
        with rt.target_data(**env_maps(fz, to="ABCD", alloc="EF",
                                       from_="G")) as env:
            for region, (ins, outs) in zip(mm3, (("AB", "E"), ("CD", "F"),
                                                 ("EF", "G"))):
                run(rt, region, fz, {"N": n}, nowait=True,
                    depend=depend(in_=tuple(ins), out=outs))
            for rep in {id(r): r for r in rt.taskwait()}.values():
                record(rep)
            run(rt, mm3[2], fz, {"N": n})
        close(dev, env, fz)

        # One exhausted retry budget per site: the DeviceError text reaches
        # the user (or the Fallback event) and the backoff is accounted.
        rt, dev = runtime()
        dev.storage.inject_failures(puts=99)
        run(rt, copy_b, arrays_for("AB", 128), {"N": 128})      # data_begin
        close(dev)
        rt, dev = runtime()
        arm_after_job(dev, metas=99)
        run(rt, copy_b, arrays_for("AB", 128), {"N": 128})      # data_end
        close(dev)
        rt, dev = runtime()
        dev.storage.inject_failures(puts=99)
        ab = arrays_for("AB", 128)
        with rt.target_data(**env_maps(ab, to="A", from_="B")) as env:
            pass                                                # enter_data
        close(dev, env)
        for site in ("to", "from", "exit"):
            rt, dev = runtime()
            ab = arrays_for("AB", 128)
            env = rt.target_data_begin(**env_maps(ab, to="A", from_="B"))
            run(rt, copy_b, ab, {"N": 128})
            dev.storage.inject_failures(puts=99, metas=99)
            try:
                if site == "to":
                    env.update(to="A")
                elif site == "from":
                    env.update(from_="B")
                else:
                    env.close()
            except DeviceError as exc:
                out["errors"].append(f"{site}: {exc}")
            close(dev, env)

    events = [e.to_dict() for e in bus.events]
    if functional:
        # Staging threads race for span ids and emission order; everything
        # else about their events is deterministic.
        for e in events:
            del e["span_id"]
    return out, events


def _trace_digest(events, out, functional):
    # Broadcast ids and SparkLog identities are process-global, not per-run.
    lines = [re.sub(r"(broadcast|sparklog)-\d+", r"\1",
                    json.dumps(part, sort_keys=True, default=repr))
             for part in (*events, out)]
    if functional:
        lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: What a host run's report gained when its accounting was made to agree
#: with its event stream: a fallback keeps the failed attempt's traffic and
#: bill, and a host run counts its one sequential task.
HOST_ACCOUNTING = ("bytes_up_raw", "bytes_up_wire", "bytes_down_raw",
                   "bytes_down_wire", "billed_usd", "tasks_run")


def _without_host_accounting(events, out):
    """The trace with :data:`HOST_ACCOUNTING` blanked on every report a host
    run returned."""
    reports = [dict(r, **dict.fromkeys(HOST_ACCOUNTING))
               if r["device"] == "HOST" else r for r in out["reports"]]
    return events, dict(out, reports=reports)


@pytest.mark.parametrize(
    "mode,expected,expected_modulo_host_accounting,expected_modulo_spans", [
        (ExecutionMode.MODELED,
         "76eb296ebd754e2d33fc316c1c854bd5e602322f9e0e15cb851ed8a69b6e46a7",
         "9c2932bf49d94cfe72df2785e999f78515d1b21eb8c8a68ded03d09733cc7ba8",
         "e9b813c3daf5b90092e3099587938865ea411a491f8018a42c97dbc540929831"),
        (ExecutionMode.FUNCTIONAL,
         "7baa63baf908b37e2c03d9f03fdbf3947956163ad20871c004c265e73a574fa3",
         "ad1fb30807ccd644a4d2f4efa6d4241df84da4f8cfbc69fd1b6ed9b3b053bd67",
         "5869171d97891a2ea538c50dfc1987d1028fcaaaec9381e60995f31134d47eb3"),
    ], ids=["modeled", "functional"])
def test_golden_transfer_trace(cloud_config, mode, expected,
                               expected_modulo_host_accounting,
                               expected_modulo_spans):
    """Everything observable about how mapped data crosses the host<->storage
    hop, pinned before the eight per-construct transfer sequences were
    collapsed into :mod:`repro.core.transfer`.  The functional digest covers
    real deflate-1 output sizes, so it is tied to the interpreter's zlib.

    Re-pinned once since, for one reason: tile checkpoints are keyed by the
    loop's ordinal in its region, not its loop variable (two loops of a
    region may share one — ``tests/resilience/test_checkpoint_keys.py``), so
    the chained-3MM ``recovery="resume"`` part of this trace now says
    ``…/ckpt/0/…`` where it said ``…/ckpt/i/…`` and its ``tile_done`` records
    carry ``"loop": 0``.

    Re-pinned a second time, for one reason: the colocated variant ran with
    serial streams, an option the cloud device no longer has, so both
    variants now use parallel streams.

    Re-pinned a third time, for three fixes that make a host run's report
    agree with its event stream (``tests/obs/test_report_matches_stream.py``):
    a host fallback keeps the failed attempt's upload/download bytes, it
    keeps the failed attempt's bill, and a host run reports its one
    sequential task (``tasks_run = 1``).  The
    second digest showed nothing else moved: it is taken with exactly
    :data:`HOST_ACCOUNTING` blanked on the host reports, and was the value
    the commit before those fixes produced too.

    Re-pinned a fourth time, for one reason: a report's timeline holds only
    the spans of its own offload (plus a failed attempt's, on a fallback
    report), where it used to carry every earlier offload's cluster spans
    on the same device.  Only the recorded spans moved: the third digest,
    taken with ``out["spans"]`` blanked, is the value the commit before
    this change produces too.

    Re-pinned a fifth time, for one reason: the journal keeps only the
    ``tile_done`` records a resume replays.  Only ``out["journals"]``
    moved: the commit before this change reproduces all three digests
    once each of its journals is cut to its ``tile_done`` records,
    renumbered from 1.

    Re-pinned a sixth time, for one reason: the host prices its deflate and
    inflate by the device's ``min_compress_size`` (256 B here), the threshold
    that already decided which objects were gzip'd, where it used to apply
    the 1 MiB calibration default and charge none.  The gzip'd transfers
    gained their ``host_compress``/``host_decompress`` spans and every later
    time moved; with every float field blanked, the commit before this
    change produces the same trace apart from those added spans."""
    functional = mode == ExecutionMode.FUNCTIONAL
    trace, events = _golden_transfer_trace(cloud_config, mode)
    assert len(trace["errors"]) == 3
    assert _trace_digest(events, trace, functional) == expected
    assert _trace_digest(*_without_host_accounting(events, trace),
                         functional) == expected_modulo_host_accounting
    assert _trace_digest(events, dict(trace, spans=[]),
                         functional) == expected_modulo_spans
