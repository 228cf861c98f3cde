"""The seven host-time workloads.

Each workload is set up once per process from a seed (inputs and oracles are
generated here, the program only ever sees the arrays), then asked for the
ops of one pass as a list of thunks.  The harness (``perf/run.py``) times the
thunks; everything a thunk returns is checked *after* the pass, outside the
timed region.  ``perf/README.md`` says why each workload exists and which
layer metrics it is expected to move.

Calls into traced layers go through module attributes (``analysis.verify_region``,
not a name imported here) so that ``perf/trace.py`` sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import repro.analysis as analysis
import repro.analysis.infer as infer
import repro.core.source_scan as source_scan
import repro.metrics.figures as figures
from repro.core.api import ParallelLoop, TargetRegion, offload
from repro.core.buffers import ExecutionMode
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.obs.events import EventBus, use_bus
from repro.obs.metrics_registry import MetricsRegistry
from repro.obs.subscribers import MetricsSubscriber
from repro.omp import depend
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.simtime import coarse_timelines
from repro.workloads.polybench import mm3_chain_regions, mm3_inputs, mm3_reference
from repro.workloads.polybench_extra import EXTRA_WORKLOADS
from repro.workloads.specs import WORKLOADS

REPO = Path(__file__).resolve().parent.parent

#: Counters every op reports (``count.<name>`` in the traced run).
COUNT_NAMES = ("offloads", "tasks_run", "bus_events", "bytes_up_raw",
               "bytes_up_wire", "bytes_down_wire", "storage_bytes_wire",
               "cache_hits", "fused_regions", "journal_records")

#: Cross-device tolerance of the repository's own workload tests
#: (tests/workloads/test_workloads.py).
RTOL, ATOL = 3e-5, 1e-4


@dataclass
class Op:
    """What one op hands back for checking and counting."""

    #: JSON-able account of the result a user would persist; hashed into
    #: ``sim_digest`` and, for modeled ops, required to repeat bit for bit.
    dicts: list
    counts: dict[str, int] = field(default_factory=dict)
    #: Workload-specific evidence for :meth:`Workload.check`.
    payload: object = None


def digest_of(dicts: list) -> str:
    return hashlib.sha256(
        json.dumps(dicts, sort_keys=True, default=str).encode()).hexdigest()


def count_reports(reports, env_reports=(), devices=()) -> dict[str, int]:
    """Exact counts from the public fields of reports, data-environment
    reports and device journals.  Members of a fused job share one report."""
    unique = list({id(r): r for r in reports}.values())
    movers = unique + list(env_reports)
    return {
        "offloads": len(unique),
        "tasks_run": sum(r.tasks_run for r in unique),
        "bytes_up_raw": sum(r.bytes_up_raw for r in movers),
        "bytes_up_wire": sum(r.bytes_up_wire for r in movers),
        "bytes_down_wire": sum(r.bytes_down_wire for r in movers),
        "storage_bytes_wire": sum(r.storage_bytes_wire for r in unique),
        "cache_hits": sum(r.cache_hits for r in unique),
        "fused_regions": sum(r.fused_regions for r in unique),
        "journal_records": sum(len(d.journal) for d in devices),
    }


def _median_wall(fn: Callable[[], object], n: int = 3) -> float:
    walls = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


class Workload:
    """Base: subclasses set the class attributes and implement ``ops``/``check``."""

    name = ""
    unit = ""           #: work unit of ``work_per_s``
    modeled = False     #: ops must repeat bit for bit between passes
    #: Wall of the single-threaded NumPy reference of one op (functional
    #: workloads; 0 where there is none).
    host_ref_s = 0.0
    #: Work units one pass completes (set in ``__init__``).
    work = 0.0

    def __init__(self, seed: int, quick: bool, tracer=None) -> None:
        self.seed = seed
        self.quick = quick
        self.tracer = tracer

    def ops(self) -> list[Callable[[], Op]]:
        raise NotImplementedError

    def check(self, index: int, op: Op) -> bool:
        """True when op ``index`` of a pass produced the right answer."""
        raise NotImplementedError

    def corrupt_oracle(self) -> None:
        """Damage the oracle so that :meth:`check` must fail (tests only)."""
        raise NotImplementedError

    def _traced(self, region: TargetRegion) -> TargetRegion:
        if self.tracer is not None:
            self.tracer.wrap_kernels(region)
        return region


# ------------------------------------------------------------------ frontend
class Frontend(Workload):
    name = "frontend"
    unit = "regions"
    modeled = True

    def __init__(self, seed, quick, tracer=None) -> None:
        super().__init__(seed, quick, tracer)
        self.specs = list({**WORKLOADS, **EXTRA_WORKLOADS}.values())
        if quick:
            self.specs = self.specs[:3]
        path = REPO / "examples" / "annotated_c_source.py"
        spec = importlib.util.spec_from_file_location("perf_annotated_c_source", path)
        self.example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.example)
        self.work = len(self.specs) + 1
        #: Lint exit code every shipped region must earn (`repro lint all`).
        self.expected_exit = 0
        self.expected_maps = {"A", "B", "C"}

    def _region_op(self, spec) -> Op:
        region = spec.build_region("CLOUD")
        scalars = spec.scalars(spec.test_size)
        report = analysis.verify_region(region, scalars)
        inferred = infer.infer_region(region, scalars)
        return Op(dicts=[[d.to_dict() for d in report.diagnostics],
                         inferred.to_item()],
                  payload=report.exit_code)

    def _source_op(self) -> Op:
        ex = self.example
        region = source_scan.region_from_source(
            ex.LISTING_2, name="listing2", bodies=ex.matmul_kernel,
            reads={"i": ("A", "B")}, writes={"i": ("C",)},
            flops_per_iter={"i": lambda i, env: 2.0 * env["N"] ** 2})
        maps = sorted(i.name for c in region.maps for i in c.items)
        parts = sorted(n for n, s in region.loops[0].partitions.items()
                       if s.is_partitioned)
        return Op(dicts=[region.device, maps, parts], payload=set(maps))

    def ops(self):
        return ([lambda s=s: self._region_op(s) for s in self.specs]
                + [self._source_op])

    def check(self, index, op):
        if index < len(self.specs):
            return op.payload == self.expected_exit
        return op.payload == self.expected_maps

    def corrupt_oracle(self):
        self.expected_exit = 2
        self.expected_maps = {"A"}


# --------------------------------------------------------------- paper_sweep
class PaperSweep(Workload):
    name = "paper_sweep"
    unit = "points"
    modeled = True

    def __init__(self, seed, quick, tracer=None) -> None:
        super().__init__(seed, quick, tracer)
        names = list(WORKLOADS)[:2] if quick else list(WORKLOADS)
        cores = figures.CORE_SWEEP[:2] if quick else figures.CORE_SWEEP
        self.size = 256 if quick else None
        self.points = [(w, c, d) for w in names for c in cores
                       for d in (figures.DENSE, figures.SPARSE)]
        self.work = len(self.points)
        self.min_tasks = 1

    def _point_op(self, workload, cores, density) -> Op:
        point = figures.run_point(workload, cores, density, size=self.size)
        report = point.report
        return Op(dicts=[report.to_dict()], counts=count_reports([report]),
                  payload=(report.tasks_run, point.speedup_full))

    def ops(self):
        return [lambda p=p: self._point_op(*p) for p in self.points]

    def check(self, index, op):
        tasks, speedup = op.payload
        return tasks >= self.min_tasks and speedup > 0.0

    def corrupt_oracle(self):
        self.min_tasks = 10**9


# ----------------------------------------------------------------- sim_scale
class SimScale(Workload):
    """The ``run_scaling`` region of ``repro.obs.bench``, one grid point."""

    name = "sim_scale"
    unit = "tasks"
    modeled = True

    def __init__(self, seed, quick, tracer=None) -> None:
        super().__init__(seed, quick, tracer)
        self.workers, self.tasks = (50, 2000) if quick else (1000, 100_000)
        self.work = self.tasks
        self.cal = dataclasses.replace(DEFAULT_CALIBRATION, straggler_sigma=0.0)
        self.expected_full_s = None
        if not quick:
            baseline = json.loads(
                (REPO / "benchmarks" / "baselines" / "BENCH_scaling.json").read_text())
            self.expected_full_s = baseline["milestones"][
                f"full_s_{self.workers}w_{self.tasks}t"]
        self.expected_tasks = self.tasks

    @staticmethod
    def _region() -> TargetRegion:
        return TargetRegion(
            name="scale",
            pragmas=["omp target device(CLOUD)",
                     "omp map(to: A[:N*R]) map(from: C[:N*R])"],
            loops=[ParallelLoop(
                pragma="omp parallel for schedule(static, 1)",
                loop_var="i", trip_count="N",
                reads=("A",), writes=("C",),
                partition_pragma="omp target data map(to: A[i*R:(i+1)*R]) "
                                 "map(from: C[i*R:(i+1)*R])",
                flops_per_iter=1.0e6,
                body=None,
            )],
        )

    def _offload(self):
        rt = OffloadRuntime()
        rt.register(CloudDevice(figures.demo_config(self.workers),
                                physical_cores=self.workers * 8,
                                calibration=self.cal))
        with coarse_timelines():
            return offload(self._region(), scalars={"N": self.tasks, "R": 4},
                           runtime=rt, mode=ExecutionMode.MODELED,
                           densities={"A": 1.0, "C": 1.0})

    def _op(self) -> Op:
        report = self._offload()
        return Op(dicts=[report.to_dict()], counts=count_reports([report]),
                  payload=(report.tasks_run, report.full_s))

    def ops(self):
        return [self._op]

    def check(self, index, op):
        tasks, full_s = op.payload
        if tasks != self.expected_tasks:
            return False
        return self.expected_full_s is None or full_s == self.expected_full_s

    def corrupt_oracle(self):
        self.expected_tasks += 1


class SimScaleObs(SimScale):
    """The identical offload with the observability plane attached."""

    name = "sim_scale_obs"

    def _op(self) -> Op:
        bus = EventBus(keep_history=False)
        MetricsSubscriber(MetricsRegistry()).attach(bus)
        delivered = [0]
        if self.tracer is not None and self.tracer.active:
            # Exact event count; only in traced passes, so the timed passes
            # carry exactly the subscriber the workload is defined with.
            def count(_event) -> None:
                delivered[0] += 1
            bus.subscribe(count)
        with use_bus(bus):
            report = self._offload()
        counts = count_reports([report])
        counts["bus_events"] = delivered[0]
        return Op(dicts=[report.to_dict()], counts=counts,
                  payload=(report.tasks_run, report.full_s))


# ---------------------------------------------------------------- func_stage
class FuncStage(Workload):
    name = "func_stage"
    unit = "MB"

    def __init__(self, seed, quick, tracer=None) -> None:
        super().__init__(seed, quick, tracer)
        spec = EXTRA_WORKLOADS["gesummv"]
        self.n = 600 if quick else 2048
        self.scalars = spec.scalars(self.n)
        self.region = self._traced(spec.build_region("CLOUD"))
        self.inputs, self.expected = [], []
        for density in (1.0, 0.05):
            arrays = spec.inputs(self.n, density=density, seed=seed)
            self.inputs.append((density, arrays))
            self.expected.append(spec.reference(arrays, self.scalars)["y"])
        arrays = self.inputs[0][1]
        self.host_ref_s = _median_wall(
            lambda: spec.reference(arrays, self.scalars))
        mapped = sum(a.nbytes for a in arrays.values())
        self.work = mapped * len(self.inputs) / 1e6

    def _op(self, density, arrays) -> Op:
        rt = OffloadRuntime()
        device = CloudDevice(figures.demo_config(4))
        rt.register(device)
        report = offload(self.region, arrays=arrays, scalars=self.scalars,
                         runtime=rt,
                         densities={"A": density, "B": density})
        return Op(dicts=[report.to_dict()],
                  counts=count_reports([report], devices=[device]),
                  payload=arrays["y"])

    def ops(self):
        # Fresh copies per op: the program must not profit from having seen
        # these very array objects before, and `y` is written in place.
        return [lambda d=d, a={k: v.copy() for k, v in arrays.items()}: self._op(d, a)
                for d, arrays in self.inputs]

    def check(self, index, op):
        return bool(np.allclose(op.payload, self.expected[index],
                                rtol=RTOL, atol=ATOL))

    def corrupt_oracle(self):
        self.expected = [e + 1.0 for e in self.expected]


# ----------------------------------------------------------------- func_iter
class FuncIter(Workload):
    """Power iteration; the region of examples/iterative_pipeline.py."""

    name = "func_iter"
    unit = "offloads"

    def __init__(self, seed, quick, tracer=None) -> None:
        super().__init__(seed, quick, tracer)
        self.n = 600 if quick else 1536
        self.iterations = 4 if quick else 40
        self.work = self.iterations
        rng = np.random.default_rng(seed)
        m = rng.uniform(0, 1, (self.n, self.n)).astype(np.float32)
        self.a = ((m + m.T) / 2).reshape(-1)
        x = rng.uniform(size=self.n).astype(np.float32)
        self.x0 = x / np.linalg.norm(x)
        self.region = self._traced(self._region())
        self.config = dataclasses.replace(figures.demo_config(4), cache=True)
        self.matrix = self.a.reshape(self.n, self.n)
        self.host_ref_s = _median_wall(lambda: self.matrix @ self.x0, n=9)

    @staticmethod
    def _region() -> TargetRegion:
        def body(lo, hi, arrays, scalars):
            n = int(scalars["N"])
            x = np.asarray(arrays["x"])
            rows = np.asarray(arrays["A"][lo * n:hi * n]).reshape(hi - lo, n)
            arrays["y"][lo:hi] = rows @ x

        return TargetRegion(
            name="matvec",
            pragmas=["omp target device(CLOUD)",
                     "omp map(to: A[:N*N], x[:N]) map(from: y[:N])"],
            loops=[ParallelLoop(
                pragma="omp parallel for", loop_var="i", trip_count="N",
                reads=("A", "x"), writes=("y",),
                partition_pragma="omp target data map(to: A[i*N:(i+1)*N]) "
                                 "map(from: y[i:i+1])",
                body=body,
                flops_per_iter=lambda i, env: 2.0 * env["N"],
            )],
        )

    def ops(self):
        # One device per pass: the first offload is cold, the rest are warm.
        rt = OffloadRuntime()
        device = CloudDevice(self.config, physical_cores=32)
        rt.register(device)
        a = self.a.copy()
        state = {"x": self.x0.copy()}

        def step() -> Op:
            x = state["x"]
            y = np.zeros(self.n, dtype=np.float32)
            report = offload(self.region, arrays={"A": a, "x": x, "y": y},
                             scalars={"N": self.n}, runtime=rt)
            state["x"] = (y / np.linalg.norm(y)).astype(np.float32)
            return Op(dicts=[report.to_dict()],
                      counts=count_reports([report], devices=[device]),
                      payload=(x, y, report.cache_hits))

        return [step] * self.iterations

    def check(self, index, op):
        x, y, cache_hits = op.payload
        # A is re-used from the staging cache on every offload but the first
        # (so is x, once the iteration has converged to the last bit).
        if (cache_hits == 0) != (index == 0):
            return False
        return bool(np.allclose(y, self.matrix @ x, rtol=RTOL, atol=ATOL))

    def corrupt_oracle(self):
        self.matrix = self.matrix + 1.0


# ---------------------------------------------------------------- func_chain
class FuncChain(Workload):
    """Chained 3MM inside ``target data`` with ``recovery = resume``: three
    synchronous offloads, then three ``nowait`` offloads fused at taskwait."""

    name = "func_chain"
    unit = "chains"
    work = 2

    def __init__(self, seed, quick, tracer=None) -> None:
        super().__init__(seed, quick, tracer)
        self.n = 96 if quick else 512
        self.arrays = mm3_inputs(self.n, seed=seed)
        scalars = {"N": self.n}
        self.expected = mm3_reference(self.arrays, scalars)["G"]
        self.host_ref_s = _median_wall(
            lambda: mm3_reference(self.arrays, scalars))
        self.regions = [self._traced(r) for r in mm3_chain_regions("CLOUD")]
        self.config = dataclasses.replace(figures.demo_config(4),
                                          recovery="resume")
        self.depends = (depend(in_=("A", "B"), out="E"),
                        depend(in_=("C", "D"), out="F"),
                        depend(in_=("E", "F"), out="G"))
        self.expected_fused = (0, 3)

    def _chain(self, nowait: bool) -> Op:
        n = self.n
        host = {k: v.copy() for k, v in self.arrays.items()}
        for v in ("E", "F"):
            host[v] = np.zeros(n * n, dtype=np.float32)
        rt = OffloadRuntime()
        device = CloudDevice(self.config, physical_cores=32)
        rt.register(device)
        reports = []
        with rt.target_data(
                device="CLOUD",
                map_to={v: host[v] for v in ("A", "B", "C", "D")},
                map_alloc={"E": host["E"], "F": host["F"]}) as env:
            for region, dep in zip(self.regions, self.depends):
                if nowait:
                    offload(region, arrays=host, scalars={"N": n}, runtime=rt,
                            nowait=True, depend=dep)
                else:
                    reports.append(offload(region, arrays=host,
                                           scalars={"N": n}, runtime=rt))
            if nowait:
                reports = rt.taskwait()
        unique = list({id(r): r for r in reports}.values())
        return Op(dicts=[r.to_dict() for r in unique] + [env.report.to_dict()],
                  counts=count_reports(reports, [env.report], [device]),
                  payload=(host["G"], sum(r.fused_regions for r in unique)))

    def ops(self):
        return [lambda: self._chain(nowait=False),
                lambda: self._chain(nowait=True)]

    def check(self, index, op):
        g, fused = op.payload
        if fused != self.expected_fused[index]:
            return False
        # Tolerance of the chained-3MM example and tests (three products deep).
        return bool(np.allclose(g, self.expected, rtol=1e-3, atol=1e-2))

    def corrupt_oracle(self):
        self.expected = self.expected + 1.0


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Frontend, PaperSweep, SimScale, SimScaleObs,
                              FuncStage, FuncIter, FuncChain)
}
