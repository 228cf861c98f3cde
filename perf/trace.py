"""Span tracing of the program's layers, applied from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces a
fixed list of public functions (:data:`TARGETS`) with timing wrappers for the
duration of a traced pass and puts the originals back afterwards.  A function
is replaced on the class or module that defines it **and** on every imported
``repro`` module that bound the same function object by name
(``from repro.perfmodel.compression import gzip_compress``), otherwise the
callers that matter most would keep calling the original.

Functions called once per task or per event (``ExecutorIndex.pick``,
``Timeline.record``, ``EventBus.emit``, ``Counter.inc``, ``EventEngine.*``)
are deliberately *not* in :data:`TARGETS`: a span around a 1 us call measures
the span.  ``perf/probes.py`` prices those layers in isolation instead.

A span is ``(id, layer, name, start, end, parent, op, thread)``; ``op`` is the
sequence number of the benchmark op (one offload, one region, one point, one
chain) it belongs to.  A layer's *self time* is its spans' duration minus the
part of each span that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator

#: Layer that collects the self time of the harness's own ``pass``/``op``
#: spans: wall time inside a pass that no wrapped function accounts for.
UNATTRIBUTED = "unattributed"

#: (layer, module, qualified name) of every function wrapped during a traced
#: pass.  Layers are the repository's modules; the list is closed.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("parser", "repro.core.parser", "parse_pragma"),
    ("parser", "repro.core.source_scan", "region_from_source"),
    ("analysis.verify", "repro.analysis.verifier", "verify_region"),
    ("analysis.verify", "repro.analysis.verifier", "enforce_strict"),
    ("analysis.infer", "repro.analysis.infer", "infer_region"),
    ("runtime", "repro.core.runtime", "OffloadRuntime.target"),
    ("runtime", "repro.core.runtime", "OffloadRuntime.target_nowait"),
    ("runtime", "repro.core.runtime", "OffloadRuntime.taskwait"),
    ("runtime", "repro.core.runtime", "OffloadRuntime.target_data_begin"),
    ("runtime", "repro.core.runtime", "OffloadRuntime.target_data_end"),
    ("runtime", "repro.core.runtime", "OffloadRuntime.target_update"),
    ("taskgraph", "repro.core.taskgraph", "build_plan"),
    ("plugin.data_begin", "repro.core.plugin_cloud", "CloudDevice.data_begin"),
    ("plugin.data_begin", "repro.core.plugin_cloud", "CloudDevice.enter_data"),
    ("plugin.data_begin", "repro.core.plugin_cloud", "CloudDevice.update_data"),
    ("plugin.execute", "repro.core.plugin_cloud", "CloudDevice.execute"),
    ("plugin.data_end", "repro.core.plugin_cloud", "CloudDevice.data_end"),
    ("plugin.data_end", "repro.core.plugin_cloud", "CloudDevice.exit_data"),
    ("staging_cache", "repro.core.staging_cache", "CacheKey.for_buffer"),
    ("staging_cache", "repro.core.staging_cache", "CacheKey.for_bytes"),
    ("staging_cache", "repro.core.staging_cache", "StagingCache.lookup"),
    ("compression", "repro.perfmodel.compression", "gzip_compress"),
    ("compression", "repro.perfmodel.compression", "gzip_decompress"),
    ("storage", "repro.cloud.storage", "ObjectStore.put"),
    ("storage", "repro.cloud.storage", "ObjectStore.get"),
    ("storage", "repro.cloud.storage", "ObjectStore.get_bytes"),
    ("storage", "repro.cloud.storage", "ObjectStore.checksum_of"),
    ("ssh", "repro.cloud.ssh", "SSHClient.exec_command"),
    ("codegen", "repro.core.codegen", "SparkJobGenerator.run"),
    ("cost_synth", "repro.core.api", "ParallelLoop.tile_flops"),
    ("cost_synth", "repro.perfmodel.compute", "ComputeModel.task_timing_vec"),
    ("partition", "repro.core.partition", "partition_windows"),
    ("partition", "repro.core.partition", "partition_for_tile"),
    ("partition", "repro.core.tiling", "tile_iterations"),
    ("partition", "repro.core.tiling", "tile_by_chunk"),
    ("partition", "repro.core.tiling", "tile_weighted"),
    ("driver", "repro.spark.driver", "Driver.run_job"),
    ("scheduler", "repro.spark.scheduler", "TaskScheduler.run_job"),
    ("journal", "repro.resilience.journal", "OffloadJournal.record"),
    ("journal", "repro.resilience.journal", "OffloadJournal.replay"),
    ("report", "repro.core.report", "OffloadReport.to_dict"),
)

#: Every layer a traced run reports, in pipeline order.  ``kernel`` is the
#: region's loop bodies (wrapped by the harness, see :meth:`Tracer.wrap_kernels`).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _, _ in TARGETS] + ["kernel", UNATTRIBUTED]))

Span = list  # [id, layer, name, start, end, parent, op, thread]


class Tracer:
    """Keeps spans in memory; installs and removes the wrappers."""

    def __init__(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self.active = False
        self._targets = tuple(targets)
        #: (owner, attribute, original, replacement); found at the first
        #: install, by when the warm-up pass has imported every lazy module.
        self._sites: list[tuple[object, str, object, object]] | None = None

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def _open(self, layer: str, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # First span of a staging thread: caused by whatever the client
            # thread has open (one client, so there is exactly one answer).
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        rec = [sid, layer, name, 0.0, 0.0, parent, self.op,
               threading.current_thread().name]
        self.spans.append(rec)
        stack.append(sid)
        rec[3] = perf_counter()
        return rec, stack

    def _wrapper(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            rec, stack = tracer._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A span around harness code (``pass``, ``op``)."""
        rec, stack = self._open(layer, name)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            stack.pop()

    def wrap_kernels(self, region) -> None:
        """Wrap the loop bodies of a region the harness built (layer
        ``kernel``: time spent outside our stack).  The wrapper records only
        while the tracer is active, so one region serves both kinds of pass."""
        for loop in region.loops:
            body = loop.body
            if body is None or hasattr(body, "__wrapped__"):
                continue
            traced = self._wrapper(body, "kernel", f"{region.name}.{loop.loop_var}")

            def gated(lo, hi, arrays, scalars, _plain=body, _traced=traced):
                return (_traced if self.active else _plain)(lo, hi, arrays, scalars)

            gated.__wrapped__ = body  # type: ignore[attr-defined]
            loop.body = gated

    # ------------------------------------------------------------- patching
    def _sites_for(self, layer: str, module: str, qualname: str
                   ) -> list[tuple[object, str, object, object]]:
        mod = importlib.import_module(module)
        owner: object = mod
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        name = f"{module.removeprefix('repro.')}.{qualname}"
        if isinstance(raw, (classmethod, staticmethod)):
            new: object = type(raw)(self._wrapper(raw.__func__, layer, name))
        else:
            new = self._wrapper(raw, layer, name)
        sites = [(owner, attr, raw, new)]
        if owner is mod:
            # Module-level function: also every module that imported it by name.
            for other_name, other in list(sys.modules.items()):
                if other is None or other is mod or not (
                        other_name == "repro" or other_name.startswith("repro.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        sites.append((other, key, raw, new))
        return sites

    def install(self) -> None:
        if self.active:
            raise RuntimeError("tracer already installed")
        if self._sites is None:
            self._sites = [site for target in self._targets
                           for site in self._sites_for(*target)]
        for owner, attr, _raw, new in self._sites:
            setattr(owner, attr, new)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, raw, _new in self._sites or ():
            setattr(owner, attr, raw)
        self.active = False

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---------------------------------------------------------------- output
    def dump(self, path: str, **header: object) -> None:
        """Write the spans (times relative to the first span) as JSON."""
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            **header,
            "columns": ["id", "layer", "name", "start_s", "end_s", "parent",
                        "op", "thread"],
            "spans": [[s[0], s[1], s[2], s[3] - t0, s[4] - t0, s[5], s[6], s[7]]
                      for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``self_s`` (span time not covered by child spans) and
    ``calls``.

    Children running in parallel threads overlap each other; the parent is
    charged for the *union* of the intervals they cover, clipped to its own
    interval, so a parent's self time is never negative and a layer that
    merely waits on its threads is not billed for their work.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[5], []).append((s[3], s[4]))
    out: dict[str, dict[str, float]] = {}
    for sid, layer, _name, start, end, *_ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        acc = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        acc["self_s"] += (end - start) - covered
        acc["calls"] += 1
    return out
