"""The measuring side: one process per measurement, imports the program.

``perf/run.py`` spawns this as ``run.py _child --mode ...`` and reads the one
JSON object it prints last.  Modes:

``timed``   imports, input generation, one warm-up pass (that is ``setup_s``),
            then timed passes with tracing off until ``--seconds``
``traced``  the same set-up, then (untraced, traced) pass pairs; per-layer numbers
``probes``  ``perf/probes.py`` once
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy

from perf.trace import LAYERS, UNATTRIBUTED, Tracer, self_times
from perf.workloads import COUNT_NAMES, WORKLOAD_CLASSES, digest_of

#: Timed passes per child, whatever ``--seconds`` says.
MIN_REPS = 2
#: (untraced, traced) pass pairs per traced run, whatever ``--seconds`` says.
MIN_PAIRS = 2


@dataclass
class PassResult:
    """One pass: timings taken inside it, verdicts worked out after it."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    failed: int = 0


class _NoTracer:
    """Tracing off: keeps :func:`run_pass` one code path."""

    op = 0

    def span(self, layer: str, name: str):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()


def run_pass(wl, reference: PassResult | None = None, tracer=None) -> PassResult:
    """Run the ops of one pass back to back; check them afterwards.

    An op fails when it raises, when the workload's oracle rejects it, or —
    modeled workloads — when the result it would persist differs bit-wise
    from the same op of the warm-up pass (``reference``).
    """
    thunks = wl.ops()
    # Devices sit in reference cycles, so the staged payloads of earlier
    # passes live until the cyclic collector runs; collecting here, outside
    # the timed region, keeps one pass from paying for another's garbage.
    # The collector stays enabled inside the pass.
    gc.collect()
    tr = tracer if tracer is not None else _NoTracer()
    out = PassResult()
    ops = []
    with tr.installed():
        cpu0 = process_time()
        t0 = perf_counter()
        with tr.span(UNATTRIBUTED, "pass"):
            for i, thunk in enumerate(thunks):
                tr.op = i + 1
                s = perf_counter()
                try:
                    with tr.span(UNATTRIBUTED, "op"):
                        op = thunk()
                except Exception:
                    traceback.print_exc()
                    op = None
                out.op_s.append(perf_counter() - s)
                ops.append(op)
        out.wall_s = perf_counter() - t0
        out.cpu_s = process_time() - cpu0
    tr.op = 0

    out.counts = dict.fromkeys(COUNT_NAMES, 0)
    for i, op in enumerate(ops):
        if op is None:
            out.digests.append("")
            out.failed += 1
            continue
        digest = digest_of(op.dicts)
        out.digests.append(digest)
        ok = wl.check(i, op)
        if ok and wl.modeled and reference is not None:
            ok = digest == reference.digests[i]
        out.failed += not ok
        for key, value in op.counts.items():
            out.counts[key] += value
    return out


def digest_number(digests: list[str]) -> int:
    """A pass's op digests folded into one integer a float holds exactly."""
    return int(hashlib.sha256("".join(digests).encode()).hexdigest()[:12], 16)


def _another(started: float, seconds: float, last: float) -> bool:
    """Start one more pass only if at least half of it fits the budget."""
    return perf_counter() - started + last / 2 < seconds


def timed(wl, warm: PassResult, seconds: float, doc: dict) -> list[PassResult]:
    passes: list[PassResult] = []
    started = perf_counter()
    while len(passes) < MIN_REPS or _another(started, seconds, passes[-1].wall_s):
        passes.append(run_pass(wl, warm))
        if wl.quick:
            break
    doc["wall_s"] = [p.wall_s for p in passes]
    doc["cpu_s"] = [p.cpu_s for p in passes]
    doc["op_s"] = [p.op_s for p in passes]
    return passes


def traced(wl, warm: PassResult, tracer, seconds: float, out_dir: str,
           doc: dict) -> list[PassResult]:
    # sim_scale_obs prices the observability plane against the identical
    # offload with the bus detached, pass for pass in this one process.
    detached = (WORKLOAD_CLASSES["sim_scale"](wl.seed, wl.quick)
                if wl.name == "sim_scale_obs" else None)
    plain: list[PassResult] = []
    spanned: list[PassResult] = []
    bare: list[PassResult] = []
    started = perf_counter()
    while len(spanned) < MIN_PAIRS or _another(
            started, seconds, plain[-1].wall_s + spanned[-1].wall_s):
        plain.append(run_pass(wl, warm))
        if detached is not None:
            bare.append(run_pass(detached))
        spanned.append(run_pass(wl, warm, tracer))
        if wl.quick:
            break
    n = len(spanned)
    if out_dir:
        tracer.dump(os.path.join(out_dir, f"trace_{wl.name}.json"),
                    workload=wl.name, seed=wl.seed, traced_passes=n)

    plain_wall = statistics.median(p.wall_s for p in plain)
    spanned_wall = statistics.median(p.wall_s for p in spanned)
    mean_wall = sum(p.wall_s for p in spanned) / n
    layers = self_times(tracer.spans)
    per_layer: dict[str, float] = {}
    for layer in LAYERS:
        acc = layers.get(layer, {"self_s": 0.0, "calls": 0})
        per_layer[f"{layer}.self_s"] = acc["self_s"] / n
        per_layer[f"{layer}.calls"] = acc["calls"] / n
    for key, value in spanned[-1].counts.items():
        per_layer[f"count.{key}"] = value
    per_layer["count.spans"] = len(tracer.spans) / n
    per_layer["sim_digest"] = digest_number(spanned[-1].digests)
    per_layer["attributed_ratio"] = (
        1.0 - per_layer[f"{UNATTRIBUTED}.self_s"] / mean_wall)
    per_layer["trace_overhead_ratio"] = spanned_wall / plain_wall - 1.0
    per_layer["us_per_task"] = (
        plain_wall / wl.work * 1e6 if wl.name.startswith("sim_") else 0.0)
    per_layer["ms_per_point"] = (
        plain_wall / wl.work * 1e3 if wl.name == "paper_sweep" else 0.0)
    per_layer["obs_us_per_task"] = (
        (plain_wall - statistics.median(p.wall_s for p in bare)) / wl.work * 1e6
        if bare else 0.0)
    per_layer["overhead_x"] = (
        plain_wall / (len(warm.op_s) * wl.host_ref_s) if wl.host_ref_s else 0.0)
    doc.update(
        per_layer=per_layer, traced_passes=n, traced_wall_s=mean_wall,
        untraced_wall_s=plain_wall,
        # Exact counts must repeat from one traced pass to the next.
        count_mismatches=sum(p.counts != spanned[0].counts for p in spanned[1:]),
    )
    return plain + spanned + bare


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py _child")
    ap.add_argument("--mode", choices=("timed", "traced", "probes"),
                    required=True)
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the parent just before the spawn")
    ap.add_argument("--out", default="")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--corrupt-oracle", action="store_true")
    args = ap.parse_args(argv)

    doc: dict = {"python": platform.python_version(), "numpy": numpy.__version__}
    if args.mode == "probes":
        from perf import probes
        doc["probes"] = probes.run_all()
    else:
        tracer = Tracer() if args.mode == "traced" else None
        # Any integer is a seed; NumPy's generators want a non-negative one.
        wl = WORKLOAD_CLASSES[args.workload](args.seed % 2**32, args.quick, tracer)
        if args.corrupt_oracle:
            wl.corrupt_oracle()
        warm = run_pass(wl)
        doc["setup_s"] = perf_counter() - args.t0
        passes = [warm]
        if args.mode == "timed":
            passes += timed(wl, warm, args.seconds, doc)
        else:
            passes += traced(wl, warm, tracer, args.seconds, args.out, doc)
        doc.update(
            workload=wl.name, unit=wl.unit, work=wl.work,
            attempted=sum(len(p.op_s) for p in passes),
            failed=sum(p.failed for p in passes),
        )
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    sys.stdout.flush()
    return 0
