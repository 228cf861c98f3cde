"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <benchmark>`` — offload one paper workload (functional at a test
  size, or modeled at paper scale with ``--modeled``) and print the report;
* ``figures [benchmark ...]`` — regenerate Figure 4 / Figure 5 tables;
* ``headlines`` — the Section-IV paper-vs-measured table;
* ``validate`` — run every workload functionally against its NumPy oracle;
* ``lint`` — statically verify offload regions (map clauses, dataflow,
  partitions, races) and exit with the worst severity found
  (``--fix-maps`` appends the inferred-clause suggestions);
* ``infer`` — run clause inference and print the provably minimal
  map/partition pragmas per region, with per-array evidence;
* ``profile`` — critical-path profile of one offload: span dependency
  graph, cost/byte attribution per phase, straggler diagnostics and
  what-if estimates (``--json``, ``--folded``, ``--trace``, ``--gantt``;
  see docs/OBSERVABILITY.md, "Profiling");
* ``graph`` — print the inferred task graph of a benchmark's offload
  chain: nodes, dependence edges, fusion groups and waves, plus any
  fusion rejections (see docs/TASKGRAPH.md);
* ``bench`` — run paper benchmarks under instrumentation, write
  ``BENCH_<name>.json`` and optionally fail when a payload differs from
  its committed baseline (``--compare``; see docs/OBSERVABILITY.md);
* ``chaos`` — seeded fault-injection sweeps with oracle and invariant
  checks (see docs/RESILIENCE.md);
* ``config <path>`` — write an example cloud_rtl.ini.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.api import offload
from repro.core.config import write_example_config
from repro.core.plugin_cloud import CloudDevice
from repro.core.runtime import OffloadRuntime
from repro.metrics.figures import (
    CORE_SWEEP,
    demo_config,
    figure4_series,
    figure5_series,
    headline_numbers,
)
from repro.metrics.tables import format_percent, format_table
from repro.workloads import WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OmpCloud reproduction: the cloud as an OpenMP offloading device",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="offload one benchmark")
    run.add_argument("benchmark", choices=sorted(WORKLOADS))
    run.add_argument("--cores", type=int, default=32,
                     help="physical cores granted to the job (default 32)")
    run.add_argument("--workers", type=int, default=16,
                     help="worker nodes in the cluster (default 16)")
    run.add_argument("--size", type=int, default=None,
                     help="problem size N/M (default: test size, or paper size with --modeled)")
    run.add_argument("--density", type=float, default=1.0,
                     help="input nonzero density (1.0 dense, 0.05 sparse)")
    run.add_argument("--modeled", action="store_true",
                     help="paper-scale modeled run (no data allocated)")
    run.add_argument("--gantt", action="store_true",
                     help="render an ASCII Gantt chart of the offload timeline")
    run.add_argument("--json", action="store_true",
                     help="print the report as JSON instead of the summary")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="export the timeline as a Chrome/Perfetto trace file")

    figures = sub.add_parser("figures", help="regenerate Figure 4/5 tables")
    figures.add_argument("benchmarks", nargs="*", default=None,
                         help="benchmarks to include (default: all)")
    figures.add_argument("--csv", metavar="PATH", default=None,
                         help="also export the full sweep grid as CSV")

    sub.add_parser("headlines", help="Section-IV paper-vs-measured numbers")
    validate = sub.add_parser("validate",
                              help="verify every kernel against its oracle")
    validate.add_argument("--json", action="store_true",
                          help="machine-readable per-workload report")
    sub.add_parser("calibration", help="print the performance-model constants")

    lint = sub.add_parser(
        "lint", help="statically verify offload regions (see docs/ANALYSIS.md)")
    lint.add_argument("targets", nargs="+",
                      help="benchmark name, 'all', a Python module (.py), or "
                           "annotated C source")
    lint.add_argument("--json", action="store_true",
                      help="emit diagnostics as JSON")
    lint.add_argument("--size", type=int, default=None,
                      help="problem size for benchmark targets "
                           "(default: test size)")
    lint.add_argument("--fix-maps", action="store_true",
                      help="append inferred-clause fix-it suggestions "
                           "(see docs/ANALYSIS.md, 'Clause inference')")

    infer = sub.add_parser(
        "infer", help="synthesize minimal map/partition clauses "
                      "(see docs/ANALYSIS.md)")
    infer.add_argument("targets", nargs="+",
                       help="benchmark name, 'all', a Python module (.py), "
                            "or annotated C source")
    infer.add_argument("--json", action="store_true",
                       help="emit inference reports as JSON")
    infer.add_argument("--size", type=int, default=None,
                       help="problem size for benchmark targets "
                            "(default: test size)")

    profile = sub.add_parser(
        "profile", help="critical-path profile of one benchmark offload "
                        "(see docs/OBSERVABILITY.md, 'Profiling')")
    profile.add_argument("benchmark",
                         choices=sorted({*WORKLOADS, "chained_3mm"}))
    profile.add_argument("--cores", type=int, default=32,
                         help="physical cores granted to the job (default 32)")
    profile.add_argument("--workers", type=int, default=16,
                         help="worker nodes in the cluster (default 16)")
    profile.add_argument("--size", type=int, default=None,
                         help="problem size N/M (default: paper size, or "
                              "test size with --quick)")
    profile.add_argument("--density", type=float, default=1.0,
                         help="input nonzero density (1.0 dense, 0.05 sparse)")
    profile.add_argument("--quick", action="store_true",
                         help="test-size modeled run")
    profile.add_argument("--json", action="store_true",
                         help="machine-readable profile report")
    profile.add_argument("--folded", metavar="PATH", default=None,
                         help="write folded flamegraph stacks "
                              "(flamegraph.pl / speedscope format)")
    profile.add_argument("--folded-mode", choices=["busy", "critical"],
                         default="busy",
                         help="flamegraph view: resource-seconds (busy) or "
                              "critical-path self time (critical)")
    profile.add_argument("--trace", metavar="PATH", default=None,
                         help="export a Chrome/Perfetto trace with the "
                              "critical-path highlight track")
    profile.add_argument("--gantt", action="store_true",
                         help="render an ASCII Gantt chart with the "
                              "[critical] lane")

    graph = sub.add_parser(
        "graph", help="print a benchmark's inferred task graph "
                      "(see docs/TASKGRAPH.md)")
    graph.add_argument("benchmark",
                       choices=sorted({*WORKLOADS, "chained_3mm"}))
    graph.add_argument("--size", type=int, default=None,
                       help="problem size N/M (default: test size)")
    graph.add_argument("--unmanaged", action="store_true",
                       help="plan without a target-data environment (shows "
                            "the intermediate-not-resident degradation)")
    graph.add_argument("--json", action="store_true",
                       help="machine-readable plan")

    bench = sub.add_parser(
        "bench", help="instrumented benchmark runs + exact baseline check")
    bench.add_argument("targets", nargs="*",
                       help="benchmark names or 'all' (default: from the "
                            "--compare baseline, else all)")
    bench.add_argument("--cores", type=int, default=32,
                       help="physical cores granted to the job (default 32)")
    bench.add_argument("--workers", type=int, default=16,
                       help="worker nodes in the cluster (default 16)")
    bench.add_argument("--size", type=int, default=None,
                       help="problem size N/M (default: paper size, or test "
                            "size with --quick)")
    bench.add_argument("--density", type=float, default=1.0,
                       help="input nonzero density (1.0 dense, 0.05 sparse)")
    bench.add_argument("--quick", action="store_true",
                       help="test-size runs (what the CI bench job executes)")
    bench.add_argument("--out", metavar="DIR", default=None,
                       help="directory for BENCH_<name>.json (default: ., "
                            "or print only with --json)")
    bench.add_argument("--json", action="store_true",
                       help="print each payload to stdout")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="BENCH_*.json file or directory of them; exit 1 "
                            "when any payload key differs from it")

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection sweeps (see docs/RESILIENCE.md)")
    chaos.add_argument("benchmarks", nargs="*",
                       help="benchmark names or 'all' (default: all)")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="seeds per benchmark (default 5)")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first seed value (default 0)")
    chaos.add_argument("--recovery", choices=["none", "restart", "resume"],
                       default="resume",
                       help="recovery policy under test (default resume)")
    chaos.add_argument("--journal-dir", metavar="DIR", default=None,
                       help="dump each run's offload journal here")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable per-run report")

    config = sub.add_parser("config", help="write an example cloud_rtl.ini")
    config.add_argument("path")
    return parser


def _cmd_run(args) -> int:
    spec = WORKLOADS[args.benchmark]
    config = demo_config(n_workers=args.workers)
    if args.modeled:
        from repro.obs.bench import _offload

        size = args.size if args.size is not None else spec.paper_size
        _, report = _offload(spec.build_region("CLOUD"), spec.scalars(size),
                             config, args.density, physical_cores=args.cores)
    else:
        runtime = OffloadRuntime()
        runtime.register(CloudDevice(config, physical_cores=args.cores))
        size = args.size if args.size is not None else spec.test_size
        scalars = spec.scalars(size)
        arrays = spec.inputs(size, density=args.density, seed=0)
        expected = spec.reference({k: v.copy() for k, v in arrays.items()}, scalars)
        report = offload(spec.build_region("CLOUD"), arrays=arrays,
                         scalars=scalars, runtime=runtime)
        for key, want in expected.items():
            if not np.allclose(arrays[key], want, rtol=3e-5, atol=1e-4):
                print(f"VERIFICATION FAILED for output {key!r}", file=sys.stderr)
                return 1
        print(f"verified: {args.benchmark} output matches the NumPy oracle")
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    if args.gantt:
        from repro.metrics.gantt import render_gantt

        print()
        print(render_gantt(report.timeline, width=100, max_rows=24))
    if args.trace:
        from repro.metrics.tracing import write_chrome_trace

        write_chrome_trace(report.timeline, args.trace)
        print(f"wrote Chrome/Perfetto trace to {args.trace}")
    return 0


def _cmd_figures(args) -> int:
    names = args.benchmarks or sorted(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"unknown benchmark {name!r}; known: {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
    for name in names:
        spec = WORKLOADS[name]
        rows4 = figure4_series(name, CORE_SWEEP)
        print(format_table(
            ["cores", "OmpThread", "full", "spark", "computation"],
            [[r.cores, r.omp_thread, r.cloud_full, r.cloud_spark,
              r.cloud_computation] for r in rows4],
            title=f"Figure {spec.figure_panel.split('/')[0]} - {name} (speedups)",
        ))
        print()
        rows5 = figure5_series(name, CORE_SWEEP)
        print(format_table(
            ["data", "cores", "host-comm s", "spark-ovh s", "compute s"],
            [[r.density_label, r.cores, r.host_comm_s, r.spark_overhead_s,
              r.computation_s] for r in rows5],
            title=f"Figure {spec.figure_panel.split('/')[1]} - {name} (breakdown)",
        ))
        print()
    if args.csv:
        from repro.metrics.sweep import sweep, to_csv

        rows = sweep(names, CORE_SWEEP, densities=(1.0, 0.05))
        with open(args.csv, "w") as fh:
            fh.write(to_csv(rows))
        print(f"wrote sweep CSV to {args.csv}")
    return 0


def _cmd_headlines() -> int:
    h = headline_numbers()
    rows = []
    for key, value in h.items():
        rows.append([key, format_percent(value) if "overhead" in key else f"{value:.1f}"])
    print(format_table(["quantity", "measured"], rows,
                       title="Section IV headline numbers"))
    return 0


def _cmd_validate(args) -> int:
    import json

    from repro.analysis import json_report

    items: list[dict[str, object]] = []
    for name, spec in sorted(WORKLOADS.items()):
        runtime = OffloadRuntime()
        runtime.register(CloudDevice(demo_config(n_workers=4), physical_cores=16))
        scalars = spec.scalars(spec.test_size)
        arrays = spec.inputs(spec.test_size, density=1.0, seed=1)
        expected = spec.reference({k: v.copy() for k, v in arrays.items()}, scalars)
        offload(spec.build_region("CLOUD"), arrays=arrays, scalars=scalars,
                runtime=runtime)
        ok = all(np.allclose(arrays[k], v, rtol=3e-5, atol=1e-4)
                 for k, v in expected.items())
        max_err = max(
            (float(np.max(np.abs(arrays[k] - v))) for k, v in expected.items()),
            default=0.0,
        )
        items.append({"name": name, "ok": ok, "max_abs_error": max_err})
        if not args.json:
            print(f"{name:10s} {'OK' if ok else 'FAILED'}")
    all_ok = all(bool(item["ok"]) for item in items)
    if args.json:
        print(json.dumps(json_report("validate", all_ok, items), indent=2))
    return 0 if all_ok else 1


def _analysis_targets(args):
    """Resolve lint/infer CLI targets to ``(region, scalars,
    usage_reliable, origin)`` tuples plus the report of scan/build
    problems.  ``origin`` names the target a region came from — regions
    sharing an origin execute as one program, which is what the OMP203
    fusable-chain advisory reasons over.

    Returns ``(None, None)`` after printing to stderr when a file target
    cannot be read (the callers exit 2, matching the old lint behavior).
    """
    from repro.analysis import (
        AnalysisReport,
        python_file_regions,
        source_regions,
    )

    targets: list[str] = []
    for target in args.targets:
        if target == "all":
            targets.extend(sorted(WORKLOADS))
        else:
            targets.append(target)

    resolved = []
    report = AnalysisReport()
    for target in targets:
        if target in WORKLOADS:
            spec = WORKLOADS[target]
            size = args.size if args.size is not None else spec.test_size
            resolved.append(
                (spec.build_region("CLOUD"), spec.scalars(size), True, target))
        elif target.endswith(".py"):
            regions, part = python_file_regions(target)
            report.extend(part.diagnostics)
            resolved.extend((region, None, True, target)
                            for region in regions)
        else:
            try:
                with open(target) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"cannot read lint target {target!r}: {exc}",
                      file=sys.stderr)
                return None, None
            regions, part = source_regions(text, name=target)
            report.extend(part.diagnostics)
            # Scanned sources carry no bodies: access sets were inferred
            # from the pragmas, so absence-based checks are unreliable.
            resolved.extend((region, None, False, target)
                            for region in regions)
    return resolved, report


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import (
        check_fusable_chains,
        json_report,
        verify_region,
    )

    resolved, report = _analysis_targets(args)
    if resolved is None:
        return 2
    for region, scalars, usage_reliable, _origin in resolved:
        report.extend(verify_region(
            region, scalars, usage_reliable=usage_reliable).diagnostics)

    # OMP203 advisory: regions from one target execute as one program, so
    # a fusable chain among them is a missed nowait/taskwait opportunity.
    by_origin: dict[str, list] = {}
    for region, scalars, _usage_reliable, origin in resolved:
        by_origin.setdefault(origin, []).append((region, scalars))
    for items in by_origin.values():
        merged_scalars: dict = {}
        for _region, scalars in items:
            merged_scalars.update(scalars or {})
        report.extend(check_fusable_chains(
            [region for region, _scalars in items], merged_scalars or None))

    suggestions: list[dict] = []
    if args.fix_maps:
        from repro.analysis import infer_region

        for region, scalars, _usage_reliable, _origin in resolved:
            rep = infer_region(region, scalars)
            if not rep.degraded:
                suggestions.extend(rep.suggestions())

    if args.json:
        payload = json_report(
            "lint", report.ok, [d.to_dict() for d in report.diagnostics])
        if args.fix_maps:
            payload["suggestions"] = suggestions
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if args.fix_maps and suggestions:
            print("suggested fixes:")
            for sug in suggestions:
                loop = sug.get("loop")
                where = f"loop({loop}) " if loop else ""
                print(f"  {sug['region']}: {where}{sug['suggested']}")
    return report.exit_code


def _cmd_infer(args) -> int:
    import json

    from repro.analysis import infer_region, json_report

    resolved, report = _analysis_targets(args)
    if resolved is None:
        return 2
    reports = [infer_region(region, scalars)
               for region, scalars, _usage_reliable, _origin in resolved]
    if args.json:
        ok = report.ok and all(not rep.degraded for rep in reports)
        payload = json_report("infer", ok, [rep.to_item() for rep in reports])
        print(json.dumps(payload, indent=2))
    else:
        if report.diagnostics:
            print(report.render())
        for rep in reports:
            print(rep.render())
        if not reports:
            print("no regions to analyze")
    return report.exit_code


def _cmd_profile(args) -> int:
    import json

    from repro.analysis import json_report
    from repro.obs.bench import _config, _offload, run_mm3_chain
    from repro.obs.events import EventBus, use_bus
    from repro.obs.profile import WhatIf, profile_offloads, profile_report

    bus = EventBus(keep_history=True)
    # Manage the instances so the billing ledger has real line items for the
    # dollar attribution (the profiler's whole point).
    config = _config(args.workers, manage_instances=True)

    spec = WORKLOADS["3mm" if args.benchmark == "chained_3mm"
                     else args.benchmark]
    n = args.size if args.size is not None else (
        spec.test_size if args.quick else spec.paper_size)
    twin = None
    if args.benchmark == "chained_3mm":
        with use_bus(bus):
            dev, reports, _ = run_mm3_chain(n, args.density, config=config,
                                            physical_cores=args.cores)
    else:
        region, scalars = spec.build_region("CLOUD"), spec.scalars(n)
        with use_bus(bus):
            dev, report = _offload(region, scalars, config, args.density,
                                   physical_cores=args.cores)
        reports = [report]
        # The inferred-minimal what-if is applied, not estimated: the same
        # offload again with inference's provably minimal map clauses.
        _, twin = _offload(region, scalars, config, args.density,
                           infer_maps=True, physical_cores=args.cores)

    profiles = profile_offloads(bus, reports, ledger=dev.billing_ledger)
    extra = [] if twin is None else [WhatIf(
        "inferred_minimal_upload", profile_report(twin).wall_s,
        profiles[0].wall_s)]
    ok = True
    items = []
    for prof in profiles:
        item = prof.to_item()
        item["what_if"].extend(w.to_dict() for w in extra)
        total = sum(prof.phase_self_s.values())
        ok = (ok and prof.critical_s <= prof.wall_s + prof.graph.eps
              and abs(total - prof.wall_s) <= 0.01 * max(prof.wall_s, 1e-9))
        items.append(item)

    if args.json:
        print(json.dumps(json_report("profile", ok, items), indent=2))
    else:
        for i, prof in enumerate(profiles):
            if i:
                print()
            print(prof.render())
            for w in extra:
                print(f"    {w.name:<15} {w.estimate_s:10.3f} s  "
                      f"(-{w.saved_s:.3f} s, -{w.saved_pct:.1f}%)")

    last = profiles[-1]
    if args.gantt:
        from repro.metrics.gantt import render_gantt

        print()
        print(render_gantt(reports[-1].timeline, width=100, max_rows=24,
                           critical=last.critical_spans))
    if args.folded:
        from repro.obs.flamegraph import folded_stacks

        with open(args.folded, "w") as fh:
            for prof in profiles:
                fh.write(folded_stacks(prof, mode=args.folded_mode))
        print(f"wrote folded flamegraph stacks to {args.folded}")
    if args.trace:
        from repro.metrics.tracing import write_chrome_trace

        write_chrome_trace(reports[-1].timeline, args.trace,
                           events=bus.events, critical=last.critical_spans)
        print(f"wrote Chrome/Perfetto trace to {args.trace}")
    return 0 if ok else 1


def _cmd_graph(args) -> int:
    import json

    from repro.analysis import json_report
    from repro.core.taskgraph import GraphNode, build_plan

    if args.benchmark == "chained_3mm":
        from repro.workloads.polybench import mm3_chain_regions

        spec = WORKLOADS["3mm"]
        n = args.size if args.size is not None else spec.test_size
        regions = mm3_chain_regions("CLOUD")
        scalars = {"N": n}
        env = {} if args.unmanaged else {
            "A": "to", "B": "to", "C": "to", "D": "to",
            "E": "alloc", "F": "alloc",
        }
    else:
        spec = WORKLOADS[args.benchmark]
        n = args.size if args.size is not None else spec.test_size
        regions = [spec.build_region("CLOUD")]
        scalars = dict(spec.scalars(n))
        env = {}

    itemsize = np.dtype(np.float32).itemsize
    nodes = [
        GraphNode(
            index=i, region=region, device="CLOUD", host=False,
            mode="modeled", strict=False, depend=None, scalars=scalars,
            nbytes={item.name: n * n * itemsize
                    for clause in region.maps for item in clause.items},
        )
        for i, region in enumerate(regions)
    ]
    plan = build_plan(nodes, resident=lambda _dev, name: env.get(name))

    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "size": n,
            "managed": not args.unmanaged,
            "nodes": [
                {"index": node.index, "region": node.region.name,
                 "device": node.device, "mode": node.mode,
                 "reads": sorted(node.reads), "writes": sorted(node.writes)}
                for node in plan.nodes
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "kind": e.kind,
                 "arrays": list(e.arrays)}
                for e in plan.edges
            ],
            "groups": [
                {"members": [plan.nodes[i].region.name for i in g.members],
                 "fused": g.fused, "wave": g.wave,
                 "elided": list(g.elided),
                 "materialized": list(g.materialized),
                 "bytes_saved": g.bytes_saved}
                for g in plan.groups
            ],
            "waves": [list(wave) for wave in plan.waves],
            "rejected": [
                {"members": list(members), "reason": reason}
                for members, reason in plan.rejected
            ],
        }
        print(json.dumps(json_report("graph", True, [payload]), indent=2))
        return 0

    managed = "unmanaged" if args.unmanaged else "managed env"
    print(f"task graph: {args.benchmark} (size {n}, device CLOUD, {managed})")
    print("  nodes:")
    for node in plan.nodes:
        print(f"    [{node.index}] {node.region.name:<12s} "
              f"reads {', '.join(sorted(node.reads)) or '-':<12s} "
              f"writes {', '.join(sorted(node.writes)) or '-'}")
    print("  edges:")
    if not plan.edges:
        print("    (none)")
    for e in plan.edges:
        print(f"    [{e.src}] -> [{e.dst}]  {e.kind} "
              f"({', '.join(e.arrays)})")
    print("  schedule:")
    for wi, wave in enumerate(plan.waves):
        print(f"    wave {wi}:")
        for gi in wave:
            g = plan.groups[gi]
            names = " + ".join(plan.nodes[i].region.name for i in g.members)
            if g.fused:
                detail = f"FUSED  {names}"
                if g.elided:
                    detail += f"   elides {', '.join(g.elided)}"
                if g.materialized:
                    detail += f"   materializes {', '.join(g.materialized)}"
                detail += f"   saves {g.bytes_saved} wire bytes"
            else:
                detail = names
            print(f"      group {gi}: {detail}")
    if plan.rejected:
        print("  rejected fusions:")
        for members, reason in plan.rejected:
            print(f"    {' + '.join(members)}: {reason}")
    return 0


def _cmd_bench(args) -> int:
    import json
    import os

    from repro.obs.bench import (
        EXTRA_BENCHMARKS,
        bench_filename,
        compare,
        load_bench,
        run_benchmark,
        write_bench,
    )

    known = sorted({*WORKLOADS, *EXTRA_BENCHMARKS})

    # Baselines: one file, or a directory of BENCH_<name>.json.
    baselines: dict[str, dict] = {}
    if args.compare:
        paths = [args.compare]
        if os.path.isdir(args.compare):
            paths = [os.path.join(args.compare, entry)
                     for entry in sorted(os.listdir(args.compare))
                     if entry.startswith("BENCH_") and entry.endswith(".json")]
        for path in paths:
            try:
                payload = load_bench(path)
                baselines[str(payload["benchmark"])] = payload
            except (OSError, ValueError, KeyError) as exc:
                print(f"cannot read baseline {path}: {exc}", file=sys.stderr)
                return 2

    names: list[str] = []
    for target in args.targets:
        names.extend(known if target == "all" else [target])
    if not names:
        names = sorted(baselines) if baselines else known
    for name in names:
        if name not in WORKLOADS and name not in EXTRA_BENCHMARKS:
            print(f"unknown benchmark {name!r}; known: {known}",
                  file=sys.stderr)
            return 2

    # --json alone only prints; files land in --out (default: the cwd).
    out = "." if args.out is None and not args.json else args.out
    if out is not None:
        os.makedirs(out, exist_ok=True)
    changed: list[str] = []
    for name in names:
        payload = run_benchmark(name, cores=args.cores, n_workers=args.workers,
                                density=args.density, size=args.size,
                                quick=args.quick)
        dest = f"   -> {write_bench(payload, out)}" if out is not None else ""
        ms = payload["milestones"]
        print(f"{name:10s} full {ms['full_s']:12.3f} s   "
              f"spark {ms['spark_job_s']:12.3f} s   "
              f"computation {ms['computation_s']:12.3f} s{dest}")
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        baseline = baselines.get(name)
        if baseline is not None:
            found = compare(baseline, payload)
            for line in found:
                print(f"CHANGED: {line}", file=sys.stderr)
            changed.extend(found)
        elif baselines:
            print(f"note: no baseline {bench_filename(name)} to compare "
                  f"against", file=sys.stderr)
    if changed:
        print(f"{len(changed)} key(s) differ from the baseline; if the change "
              f"is intended, re-pin by re-running into the baseline "
              f"directory", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.analysis import json_report
    from repro.resilience.chaos import run_chaos

    names: list[str] = []
    for target in args.benchmarks:
        names.extend(sorted(WORKLOADS) if target == "all" else [target])
    if not names:
        names = sorted(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"unknown benchmark {name!r}; known: {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2

    items: list[dict[str, object]] = []
    for name in names:
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            result = run_chaos(name, seed, recovery=args.recovery,
                               journal_dir=args.journal_dir)
            items.append(result.to_item())
            if not args.json:
                faults = result.injected
                tag = "OK" if result.ok else "FAILED"
                print(f"{name:10s} seed {seed:3d} {tag:6s} "
                      f"device={result.device:5s} "
                      f"resumes={result.resumes} "
                      f"skipped={result.tiles_skipped:2d} "
                      f"corrupt={result.corruption_detected} "
                      f"death={faults['driver_dies_at'] is not None}")
                for failure in result.failures:
                    print(f"           {failure}", file=sys.stderr)
    all_ok = all(bool(item["ok"]) for item in items)
    if args.json:
        print(json.dumps(json_report("chaos", all_ok, items), indent=2))
    return 0 if all_ok else 1


def _cmd_calibration() -> int:
    import dataclasses

    from repro.perfmodel.calibration import DEFAULT_CALIBRATION

    rows = []
    for f in dataclasses.fields(DEFAULT_CALIBRATION):
        value = getattr(DEFAULT_CALIBRATION, f.name)
        rows.append([f.name, f"{value:g}" if isinstance(value, float) else str(value)])
    print(format_table(["constant", "value"], rows,
                       title="Calibrated performance-model constants "
                             "(see docs/MODEL.md for provenance)"))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "headlines":
        return _cmd_headlines()
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "infer":
        return _cmd_infer(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "graph":
        return _cmd_graph(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "calibration":
        return _cmd_calibration()
    if args.command == "config":
        path = write_example_config(args.path)
        print(f"wrote example configuration to {path}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
