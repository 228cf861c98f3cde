#!/usr/bin/env python3
"""Host-time benchmark of the offloading stack.  See perf/README.md.

    python3 perf/run.py [--seed 0] [--out DIR]     every workload, one result JSON
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                   one workload; metrics as JSON on the last line
    python3 perf/run.py compare A.json B.json      verdict per workload x end-to-end metric
    python3 perf/run.py table RESULT.json          per-layer share table (markdown)

Closed loop, one client.  Every measurement runs in a child process of its
own (perf/child.py) and children run strictly one after another; this parent
only spawns them and does arithmetic on what they print, so it never imports
NumPy or the program.  With ``--trace 0`` a workload runs in ``N_CHILDREN``
fresh processes, each setting up (imports, input generation, one warm-up
pass) and then timing passes with tracing off for its share of ``--seconds``;
the passes of all children are pooled.  With ``--trace 1`` untraced and
traced passes alternate in one child, and the probes follow in another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
# The script directory leaves sys.path: perf/trace.py must not shadow the
# standard library's `trace` for whoever imports that.
sys.path = [str(REPO), str(REPO / "src")] + [p for p in sys.path
                                             if Path(p or ".").resolve() != PERF]

from perf import report, stats  # noqa: E402

#: Processes per untraced run.  ``setup_s`` is the median of their set-ups,
#: and pooling their passes keeps one process's luck with memory placement
#: (the pure-Python workloads are cache-sensitive) from deciding a run.
N_CHILDREN = 3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def spawn(mode: str, **opts) -> dict:
    """Run one child to completion and return the JSON it printed last."""
    cmd = [sys.executable, str(PERF / "run.py"), "_child", "--mode", mode]
    for key, value in opts.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value is not False:
            cmd += [flag, str(value)]
    env = dict(os.environ)
    # One BLAS thread: the only threads are the program's own staging
    # threads.  A fixed hash seed: set iteration order, hence every digest,
    # repeats from process to process.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd += ["--t0", repr(perf_counter())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perf: child {mode} {opts.get('workload', '')} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str, samples: list[float] | None = None) -> dict:
    out: dict = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(children: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of one untraced run, from its children's samples.

    ``samples`` holds one value per pass (per child for ``setup_s`` and
    ``peak_rss_mb``), which is what ``compare`` takes the run's own quartile
    spread from.
    """
    first = children[0]
    walls = [w for c in children for w in c["wall_s"]]
    cpus = [w for c in children for w in c["cpu_s"]]
    setups = [c["setup_s"] for c in children]
    rss = [c["peak_rss_mb"] for c in children]
    wall = statistics.median(walls)
    per_pass_ms = [[s * 1e3 for s in per_pass]
                   for c in children for per_pass in c["op_s"]]
    ops_ms = [ms for per_pass in per_pass_ms for ms in per_pass]
    # Median over passes of the pass's median op: where a pass holds two
    # kinds of op (func_stage: dense, sparse; func_chain: synchronous, fused)
    # the median of the pooled samples would be the midpoint of the gap
    # between the two clusters, i.e. decided by their extremes.
    pass_p50 = [statistics.median(p) for p in per_pass_ms]
    out = {
        "setup_s": metric(statistics.median(setups), "s", setups),
        "wall_s": metric(wall, "s", walls),
        "cpu_s": metric(statistics.median(cpus), "s", cpus),
        "work_per_s": metric(first["work"] / wall, f"{first['unit']}/s",
                             [first["work"] / w for w in walls]),
        "op_ms_p50": metric(statistics.median(pass_p50), "ms", pass_p50),
        "peak_rss_mb": metric(statistics.median(rss), "MB", rss),
    }
    if stats.p90_emitted(len(ops_ms)):
        out["op_ms_p90"] = metric(stats.percentile(ops_ms, 90), "ms",
                                  [stats.percentile(p, 90) for p in per_pass_ms])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path,
                 quick: bool = False, with_probes: bool = True,
                 corrupt_oracle: bool = False) -> dict:
    """One run of one workload: its children, one after another."""
    common = dict(workload=name, seed=seed, seconds=seconds, quick=quick,
                  corrupt_oracle=corrupt_oracle)
    if not trace:
        n = 1 if quick else N_CHILDREN
        common["seconds"] = seconds / n
        children = [spawn("timed", **common) for _ in range(n)]
        first = children[0]
        return {
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "reps": sum(len(c["wall_s"]) for c in children),
            "op_samples": sum(len(p) for c in children for p in c["op_s"]),
            "unit": first["unit"], "work": first["work"],
            "python": first["python"], "numpy": first["numpy"],
            "end_to_end": end_to_end(children),
        }
    out.mkdir(parents=True, exist_ok=True)
    traced = spawn("traced", out=out, **common)
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    per_layer = {key: metric(value, units.get(key, ""))
                 for key, value in traced["per_layer"].items()}
    if with_probes:
        per_layer.update(spawn("probes")["probes"])
    return {
        "attempted": traced["attempted"],
        "failed": traced["failed"] + traced["count_mismatches"],
        "traced_passes": traced["traced_passes"],
        "traced_wall_s": traced["traced_wall_s"],
        "untraced_wall_s": traced["untraced_wall_s"],
        "per_layer": per_layer,
    }


def print_metrics(name: str, metrics: dict[str, dict], note: str = "") -> None:
    for key, m in metrics.items():
        n = f"  n={len(m['samples'])}" if "samples" in m else ""
        print(f"{name:14s} {key:34s} {m['value']:>16.6g} {m['unit']}{n}")
    if note:
        print(f"{name:14s} {note}")


def contract_line(run: dict, listed: list[dict], trace: bool) -> str:
    """The last line of a one-workload run: exactly the metrics
    BENCHMARK.json lists for this kind of run, under its units."""
    source = run["per_layer"] if trace else run["end_to_end"]
    metrics = {}
    for m in listed:
        found = source.get(m["name"])
        if found is None and m["name"] == "op_ms_p90":
            # Fewer than 100 op samples: no percentile has ten samples
            # beyond it, so the run reports its median under this name.
            found = source["op_ms_p50"]
        metrics[m["name"]] = {"value": found["value"], "unit": m["unit"]}
    return json.dumps({"correct": run["failed"] == 0,
                       "attempted": run["attempted"], "failed": run["failed"],
                       "metrics": metrics})


def machine_stamp(seed: int, seconds: float) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (REPO / ".git").exists():  # a bare checkout is not searched upwards
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            "loadavg_at_start": list(os.getloadavg()),
            "git_commit": commit or "unknown", "seed": seed,
            "seconds": seconds}


def run_all(seed: int, seconds: float, out: Path, quick: bool) -> int:
    """Every workload, untraced then traced; the probes once; one JSON."""
    result: dict = {"meta": machine_stamp(seed, seconds), "workloads": {}}
    failed = 0
    for w in load_spec()["workloads"]:
        name = w["name"]
        run = run_workload(name, seed, seconds, False, out, quick)
        traced = run_workload(name, seed, seconds, True, out, quick,
                              with_probes=False)
        run["attempted"] += traced.pop("attempted")
        run["failed"] += traced.pop("failed")
        run.update(traced)
        run["fail_ratio"] = run["failed"] / run["attempted"]
        failed += run["failed"]
        result["meta"].update(python=run.pop("python"), numpy=run.pop("numpy"))
        result["workloads"][name] = run
        print_metrics(name, run["end_to_end"],
                      f"fail_ratio {run['failed']}/{run['attempted']}  "
                      f"reps={run['reps']} op_samples={run['op_samples']}")
        print_metrics(name, run["per_layer"])
    result["probes"] = spawn("probes")["probes"]
    print_metrics("probes", result["probes"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "result.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if not (REPO / "src" / "repro").is_dir():
        print("perf: src/repro not found next to perf/ — nothing to benchmark",
              file=sys.stderr)
        return 2
    if argv and argv[0] == "_child":
        from perf import child
        return child.main(argv[1:])
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return report.compare(spec, argv[1], argv[2])
    if argv and argv[0] == "table":
        if len(argv) != 2:
            print("usage: run.py table RESULT.json", file=sys.stderr)
            return 2
        return report.table(argv[1])

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=PERF / "out")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one rep: a smoke test, numbers never reported")
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.out, args.quick)
    trace = bool(args.trace)
    kind = "per_layer" if trace else "end_to_end"
    run = run_workload(args.workload, args.seed, args.seconds, trace,
                       args.out, args.quick)
    print_metrics(args.workload, run[kind],
                  f"failed {run['failed']}/{run['attempted']} ops")
    print(contract_line(run, spec[kind], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
