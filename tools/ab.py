"""Paired A/B of the host-time benchmark: a revision against this tree.

    python tools/ab.py <rev> [--workload W ...] [--pairs N] [--seed S]
                             [--repin "reason"]

``<rev>`` (the parent, usually ``HEAD~1``) is checked out with ``git worktree``
under a temporary directory; the other side is this working tree.  For each
workload (default: every one ``BENCHMARK.json`` lists) the two sides'
``perf/run.py --workload W --trace 0`` run alternately, ``--pairs`` times, odd
pairs parent first, so drift in the machine's load falls on both sides.
Each run lasts ``BENCHMARK.json``'s ``run_seconds``, ``perf/run.py``'s default.

For each end-to-end metric it prints one verdict line: the median of the
per-pair change/parent ratios, a bootstrap 95 % interval of that median, how
many pairs the change won, and the parent's own quartile spread (its noise
floor).  Then one ``--trace 1`` run per side: the exit status is 1 when
``sim_digest``, any ``count.*`` or any layer ``.calls`` differs, because a
change to the simulator's speed must leave every simulated figure alone;
``--repin "reason"`` accepts the difference and records the reason.

Every run appends one JSON line to ``tools/trajectory.jsonl``: the two
commits, the machine, each ratio with its interval, the identity verdict
and the change's layer shares.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parents[1]
TRAJECTORY = Path(__file__).resolve().with_name("trajectory.jsonl")
sys.path.insert(0, str(REPO))

from perf import stats  # noqa: E402
from perf.run import machine_stamp  # noqa: E402

#: Bootstrap resamples of the pair ratios.
RESAMPLES = 2000


def load_spec(root: Path = REPO) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_side(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perf/run.py`` run of one tree; the JSON of its last line."""
    cmd = [sys.executable, str(root / "perf" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="ab-out-") as out:
        proc = subprocess.run(cmd + ["--out", out], cwd=root,
                              stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab: {root}/perf/run.py --workload {workload} "
                         f"exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def paired(run: Callable[[str], dict], pairs: int) -> list[tuple[dict, dict]]:
    """``pairs`` (parent, change) results; pair 1, 3, ... runs the parent
    first, pair 2, 4, ... the change first."""
    out = []
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        got = {side: run(side) for side in order}
        out.append((got["parent"], got["change"]))
    return out


def bootstrap_median(ratios: list[float], seed: int) -> tuple[float, float]:
    """95 % percentile-bootstrap interval of the median of ``ratios``."""
    rng = random.Random(seed)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(RESAMPLES)]
    return stats.percentile(medians, 2.5), stats.percentile(medians, 97.5)


def quartiles(values: list[float]) -> list[float]:
    """[Q1, median, Q3] of ``values``, the quartiles
    ``stats.quartile_spread`` takes its spread from."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def summarize(results: list[tuple[dict, dict]], spec: dict,
              seed: int) -> dict[str, dict]:
    """Per end-to-end metric: median change/parent ratio, its interval, the
    pairs the change won, each side's quartiles and the parent's quartile
    spread."""
    out: dict[str, dict] = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in results
                if name in p["metrics"] and name in c["metrics"]]
        vals = [(a, b) for a, b in vals if a]
        if not vals:
            continue
        ratios = [b / a for a, b in vals]
        lower = m["better"] == "lower"
        lo, hi = bootstrap_median(ratios, seed)
        out[name] = {
            "ratio": statistics.median(ratios), "lo": lo, "hi": hi,
            "wins": sum((r < 1.0) if lower else (r > 1.0) for r in ratios),
            "pairs": len(ratios),
            "parent": quartiles([a for a, _ in vals]),
            "change": quartiles([b for _, b in vals]),
            "parent_spread": stats.quartile_spread([a for a, _ in vals]),
        }
    return out


def verdict_line(workload: str, name: str, s: dict) -> str:
    spread = s["parent_spread"]
    noise = "n/a" if spread is None else f"{spread:.1%}"
    pq, cq = s["parent"], s["change"]
    return (f"{workload} {name}: change/parent median {s['ratio']:.3f} "
            f"[95% CI {s['lo']:.3f}-{s['hi']:.3f}], change better in "
            f"{s['wins']}/{s['pairs']} pairs; parent {pq[1]:.4g} "
            f"(Q1-Q3 {pq[0]:.4g}-{pq[2]:.4g}, IQR {noise}), change {cq[1]:.4g} "
            f"(Q1-Q3 {cq[0]:.4g}-{cq[2]:.4g})")


def identity_keys(metrics: dict) -> dict:
    """The traced figures a speed-only change must leave identical."""
    return {k: v["value"] for k, v in metrics.items()
            if k == "sim_digest" or k.startswith("count.") or k.endswith(".calls")}


def identity_diff(parent: dict, change: dict) -> list[str]:
    a, b = identity_keys(parent["metrics"]), identity_keys(change["metrics"])
    return [f"{k}: {a.get(k)} -> {b.get(k)}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def layer_shares(metrics: dict) -> dict[str, float]:
    """Each layer's share of the summed self time of a traced run."""
    selfs = {k.removesuffix(".self_s"): v["value"] for k, v in metrics.items()
             if k.endswith(".self_s")}
    total = sum(selfs.values())
    return {k: round(v / total, 4) for k, v in selfs.items()} if total else {}


def compare(parent_root: Path, change_root: Path, workloads: list[str],
            pairs: int, seed: int, spec: dict, repin: str | None = None,
            say: Callable[[str], None] = print) -> tuple[int, dict]:
    """Run every workload both ways; (exit status, trajectory record)."""
    roots = {"parent": parent_root, "change": change_root}
    record: dict = {"workloads": {}, "repin": repin}
    status = 0
    for w in workloads:
        results = paired(lambda side: run_side(roots[side], w, seed, 0),
                         pairs)
        summary = summarize(results, spec, seed)
        for name, s in summary.items():
            say(verdict_line(w, name, s))
        failed = [sum(r["failed"] for r in side) for side in zip(*results)]
        say(f"{w} failed ops: parent {failed[0]}, change {failed[1]}")
        traced = {side: run_side(root, w, seed, 1)
                  for side, root in roots.items()}
        moved = identity_diff(traced["parent"], traced["change"])
        for line in moved:
            say(f"{w} MOVED {line}")
        if moved and repin is None:
            status = 1
        if not moved:
            say(f"{w} identity: sim_digest, count.* and .calls identical")
        else:
            say(f"{w} identity: {len(moved)} figure(s) moved"
                + (f", accepted: {repin}" if repin else ""))
        record["workloads"][w] = {
            "pairs": pairs, "metrics": summary, "failed": failed,
            "identical": not moved,
            "moved": moved, "layer_shares": layer_shares(traced["change"]["metrics"]),
        }
    return status, record


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def main(argv: list[str], root: Path = REPO,
         trajectory: Path = TRAJECTORY) -> int:
    spec = load_spec(root)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", help="the parent revision, e.g. HEAD~1")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repin", metavar="REASON",
                    help="accept moved simulated figures, for this reason")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    parent_commit = _git(root, "rev-parse", args.rev)
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    tree = tmp / "parent"
    _git(root, "worktree", "add", "--detach", str(tree), parent_commit)
    try:
        status, record = compare(tree, root, workloads, args.pairs, args.seed,
                                 spec, args.repin)
    finally:
        _git(root, "worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _git(root, "rev-parse", "HEAD"),
        # The trajectory file a previous run appended to does not count.
        "dirty": any(name != "tools/trajectory.jsonl" for name in _git(
            root, "diff", "--name-only", "HEAD").splitlines()),
        "parent": parent_commit, "seed": args.seed,
        "machine": machine_stamp(args.seed, spec["run_seconds"]),
        **record,
    }
    with trajectory.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
