"""Byte-identity manifest of the chaos sweep, the quick bench payloads and
the quick profiles.

Regenerates three families of artifacts:

* chaos — ``repro chaos gemm matmul 2mm 3mm --seeds 5 --json --journal-dir
  DIR`` under each recovery policy (``resume``, ``none``, ``restart``): the
  JSON it prints (``chaos-<policy>.json``) and every offload journal it
  dumps (``journals-<policy>/<file>``);
* bench — ``repro bench all --quick --out DIR``: the 15 ``BENCH_*.json``
  payloads it writes (``bench/<file>``);
* profile — ``repro profile W --quick --json`` for each shipped workload and
  ``chained_3mm``: the JSON it prints (``profile/<W>.json``);

and pins the sha256 and size of each artifact in ``IDENTITY.json`` (next to
this script), together with the Python, NumPy and zlib versions that
produced them.  A refactor that claims "no observable moved" proves it
with ``--check``::

    python tools/identity.py --check            # exit 1 naming every moved artifact
    python tools/identity.py --repin "reason"   # rewrite the manifest, print
                                                # each moved old -> new sha256

Everything the sweep does is simulated time and stable hashing, so the
artifacts depend only on the source tree and the three versions recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().with_name("IDENTITY.json")
BENCHMARKS = ("gemm", "matmul", "2mm", "3mm")
POLICIES = ("resume", "none", "restart")
SEEDS = 5
PROFILED = ("2mm", "3mm", "collinear", "covar", "gemm", "matmul", "syr2k",
            "syrk", "chained_3mm")


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "zlib": zlib.ZLIB_RUNTIME_VERSION}


def _digest(data: bytes) -> dict[str, object]:
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def files(family: str, directory: Path) -> dict[str, dict[str, object]]:
    """{``family/<file name>``: sha256 + size} of every file in
    ``directory``."""
    return {f"{family}/{path.name}": _digest(path.read_bytes())
            for path in sorted(directory.iterdir())}


def _repro(*args: str) -> bytes:
    """Run ``python -m repro *args`` on this tree; its stdout."""
    run = subprocess.run([sys.executable, "-m", "repro", *args], cwd=REPO,
                         env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                         capture_output=True, check=False)
    if run.returncode != 0:
        sys.stderr.write(run.stderr.decode(errors="replace"))
        raise SystemExit(f"repro {' '.join(args)} exited {run.returncode}")
    return run.stdout


def generate() -> dict[str, dict[str, object]]:
    """Run the three families; {artifact name: sha256 + size}."""
    artifacts: dict[str, dict[str, object]] = {}
    for policy in POLICIES:
        with tempfile.TemporaryDirectory() as journals:
            artifacts[f"chaos-{policy}.json"] = _digest(_repro(
                "chaos", *BENCHMARKS, "--seeds", str(SEEDS), "--recovery",
                policy, "--json", "--journal-dir", journals))
            artifacts.update(files(f"journals-{policy}", Path(journals)))
    with tempfile.TemporaryDirectory() as out:
        _repro("bench", "all", "--quick", "--out", out)
        artifacts.update(files("bench", Path(out)))
    for workload in PROFILED:
        artifacts[f"profile/{workload}.json"] = _digest(_repro(
            "profile", workload, "--quick", "--json"))
    return artifacts


def moved(pinned: dict[str, dict[str, object]],
          fresh: dict[str, dict[str, object]]) -> list[str]:
    """One line per artifact that differs, appeared or vanished."""
    out = []
    for name in sorted(pinned.keys() | fresh.keys()):
        if name not in fresh:
            out.append(f"{name}: missing")
        elif name not in pinned:
            out.append(f"{name}: not in the manifest")
        elif pinned[name] != fresh[name]:
            out.append(f"{name}: size {pinned[name]['size']} -> "
                       f"{fresh[name]['size']}, sha256 "
                       f"{str(pinned[name]['sha256'])[:12]} -> "
                       f"{str(fresh[name]['sha256'])[:12]}")
    return out


def repinned(pinned: dict[str, dict[str, object]],
             fresh: dict[str, dict[str, object]]) -> list[str]:
    """One line per moved artifact, old -> new sha256 in full, ready to
    paste into CHANGES.md; "none" stands for an absent side."""
    out = []
    for name in sorted(pinned.keys() | fresh.keys()):
        old = pinned.get(name, {}).get("sha256", "none")
        new = fresh.get(name, {}).get("sha256", "none")
        if old != new:
            out.append(f"- `{name}`: `{old}` -> `{new}`")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="regenerate and compare with the manifest")
    action.add_argument("--repin", metavar="REASON",
                        help="regenerate and rewrite the manifest")
    args = parser.parse_args(argv)

    fresh = generate()
    manifest = (json.loads(MANIFEST.read_text()) if MANIFEST.exists()
                else {"artifacts": {}})
    if args.repin is not None:
        MANIFEST.write_text(json.dumps(
            {"reason": args.repin, "versions": versions(),
             "artifacts": fresh}, indent=2, sort_keys=True) + "\n")
        lines = repinned(manifest["artifacts"], fresh)
        print(f"pinned {len(fresh)} artifacts in {MANIFEST.name}; "
              f"{len(lines)} moved")
        for line in lines:
            print(line)
        return 0

    lines = moved(manifest["artifacts"], fresh)
    if not lines:
        print(f"identical: {len(fresh)} artifacts match {MANIFEST.name}")
        return 0
    for line in lines:
        print(f"MOVED {line}")
    if manifest["versions"] != versions():
        print(f"note: pinned with {manifest['versions']}, "
              f"checked with {versions()}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
