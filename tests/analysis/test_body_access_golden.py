"""Golden body-access summaries of every shipped kernel.

``body_access_golden.json`` was produced at the commit *before* the
verifier's and the inference engine's AST walkers were merged, by running
both of them (``analyze_body`` for the name sets and limits, the range
walker for the windows) over every kernel body of every region in
``WORKLOADS`` ∪ ``EXTRA_WORKLOADS`` and of the ``examples/`` modules
``repro lint`` resolves.  The single pass must reproduce it byte for byte:
it is the differential the deleted walker can no longer provide.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.dataflow import analyze_body
from repro.analysis.verifier import python_file_regions
from repro.workloads.polybench_extra import EXTRA_WORKLOADS
from repro.workloads.specs import WORKLOADS

GOLDEN = Path(__file__).with_name("body_access_golden.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def shipped_loops():
    """``(key, loop)`` for every loop with a kernel body, in a stable order."""
    sources = [(name, [spec.build_region("CLOUD")])
               for name, spec in sorted({**WORKLOADS, **EXTRA_WORKLOADS}.items())]
    sources += [(path.name, python_file_regions(path)[0])
                for path in sorted(EXAMPLES.glob("*.py"))]
    for source, regions in sources:
        for region in regions:
            for idx, loop in enumerate(region.loops):
                if loop.body is not None:
                    yield f"{source}/{region.name}/{idx}:{loop.loop_var}", loop


def _windows(table):
    return {name: None if w is None else f"{w[0]}:{w[1]}"
            for name, w in table.items()}


def snapshot(loop):
    access = analyze_body(loop.body, loop.loop_var)
    return {
        "reads": sorted(access.reads),
        "writes": sorted(access.writes),
        "scalar_reads": sorted(access.scalar_reads),
        "limits": list(access.limits),
        "read_windows": _windows(access.read_windows),
        "write_windows": _windows(access.write_windows),
    }


def render(snapshots):
    return json.dumps(snapshots, indent=2, sort_keys=True) + "\n"


def test_single_pass_reproduces_the_two_walker_golden():
    current = render({key: snapshot(loop) for key, loop in shipped_loops()})
    assert current == GOLDEN.read_text()


def test_golden_covers_every_shipped_region():
    golden = json.loads(GOLDEN.read_text())
    covered = {key.split("/")[0] for key in golden}
    assert set(WORKLOADS) | set(EXTRA_WORKLOADS) <= covered
    assert {"lint_demo.py", "async_pipeline.py"} <= covered
    assert all(entry["write_windows"] for entry in golden.values())
