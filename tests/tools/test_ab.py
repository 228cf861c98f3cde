"""tools/ab.py against a stub ``perf/run.py``: the interval covers 1 for an
A/A run and excludes it for a forced 2x slowdown, pairs alternate their
order, and a moved simulated figure fails the run unless re-pinned."""

import importlib.util
import json
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parents[2] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

#: A stand-in for perf/run.py: prints a contract line whose wall time is
#: ``scale`` times a seeded +-5 % jitter, and logs which tree ran.
STUB = '''
import json, random, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
trace = args[args.index("--trace") + 1] == "1"
conf = json.loads((here / "stub.json").read_text())
with open(conf["log"], "a") as fh:
    fh.write(conf["name"] + "\\n")
counter = here / "calls"
i = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(i + 1))
if trace:
    metrics = {"sim_digest": {"value": conf["digest"], "unit": "id"},
               "count.tasks_run": {"value": 100, "unit": "count"},
               "scheduler.calls": {"value": 1, "unit": "count"},
               "scheduler.self_s": {"value": 0.75, "unit": "s"},
               "codegen.self_s": {"value": 0.25, "unit": "s"}}
else:
    wall = conf["scale"] * (1.0 + 0.05 * random.Random(f"{conf['name']}-{i}").uniform(-1, 1))
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "work_per_s": {"value": 1.0 / wall, "unit": "1/s"}}
print("a line of progress output")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''

SPEC = {"workloads": [{"name": "w"}], "run_seconds": 1,
        "end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "work_per_s", "better": "higher"}]}


def _tree(root: Path, name: str, log: Path, scale: float = 1.0,
          digest: str = "d0") -> Path:
    (root / "perf").mkdir(parents=True)
    (root / "perf" / "run.py").write_text(STUB)
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    _configure(root, name, log, scale, digest)
    return root


def _configure(root: Path, name: str, log: Path, scale: float, digest: str) -> None:
    (root / "stub.json").write_text(json.dumps(
        {"name": name, "log": str(log), "scale": scale, "digest": digest}))


def _compare(tmp_path: Path, pairs: int = 11, **change):
    log = tmp_path / "log"
    parent = _tree(tmp_path / "parent", "parent", log)
    child = _tree(tmp_path / "change", "change", log, **change)
    said: list[str] = []
    status, record = ab.compare(parent, child, ["w"], pairs, 0, SPEC,
                                repin=None, say=said.append)
    return status, record["workloads"]["w"], said, log.read_text().split()


def test_aa_interval_covers_one(tmp_path):
    status, w, said, _ = _compare(tmp_path)
    wall = w["metrics"]["wall_s"]
    assert wall["lo"] <= 1.0 <= wall["hi"]
    assert wall["pairs"] == 11
    for side in ("parent", "change"):
        q1, median, q3 = wall[side]
        assert 0.95 <= q1 <= median <= q3 <= 1.05
    assert status == 0 and w["identical"] and w["failed"] == [0, 0]
    assert any(line.startswith("w wall_s: change/parent median") for line in said)
    assert w["layer_shares"] == {"scheduler": 0.75, "codegen": 0.25}


def test_forced_slowdown_is_excluded_and_never_wins(tmp_path):
    _, w, _, _ = _compare(tmp_path, scale=2.0)
    wall, rate = w["metrics"]["wall_s"], w["metrics"]["work_per_s"]
    assert wall["lo"] > 1.0 and 1.8 < wall["ratio"] < 2.2
    assert wall["wins"] == 0
    assert rate["hi"] < 1.0 and rate["wins"] == 0


def test_odd_pairs_run_the_parent_first(tmp_path):
    _, _, _, order = _compare(tmp_path, pairs=4)
    timed = order[:8]
    assert timed == ["parent", "change", "change", "parent",
                     "parent", "change", "change", "parent"]
    assert sorted(order[8:]) == ["change", "parent"]  # one traced run per side


def test_moved_simulated_figure_fails_unless_repinned(tmp_path):
    status, w, said, _ = _compare(tmp_path, pairs=1, digest="d1")
    assert status == 1 and not w["identical"]
    assert "w MOVED sim_digest: d0 -> d1" in said
    log = tmp_path / "log"
    status, record = ab.compare(tmp_path / "parent", tmp_path / "change", ["w"],
                                1, 0, SPEC, repin="wire bytes drop",
                                say=lambda _line: None)
    assert status == 0 and record["repin"] == "wire bytes drop"
    assert log.exists()


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args], check=True, text=True, stdout=subprocess.PIPE).stdout


def test_main_checks_out_the_parent_and_appends_one_trajectory_line(tmp_path):
    log = tmp_path / "log"
    repo = _tree(tmp_path / "repo", "tree", log)
    _git(repo, "init", "-q")
    _git(repo, "add", "perf", "BENCHMARK.json", "stub.json")
    _git(repo, "commit", "-qm", "parent")
    parent = _git(repo, "rev-parse", "HEAD").strip()
    _configure(repo, "tree", log, 2.0, "d0")
    trajectory = repo / "tools" / "trajectory.jsonl"
    trajectory.parent.mkdir()
    trajectory.touch()
    _git(repo, "add", "tools")
    _git(repo, "commit", "-qam", "slower")
    for pairs in ("3", "1"):
        assert ab.main(["HEAD~1", "--pairs", pairs], root=repo,
                       trajectory=trajectory) == 0
    first, second = map(json.loads, trajectory.read_text().splitlines())
    assert first["parent"] == parent
    assert first["workloads"]["w"]["metrics"]["wall_s"]["ratio"] > 1.5
    # The line the first run appended does not make the tree dirty; an
    # uncommitted edit to the program does.
    assert not first["dirty"] and not second["dirty"]
    _configure(repo, "tree", log, 1.0, "d0")
    ab.main(["HEAD~1", "--pairs", "1"], root=repo, trajectory=trajectory)
    assert json.loads(trajectory.read_text().splitlines()[-1])["dirty"]
    # The parent's worktree is gone again.
    assert len(_git(repo, "worktree", "list").splitlines()) == 1
