"""tools/identity.py names every artifact that moved, appeared or vanished."""

import json

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity_tool", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _entry(data: bytes) -> dict:
    return identity._digest(data)


def test_identical_artifacts_report_nothing():
    pinned = {"chaos-none.json": _entry(b"x"), "journals-none/j.jsonl": _entry(b"y")}
    assert identity.moved(pinned, dict(pinned)) == []


def test_every_moved_missing_and_new_artifact_is_named():
    pinned = {"a": _entry(b"1"), "b": _entry(b"2"), "c": _entry(b"3")}
    fresh = {"a": _entry(b"1"), "b": _entry(b"22"), "d": _entry(b"4")}
    lines = identity.moved(pinned, fresh)
    assert [line.split(":")[0] for line in lines] == ["b", "c", "d"]
    assert lines[0].startswith("b: size 1 -> 2, sha256 ")
    assert lines[1] == "c: missing"
    assert lines[2] == "d: not in the manifest"


def test_the_manifest_pins_every_policy_and_its_versions():
    manifest = json.loads(identity.MANIFEST.read_text())
    assert set(manifest["versions"]) == {"python", "numpy", "zlib"}
    for policy in identity.POLICIES:
        assert f"chaos-{policy}.json" in manifest["artifacts"]
        journals = [name for name in manifest["artifacts"]
                    if name.startswith(f"journals-{policy}/")]
        assert len(journals) == len(identity.BENCHMARKS) * identity.SEEDS


def test_repin_prints_old_and_new_digest_of_each_moved_artifact():
    pinned = {"a": _entry(b"1"), "b": _entry(b"2"), "c": _entry(b"3")}
    fresh = {"a": _entry(b"1"), "b": _entry(b"22"), "d": _entry(b"4")}
    sha = {data: _entry(data)["sha256"] for data in (b"2", b"22", b"3", b"4")}
    assert identity.repinned(pinned, fresh) == [
        f"- `b`: `{sha[b'2']}` -> `{sha[b'22']}`",
        f"- `c`: `{sha[b'3']}` -> `none`",
        f"- `d`: `none` -> `{sha[b'4']}`",
    ]
    assert identity.repinned(pinned, dict(pinned)) == []


def test_a_family_names_each_file_of_its_directory(tmp_path):
    (tmp_path / "BENCH_b.json").write_bytes(b"2")
    (tmp_path / "BENCH_a.json").write_bytes(b"1")
    assert identity.files("bench", tmp_path) == {
        "bench/BENCH_a.json": _entry(b"1"), "bench/BENCH_b.json": _entry(b"2")}


def test_the_bench_family_pins_the_committed_baselines():
    """``bench all --quick`` reproduces ``benchmarks/baselines`` byte for
    byte, so the bench family is exactly those files under ``bench/``."""
    manifest = json.loads(identity.MANIFEST.read_text())
    bench = {name: entry for name, entry in manifest["artifacts"].items()
             if name.startswith("bench/")}
    assert len(bench) == 15
    assert bench == identity.files("bench", identity.REPO / "benchmarks" / "baselines")


def test_the_profile_family_pins_each_shipped_workload_and_the_chain():
    """One ``profile/<W>.json`` per workload ``repro profile`` accepts, and
    nothing else under ``profile/``."""
    from repro.workloads import WORKLOADS

    assert identity.PROFILED == (*sorted(WORKLOADS), "chained_3mm")
    manifest = json.loads(identity.MANIFEST.read_text())
    profiles = sorted(name for name in manifest["artifacts"]
                      if name.startswith("profile/"))
    assert profiles == sorted(f"profile/{w}.json" for w in identity.PROFILED)
