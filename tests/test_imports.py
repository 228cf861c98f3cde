"""Every ``repro`` subpackage imports on its own, in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = ("analysis", "cloud", "core", "metrics", "obs", "perfmodel",
               "resilience", "simtime", "spark", "workloads")


def test_subpackage_list_is_complete():
    found = {p.parent.name for p in (SRC / "repro").glob("*/__init__.py")}
    assert found == set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    proc = subprocess.run([sys.executable, "-c", f"import repro.{name}"],
                          cwd=SRC, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
