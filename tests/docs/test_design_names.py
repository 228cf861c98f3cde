"""DESIGN.md names only things that exist, and its module table is complete.

The path checks run standalone (no numpy, no repro import); resolving the
dotted names imports ``repro`` and is skipped where numpy is missing.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DESIGN = (REPO / "DESIGN.md").read_text()

#: ``repro``'s subpackages: the roots a backticked path or dotted name may
#: start from (besides ``repro`` itself).
SUBPACKAGES = sorted(p.parent.name for p in SRC.glob("*/__init__.py"))

_BACKTICKED = re.compile(r"`([^`\s]+)`")
_PATH = re.compile(r"(?:repro/)?([\w{},/]+\.py)")
_DOTTED = re.compile(r"(?:repro\.)?([A-Za-z_]\w*(?:\.(?:[A-Za-z_]\w*|\*))+)")


def _expand(pattern: str) -> list[str]:
    """Shell-style brace expansion: ``a/{b,c}.py`` -> ``a/b.py``, ``a/c.py``."""
    m = re.search(r"\{([^{}]*)\}", pattern)
    if m is None:
        return [pattern]
    return [out for alt in m.group(1).split(",")
            for out in _expand(pattern[:m.start()] + alt + pattern[m.end():])]


def _paths(text: str) -> list[tuple[str, str]]:
    """(token, path under src/repro) for every backticked module path rooted
    at ``repro/`` or at one of its subpackages."""
    out = []
    for token in _BACKTICKED.findall(text):
        m = _PATH.fullmatch(token)
        if m is None:
            continue
        root = m.group(1).split("/", 1)[0]
        if token.startswith("repro/") or root in SUBPACKAGES:
            out.extend((token, path) for path in _expand(m.group(1)))
    return out


def _dotted_names(text: str) -> list[str]:
    """Backticked dotted names rooted at a repro subpackage (``*`` skipped)."""
    out = []
    for token in _BACKTICKED.findall(text):
        m = _DOTTED.fullmatch(token)
        if (m is not None and "*" not in token
                and m.group(1).split(".", 1)[0] in SUBPACKAGES):
            out.append(m.group(1))
    return sorted(set(out))


def _resolves(dotted: str) -> bool:
    obj = importlib.import_module("repro")
    for part in dotted.split("."):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.ismodule(obj):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        else:
            return False
    return True


def test_design_module_paths_exist():
    missing = [f"{token} -> {path}" for token, path in _paths(DESIGN)
               if not (SRC / path).exists()]
    assert not missing, "DESIGN.md names missing modules:\n" + "\n".join(missing)


def test_design_inventory_covers_every_module():
    """§3's table lists every module of the tree (subpackage ``__init__``
    files aside)."""
    section = DESIGN[DESIGN.index("## 3."):DESIGN.index("## 4.")]
    listed = {path for _token, path in _paths(section)}
    tree = {str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
            if p.name != "__init__.py" or p.parent == SRC}
    assert sorted(tree - listed) == []


def test_design_dotted_names_resolve():
    pytest.importorskip("numpy")
    names = _dotted_names(DESIGN)
    assert names  # the scan itself must keep finding the §4 names
    unresolved = [name for name in names if not _resolves(name)]
    assert not unresolved, f"DESIGN.md names nothing at: {unresolved}"
