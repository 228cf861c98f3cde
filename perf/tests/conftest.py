"""`pytest perf/tests` — not part of the tier-1 suite (pyproject testpaths)."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for path in (REPO, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
