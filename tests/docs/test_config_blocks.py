"""Every ``ini`` block in the docs loads through the configuration loader.

``load_config`` rejects unknown sections and options, so a block that
advertises a key the loader no longer reads fails here.
"""

import re
from pathlib import Path

import pytest

from repro.core.config import load_config

REPO = Path(__file__).resolve().parents[2]

DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

_INI_BLOCK = re.compile(r"^```ini\n(.*?)^```", re.M | re.S)

BLOCKS = [(md, m.group(1)) for md in DOC_FILES
          for m in _INI_BLOCK.finditer(md.read_text())]


def test_docs_have_ini_blocks():
    assert BLOCKS


@pytest.mark.parametrize(
    "md,block", BLOCKS,
    ids=[f"{md.relative_to(REPO)}#{i}" for i, (md, _) in enumerate(BLOCKS)])
def test_ini_block_loads(tmp_path, md, block):
    path = tmp_path / "cloud_rtl.ini"
    path.write_text(block)
    load_config(path)
