"""Every ```python block of README.md runs as written, so the documented API
cannot drift from the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks():
    """(id, first line of the code in README.md, the code) per block. The id is the
    heading above the block, slugged, so an edit elsewhere in the file keeps it.
    A fenced block of any language is skipped whole: its ``#`` lines are no headings."""
    blocks, heading = [], ""
    for m in re.finditer(r"^```(\w*)\n(.*?)^```$|^#+ ([^\n]*)$", TEXT, re.M | re.S):
        if m[3] is not None:
            heading = m[3]
        elif m[1] == "python":
            slug = re.sub(r"[^a-z0-9]+", "-", heading.lower()).strip("-")
            blocks.append((slug, TEXT.count("\n", 0, m.start(2)) + 1, m[2]))
    return blocks


BLOCKS = _blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", [b[1:] for b in BLOCKS], ids=[b[0] for b in BLOCKS])
def test_readme_block_runs(line, code):
    # Padded so that a traceback names the README line.
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
