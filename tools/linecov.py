"""List the lines of ``src/mmwindoor`` that a pytest run never executes.

    PYTHONPATH=src python tools/linecov.py [pytest args]

Runs pytest in this process, traced with ``sys.settrace`` and ``threading.settrace``;
only code in files under ``src/mmwindoor`` is followed line by line. Then it prints,
as ``path:line: source``, each module's executable lines (the lines of its code
objects' ``co_lines()``) that never ran, and exits with pytest's status. No
coverage package is needed.

Three limits:

- CLI runs in child processes are not traced, so a line that only they run is
  listed as never run.
- Tracing changes what some tests measure, so they can fail without any defect.
  The four tests of ``tests/test_memory.py`` that bound a parse's transient memory
  fail under it; the one that bounds ``emit_pdp_batch``'s runs it in an untraced
  child, as ``simulate`` runs it, and passes. Acceptance test 03 bounds a run at 5 s: traced, it took 4.6 s on
  a 2-core host, and failed on a busier one (1 failed and 869 passed, in 186 s).
- On CPython 3.11 tracing turns off the in-place growth of ``fileio.read_text``'s
  ``text += block``, so every block copies the text read so far. On the 30.3 MB
  ``omni_sweeps`` input the read took 0.016 s untraced and 0.74 s under
  ``sys.settrace`` (2-core host), so a traced read time is not the program's. A
  traced ``fileio.emit_pdp_batch`` likewise copies the batch laid out so far at
  every chunk.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmwindoor"


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it (a module's
    code starts at an artificial line 0, which is left out)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def missed_lines(path: Path, ran: set[int]) -> list[int]:
    """The executable lines of the module at ``path`` that are not in ``ran``."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return sorted(executable_lines(code) - ran)


class LineTracer:
    """While entered, records each line run in a file under ``root``, in this thread
    and in every thread started meanwhile: ``ran`` maps a file's resolved path to
    its line numbers."""

    def __init__(self, root: Path):
        self.root = str(Path(root).resolve()) + os.sep
        self.ran: dict[str, set[int]] = {}
        self._files: dict[str, set[int] | None] = {}  # co_filename -> its lines, or None

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._files.get(name, ...)
        if lines is ...:
            path = os.path.realpath(name)
            lines = self.ran.setdefault(path, set()) if path.startswith(self.root) else None
            self._files[name] = lines
        if lines is None:
            return None  # no line events for this frame
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> LineTracer:
        self._outer = sys.gettrace(), threading.gettrace()  # a tracer this one nests in
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def main(argv: list[str]) -> int:
    import pytest

    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(argv)
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed_lines(path, tracer.ran.get(str(path.resolve()), set())):
            print(f"{path.relative_to(PACKAGE.parents[1])}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
