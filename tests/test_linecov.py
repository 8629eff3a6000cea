"""The line tracer of ``tools/linecov.py`` on a module written for the test."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)

SOURCE = '''\
def sign(x):
    if x >= 0:
        return 1
    return -1


def in_a_thread(x):
    import threading
    thread = threading.Thread(target=sign, args=(x,))
    thread.start()
    thread.join(timeout=10)
'''


def _traced(tmp_path, run):
    """The lines of the module that never ran when ``run(module)`` ran under the tracer."""
    root = tmp_path / "pkg"
    root.mkdir()
    path = root / "sample.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("sample", path)
    module = importlib.util.module_from_spec(spec)
    with linecov.LineTracer(root) as tracer:
        spec.loader.exec_module(module)
        run(module)
    assert set(tracer.ran) == {str(path.resolve())}  # nothing outside ``root``
    return linecov.missed_lines(path, tracer.ran[str(path.resolve())])


def test_the_lines_a_call_skips_are_listed(tmp_path):
    assert _traced(tmp_path, lambda m: m.sign(1)) == [4, 8, 9, 10, 11]


def test_a_thread_started_under_the_tracer_is_traced(tmp_path):
    assert _traced(tmp_path, lambda m: m.in_a_thread(-1)) == [3]


def test_nothing_runs_when_nothing_is_called(tmp_path):
    # Importing runs the module's own lines: its two ``def`` statements.
    assert _traced(tmp_path, lambda m: None) == [2, 3, 4, 8, 9, 10, 11]


def test_executable_lines_include_nested_code():
    code = compile("def f():\n    def g():\n        return 1\n    return g\n", "<f>", "exec")
    assert linecov.executable_lines(code) == {1, 2, 3, 4}
