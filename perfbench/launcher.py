"""Child process of the benchmark: one ``mmwindoor`` CLI invocation.

    python launcher.py RESULT_JSON SRC_DIR TRACE -- CLI_ARGS...

Does what ``python -m mmwindoor.cli CLI_ARGS...`` does, and also records
when the CLI module was imported and ready to parse arguments, the time
spent in the command, the process's own peak resident memory and, with
TRACE=1, per-layer spans. The record goes to RESULT_JSON; the exit code is
the CLI's.
"""

import sys
import time


def _peak_rss_kib() -> int:
    # VmHWM belongs to the address space created at exec, unlike getrusage's
    # ru_maxrss, which starts from the parent's resident size at fork time.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    result_path, src_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: launcher.py RESULT_JSON SRC_DIR TRACE -- CLI_ARGS...")
    cli_args = sys.argv[5:]

    import mmwindoor.cli as cli

    ready = time.monotonic()

    import json
    import os
    from importlib import metadata

    import mmwindoor
    import numpy

    package_file = os.path.realpath(mmwindoor.__file__)
    if os.path.commonpath([package_file, os.path.realpath(src_dir)]) != os.path.realpath(src_dir):
        raise SystemExit(f"mmwindoor was imported from {package_file}, outside {src_dir}")

    tracer = None
    if trace:
        from tracer import Tracer  # this script's directory is sys.path[0]

        tracer = Tracer()
        tracer.install()

    sys.argv = ["mmwindoor", *cli_args]
    exit_code = 0
    start = time.perf_counter()
    try:
        cli.main()
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    main_s = time.perf_counter() - start
    sys.stdout.flush()

    record = {
        "ready_monotonic": ready,
        "main_s": main_s,
        "exit_code": exit_code,
        "peak_rss_kib": _peak_rss_kib(),
        "mmwindoor_file": package_file,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "trace": tracer.report(main_s) if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
