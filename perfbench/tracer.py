"""Layer tracing for one in-process CLI run.

The tracer wraps every public function of the package's modules, plus the
constructors of the value types built once per profile or per sample, and
aggregates one span per call: calls and self time (the span's duration minus
the time its wrapped child spans cover). A wrapper replaces the function
under every name it is bound to in any ``mmwindoor`` module, because several
modules import functions by name (``omni`` imports ``threshold_pdp``,
``simulate`` imports ``sample_path_loss_db``); patching only the defining
module would silently move their time into the caller.

Counters are taken at the same boundaries, from arguments, return values and
raised exceptions, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "mmwindoor"
#: Modules whose public functions are wrapped; ``cli`` is the residual around them.
LAYERS = ("core", "pathloss", "pdp", "omni", "estimation", "simulate", "fileio")

#: Value types whose construction (``__init__`` plus validation) is a span of its own.
TRACED_CLASSES = ("core.Pdp", "core.PathLossSample")


def _count_threshold(c, args, kwargs, result, exc):
    pdp = args[0] if args else kwargs["pdp"]
    c["pdp.bins_in"] += len(pdp.powers_mw)
    if result is not None:
        kept = result.powers_mw
        c["pdp.bins_kept"] += len(kept) - kept.count(0.0)


def _count_delay_stats(c, args, kwargs, result, exc):
    if type(exc).__name__ == "NoMultipathError":
        c["pdp.no_multipath"] += 1


def _count_unique_angles(c, args, kwargs, result, exc):
    record = args[0] if args else kwargs["record"]
    pol = args[1] if len(args) > 1 else kwargs.get("pol")
    entries = sum(len(s.entries) for s in record.sweeps if pol is None or s.pol is pol)
    c["omni.entries"] += entries
    if result is not None:
        c["omni.duplicate_angles"] += entries - len(result)


def _count_omni_pl(c, args, kwargs, result, exc):
    if type(exc).__name__ == "NoMultipathError":
        c["omni.outages"] += 1


def _count_fit(c, args, kwargs, result, exc):
    samples = args[0] if args else kwargs["samples"]
    c["estimation.samples"] += len(samples)


def _count_locations(c, args, kwargs, result, exc):
    if result is not None:
        c["simulate.locations"] += len(result)


def _count_bytes_out(c, args, kwargs, result, exc):
    text = args[1] if len(args) > 1 else kwargs["text"]
    c["fileio.bytes_out"] += len(text.encode("utf-8"))


def _count_bytes_in(c, args, kwargs, result, exc):
    text = args[0] if args else kwargs["text"]
    c["fileio.bytes_in"] += len(text.encode("utf-8"))


COUNTERS = {
    "pdp.threshold_pdp": _count_threshold,
    "pdp.delay_stats": _count_delay_stats,
    "omni.unique_angle_powers_mw": _count_unique_angles,
    "omni.omni_path_loss_db": _count_omni_pl,
    "estimation.fit_ci_model": _count_fit,
    "simulate.generate_pathloss_campaign": _count_locations,
    "fileio.atomic_write": _count_bytes_out,
}

#: Counter names, so a run where a layer does no work still reports zeros.
COUNTER_NAMES = (
    "simulate.locations", "fileio.bytes_in", "fileio.bytes_out", "pdp.bins_in",
    "pdp.bins_kept", "pdp.no_multipath", "omni.entries", "omni.duplicate_angles",
    "omni.outages", "estimation.samples",
)


class Tracer:
    """Aggregated spans and counters for the package's public functions."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self.top_level_s = 0.0
        self._stack: list[float] = []  # per open span: time covered by its child spans
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        counters = self.counters
        count = COUNTERS.get(name)
        if count is None and name.startswith("fileio.parse_"):
            count = _count_bytes_in
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                if count is not None:
                    count(counters, args, kwargs, result, exc)
                duration = clock() - start
                stats[0] += 1
                stats[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    tracer.top_level_s += duration

        return traced

    def install(self) -> None:
        """Wrap every public function and traced class of the loaded package modules."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                raise RuntimeError(f"{PACKAGE}.{layer} is not imported; cannot trace it")
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__ and attr == value.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for qualified in TRACED_CLASSES:
            layer, cls_name = qualified.split(".")
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            self._patches.append((cls, "__init__", cls.__dict__["__init__"]))
            cls.__init__ = self._wrap(qualified, cls.__init__)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def report(self, wall_s: float) -> dict:
        """Per-function calls and self time, counters, and the CLI's own residual time."""
        return {
            "wall_s": wall_s,
            "cli_self_s": wall_s - self.top_level_s,
            "functions": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "counters": dict(self.counters),
        }
