"""File formats: path-loss CSV, PDP batch JSON, sweep-record JSON, campaign
config JSON, CDF data and fitted-table CSV. Emission is byte-stable (fixed
field order, shortest-roundtrip floats, LF line endings) so parse-then-emit
reproduces a file exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import functools
import gc
import io
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    CampaignRecord,
    CiModelParams,
    Directionality,
    DirectionalSweep,
    EmptyInputError,
    Environment,
    FrequencyBand,
    PathLossSample,
    Pdp,
    Polarization,
    SweepEntry,
    UnknownCombinationError,
    _FIELD_KEYS,
    band_from_ghz,
    sounder_lookup,
    stratum_label,
)
from .estimation import SpreadSummary
from .simulate import CampaignConfig, PdpSynthesisConfig

#: Each enum's members by value, as ``_parse_enum`` and the path-loss screen look them up.
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (Environment, Polarization, Directionality)}
#: A UTF-8 byte order mark, as some editors write it before a CSV header.
_BOM = "\ufeff"
#: Past the blank lines, the first line with text, from its first character that is
#: not a space (``\s`` is what ``str.strip`` takes away, line breaks included).
_FIRST_LINE = re.compile(r"\s*([^\r\n]*)")


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.message, self.line = message, line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, slots=True)
class OutageRow:
    """A location whose synthesized power was undetectable: its ``path_loss_db`` is None,
    a class attribute and not a field, and is written as a blank cell in a path-loss CSV."""

    location_id: str
    band: FrequencyBand
    env: Environment
    pol: Polarization
    dir: Directionality
    distance_m: float

    path_loss_db = None

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and > 0, got {self.distance_m!r}")


#: orjson's exponent where repr's differs: repr signs a positive one and writes two
#: digits at least (orjson ``1e16``, ``1e-7``; repr ``1e+16``, ``1e-07``).
_EXPONENT = re.compile(r"e(-?)(\d+)")
#: orjson writes the decade [1e-5, 1e-4) positionally (``0.000015``), repr as
#: ``1.5e-05``. A digit before the match means a longer number (``10.000015``).
_DECADE = re.compile(r"0\.0000(\d+)")


def _exponent(m: re.Match) -> str:
    sign, digits = m.groups()
    return m[0] if sign and len(digits) > 1 else "e" + (sign or "+") + digits.zfill(2)


def _decade(m: re.Match) -> str:
    start = m.start()
    if start and m.string[start - 1].isdigit():
        return m[0]
    digits = m[1]
    return digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + "e-05"


def _repr_layout(text: str) -> str:
    """orjson's text of floats with each finite one laid out as repr writes it.

    orjson writes the shortest round-trip digits, as repr does, and differs only in
    layout: its exponents and the decade [1e-5, 1e-4), rewritten here, and ``null``
    for a non-finite value.
    """
    if "e" in text:
        text = _EXPONENT.sub(_exponent, text)
    if "0.0000" in text:
        text = _DECADE.sub(_decade, text)
    return text


def _reprs(values: Iterable) -> list[str]:
    """``[repr(float(x)) for x in values]``, from one ``orjson.dumps`` of the floats."""
    import orjson  # off the import path of the commands that write no column of floats

    floats = list(map(float, values))
    if not floats:
        return []
    text = _repr_layout(orjson.dumps(floats).decode())
    texts = text[1:-1].split(",")
    if "null" in text:  # a non-finite value, which repr formats itself
        texts = [repr(x) if t == "null" else t for t, x in zip(texts, floats)]
    return texts


def _distinct_reprs(values: Iterable) -> Iterable[str]:
    """``_reprs(values)``, each distinct value formatted once: a band column repeats the
    few bands of its strata, so its cells share one string per band. That sharing is why
    it stays: formatting every cell cost ``simulate`` 0.66 MiB more peak memory at 10**4
    locations."""
    values = list(values)
    texts = dict(zip(distinct := dict.fromkeys(values), _reprs(distinct)))
    return map(texts.__getitem__, values)


def _csv_field(value) -> str:
    """One field with minimal quoting: a field holding a comma, a quote, a line
    feed or a carriage return is quoted, with quotes doubled. (``csv.writer``
    with ``lineterminator="\\n"`` leaves a carriage return unquoted, and no
    reader takes that back.)
    """
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


#: How much text crosses the file boundary at a time, in characters, in both
#: directions: an input is read this many at a time through the io text layer
#: (``read_text``), a CSV input's lines are cut from its text in slices of about this
#: many (``_lines``), and an output is written this many at a time (``atomic_write``).
#: So no input's or output's bytes are ever held whole.
_SLICE_CHARS = 1 << 16


def read_text(path: str) -> str:
    """The text of ``path``, line endings and a BOM kept, as ``open(path, encoding="utf-8",
    newline="").read()`` gives it: a CR inside a quoted CSV field stays a CR. The file is
    read ``_SLICE_CHARS`` characters at a time onto one text, so its whole bytes are
    never held beside it. A file that cannot be read or decoded is a ParseError."""
    text = ""
    try:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                # `while True`, not `while block := ...`: on CPython 3.11 only an
                # unconditional backward jump warms the loop up, and only then is `+=`
                # specialized to grow the text in place rather than copy it. A tracer or
                # profiler turns that growth off, so under one every block copies the
                # text read so far: its read time is not the program's.
                while True:
                    block = fh.read(_SLICE_CHARS)
                    text += block
                    if not block:
                        return text
        except UnicodeDecodeError:
            # Its position counts within the block that failed; a whole read counts it
            # from the start of the file.
            with open(path, encoding="utf-8", newline="") as fh:
                return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def atomic_write(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place.

    The temp file is created with mode ``0o666``, which the kernel narrows by the
    umask, so the file gets the mode a plain ``open`` would create. It is synced
    before the rename and its directory after it, so a crash leaves the old file
    or the whole new one.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:  # the parent is there, as a file: name it no directory
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), exc.filename) from None
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for start in range(0, len(text), _SLICE_CHARS):
                try:
                    fh.write(text[start:start + _SLICE_CHARS])
                except UnicodeEncodeError as exc:  # its position, counted in the whole text
                    raise UnicodeEncodeError(exc.encoding, text, start + exc.start,
                                             start + exc.end, exc.reason) from None
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Sync ``directory``'s entries, where the platform can open a directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # e.g. Windows, which opens no directory
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _parse_enum(cls, token: str, field: str):
    try:
        return _MEMBERS[cls][token]
    except KeyError:
        valid = ", ".join(_MEMBERS[cls])
        raise ParseError(f"{field}: unknown value {token!r} (valid: {valid})") from None


def _parse_float(token: str, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{field}: not a number: {token!r}") from None


def _band(token: str, field: str) -> FrequencyBand:
    return band_from_ghz(_parse_float(token, field))


def _spread(token: str, field: str) -> float:
    x = _parse_float(token, field)
    if not math.isfinite(x):
        raise ParseError(f"{field}: not a finite number: {token!r}")
    if x < 0.0:
        raise ParseError(f"{field}: must be >= 0, got {x!r}")
    return x


class _Column(NamedTuple):
    """One CSV column: ``read`` turns a token into its value (token, name -> value), and
    ``write`` a column of values into their cells."""

    read: Callable
    write: Callable


def _blank_or(column: _Column) -> _Column:
    """``column``, except that a blank token reads as None and None writes as a blank cell."""
    read, write = column

    def write_blank_or(values):
        values = list(values)
        cells = iter(write([v for v in values if v is not None]))
        return ("" if v is None else next(cells) for v in values)

    return _Column(lambda token, field: None if not token.strip() else read(token, field),
                   write_blank_or)


class _Csv(NamedTuple):
    """One CSV format: its header names in file order, each with its ``_Column``; what
    ``build`` makes of a row's values (None: the format is only written); and the message
    for no header. Readers, and ``build``, raise ValueError for a bad row."""

    columns: dict
    build: Callable | None = None
    empty: str = ""


_TEXT = _Column(lambda token, field: token, lambda values: map(_csv_field, values))  # kept as is
# An enum member's ``_value_`` is its value, read in C; ``.value`` is a Python property.
_ENV, _POL, _DIR = (_Column(functools.partial(_parse_enum, cls),
                            lambda values: map(attrgetter("_value_"), values))
                    for cls in (Environment, Polarization, Directionality))
_FLOAT = _Column(_parse_float, _reprs)
_SPREAD = _Column(_spread, _reprs)
_STAT = _Column(_TEXT.read, _reprs)  # a delay statistic: written, never read
#: A float written by ``repr`` alone, so that ``fit`` never loads orjson for its table.
_REPR = _Column(_parse_float, lambda values: map(repr, map(float, values)))
_PATHLOSS = _Csv({"location_id": _TEXT, "band_ghz": _Column(_band, _distinct_reprs),
                  "env": _ENV, "pol": _POL, "dir": _DIR,
                  "distance_m": _FLOAT, "path_loss_db": _blank_or(_FLOAT)},
                 lambda *v: OutageRow(*v[:6]) if v[6] is None else PathLossSample(*v),
                 "empty path-loss CSV: no header row")
_FITTED = _Csv({"band_ghz": _Column(_band, _REPR.write), "env": _ENV, "pol": _POL, "dir": _DIR,
                "ple": _REPR, "sigma_db": _REPR, "d0_m": _REPR},
               CiModelParams, "empty fitted-table CSV")
# Of a delay-stats row only the spread is read; the summary row holds none.
_DELAY_STATS = _Csv(dict.fromkeys(
    ("pdp_index", "status", "mean_excess_delay_ns", "rms_delay_spread_ns", "total_power_mw",
     "sigma_tau_mean_ns", "sigma_tau_std_ns", "sigma_tau_max_ns", "sigma_tau_p90_ns"), _STAT)
    | {"pdp_index": _TEXT, "status": _TEXT, "rms_delay_spread_ns": _blank_or(_SPREAD)},
    lambda index, status, mean, rms, *_: None if index == "summary" else rms,
    "spread-values file is empty")
# A one-column spread file has no header; each of its non-blank lines is one row.
_SPREAD_LINES = _Csv({"value": _SPREAD}, lambda value: value)
_CDF = _Csv({"value": _FLOAT, "cumulative_probability": _FLOAT})

PATHLOSS_CSV_HEADER = ",".join(_PATHLOSS.columns)
FIT_CSV_HEADER = ",".join(_FITTED.columns)
DELAY_STATS_CSV_HEADER = ",".join(_DELAY_STATS.columns)
CDF_CSV_HEADER = ",".join(_CDF.columns)
#: The attribute each key or header name is written from, where the two differ.
_ATTRIBUTES = {key: name for name, key in _FIELD_KEYS.items()}


def _emit_csv(table: _Csv, rows: Iterable, getters: Sequence[Callable] = ()) -> str:
    """``table``'s header, then one line per row. Each column's values are taken from the
    rows by its getter, or else from the attribute of its header name, and written by
    its ``write``."""
    rows = list(rows)
    getters = getters or [attrgetter(_ATTRIBUTES.get(name, name)) for name in table.columns]
    cells = [column.write(map(get, rows)) for column, get in zip(table.columns.values(), getters)]
    return "\n".join([",".join(table.columns), *map(",".join, zip(*cells)), ""])


#: A line break, as a file opened with ``newline=""`` ends a line: LF, CRLF or CR.
_BREAK = re.compile(r"\r\n?|\n")


def _lines(text: str):
    """The lines of ``text`` past one leading BOM, as from a file opened with
    ``newline=""``: each ends at LF, CRLF or CR and keeps its line break. They are split,
    in C, by one ``io.StringIO`` per slice of the text, so only one slice is held again
    at a time, at 4 bytes a character; a line longer than a slice is held whole."""
    return itertools.chain.from_iterable(map(functools.partial(io.StringIO, newline=""),
                                             _slices(text)))


def _slices(text: str):
    """``text`` past one leading BOM, in slices that each end just past the first line
    break at or after their ``_SLICE_CHARS``-th character, so no CRLF is split."""
    start = text.startswith(_BOM)
    while start < len(text):
        found = _BREAK.search(text, start + _SLICE_CHARS - 1)
        end = found.end() if found else len(text)
        yield text[start:end]
        start = end


def _rows(text: str, table: _Csv):
    """Yield (line, fields) for each row past the header, ``line`` the physical line its
    record starts on: LF, CRLF and CR each end a line, and a quoted field may hold line
    breaks. A leading BOM and blank rows before the header are skipped. No header is an
    EmptyInputError; a wrong header or a record the csv module rejects is a ParseError
    naming the line it starts on."""
    reader = csv.reader(_lines(text))  # the lines are split, and their fields read, in C
    line = 1
    try:
        for header in reader:
            if not _is_blank(header):
                break
            line = reader.line_num + 1
        else:
            raise EmptyInputError(table.empty)
        if [h.strip() for h in header] != list(table.columns):
            raise ParseError(f"unexpected header {','.join(header)!r}", line)
        line = reader.line_num + 1
        for fields in reader:
            yield line, fields
            line = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(exc), line) from None


def _is_blank(fields: list[str]) -> bool:
    return len(fields) <= 1 and not "".join(fields).strip()


def _row(table: _Csv, fields: list[str], line: int):
    """What ``table`` builds from one row, or None for a blank row. A wrong field
    count, a bad token or an out-of-domain value is a ParseError naming ``line``
    (the line a CSV record starts on, or a line of a one-column file)."""
    if _is_blank(fields):
        return None
    if len(fields) != len(table.columns):
        raise ParseError(f"expected {len(table.columns)} fields, found {len(fields)}", line)
    try:
        return table.build(*[column.read(token, name)
                             for (name, column), token in zip(table.columns.items(), fields)])
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def emit_pathloss_csv(rows: Iterable[PathLossSample | OutageRow]) -> str:
    return _emit_csv(_PATHLOSS, rows)


def parse_pathloss_csv(text: str) -> list[PathLossSample]:
    """Parse a path-loss CSV; outage rows (blank loss) are checked, then skipped. A row
    the screen of table lookups and ``float()`` rejects (blank, outage, malformed, or
    a band token not yet seen) goes to the row reader."""
    envs, pols, dirs = _MEMBERS[Environment], _MEMBERS[Polarization], _MEMBERS[Directionality]
    bands: dict[str, FrequencyBand] = {}  # band token -> band, filled by the row reader
    samples: list[PathLossSample] = []
    append = samples.append
    with _gc_paused():
        for line, fields in _rows(text, _PATHLOSS):
            try:
                loc, band_s, env_s, pol_s, dir_s, dist_s, pl_s = fields
                append(PathLossSample(loc, bands[band_s], envs[env_s], pols[pol_s],
                                      dirs[dir_s], float(dist_s), float(pl_s)))
                continue
            except (KeyError, ValueError):
                pass
            sample = _row(_PATHLOSS, fields, line)
            if type(sample) is PathLossSample:
                bands[fields[1]] = sample.band
                append(sample)
    return samples


class _Type(NamedTuple):
    """A JSON type: the Python types ``json.loads`` gives for it, its name in
    messages, for an array of numbers their type and the array's length, and for
    an object or an array of objects the shape of each object."""

    types: frozenset
    name: str
    items: _Type | None = None
    length: int | None = None
    shape: _Shape | None = None


_NUMBER = _Type(frozenset({float, int}), "a number")  # ``bool`` is not a number
_INTEGER = _Type(frozenset({int}), "an integer")
_STRING = _Type(frozenset({str}), "a string")
_ARRAY = _Type(frozenset({list}), "an array")
_NUMBERS = _Type(frozenset({list}), "an array", _NUMBER)
_NUMBERS_OR_NULL = _Type(frozenset({list, type(None)}), "an array", _NUMBER)
_NUMBER_PAIR = _Type(frozenset({list}), "a [min, max] pair", _NUMBER, 2)
_INTEGER_PAIR = _Type(frozenset({list}), "a [min, max] pair", _INTEGER, 2)
_OBJECT = _Type(frozenset({dict}), "an object")
_OBJECT_OR_NULL = _Type(frozenset({dict, type(None)}), "an object")


class _Shape:
    """One kind of JSON object: its keys in reading and writing order with their
    JSON types. A key is written from the attribute of its name, or from the field
    ``core._FIELD_KEYS`` renames to it, or from the dotted path ``paths`` gives it.
    It is optional when the dataclass the object is read into declares a default
    for that field; the default stands in for it."""

    def __init__(self, cls, types: dict[str, _Type], paths: dict[str, str] | None = None):
        paths = _ATTRIBUTES | (paths or {})
        attrs = [paths.get(k, k) for k in types]
        declared = {f.name: f.default for f in dataclasses.fields(cls)}
        self.types = types
        self.names = tuple(types)
        self.keys = frozenset(types)
        self.get = itemgetter(*types)
        self.attrs = attrgetter(*attrs)
        #: Each key with its default, or MISSING where it has none: ``template | obj``
        #: holds every key of the shape, and an unknown key makes it longer.
        self.template = {k: declared.get(a, dataclasses.MISSING) for k, a in zip(types, attrs)}
        self.accepted = frozenset(itertools.product(*(t.types for t in types.values())))
        #: (index, length, element type screen) of each array of numbers.
        self.arrays = tuple((i, t.length, t.items.types.issuperset)
                            for i, t in enumerate(types.values()) if t.items)


def _read(obj, where: str, shape: _Shape) -> tuple:
    """The values of JSON object ``obj`` in ``shape``'s key order, defaults filled in.

    A non-object, a missing or unknown key, or a value of the wrong JSON type
    is a ParseError naming ``where``. The values pass C-level screens: one on
    their types and one per array of numbers. Only an object the screens reject
    is read key by key, to name its first bad value or to let through a default
    that JSON cannot hold.
    """
    if type(obj) is not dict:
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    filled = shape.template | obj
    values = shape.get(filled)
    if dataclasses.MISSING in values:
        missing = [k for k, v in zip(shape.names, values) if v is dataclasses.MISSING]
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    if len(filled) > len(shape.names):
        raise ParseError(f"{where}: unknown key(s) {sorted(obj.keys() - shape.keys)}")
    if tuple(map(type, values)) in shape.accepted:
        for i, length, fits in shape.arrays:
            value = values[i]
            if value is not None and not (
                    (length is None or len(value) == length) and fits(map(type, value))):
                break
        else:
            return values
    for key, t in shape.types.items():
        if key not in obj:
            continue
        value = obj[key]
        if type(value) not in t.types or (t.length and len(value) != t.length):
            raise ParseError(f"{where}: {key} must be {t.name}, got {value!r}")
        if t.items and value is not None and not t.items.types.issuperset(map(type, value)):
            k = next(k for k, v in enumerate(value) if type(v) not in t.items.types)
            raise ParseError(f"{where}: {key}[{k}] must be {t.items.name}, got {value[k]!r}")
    return values


def _floats(where: str, values) -> tuple[float, ...]:
    """JSON numbers as floats; an integer too large for a float is a ParseError."""
    try:
        return tuple(map(float, values))
    except OverflowError as exc:
        raise ParseError(f"{where}: {exc}") from None


# One table per JSON object kind, keyed by JSON key, in reading and writing order.
_PDP = _Shape(Pdp, {"bin_spacing_ns": _NUMBER, "noise_floor_mw": _NUMBER, "powers_mw": _NUMBERS})
_ENTRY = _Shape(SweepEntry, {"theta_tx_deg": _NUMBER, "phi_tx_deg": _NUMBER,
                             "theta_rx_deg": _NUMBER, "phi_rx_deg": _NUMBER,
                             "pdp": _OBJECT._replace(shape=_PDP)})
_SWEEP = _Shape(DirectionalSweep, {"sweep_id": _STRING, "pol": _STRING,
                                   "entries": _ARRAY._replace(shape=_ENTRY)})
_RECORD = _Shape(CampaignRecord, {"location_id": _STRING, "band_ghz": _NUMBER, "env": _STRING,
                                  "distance_m": _NUMBER, "tx_height_m": _NUMBER,
                                  "rx_height_m": _NUMBER, "sweeps": _ARRAY._replace(shape=_SWEEP)},
                 {"band_ghz": "spec.band"})
_PARAMS_OVERRIDE = _Shape(CiModelParams, {"ple": _NUMBER, "sigma_db": _NUMBER, "d0_m": _NUMBER})
_PDP_SYNTHESIS = _Shape(PdpSynthesisConfig, {
    "tap_count_range": _INTEGER_PAIR, "decay_ns": _NUMBER, "span_ns": _NUMBER,
    "tap_power_sigma_db": _NUMBER, "noise_floor_mw": _NUMBER,
    "fixed_tap_delays_ns": _NUMBERS_OR_NULL})
_CONFIG = _Shape(CampaignConfig, {
    "band_ghz": _NUMBER, "env": _STRING, "pol": _STRING, "dir": _STRING,
    "n_locations": _INTEGER, "distance_range_m": _NUMBER_PAIR, "seed": _INTEGER,
    "params_override": _OBJECT_OR_NULL._replace(shape=_PARAMS_OVERRIDE),
    "pdp_synthesis": _OBJECT_OR_NULL._replace(shape=_PDP_SYNTHESIS)})


def _to_obj(value, shape: _Shape) -> dict:
    """``value`` as the JSON object ``shape`` declares, for ``json.dumps``: enums as
    their values, and each sub-object by its own shape, left out when it is None."""
    obj = {}
    for (key, t), v in zip(shape.types.items(), shape.attrs(value)):
        if t.shape is None:
            obj[key] = v.value if isinstance(v, Enum) else v
        elif v is not None:
            obj[key] = _to_obj(v, t.shape) if dict in t.types else [_to_obj(e, t.shape) for e in v]
    return obj


def _pdp_from_obj(obj, where: str) -> Pdp:
    spacing, floor, powers = _read(obj, where, _PDP)
    try:
        return Pdp(float(spacing), powers, float(floor))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None


#: About how many powers ``emit_pdp_batch`` lays out with one ``orjson.dumps``: their
#: text is held only until it is appended to the batch's text.
_EMIT_CHUNK_BINS = 1 << 13


def emit_pdp_batch(pdps: Sequence[Pdp]) -> str:
    """The batch as ``json.dumps(..., indent=2)`` of its ``_PDP`` objects writes it."""
    if not pdps:
        return "[]\n"
    import orjson  # off the import path of the commands that write no batch

    # A chunk's objects take their keys, in order, from ``_PDP``, the table that reads
    # them. One orjson.dumps lays them out in json.dumps(indent=2)'s layout, and Pdp
    # stores its numbers as finite floats, so ``_repr_layout`` makes each float its repr.
    # Each chunk is appended to the one text at once, so the batch is held once, with no
    # list of its pieces beside it, while CPython grows the text in place.
    # It does so only at a warmed-up `+=`. So both brackets ride on the loop's two
    # appends (3.12 and 3.13 copy the whole text at a `+=` run once, after the loop),
    # and the loop is a `for`, whose backward jump warms up even the one call
    # `simulate` makes (3.11 copies under a conditional `while`). Under a tracer or
    # profiler it copies, as in `read_text`.
    text = ""
    start = bins = 0
    for stop, profile in enumerate(pdps, start=1):
        bins += len(profile.powers_mw)
        if bins < _EMIT_CHUNK_BINS and stop < len(pdps):
            continue
        objs = [dict(zip(_PDP.names, _PDP.attrs(p))) for p in pdps[start:stop]]
        laid = _repr_layout(orjson.dumps(objs, option=orjson.OPT_INDENT_2).decode())
        text += ",\n" if start else "[\n"
        text += laid[2:-2] + ("\n]\n" if stop == len(pdps) else "")  # the objects, unbracketed
        start, bins = stop, 0
    return text


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # an integer over 4300 digits; deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector. A parse builds many objects and no cycles,
    yet every collection their allocation triggers would walk all of them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: About how many characters of a JSON array one orjson call decodes. A chunk is
#: small beside the array, so orjson's copy of its input and its document tree are too.
_CHUNK_CHARS = 1 << 16
#: The most ``[`` and ``{`` one orjson call may see. orjson 3.8 recurses once per level
#: of nesting, without a limit; 2**14 levels take under 2 MiB of stack.
_MAX_OPENERS = 1 << 14
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace
#: An element's opening brackets and whitespace, then its first key.
_OPENING = re.compile(r'[\[{ \t\n\r]*(?:"[^"\\]*")?')
_first_element = json.JSONDecoder().raw_decode


class _JsonOnly(Exception):
    """Raised where json must decode the whole text: orjson's reading is not kept."""


def _orjson_chunks(text: str):
    """The elements of the JSON array ``text``, as lists decoded one orjson chunk at a
    time. ``_JsonOnly`` is raised, before the first list or later, where json must
    decode it: no array of two or more elements, or a chunk orjson rejects.

    Element 0 is json's; orjson decodes the rest in chunks of about ``_CHUNK_CHARS``,
    cut where the text between elements 0 and 1 (element 0's closing brackets, the
    comma, element 1's opening up to its first key) occurs again. The cut is only a
    hint: one inside a string or a nested value leaves a chunk that is no array. Each
    chunk but the last is closed with a ``]``; the last runs to the end of the text and
    brings the array's own closing bracket, so orjson rejects an unclosed array or
    trailing data there, and the text is read front to back once.
    """
    import orjson  # off the import path of the commands that read no batch

    start = _SPACE.match(text).end()
    if not text.startswith("[", start):
        raise _JsonOnly
    element = _SPACE.match(text, start + 1).end()
    try:
        first, end = _first_element(text, element)
    except (ValueError, RecursionError):
        raise _JsonOnly from None
    comma = _SPACE.match(text, end).end()
    if not text.startswith(",", comma):
        raise _JsonOnly
    pos = _SPACE.match(text, comma + 1).end()  # element 1
    closing = element + len(text[element:end].rstrip("]} \t\n\r"))
    separator = text[closing:_OPENING.match(text, pos).end()]
    cut, resume = end - closing, pos - closing  # offsets into the separator
    elements = [first]
    del first  # the list alone holds element 0, which it drops when element 0 is built
    while True:
        yield elements
        found = text.find(separator, pos + _CHUNK_CHARS)
        chunk = text[pos:] if found < 0 else text[pos:found + cut] + "]"
        if chunk.count("[") + chunk.count("{") > _MAX_OPENERS:
            raise _JsonOnly
        try:
            elements = orjson.loads("[" + chunk)
        except orjson.JSONDecodeError:  # a bad cut, NaN, 1e400, a lone surrogate, invalid JSON
            raise _JsonOnly from None
        del chunk
        if not elements:  # no value between a comma and the closing bracket
            raise _JsonOnly
        if found < 0:
            yield elements
            return
        pos = found + resume


def _json_chunks(text: str, what: str) -> list[list]:
    """The elements of ``text`` as json decodes it whole, as one list (a single object
    is an array of one). A decode error, no array or object, or an empty array is raised."""
    data = _load_json(text)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a JSON array or object")
    if not data:
        raise EmptyInputError(f"{what} is empty")
    return [data]


def _show(held: list) -> None:
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


def _use_items(chunks, build, item: str, each, orjson_pass: bool) -> list:
    """Build each element of ``chunks``, pass it to ``each`` at once and keep only what
    ``each`` returns (the item itself without ``each``). An element is dropped from its
    chunk as it is built, and the item once ``each`` is done with it.

    On orjson's pass a build error ends the pass with ``_JsonOnly``, for json to say
    which error comes first. Warnings are held: the build's are shown first, then
    ``each``'s, each in the order raised, and ``each``'s only once every element is
    built. Once ``each`` raises it is called no more, and its error is raised only if
    every element builds.
    """
    results = []
    error = None  # what ``each`` raised
    built, used = [], []  # the warnings of building and of ``each``
    try:
        with warnings.catch_warnings(record=True) as held:
            i = 0
            for elements in chunks:
                for k in range(len(elements)):
                    obj, elements[k] = elements[k], None
                    try:
                        value = build(obj, f"{item}[{i}]")
                    except Exception:
                        if orjson_pass:
                            raise _JsonOnly from None
                        raise
                    finally:
                        del obj
                        built += held
                        held.clear()
                    if error is None:
                        try:
                            results.append(value if each is None else each(i, value))
                        except Exception as exc:
                            error = exc
                        used += held
                        held.clear()
                    del value
                    i += 1
    except Exception:
        if not orjson_pass:  # a build error, after the warnings of the builds before it
            _show(built)
        raise
    _show(built + used)
    if error is not None:
        raise error
    return results


def _parse_json_items(text: str, what: str, build, item: str, each=None) -> list:
    """What ``each(i, item)`` returns for each item built from the JSON array ``text``,
    or the items without ``each``, with the collector paused.

    orjson's decoding is kept only when every element builds. Any failure is raised
    from json's decoding, built again from the start: orjson reads an integer outside
    [-2**63, 2**64) as a float, which a message may echo, and json may reject a depth
    orjson takes. So json's order stays, in which a decode error comes before any
    build error, and a build error before any error of ``each``. The warnings of
    orjson's try are dropped with it, and ``each`` is called again from item 0, so it
    must do nothing beyond its result and its warnings.
    """
    with _gc_paused():
        try:
            return _use_items(_orjson_chunks(text), build, item, each, True)
        except _JsonOnly:
            pass
        return _use_items(_json_chunks(text, what), build, item, each, False)


def parse_pdp_batch(text: str, *, each=None) -> list:
    """Parse a batch (array) of PDP objects; a single object counts as a batch of one.
    With ``each``, each ``Pdp`` is passed to ``each(i, pdp)`` as soon as it is built
    and only what that returns is kept. Where orjson's reading is dropped for json's,
    ``each`` is called again from item 0 (on a valid file too, after a lone surrogate
    escape), so it must have no effect beyond its result and its warnings."""
    return _parse_json_items(text, "PDP batch", _pdp_from_obj, "pdp", each)


def emit_campaign_records(records: Sequence[CampaignRecord]) -> str:
    return json.dumps([_to_obj(r, _RECORD) for r in records], indent=2) + "\n"


#: The types of a float-typed entry's angles, its profile's spacing and floor and its powers.
_FLOAT_ENTRY = (float, float, float, float, float, float, list)


def _entry_from_obj(obj, sweep: str, j: int) -> SweepEntry:
    """Entry ``j`` of the sweep at path ``sweep``. A float-typed entry passes C-level
    screens only: both objects' sizes, one lookup per key, one on the value types, one
    on the angles' sum (nan and infinities make it non-finite) and one on the powers'
    element types. Any other entry, or one its ``Pdp`` rejects, is read key by key."""
    if type(obj) is dict and len(obj) == 5:
        try:
            theta_tx, phi_tx, theta_rx, phi_rx, pdp = _ENTRY.get(obj)
            if type(pdp) is dict and len(pdp) == 3:
                spacing, floor, powers = _PDP.get(pdp)
                if ((type(theta_tx), type(phi_tx), type(theta_rx), type(phi_rx), type(spacing),
                     type(floor), type(powers)) == _FLOAT_ENTRY
                        and math.isfinite(theta_tx + phi_tx + theta_rx + phi_rx)
                        and _NUMBER.types.issuperset(map(type, powers))):
                    return SweepEntry(theta_tx, phi_tx, theta_rx, phi_rx,
                                      Pdp(spacing, powers, floor))
        except (KeyError, ValueError, OverflowError):
            pass
    return _read_entry(obj, f"{sweep}.entries[{j}]")


def _read_entry(obj, where: str) -> SweepEntry:
    values = _read(obj, where, _ENTRY)
    angles = _floats(where, values[:4])
    if not all(map(math.isfinite, angles)):  # JSON's NaN and Infinity; no azimuth folds them
        key = next(k for k, a in zip(_ENTRY.names, angles) if not math.isfinite(a))
        raise ParseError(f"{where}.{key}: must be finite, got {obj[key]!r}")
    return SweepEntry(*angles, pdp=_pdp_from_obj(values[4], where + ".pdp"))


def _sweep_from_obj(obj, where: str) -> DirectionalSweep:
    sweep_id, pol, entries = _read(obj, where, _SWEEP)
    entries = [_entry_from_obj(e, where, j) for j, e in enumerate(entries)]
    try:
        return DirectionalSweep(sweep_id, _parse_enum(Polarization, pol, f"{where}.pol"), entries)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _record_from_obj(obj, where: str) -> CampaignRecord:
    location_id, band_ghz, env, distance_m, tx_height_m, rx_height_m, sweeps = _read(
        obj, where, _RECORD)
    try:
        location_id.encode()  # every output is UTF-8, which has no lone surrogate
    except UnicodeEncodeError as exc:
        raise ParseError(f"{where}: location_id: {exc}") from None
    try:
        band = band_from_ghz(float(band_ghz))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None
    sweeps = [_sweep_from_obj(s, f"{where}.sweeps[{i}]") for i, s in enumerate(sweeps)]
    try:
        return CampaignRecord(
            location_id=location_id,
            distance_m=float(distance_m),
            env=_parse_enum(Environment, env, f"{where}.env"),
            sweeps=sweeps,
            spec=sounder_lookup(band),
            tx_height_m=float(tx_height_m),
            rx_height_m=float(rx_height_m),
        )
    except ParseError:
        raise
    except UnknownCombinationError as exc:
        raise UnknownCombinationError(f"{where}: {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_campaign_records(text: str, *, each=None) -> list:
    """Parse an array of sweep records; a single object counts as an array of one.
    With ``each``, as ``parse_pdp_batch`` takes it: called as soon as each record is
    built, and perhaps again from record 0, so with no effect beyond its result and its
    warnings."""
    return _parse_json_items(text, "sweep-record file", _record_from_obj, "record", each)


def emit_campaign_config(config: CampaignConfig) -> str:
    return json.dumps(_to_obj(config, _CONFIG), indent=2) + "\n"


def parse_campaign_config(text: str) -> CampaignConfig:
    """Parse and validate a campaign config; error messages name the bad field.

    Every object is read by ``_read`` first, so a shape error anywhere is a
    ParseError; a value of the right type outside its domain is a ValueError.
    """
    where = "campaign config"
    (band_ghz, env, pol, dir_, n_locations, distance_range_m, seed, params_override,
     pdp_synthesis) = _read(_load_json(text), where, _CONFIG)
    po_where, ps_where = f"{where}.params_override", f"{where}.pdp_synthesis"
    if params_override is not None:
        params_override = _read(params_override, po_where, _PARAMS_OVERRIDE)
    if pdp_synthesis is not None:
        pdp_synthesis = _read(pdp_synthesis, ps_where, _PDP_SYNTHESIS)

    (band_ghz,) = _floats(where, (band_ghz,))
    band = band_from_ghz(band_ghz)
    env = _parse_enum(Environment, env, "env")
    pol = _parse_enum(Polarization, pol, "pol")
    dir_ = _parse_enum(Directionality, dir_, "dir")
    if params_override is not None:
        ple, sigma_db, d0_m = _floats(po_where, params_override)
        params_override = CiModelParams(band=band, env=env, pol=pol, dir=dir_, ple=ple,
                                        shadow_sigma_db=sigma_db, d0_m=d0_m)
    if pdp_synthesis is not None:
        tap_count_range, *knobs, delays = pdp_synthesis
        pdp_synthesis = PdpSynthesisConfig(
            tuple(tap_count_range), *_floats(ps_where, knobs),
            None if delays is None else _floats(ps_where, delays))
    return CampaignConfig(band=band, env=env, pol=pol, dir=dir_, n_locations=n_locations,
                          distance_range_m=_floats(where, distance_range_m), seed=seed,
                          params_override=params_override, pdp_synthesis=pdp_synthesis)


def emit_fit_csv(models: Iterable[CiModelParams]) -> str:
    """Fitted models in the catalog's column layout, for direct diffing."""
    return _emit_csv(_FITTED, models)


def parse_fit_csv(text: str) -> list[CiModelParams]:
    """The models of a fitted table, in file order; a stratum may appear once."""
    models = {}  # stratum -> model
    for line, fields in _rows(text, _FITTED):
        model = _row(_FITTED, fields, line)
        if model is not None:
            if model.stratum in models:
                raise ParseError(f"repeated stratum {stratum_label(*model.stratum)}", line)
            models[model.stratum] = model
    if not models:
        raise EmptyInputError("fitted-table CSV has no rows")
    return list(models.values())


def emit_cdf_csv(pairs: Sequence[tuple[float, float]]) -> str:
    return _emit_csv(_CDF, pairs, (itemgetter(0), itemgetter(1)))


def emit_delay_stats_csv(
    per_pdp: Sequence[tuple[int, str, object]], summary: SpreadSummary | None
) -> str:
    """Rows of (index, status, DelayStats-or-None) plus one trailing summary row."""
    found = [stats for _, _, stats in per_pdp if stats is not None]
    cells = map("{},{},{}".format, _reprs([s.mean_excess_delay_ns for s in found]),
                _reprs([s.rms_delay_spread_ns for s in found]),
                _reprs([s.total_power_mw for s in found]))
    lines = [DELAY_STATS_CSV_HEADER]
    for index, status, stats in per_pdp:
        lines.append(f"{_csv_field(index)},{_csv_field(status)},"
                     f"{',,' if stats is None else next(cells)},,,,")
    if summary is not None:
        lines.append("summary,,,,," + ",".join(_STAT.write(
            [summary.mean_ns, summary.std_ns, summary.max_ns, summary.p90_ns])))
    lines.append("")
    return "\n".join(lines)


def parse_spread_values(text: str) -> list[float]:
    """Delay-spread values, finite and >= 0, from either a delay-stats CSV or a
    one-column file (the form is told by a comma in the first non-blank line). Lines
    break at LF, CRLF and CR only, as the csv module breaks them."""
    first = _FIRST_LINE.match(text, text.startswith(_BOM))[1]
    if not first or "," in first:  # a blank file: an empty CSV
        values = [value for line, fields in _rows(text, _DELAY_STATS)
                  if (value := _row(_DELAY_STATS, fields, line)) is not None]
    else:
        values = [_row(_SPREAD_LINES, [token.strip()], line)
                  for line, token in enumerate(_lines(text), start=1) if token.strip()]
    if not values:
        raise EmptyInputError("no delay-spread values found")
    return values
