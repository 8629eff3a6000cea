"""File formats: path-loss CSV, PDP batch JSON, sweep-record JSON, campaign
config JSON, CDF data and fitted-table CSV. Emission is byte-stable (fixed
field order, shortest-roundtrip floats, LF line endings) so parse-then-emit
reproduces a file exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gc
import io
import itertools
import json
import math
import os
import re
import tempfile
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
    _slot_setters,
    band_from_ghz,
    sounder_lookup,
)
from .estimation import SpreadSummary
from .simulate import CampaignConfig, PdpSynthesisConfig

CDF_CSV_HEADER = "value,cumulative_probability"


#: Each enum's members by value, as ``_parse_enum`` and the path-loss screen look them up.
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (Environment, Polarization, Directionality)}
#: A UTF-8 byte order mark, as some editors write it before a CSV header.
_BOM = "\ufeff"
#: A line break as the csv module reads one: LF, CRLF or CR.
_LINE_BREAK = re.compile(r"\r\n?|\n")
#: Past the blank lines, the first line with text, from its first character that is
#: not a space (``\s`` is what ``str.strip`` takes away, line breaks included).
_FIRST_LINE = re.compile(r"\s*([^\r\n]*)")


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.message, self.line = message, line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, slots=True, init=False)
class OutageRow:
    """A location whose synthesized power was undetectable; no loss value exists."""

    location_id: str
    band: FrequencyBand
    env: Environment
    pol: Polarization
    dir: Directionality
    distance_m: float

    def __init__(self, location_id: str, band: FrequencyBand, env: Environment,
                 pol: Polarization, dir: Directionality, distance_m: float) -> None:
        if not 0.0 < distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and > 0, got {distance_m!r}")
        set_location_id, set_band, set_env, set_pol, set_dir, set_distance_m = _OUTAGE_SETTERS
        set_location_id(self, location_id)
        set_band(self, band)
        set_env(self, env)
        set_pol(self, pol)
        set_dir(self, dir)
        set_distance_m(self, distance_m)


_OUTAGE_SETTERS = _slot_setters(OutageRow)


def _fmt(x: float) -> str:
    return repr(float(x))


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


#: How many characters ``atomic_write`` encodes at a time: the encoded copy of a
#: text is at most one slice, not the whole.
_WRITE_CHARS = 1 << 20


def atomic_write(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place.

    The file gets the mode a plain ``open`` would create, ``0o666 & ~umask``,
    not the owner-only mode of the temp file. The temp file is synced before
    the rename and its directory after it, so a crash leaves the old file or
    the whole new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            try:
                for start in range(0, len(text), _WRITE_CHARS):
                    fh.write(text[start:start + _WRITE_CHARS].encode("utf-8"))
            except UnicodeEncodeError:
                text.encode("utf-8")  # raise it at the position in the whole text
                raise
            fh.flush()
            os.fsync(fh.fileno())
        umask = os.umask(0)  # reading the mask means setting it; restore it at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


@functools.lru_cache(maxsize=64)  # a band token is resolved once, though outage rows repeat it
def _band(token: str, field: str) -> FrequencyBand:
    return band_from_ghz(_parse_float(token, field))


def _spread(token: str, field: str) -> float:
    x = _parse_float(token, field)
    if not math.isfinite(x):
        raise ParseError(f"{field}: not a finite number: {token!r}")
    if x < 0.0:
        raise ParseError(f"{field}: must be >= 0, got {x!r}")
    return x


def _blank_or(read):
    """``read``, except that a blank token reads as None."""
    return lambda token, field: None if not token.strip() else read(token, field)


class _Csv(NamedTuple):
    """One CSV input: its header names in file order, each with the token reader of
    its column (token, name -> value); what ``build`` makes of a row's values; and the
    message for no header. Readers, and ``build``, raise ValueError for a bad row."""

    columns: dict
    build: Callable
    empty: str = ""


_TEXT = lambda token, field: token  # any text, kept as is
_ENV, _POL, _DIR = (functools.partial(_parse_enum, cls)
                    for cls in (Environment, Polarization, Directionality))
_PATHLOSS = _Csv({"location_id": _TEXT,
                  "band_ghz": _band, "env": _ENV, "pol": _POL, "dir": _DIR,
                  "distance_m": _parse_float, "path_loss_db": _blank_or(_parse_float)},
                 lambda *v: OutageRow(*v[:6]) if v[6] is None else PathLossSample(*v),
                 "empty path-loss CSV: no header row")
_FITTED = _Csv({"band_ghz": _band, "env": _ENV, "pol": _POL, "dir": _DIR,
                "ple": _parse_float, "sigma_db": _parse_float, "d0_m": _parse_float},
               CiModelParams, "empty fitted-table CSV")
# Of a delay-stats row only the spread is read; the summary row holds none.
_DELAY_STATS = _Csv(dict.fromkeys(
    ("pdp_index", "status", "mean_excess_delay_ns", "rms_delay_spread_ns", "total_power_mw",
     "sigma_tau_mean_ns", "sigma_tau_std_ns", "sigma_tau_max_ns", "sigma_tau_p90_ns"), _TEXT)
    | {"rms_delay_spread_ns": _blank_or(_spread)},
    lambda index, status, mean, rms, *_: None if index == "summary" else rms,
    "spread-values file is empty")
# A one-column spread file has no header; each of its non-blank lines is one row.
_SPREAD_LINES = _Csv({"value": _spread}, lambda value: value)

PATHLOSS_CSV_HEADER = ",".join(_PATHLOSS.columns)
FIT_CSV_HEADER = ",".join(_FITTED.columns)
DELAY_STATS_CSV_HEADER = ",".join(_DELAY_STATS.columns)


def _csv_reader(text: str):
    """csv rows of ``text`` past one leading BOM, read as from a file opened with
    ``newline=""``. The text is held as its UTF-8 bytes, about one byte a character,
    where ``io.StringIO`` holds four; lone surrogates pass through both ways."""
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return csv.reader(io.TextIOWrapper(data, encoding="utf-8-sig", errors="surrogatepass",
                                       newline=""))


@contextlib.contextmanager
def _csv_rows(text: str, table: _Csv):
    """Give the rows past the header as (record, fields), counting CSV records from 1.
    A ParseError raised in the block that names a record names the physical line the
    record starts on instead (LF, CRLF and CR each end a line). A quoted field may hold
    line breaks, so the records are read again for that, and only then."""
    try:
        yield _records(text, table)
    except ParseError as exc:
        if exc.line is None:
            raise
        reader = _csv_reader(text)
        end = 0  # the last line of the record before
        for _ in itertools.islice(reader, exc.line - 1):
            end = reader.line_num
        raise ParseError(exc.message, end + 1) from None


def _records(text: str, table: _Csv):
    """Yield (record, fields) for each row past the header; a leading BOM and blank
    rows before the header are skipped. No header is an EmptyInputError; a wrong
    header or a record the csv module rejects is a ParseError naming its record."""
    reader = _csv_reader(text)
    records = itertools.count(1)
    rows = zip(records, reader)  # zip draws from ``records`` first: it counts a rejected record too
    try:
        record, header = next(itertools.dropwhile(lambda row: _is_blank(row[1]), rows), (1, None))
        if header is None:
            raise EmptyInputError(table.empty)
        if [h.strip() for h in header] != list(table.columns):
            raise ParseError(f"unexpected header {','.join(header)!r}", record)
        yield from rows
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(exc), next(records) - 1) from None


def _is_blank(fields: list[str]) -> bool:
    return len(fields) <= 1 and not "".join(fields).strip()


def _row(table: _Csv, fields: list[str], line: int):
    """What ``table`` builds from one row, or None for a blank row. A wrong field
    count, a bad token or an out-of-domain value is a ParseError naming ``line``
    (a CSV record, or a line of a one-column file)."""
    if _is_blank(fields):
        return None
    if len(fields) != len(table.columns):
        raise ParseError(f"expected {len(table.columns)} fields, found {len(fields)}", line)
    try:
        return table.build(*[read(token, name)
                             for (name, read), token in zip(table.columns.items(), fields)])
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def emit_pathloss_csv(rows: Iterable[PathLossSample | OutageRow]) -> str:
    rows = list(rows)
    strata = {}  # (band, env, pol, dir) -> their four cells, formatted once
    losses = iter(_reprs([r.path_loss_db for r in rows if not isinstance(r, OutageRow)]))
    lines = [PATHLOSS_CSV_HEADER]
    for r, distance in zip(rows, _reprs([r.distance_m for r in rows])):
        stratum = (r.band, r.env, r.pol, r.dir)
        cells = strata.get(stratum)
        if cells is None:
            cells = strata[stratum] = (f"{_fmt(r.band.ghz)},{r.env.value},{r.pol.value},"
                                       f"{r.dir.value}")
        pl = "" if isinstance(r, OutageRow) else next(losses)
        lines.append(f"{_csv_field(r.location_id)},{cells},{distance},{pl}")
    return "\n".join(lines) + "\n"


def parse_pathloss_csv(text: str) -> list[PathLossSample]:
    """Parse a path-loss CSV; outage rows (blank loss) are checked, then skipped. A row
    the screen of table lookups and ``float()`` rejects (blank, outage, malformed, or
    a band token not yet seen) goes to the row reader."""
    envs, pols, dirs = _MEMBERS[Environment], _MEMBERS[Polarization], _MEMBERS[Directionality]
    bands: dict[str, FrequencyBand] = {}  # band token -> band, filled by the row reader
    samples: list[PathLossSample] = []
    append = samples.append
    with _gc_paused(), _csv_rows(text, _PATHLOSS) as rows:
        for record, fields in rows:
            try:
                loc, band_s, env_s, pol_s, dir_s, dist_s, pl_s = fields
                append(PathLossSample(loc, bands[band_s], envs[env_s], pols[pol_s],
                                      dirs[dir_s], float(dist_s), float(pl_s)))
                continue
            except (KeyError, ValueError):
                pass
            sample = _row(_PATHLOSS, fields, record)
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
        paths = {key: name for name, key in _FIELD_KEYS.items()} | (paths or {})
        attrs = [paths.get(k, k) for k in types]
        declared = {f.name: f.default for f in dataclasses.fields(cls)}
        self.types = types
        self.names = tuple(types)
        self.keys = frozenset(types)
        self.get = itemgetter(*types)
        self.attrs = attrgetter(*attrs)
        self.defaults = tuple(declared.get(a, dataclasses.MISSING) for a in attrs)
        self.accepted = frozenset(itertools.product(*(t.types for t in types.values())))
        #: (index, length, element type screen) of each array of numbers.
        self.arrays = tuple((i, t.length, t.items.types.issuperset)
                            for i, t in enumerate(types.values()) if t.items)


def _read(obj, where: str, shape: _Shape) -> tuple:
    """The values of JSON object ``obj`` in ``shape``'s key order, defaults filled in.

    A non-object, a missing or unknown key, or a value of the wrong JSON type
    is a ParseError naming ``where``. An object with every key passes C-level
    screens only: its size and one lookup per key, one on its value types and
    one per array of numbers. Any other object is read key by key.
    """
    if type(obj) is dict and len(obj) == len(shape.names):
        try:
            values = shape.get(obj)  # every key is there, so no other key can be
        except KeyError:
            return _read_by_key(obj, where, shape)
        if tuple(map(type, values)) in shape.accepted:
            for i, length, fits in shape.arrays:
                value = values[i]
                if value is not None and not (
                        (length is None or len(value) == length) and fits(map(type, value))):
                    break
            else:
                return values
    return _read_by_key(obj, where, shape)


def _read_by_key(obj, where: str, shape: _Shape) -> tuple:
    if type(obj) is not dict:
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [k for k, d in zip(shape.names, shape.defaults)
               if d is dataclasses.MISSING and k not in obj]
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    if not obj.keys() <= shape.keys:
        raise ParseError(f"{where}: unknown key(s) {sorted(obj.keys() - shape.keys)}")
    for key, t in shape.types.items():
        if key not in obj:
            continue
        value = obj[key]
        if type(value) not in t.types or (t.length and len(value) != t.length):
            raise ParseError(f"{where}: {key} must be {t.name}, got {value!r}")
        if t.items and value is not None and not t.items.types.issuperset(map(type, value)):
            k = next(k for k, v in enumerate(value) if type(v) not in t.items.types)
            raise ParseError(f"{where}: {key}[{k}] must be {t.items.name}, got {value[k]!r}")
    return tuple(map(obj.get, shape.names, shape.defaults))


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


#: About how many powers ``emit_pdp_batch`` formats with one ``orjson.dumps``: their
#: text is held only until the chunk's profiles are laid out.
_EMIT_CHUNK_BINS = 1 << 13


def emit_pdp_batch(pdps: Sequence[Pdp]) -> str:
    """The batch as ``json.dumps(..., indent=2)`` of its ``_PDP`` objects writes it."""
    if not pdps:
        return "[]\n"
    import orjson  # off the import path of the commands that write no batch

    objs = []
    start = 0
    while start < len(pdps):
        stop, bins = start, 0
        while stop < len(pdps) and bins < _EMIT_CHUNK_BINS:
            bins += len(pdps[stop].powers_mw)
            stop += 1
        chunk = pdps[start:stop]
        # Pdp stores its numbers as finite floats, so float repr is their JSON form.
        # The chunk's powers go out as one array of arrays, "[[p, ...],[p, ...]]".
        arrays = _repr_layout(orjson.dumps([p.powers_mw for p in chunk]).decode())
        for p, powers in zip(chunk, arrays[2:-2].split("],[")):
            objs.append(
                '  {\n    "bin_spacing_ns": %r,\n    "noise_floor_mw": %r,\n'
                '    "powers_mw": [\n      %s\n    ]\n  }'
                % (p.bin_spacing_ns, p.noise_floor_mw, powers.replace(",", ",\n      ")))
        start = stop
    objs[0] = "[\n" + objs[0]  # the brackets ride on the end parts: one join, no copy of the whole
    objs[-1] += "\n]\n"
    return ",\n".join(objs)


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
_CHUNK_CHARS = 1 << 18
#: The most ``[`` and ``{`` one orjson call may see. orjson 3.8 recurses once per level
#: of nesting, without a limit; 2**14 levels take under 2 MiB of stack.
_MAX_OPENERS = 1 << 14
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace
#: An element's opening brackets and whitespace, then its first key.
_OPENING = re.compile(r'[\[{ \t\n\r]*(?:"[^"\\]*")?')
_first_element = json.JSONDecoder().raw_decode


def _decode_array(text: str) -> list | None:
    """The elements of the JSON array ``text``, or None where json must decode it:
    no array of two or more elements, or one orjson rejects.

    Element 0 is json's; orjson decodes the rest in chunks of about ``_CHUNK_CHARS``,
    cut where the text between elements 0 and 1 (element 0's closing brackets, the
    comma, element 1's opening up to its first key) occurs again. The cut is only a
    hint: one inside a string or a nested value leaves a chunk that is no array.
    Each chunk is decoded before any item is built.
    """
    import orjson  # off the import path of the commands that read no batch

    start = _SPACE.match(text).end()
    stop = len(text)
    while stop > start and text[stop - 1] in " \t\n\r":
        stop -= 1
    if not text.startswith("[", start) or not text.endswith("]", 0, stop):
        return None
    element = _SPACE.match(text, start + 1).end()
    try:
        first, end = _first_element(text, element)
    except (ValueError, RecursionError):
        return None
    comma = _SPACE.match(text, end).end()
    if not text.startswith(",", comma):
        return None
    pos = _SPACE.match(text, comma + 1).end()  # element 1
    closing = element + len(text[element:end].rstrip("]} \t\n\r"))
    separator = text[closing:_OPENING.match(text, pos).end()]
    cut, resume = end - closing, pos - closing  # offsets into the separator
    items = [first]
    close = stop - 1  # the array's closing bracket
    while True:
        found = text.find(separator, pos + _CHUNK_CHARS, close)
        chunk = text[pos:close if found < 0 else found + cut]
        if chunk.count("[") + chunk.count("{") > _MAX_OPENERS:
            return None
        try:
            elements = orjson.loads("[" + chunk + "]")
        except orjson.JSONDecodeError:  # a bad cut, NaN, 1e400, a lone surrogate, invalid JSON
            return None
        if not elements:  # no value between a comma and the closing bracket
            return None
        items += elements
        if found < 0:
            return items
        pos = found + resume


def _build_items(data, what: str, build, item: str) -> list:
    """Build each element of the decoded array ``data`` (a single object is an array of
    one). Each element is released once its objects are built."""
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a JSON array or object")
    if not data:
        raise EmptyInputError(f"{what} is empty")
    built = []
    for i in range(len(data)):
        obj, data[i] = data[i], None
        built.append(build(obj, f"{item}[{i}]"))
    return built


def _parse_json_items(text: str, what: str, build, item: str) -> list:
    """Build each element of the JSON array ``text``, with the collector paused.

    Items built from orjson's decoding are kept only when every one builds. Any
    failure is raised from json's decoding, built again from the start: orjson reads
    an integer outside [-2**63, 2**64) as a float, which a message may echo, and json
    may reject a depth orjson takes. The warnings of orjson's try are held until it
    succeeds, so json's order stays, in which a decode error comes before any warning.
    """
    with _gc_paused():
        data = _decode_array(text)
        if data is not None:
            with warnings.catch_warnings(record=True) as held:
                try:
                    built = _build_items(data, what, build, item)
                except Exception:
                    built = None
            del data
            if built is not None:
                for w in held:
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file,
                                         w.line)
                return built
        return _build_items(_load_json(text), what, build, item)


def parse_pdp_batch(text: str) -> list[Pdp]:
    """Parse a batch (array) of PDP objects; a single object counts as a batch of one."""
    return _parse_json_items(text, "PDP batch", _pdp_from_obj, "pdp")


def emit_campaign_records(records: Sequence[CampaignRecord]) -> str:
    return json.dumps([_to_obj(r, _RECORD) for r in records], indent=2) + "\n"


def _entry_from_obj(obj, sweep: str, j: int) -> SweepEntry:
    """Entry ``j`` of the sweep at path ``sweep``. The entry's path is formatted only for
    a message: an entry that fails is read again under its path, and fails the same way."""
    try:
        return _read_entry(obj, "")
    except ParseError:
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


def parse_campaign_records(text: str) -> list[CampaignRecord]:
    return _parse_json_items(text, "sweep-record file", _record_from_obj, "record")


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
    lines = [FIT_CSV_HEADER]
    for m in models:  # enum values and float reprs never need quoting
        lines.append(f"{_fmt(m.band.ghz)},{m.env.value},{m.pol.value},{m.dir.value},"
                     f"{_fmt(m.ple)},{_fmt(m.shadow_sigma_db)},{_fmt(m.d0_m)}")
    return "\n".join(lines) + "\n"


def parse_fit_csv(text: str) -> list[CiModelParams]:
    """The models of a fitted table, in file order; a stratum may appear once."""
    models = {}  # stratum -> model
    with _csv_rows(text, _FITTED) as rows:
        for record, fields in rows:
            model = _row(_FITTED, fields, record)
            if model is not None:
                if model.stratum in models:
                    raise ParseError(f"repeated stratum ({model.band.ghz!r} GHz, "
                                     f"{model.env.value}, {model.pol.value}, {model.dir.value})",
                                     record)
                models[model.stratum] = model
    if not models:
        raise EmptyInputError("fitted-table CSV has no rows")
    return list(models.values())


def emit_cdf_csv(pairs: Sequence[tuple[float, float]]) -> str:
    lines = [CDF_CSV_HEADER]
    lines += map("{},{}".format, _reprs([v for v, _ in pairs]), _reprs([p for _, p in pairs]))
    return "\n".join(lines) + "\n"


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
        lines.append(
            f"summary,,,,,{_fmt(summary.mean_ns)},{_fmt(summary.std_ns)},"
            f"{_fmt(summary.max_ns)},{_fmt(summary.p90_ns)}"
        )
    return "\n".join(lines) + "\n"


def parse_spread_values(text: str) -> list[float]:
    """Delay-spread values, finite and >= 0, from either a delay-stats CSV or a
    one-column file (the form is told by a comma in the first non-blank line). Lines
    break at LF, CRLF and CR only, as the csv module breaks them."""
    first = _FIRST_LINE.match(text, text.startswith(_BOM))[1]
    if not first or "," in first:  # a blank file: an empty CSV
        with _csv_rows(text, _DELAY_STATS) as rows:
            values = [value for record, fields in rows
                      if (value := _row(_DELAY_STATS, fields, record)) is not None]
    else:
        lines = _LINE_BREAK.split(text.removeprefix(_BOM))
        values = [_row(_SPREAD_LINES, [token.strip()], line)
                  for line, token in enumerate(lines, start=1) if token.strip()]
    if not values:
        raise EmptyInputError("no delay-spread values found")
    return values
