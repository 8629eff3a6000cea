"""File formats: path-loss CSV, PDP batch JSON, sweep-record JSON, campaign
config JSON, CDF data and fitted-table CSV. Emission is byte-stable (fixed
field order, shortest-roundtrip floats, LF line endings) so parse-then-emit
reproduces a file exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gc
import io
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from operator import itemgetter
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


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class OutageRow:
    """A location whose synthesized power was undetectable; no loss value exists."""

    location_id: str
    band: FrequencyBand
    env: Environment
    pol: Polarization
    dir: Directionality
    distance_m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and > 0, got {self.distance_m!r}")


def _fmt(x: float) -> str:
    return repr(float(x))


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


def _json_number(x) -> str:
    """A finite number as ``json.dumps`` writes it."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return int.__repr__(x) if isinstance(x, int) else float.__repr__(x)


def atomic_write(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place.

    The file gets the mode a plain ``open`` would create, ``0o666 & ~umask``,
    not the owner-only mode of the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)  # reading the mask means setting it; restore it at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _csv_rows(text: str, table: _Csv):
    """Yield (line, fields) for each row past the header; a leading BOM and blank rows
    before the header are skipped. No header is an EmptyInputError; a wrong header or
    a record the csv module rejects is a ParseError naming its line."""
    reader = csv.reader(io.StringIO(text.removeprefix(_BOM), newline=""))  # as csv asks of a file
    rows = enumerate(reader, start=1)
    try:
        line, header = next(itertools.dropwhile(lambda row: _is_blank(row[1]), rows), (1, None))
        if header is None:
            raise EmptyInputError(table.empty)
        if [h.strip() for h in header] != list(table.columns):
            raise ParseError(f"unexpected header {','.join(header)!r}", line)
        yield from rows
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(exc), line=reader.line_num) from None


def _is_blank(fields: list[str]) -> bool:
    return len(fields) <= 1 and not "".join(fields).strip()


def _row(table: _Csv, fields: list[str], line: int):
    """What ``table`` builds from one row, or None for a blank row. A wrong field
    count, a bad token or an out-of-domain value is a ParseError naming ``line``."""
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
    lines = [PATHLOSS_CSV_HEADER]
    for r in rows:
        pl = "" if isinstance(r, OutageRow) else _fmt(r.path_loss_db)
        lines.append(
            f"{_csv_field(r.location_id)},{_fmt(r.band.ghz)},{r.env.value},{r.pol.value},"
            f"{r.dir.value},{_fmt(r.distance_m)},{pl}"
        )
    return "\n".join(lines) + "\n"


def parse_pathloss_csv(text: str) -> list[PathLossSample]:
    """Parse a path-loss CSV; outage rows (blank loss) are checked, then skipped. A row
    the screen of table lookups and ``float()`` rejects (blank, outage, malformed, or
    a band token not yet seen) goes to the row reader."""
    envs, pols, dirs = _MEMBERS[Environment], _MEMBERS[Polarization], _MEMBERS[Directionality]
    bands: dict[str, FrequencyBand] = {}  # band token -> band, filled by the row reader
    samples: list[PathLossSample] = []
    append = samples.append
    for line, fields in _csv_rows(text, _PATHLOSS):
        try:
            loc, band_s, env_s, pol_s, dir_s, dist_s, pl_s = fields
            append(PathLossSample(loc, bands[band_s], envs[env_s], pols[pol_s], dirs[dir_s],
                                  float(dist_s), float(pl_s)))
            continue
        except (KeyError, ValueError):
            pass
        sample = _row(_PATHLOSS, fields, line)
        if type(sample) is PathLossSample:
            bands[fields[1]] = sample.band
            append(sample)
    return samples


def _pdp_to_obj(pdp: Pdp) -> dict:
    return {
        "bin_spacing_ns": pdp.bin_spacing_ns,
        "noise_floor_mw": pdp.noise_floor_mw,
        "powers_mw": list(pdp.powers_mw),
    }


class _Type(NamedTuple):
    """A JSON type: the Python types ``json.loads`` gives for it, its name in
    messages and, for an array of numbers, their type and the array's length."""

    types: frozenset
    name: str
    items: _Type | None = None
    length: int | None = None


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
    """One kind of JSON object: its keys in reading order with their JSON types.
    A key is optional when the dataclass the object is read into declares a
    default for the field of that name; the default stands in for it."""

    def __init__(self, cls, types: dict[str, _Type]):
        declared = {f.name: f.default for f in dataclasses.fields(cls)}
        self.types = types
        self.names = tuple(types)
        self.keys = frozenset(types)
        self.get = itemgetter(*types)
        self.defaults = tuple(declared.get(k, dataclasses.MISSING) for k in types)
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


# One table per JSON object kind, keyed by JSON key, in reading order.
_PDP = _Shape(Pdp, {"bin_spacing_ns": _NUMBER, "noise_floor_mw": _NUMBER, "powers_mw": _NUMBERS})
_ENTRY = _Shape(SweepEntry, {"theta_tx_deg": _NUMBER, "phi_tx_deg": _NUMBER,
                             "theta_rx_deg": _NUMBER, "phi_rx_deg": _NUMBER, "pdp": _OBJECT})
_SWEEP = _Shape(DirectionalSweep, {"sweep_id": _STRING, "pol": _STRING, "entries": _ARRAY})
_RECORD = _Shape(CampaignRecord, {"location_id": _STRING, "band_ghz": _NUMBER, "env": _STRING,
                                  "distance_m": _NUMBER, "tx_height_m": _NUMBER,
                                  "rx_height_m": _NUMBER, "sweeps": _ARRAY})
_CONFIG = _Shape(CampaignConfig, {"band_ghz": _NUMBER, "env": _STRING, "pol": _STRING,
                                  "dir": _STRING, "n_locations": _INTEGER,
                                  "distance_range_m": _NUMBER_PAIR, "seed": _INTEGER,
                                  "params_override": _OBJECT_OR_NULL,
                                  "pdp_synthesis": _OBJECT_OR_NULL})
_PARAMS_OVERRIDE = _Shape(CiModelParams, {"ple": _NUMBER, "sigma_db": _NUMBER, "d0_m": _NUMBER})
_PDP_SYNTHESIS = _Shape(PdpSynthesisConfig, {
    "tap_count_range": _INTEGER_PAIR, "decay_ns": _NUMBER, "span_ns": _NUMBER,
    "tap_power_sigma_db": _NUMBER, "noise_floor_mw": _NUMBER,
    "fixed_tap_delays_ns": _NUMBERS_OR_NULL})


def _pdp_from_obj(obj, where: str) -> Pdp:
    spacing, floor, powers = _read(obj, where, _PDP)
    try:
        return Pdp(float(spacing), powers, float(floor))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def emit_pdp_batch(pdps: Sequence[Pdp]) -> str:
    """The batch as ``json.dumps(..., indent=2)`` of ``_pdp_to_obj`` writes it."""
    if not pdps:
        return "[]\n"
    # Pdp stores its powers as finite floats, so float repr is their JSON form.
    objs = [
        '  {\n    "bin_spacing_ns": %s,\n    "noise_floor_mw": %s,\n'
        '    "powers_mw": [\n      %s\n    ]\n  }'
        % (_json_number(p.bin_spacing_ns), _json_number(p.noise_floor_mw),
           ",\n      ".join(map(float.__repr__, p.powers_mw)))
        for p in pdps
    ]
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


def _parse_json_items(text: str, what: str, build, item: str) -> list:
    """Build each element of a JSON array (a single object is an array of one).

    The cyclic garbage collector is paused meanwhile: loading creates no
    cycles, yet every collection it would trigger walks each list of powers.
    Each decoded element is released once its objects are built.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        data = _load_json(text)
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
    finally:
        if gc_was_enabled:
            gc.enable()


def parse_pdp_batch(text: str) -> list[Pdp]:
    """Parse a batch (array) of PDP objects; a single object counts as a batch of one."""
    return _parse_json_items(text, "PDP batch", _pdp_from_obj, "pdp")


def _record_to_obj(record: CampaignRecord) -> dict:
    return {
        "location_id": record.location_id,
        "band_ghz": record.spec.band.ghz,
        "env": record.env.value,
        "distance_m": record.distance_m,
        "tx_height_m": record.tx_height_m,
        "rx_height_m": record.rx_height_m,
        "sweeps": [
            {
                "sweep_id": s.sweep_id,
                "pol": s.pol.value,
                "entries": [
                    {
                        "theta_tx_deg": e.theta_tx_deg,
                        "phi_tx_deg": e.phi_tx_deg,
                        "theta_rx_deg": e.theta_rx_deg,
                        "phi_rx_deg": e.phi_rx_deg,
                        "pdp": _pdp_to_obj(e.pdp),
                    }
                    for e in s.entries
                ],
            }
            for s in record.sweeps
        ],
    }


def emit_campaign_records(records: Sequence[CampaignRecord]) -> str:
    return json.dumps([_record_to_obj(r) for r in records], indent=2) + "\n"


def _entry_from_obj(obj, where: str) -> SweepEntry:
    values = _read(obj, where, _ENTRY)
    angles = _floats(where, values[:4])
    if not all(map(math.isfinite, angles)):  # JSON's NaN and Infinity; no azimuth folds them
        key = next(k for k, a in zip(_ENTRY.names, angles) if not math.isfinite(a))
        raise ParseError(f"{where}.{key}: must be finite, got {obj[key]!r}")
    return SweepEntry(*angles, pdp=_pdp_from_obj(values[4], f"{where}.pdp"))


def _sweep_from_obj(obj, where: str) -> DirectionalSweep:
    sweep_id, pol, entries = _read(obj, where, _SWEEP)
    entries = [_entry_from_obj(e, f"{where}.entries[{j}]") for j, e in enumerate(entries)]
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


def config_to_obj(config: CampaignConfig) -> dict:
    obj = {
        "band_ghz": config.band.ghz,
        "env": config.env.value,
        "pol": config.pol.value,
        "dir": config.dir.value,
        "n_locations": config.n_locations,
        "distance_range_m": list(config.distance_range_m),
        "seed": config.seed,
    }
    if config.params_override is not None:
        p = config.params_override
        obj["params_override"] = {"ple": p.ple, "sigma_db": p.shadow_sigma_db, "d0_m": p.d0_m}
    if config.pdp_synthesis is not None:
        s = config.pdp_synthesis
        obj["pdp_synthesis"] = {
            "tap_count_range": list(s.tap_count_range),
            "decay_ns": s.decay_ns,
            "span_ns": s.span_ns,
            "tap_power_sigma_db": s.tap_power_sigma_db,
            "noise_floor_mw": s.noise_floor_mw,
            "fixed_tap_delays_ns": (
                list(s.fixed_tap_delays_ns) if s.fixed_tap_delays_ns is not None else None
            ),
        }
    return obj


def emit_campaign_config(config: CampaignConfig) -> str:
    return json.dumps(config_to_obj(config), indent=2) + "\n"


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
    for line, fields in _csv_rows(text, _FITTED):
        model = _row(_FITTED, fields, line)
        if model is not None:
            if model.stratum in models:
                raise ParseError(f"repeated stratum ({model.band.ghz!r} GHz, {model.env.value}, "
                                 f"{model.pol.value}, {model.dir.value})", line)
            models[model.stratum] = model
    if not models:
        raise EmptyInputError("fitted-table CSV has no rows")
    return list(models.values())


def emit_cdf_csv(pairs: Sequence[tuple[float, float]]) -> str:
    lines = [CDF_CSV_HEADER]
    lines += (f"{_fmt(value)},{_fmt(prob)}" for value, prob in pairs)
    return "\n".join(lines) + "\n"


def emit_delay_stats_csv(
    per_pdp: Sequence[tuple[int, str, object]], summary: SpreadSummary | None
) -> str:
    """Rows of (index, status, DelayStats-or-None) plus one trailing summary row."""
    lines = [DELAY_STATS_CSV_HEADER]
    for index, status, stats in per_pdp:
        if stats is None:
            cells = ",,"
        else:
            cells = (f"{_fmt(stats.mean_excess_delay_ns)},{_fmt(stats.rms_delay_spread_ns)},"
                     f"{_fmt(stats.total_power_mw)}")
        lines.append(f"{_csv_field(index)},{_csv_field(status)},{cells},,,,")
    if summary is not None:
        lines.append(
            f"summary,,,,,{_fmt(summary.mean_ns)},{_fmt(summary.std_ns)},"
            f"{_fmt(summary.max_ns)},{_fmt(summary.p90_ns)}"
        )
    return "\n".join(lines) + "\n"


def parse_spread_values(text: str) -> list[float]:
    """Delay-spread values, finite and >= 0, from either a delay-stats CSV or a
    one-column file (the form is told by a comma in the first non-blank line)."""
    lines = text.removeprefix(_BOM).splitlines()
    if "," in next((line for line in lines if line.strip()), ","):  # a blank file: an empty CSV
        values = [value for line, fields in _csv_rows(text, _DELAY_STATS)
                  if (value := _row(_DELAY_STATS, fields, line)) is not None]
    else:
        values = [_row(_SPREAD_LINES, [token.strip()], line)
                  for line, token in enumerate(lines, start=1) if token.strip()]
    if not values:
        raise EmptyInputError("no delay-spread values found")
    return values
