"""File formats: path-loss CSV, PDP batch JSON, sweep-record JSON, campaign
config JSON, CDF data and fitted-table CSV. Emission is byte-stable (fixed
field order, shortest-roundtrip floats, LF line endings) so parse-then-emit
reproduces a file exactly.
"""

from __future__ import annotations

import csv
import dataclasses
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
from typing import Iterable, NamedTuple, Sequence

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
from .estimation import FitResult, SpreadSummary
from .simulate import CampaignConfig, PdpSynthesisConfig

PATHLOSS_CSV_HEADER = "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db"
FIT_CSV_HEADER = "band_ghz,env,pol,dir,ple,sigma_db,d0_m"
CDF_CSV_HEADER = "value,cumulative_probability"
DELAY_STATS_CSV_HEADER = (
    "pdp_index,status,mean_excess_delay_ns,rms_delay_spread_ns,total_power_mw,"
    "sigma_tau_mean_ns,sigma_tau_std_ns,sigma_tau_max_ns,sigma_tau_p90_ns"
)


_ENVIRONMENTS = {m.value: m for m in Environment}
_POLARIZATIONS = {m.value: m for m in Polarization}
_DIRECTIONALITIES = {m.value: m for m in Directionality}
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


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_field(value) -> str:
    """One field as ``csv.writer`` writes it with ``lineterminator="\\n"``.

    Minimal quoting: a field holding a comma, a quote or a line feed is
    quoted, with quotes doubled; a carriage return does not trigger quoting.
    """
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
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


def _parse_enum(cls, token: str, field: str, line: int | None = None):
    try:
        return cls(token)
    except ValueError:
        valid = ", ".join(m.value for m in cls)
        raise ParseError(f"{field}: unknown value {token!r} (valid: {valid})", line) from None


def _parse_float(token: str, field: str, line: int | None = None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{field}: not a number: {token!r}", line) from None


def _parse_finite(token: str, field: str, line: int | None = None) -> float:
    x = _parse_float(token, field, line)
    if not math.isfinite(x):
        raise ParseError(f"{field}: not a finite number: {token!r}", line)
    return x


def _csv_body(text: str, header: str, empty_message: str):
    """A reader past the checked header of ``text`` (one leading BOM ignored); an
    empty text is an EmptyInputError(empty_message), a bad header a ParseError."""
    reader = csv.reader(io.StringIO(text.removeprefix(_BOM)))
    try:
        first = next(reader)
    except StopIteration:
        raise EmptyInputError(empty_message) from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=1) from None
    if [h.strip() for h in first] != header.split(","):
        raise ParseError(f"unexpected header {','.join(first)!r}", line=1)
    return reader


def emit_pathloss_csv(rows: Iterable[PathLossSample | OutageRow]) -> str:
    lines = [PATHLOSS_CSV_HEADER]
    for r in rows:
        pl = "" if isinstance(r, OutageRow) else _fmt(r.path_loss_db)
        lines.append(
            f"{_csv_field(r.location_id)},{_fmt(r.band.ghz)},{r.env.value},{r.pol.value},"
            f"{r.dir.value},{_fmt(r.distance_m)},{pl}"
        )
    return "\n".join(lines) + "\n"


def _parse_pathloss_row(row: list[str], line_no: int, bands: dict) -> PathLossSample | None:
    """One row, field by field: its sample, None for a blank or outage row, or a
    ParseError naming the first bad field. A band token that parses joins ``bands``."""
    if not row or (len(row) == 1 and not row[0].strip()):
        return None
    if len(row) != 7:
        raise ParseError(f"expected 7 fields, found {len(row)}", line=line_no)
    loc, band_s, env_s, pol_s, dir_s, dist_s, pl_s = row
    if pl_s.strip() == "":
        return None  # outage row: nothing to fit
    try:
        if band_s not in bands:
            bands[band_s] = band_from_ghz(_parse_float(band_s, "band_ghz", line_no))
        return PathLossSample(
            location_id=loc,
            band=bands[band_s],
            env=_parse_enum(Environment, env_s, "env", line_no),
            pol=_parse_enum(Polarization, pol_s, "pol", line_no),
            dir=_parse_enum(Directionality, dir_s, "dir", line_no),
            distance_m=_parse_float(dist_s, "distance_m", line_no),
            path_loss_db=_parse_float(pl_s, "path_loss_db", line_no),
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), line=line_no) from None


def parse_pathloss_csv(text: str) -> list[PathLossSample]:
    """Parse a path-loss CSV; outage rows (blank loss) are skipped.

    Each row is first read with table lookups and plain ``float()``. A row
    those reject (blank, outage, malformed, or a band token not yet seen) is
    parsed again field by field, which skips it or names its first bad field.
    """
    reader = _csv_body(text, PATHLOSS_CSV_HEADER, "empty path-loss CSV: no header row")
    envs, pols, dirs = _ENVIRONMENTS, _POLARIZATIONS, _DIRECTIONALITIES
    bands: dict[str, FrequencyBand] = {}  # band token -> band, filled field by field
    samples: list[PathLossSample] = []
    append = samples.append
    try:  # a csv.Error ends the parse, so one handler around the loop keeps rows cheap
        for line_no, row in enumerate(reader, start=2):
            try:
                loc, band_s, env_s, pol_s, dir_s, dist_s, pl_s = row
                append(PathLossSample(loc, bands[band_s], envs[env_s], pols[pol_s], dirs[dir_s],
                                      float(dist_s), float(pl_s)))
                continue
            except (KeyError, ValueError):
                pass
            sample = _parse_pathloss_row(row, line_no, bands)
            if sample is not None:
                append(sample)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(exc), line=reader.line_num) from None
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


def emit_fit_csv(rows: Iterable[tuple[Environment, Polarization, Directionality, FitResult]]) -> str:
    """Fitted models in the catalog's column layout, for direct diffing."""
    lines = [FIT_CSV_HEADER]
    for env, pol, dir_, fit in rows:  # enum values and float reprs never need quoting
        lines.append(f"{_fmt(fit.band.ghz)},{env.value},{pol.value},{dir_.value},"
                     f"{_fmt(fit.ple_hat)},{_fmt(fit.sigma_hat_db)},{_fmt(fit.d0_m)}")
    return "\n".join(lines) + "\n"


def parse_fit_csv(text: str) -> list[dict]:
    reader = _csv_body(text, FIT_CSV_HEADER, "empty fitted-table CSV")
    rows = []
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 7:
                raise ParseError(f"expected 7 fields, found {len(row)}", line=line_no)
            rows.append(
                {
                    "band_ghz": _parse_float(row[0], "band_ghz", line_no),
                    "env": _parse_enum(Environment, row[1], "env", line_no),
                    "pol": _parse_enum(Polarization, row[2], "pol", line_no),
                    "dir": _parse_enum(Directionality, row[3], "dir", line_no),
                    "ple": _parse_float(row[4], "ple", line_no),
                    "sigma_db": _parse_float(row[5], "sigma_db", line_no),
                    "d0_m": _parse_float(row[6], "d0_m", line_no),
                }
            )
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise EmptyInputError("fitted-table CSV has no rows")
    return rows


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
    """Finite delay-spread values from either a delay-stats CSV or a one-column file."""
    stripped = text.removeprefix(_BOM).strip()
    if not stripped:
        raise EmptyInputError("spread-values file is empty")
    values = []
    if "," in stripped.splitlines()[0]:
        reader = _csv_body(text, DELAY_STATS_CSV_HEADER, "spread-values file is empty")
        col = DELAY_STATS_CSV_HEADER.split(",").index("rms_delay_spread_ns")
        try:
            for line_no, row in enumerate(reader, start=2):
                if not row or row[0] == "summary":
                    continue
                if row[col].strip() == "":
                    continue  # flagged no-multipath row
                values.append(_parse_finite(row[col], "rms_delay_spread_ns", line_no))
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    else:
        for line_no, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            values.append(_parse_finite(line, "value", line_no))
    if not values:
        raise EmptyInputError("no delay-spread values found")
    return values
