"""File formats: path-loss CSV, PDP batch JSON, sweep-record JSON, campaign
config JSON, CDF data and fitted-table CSV. Emission is byte-stable (fixed
field order, shortest-roundtrip floats, LF line endings) so parse-then-emit
reproduces a file exactly.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

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


#: JSON number types; ``bool`` is not one of them.
_NUMBER_TYPES = frozenset({float, int})
_ANGLE_KEYS = ("theta_tx_deg", "phi_tx_deg", "theta_rx_deg", "phi_rx_deg")
_angles_of = itemgetter(*_ANGLE_KEYS)
_ENTRY_KEYS = frozenset(_ANGLE_KEYS + ("pdp",))
_SWEEP_KEYS = frozenset({"sweep_id", "pol", "entries"})
_PDP_KEYS = frozenset({"bin_spacing_ns", "powers_mw"})
_CONFIG_KEYS = frozenset({"band_ghz", "env", "pol", "dir", "n_locations", "distance_range_m",
                          "seed", "params_override", "pdp_synthesis"})
_PDP_SYNTHESIS_KEYS = frozenset({"tap_count_range", "decay_ns", "span_ns", "tap_power_sigma_db",
                                 "noise_floor_mw", "fixed_tap_delays_ns"})
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


def _check_types(where: str, *fields: tuple[str, object],
                 types=_NUMBER_TYPES, kind: str = "a number") -> None:
    """Raise a ParseError naming the first (key, value) field whose JSON type is not in ``types``."""
    for key, value in fields:
        if type(value) not in types:
            raise ParseError(f"{where}: {key} must be {kind}, got {value!r}")


def _pdp_from_obj(obj, where: str) -> Pdp:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    if not obj.keys() >= _PDP_KEYS:
        raise ParseError(f"{where}: missing key(s) {sorted(_PDP_KEYS - obj.keys())}")
    powers = obj["powers_mw"]
    if type(powers) is not list:
        raise ParseError(f"{where}: powers_mw must be an array of numbers, "
                         f"got {type(powers).__name__}")
    if not _NUMBER_TYPES.issuperset(map(type, powers)):
        k = next(k for k, p in enumerate(powers) if type(p) not in _NUMBER_TYPES)
        raise ParseError(f"{where}: powers_mw[{k}] must be a number, got {powers[k]!r}")
    spacing, floor = obj["bin_spacing_ns"], obj.get("noise_floor_mw", 0.0)
    if type(spacing) not in _NUMBER_TYPES or type(floor) not in _NUMBER_TYPES:
        _check_types(where, ("bin_spacing_ns", spacing), ("noise_floor_mw", floor))
    try:
        return Pdp(bin_spacing_ns=float(spacing), powers_mw=powers, noise_floor_mw=float(floor))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def emit_pdp_batch(pdps: Sequence[Pdp]) -> str:
    """The batch as ``json.dumps(..., indent=2)`` of ``_pdp_to_obj`` writes it."""
    if not pdps:
        return "[]\n"
    # Pdp stores its powers as finite floats, so float repr is their JSON form.
    objs = ",\n".join(
        '  {\n    "bin_spacing_ns": %s,\n    "noise_floor_mw": %s,\n'
        '    "powers_mw": [\n      %s\n    ]\n  }'
        % (_json_number(p.bin_spacing_ns), _json_number(p.noise_floor_mw),
           ",\n      ".join(map(float.__repr__, p.powers_mw)))
        for p in pdps
    )
    return "[\n" + objs + "\n]\n"


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


def _entry_from_obj(obj) -> SweepEntry:
    """One sweep entry; a ParseError's text is the path below the entry, then the problem."""
    if not isinstance(obj, dict):
        raise ParseError(": expected an object")
    if not obj.keys() >= _ENTRY_KEYS:
        raise ParseError(f": missing key(s) {sorted(_ENTRY_KEYS - obj.keys())}")
    angles = _angles_of(obj)
    if not _NUMBER_TYPES.issuperset(map(type, angles)):
        key = next(k for k, a in zip(_ANGLE_KEYS, angles) if type(a) not in _NUMBER_TYPES)
        raise ParseError(f".{key}: must be a number, got {obj[key]!r}")
    try:
        angles = tuple(map(float, angles))
    except OverflowError as exc:
        raise ParseError(f": {exc}") from None
    if not all(map(math.isfinite, angles)):  # JSON's NaN and Infinity; no azimuth folds them
        key = next(k for k, a in zip(_ANGLE_KEYS, angles) if not math.isfinite(a))
        raise ParseError(f".{key}: must be finite, got {obj[key]!r}")
    return SweepEntry(*angles, pdp=_pdp_from_obj(obj["pdp"], ".pdp"))


def _array(obj, where: str, field: str) -> list:
    if type(obj) is not list:
        raise ParseError(f"{where}{field}: expected an array, got {type(obj).__name__}")
    return obj


def _record_from_obj(obj, where: str) -> CampaignRecord:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    required = {"location_id", "band_ghz", "env", "distance_m", "sweeps"}
    missing = required - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    band_ghz, distance_m = obj["band_ghz"], obj["distance_m"]
    tx_height_m, rx_height_m = obj.get("tx_height_m", 2.5), obj.get("rx_height_m", 1.5)
    _check_types(where, ("band_ghz", band_ghz), ("distance_m", distance_m),
                 ("tx_height_m", tx_height_m), ("rx_height_m", rx_height_m))
    try:
        band = band_from_ghz(float(band_ghz))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: {exc}") from None
    sweeps = []
    for i, s in enumerate(_array(obj["sweeps"], where, ".sweeps")):
        sw_where = f"{where}.sweeps[{i}]"
        if not isinstance(s, dict) or not s.keys() >= _SWEEP_KEYS:
            raise ParseError(f"{sw_where}: needs sweep_id, pol and entries")
        entries = []
        for j, e in enumerate(_array(s["entries"], sw_where, ".entries")):
            try:
                entries.append(_entry_from_obj(e))
            except ParseError as exc:
                raise ParseError(f"{sw_where}.entries[{j}]{exc}") from None
        try:
            sweeps.append(
                DirectionalSweep(
                    sweep_id=str(s["sweep_id"]),
                    pol=_parse_enum(Polarization, str(s["pol"]), f"{sw_where}.pol"),
                    entries=tuple(entries),
                )
            )
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"{sw_where}: {exc}") from None
    try:
        return CampaignRecord(
            location_id=str(obj["location_id"]),
            distance_m=float(distance_m),
            env=_parse_enum(Environment, str(obj["env"]), f"{where}.env"),
            sweeps=tuple(sweeps),
            spec=sounder_lookup(band),
            tx_height_m=float(tx_height_m),
            rx_height_m=float(rx_height_m),
        )
    except ParseError:
        raise
    except UnknownCombinationError as exc:
        raise UnknownCombinationError(f"{where}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
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


def _config_float(key: str, value) -> float:
    """A config field that must be a JSON number, as a float."""
    _check_types("campaign config", (key, value))
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"campaign config: {key}: {exc}") from None


def _config_int(key: str, value) -> int:
    """A config field that must be a JSON integer (``true`` is not one)."""
    _check_types("campaign config", (key, value), types=(int,), kind="an integer")
    return value


def _config_pair(key: str, value, element) -> tuple:
    if type(value) is not list or len(value) != 2:
        raise ParseError(f"campaign config: {key} must be a [min, max] pair, got {value!r}")
    return (element(f"{key}[0]", value[0]), element(f"{key}[1]", value[1]))


def _check_keys(where: str, obj: dict, known: frozenset) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {sorted(unknown)}")


def parse_campaign_config(text: str) -> CampaignConfig:
    """Parse and validate a campaign config; error messages name the bad field.

    A field of the wrong JSON type or an unknown key is a ParseError; a value
    of the right type outside its domain is a ValueError.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("campaign config must be a JSON object")
    required = {"band_ghz", "env", "pol", "dir", "n_locations"}
    missing = required - obj.keys()
    if missing:
        raise ValueError(f"campaign config: missing key(s) {sorted(missing)}")
    _check_keys("campaign config", obj, _CONFIG_KEYS)
    _check_types("campaign config", ("env", obj["env"]), ("pol", obj["pol"]),
                 ("dir", obj["dir"]), types=(str,), kind="a string")

    band = band_from_ghz(_config_float("band_ghz", obj["band_ghz"]))
    env = _parse_enum(Environment, obj["env"], "env")
    pol = _parse_enum(Polarization, obj["pol"], "pol")
    dir_ = _parse_enum(Directionality, obj["dir"], "dir")
    n_locations = _config_int("n_locations", obj["n_locations"])

    params_override = None
    if obj.get("params_override") is not None:
        po = obj["params_override"]
        _check_types("campaign config", ("params_override", po), types=(dict,), kind="an object")
        if "ple" not in po or "sigma_db" not in po:
            raise ValueError("params_override: needs ple and sigma_db")
        params_override = CiModelParams(
            band=band, env=env, pol=pol, dir=dir_,
            ple=_config_float("params_override.ple", po["ple"]),
            shadow_sigma_db=_config_float("params_override.sigma_db", po["sigma_db"]),
            d0_m=_config_float("params_override.d0_m", po.get("d0_m", 1.0)),
        )

    pdp_synthesis = None
    if obj.get("pdp_synthesis") is not None:
        ps = obj["pdp_synthesis"]
        _check_types("campaign config", ("pdp_synthesis", ps), types=(dict,), kind="an object")
        _check_keys("pdp_synthesis", ps, _PDP_SYNTHESIS_KEYS)
        kwargs = {}
        if "tap_count_range" in ps:
            kwargs["tap_count_range"] = _config_pair(
                "pdp_synthesis.tap_count_range", ps["tap_count_range"], _config_int)
        for key in ("decay_ns", "span_ns", "tap_power_sigma_db", "noise_floor_mw"):
            if key in ps:
                kwargs[key] = _config_float(f"pdp_synthesis.{key}", ps[key])
        delays = ps.get("fixed_tap_delays_ns")
        if delays is not None:
            key = "pdp_synthesis.fixed_tap_delays_ns"
            _check_types("campaign config", (key, delays), types=(list,), kind="an array")
            kwargs["fixed_tap_delays_ns"] = tuple(
                _config_float(f"{key}[{i}]", v) for i, v in enumerate(delays))
        pdp_synthesis = PdpSynthesisConfig(**kwargs)

    return CampaignConfig(
        band=band, env=env, pol=pol, dir=dir_,
        n_locations=n_locations,
        distance_range_m=_config_pair(
            "distance_range_m", obj.get("distance_range_m", [3.9, 45.9]), _config_float),
        seed=_config_int("seed", obj.get("seed", 0)),
        params_override=params_override,
        pdp_synthesis=pdp_synthesis,
    )


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
