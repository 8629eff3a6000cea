"""The per-profile kernels and loaders against the versions they replaced.

``Pdp`` screens its powers with ``min`` and ``sum`` and falls back to the
element loop only to judge a profile the screen does not pass;
``threshold_pdp`` keeps bins with one cut and ``delay_stats`` sums positive
bins only. All must behave exactly as the loops below: the same
``DelayStats`` and thresholded powers bit for bit, and the same
``ValueError`` text for bad powers. The profiles ``threshold_pdp`` and
``excess_delay_rebase`` derive skip the checks, and must be what the checks
pass. The JSON loaders must build the same objects as the loaders kept
below, and fail with the same text wherever the old ones did, except for
the type, finite-angle and unknown-key checks added since, the one wording
for a bad object shape, and the record path that an out-of-domain
``band_ghz`` now carries.
"""

import ast
import copy
import json
import math
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from mmwindoor.core import (
    CampaignRecord,
    DirectionalSweep,
    EmptyInputError,
    Environment,
    NoMultipathError,
    Pdp,
    Polarization,
    SweepEntry,
    UnknownCombinationError,
    band_from_ghz,
    sounder_lookup,
)
from mmwindoor import fileio
from mmwindoor.fileio import (
    ParseError,
    _parse_enum,
    _parse_float,
    parse_campaign_config,
    parse_campaign_records,
    parse_pdp_batch,
)
from mmwindoor.pdp import delay_stats, excess_delay_rebase, threshold_pdp

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def reference_validate_powers(powers):
    powers = tuple(float(p) for p in powers)
    for k, p in enumerate(powers):
        if not (math.isfinite(p) and p >= 0.0):
            raise ValueError(f"powers_mw[{k}] must be finite and >= 0, got {p!r}")
    return powers


def reference_threshold(pdp, threshold_db, dynamic_range_db):
    peak = max(pdp.powers_mw)
    cutoff = max(
        pdp.noise_floor_mw * 10.0 ** (threshold_db / 10.0),
        peak * 10.0 ** (-dynamic_range_db / 10.0),
    )
    return tuple(p if (p >= cutoff or (p == peak and p > 0.0)) else 0.0 for p in pdp.powers_mw)


def reference_delay_stats(powers, dt):
    k0 = next((k for k, p in enumerate(powers) if p > 0.0), None)
    if k0 is None:
        return None
    total = math.fsum(powers)
    first = math.fsum(p * ((k - k0) * dt) for k, p in enumerate(powers))
    second = math.fsum(p * ((k - k0) * dt) ** 2 for k, p in enumerate(powers))
    mean_ns = first / total
    second_ns2 = second / total
    rms_ns = math.sqrt(max(second_ns2 - mean_ns * mean_ns, 0.0))
    return (mean_ns, second_ns2, rms_ns, total)


def _bits(values):
    return tuple(float(v).hex() for v in values)


#: Powers spanning the whole float range, with many exact zeros (and -0.0).
wide = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, -0.0, 5e-324, 1e-300, 1e290]),
    st.floats(min_value=1e-300, max_value=1e290),
    st.floats(min_value=0.0, max_value=1.0),
)
profiles = st.builds(
    Pdp,
    bin_spacing_ns=st.sampled_from([2.5, 0.1, 7.0, 1e-3]),
    powers_mw=st.lists(wide, min_size=1, max_size=300).map(tuple),
    noise_floor_mw=st.sampled_from([0.0, 1e-9, 1e-3]),
)


@SETTINGS
@given(profiles, st.sampled_from([0.0, 5.0, 20.0]), st.sampled_from([0.0, 30.0, 300.0]))
def test_delay_stats_bit_identical(pdp, threshold_db, dynamic_range_db):
    for profile in (pdp, threshold_pdp(pdp, threshold_db, dynamic_range_db)):
        expected = reference_delay_stats(profile.powers_mw, profile.bin_spacing_ns)
        if expected is None:
            with pytest.raises(NoMultipathError):
                delay_stats(profile)
            continue
        s = delay_stats(profile)
        got = (s.mean_excess_delay_ns, s.second_moment_ns2, s.rms_delay_spread_ns, s.total_power_mw)
        assert _bits(got) == _bits(expected)
    cleaned = threshold_pdp(pdp, threshold_db, dynamic_range_db).powers_mw
    assert _bits(cleaned) == _bits(reference_threshold(pdp, threshold_db, dynamic_range_db))


@pytest.mark.parametrize("powers", [(-0.0,), (0.0, -0.0, 0.0), (-0.0, -0.0)])
@pytest.mark.parametrize("noise_floor_mw", [0.0, 1e-9])
def test_silent_profile_keeps_the_loops_signed_zeros(powers, noise_floor_mw):
    pdp = Pdp(2.5, powers, noise_floor_mw)
    assert _bits(threshold_pdp(pdp).powers_mw) == _bits(reference_threshold(pdp, 5.0, 30.0))


@SETTINGS
@given(profiles)
def test_derived_profiles_equal_checked_ones(pdp):
    """``threshold_pdp`` and ``excess_delay_rebase`` build their profiles unchecked;
    each must equal, bit for bit, the profile its powers make through the checks."""
    derived = [(threshold_pdp(pdp), reference_threshold(pdp, 5.0, 30.0))]
    k0 = next((k for k, p in enumerate(pdp.powers_mw) if p > 0.0), None)
    if k0 is not None:
        derived.append((excess_delay_rebase(pdp), list(pdp.powers_mw)[k0:]))
    for got, powers in derived:
        want = Pdp(pdp.bin_spacing_ns, list(powers), pdp.noise_floor_mw)
        assert type(got.powers_mw) is tuple
        assert all(type(p) is float for p in got.powers_mw)
        assert _bits((got.bin_spacing_ns, got.noise_floor_mw, *got.powers_mw)) == _bits(
            (want.bin_spacing_ns, want.noise_floor_mw, *want.powers_mw))


def test_only_core_and_pdp_pass_checked():
    """Unchecked construction is for profiles derived from a checked one, in ``pdp``."""
    package = Path(__file__).resolve().parents[1] / "src" / "mmwindoor"
    naming = {path.name for path in package.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, (ast.keyword, ast.arg)) and node.arg == "_checked"}
    assert naming == {"core.py", "pdp.py"}


#: Any float: nan, infinities and negatives must be rejected like the loop did.
any_power = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -1e-300, -5e-324, -0.0, 0.0]),
)


@SETTINGS
@given(st.lists(any_power, min_size=1, max_size=30))
def test_validation_matches_loop(powers):
    try:
        expected = reference_validate_powers(powers)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Pdp(2.5, tuple(powers))
        assert str(got.value) == str(exc)
    else:
        assert _bits(Pdp(2.5, tuple(powers)).powers_mw) == _bits(expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
@pytest.mark.parametrize("index", [0, 3, 7])
def test_bad_power_names_first_offender(bad, index):
    powers = [1.0] * 9
    powers[index] = bad
    powers[-1] = math.nan  # a later offender must not be the one reported
    with pytest.raises(ValueError) as got:
        Pdp(2.5, tuple(powers))
    with pytest.raises(ValueError) as want:
        reference_validate_powers(powers)
    assert str(got.value) == str(want.value)
    assert f"powers_mw[{index}]" in str(got.value)


_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "powers",
    [
        [_MAX, _MAX],
        [0.0, _MAX, 1.0, _MAX / 2, _MAX / 2],
        [_MAX / 3] * 4 + [5e-324, -0.0],
    ],
)
def test_valid_powers_whose_sum_overflows_are_accepted(powers):
    assert math.isinf(sum(powers))
    assert _bits(Pdp(2.5, tuple(powers)).powers_mw) == _bits(reference_validate_powers(powers))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_bad_power_after_an_overflowing_sum_is_named(bad):
    powers = [_MAX, _MAX, 1.0, bad, math.nan]
    with pytest.raises(ValueError) as got:
        Pdp(2.5, tuple(powers))
    with pytest.raises(ValueError) as want:
        reference_validate_powers(powers)
    assert str(got.value) == str(want.value)
    assert "powers_mw[3]" in str(got.value)


def test_list_powers_are_stored_as_a_tuple_of_floats():
    powers = [0.0, 1, 2.5, -0.0]
    pdp = Pdp(2.5, powers)
    assert type(pdp.powers_mw) is tuple
    assert _bits(pdp.powers_mw) == _bits(Pdp(2.5, tuple(powers)).powers_mw)
    assert all(type(p) is float for p in pdp.powers_mw)
    powers[0] = 9.0  # the profile holds its own copy
    assert pdp.powers_mw[0] == 0.0


# The JSON loaders as they were before the number-type checks, kept as reference.


def reference_pdp_from_obj(obj, where: str) -> Pdp:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = {"bin_spacing_ns", "powers_mw"} - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    try:
        return Pdp(
            bin_spacing_ns=float(obj["bin_spacing_ns"]),
            powers_mw=tuple(float(p) for p in obj["powers_mw"]),
            noise_floor_mw=float(obj.get("noise_floor_mw", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def reference_parse_pdp_batch(text: str) -> list[Pdp]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ParseError("PDP batch must be a JSON array or object")
    if not data:
        raise EmptyInputError("PDP batch is empty")
    return [reference_pdp_from_obj(obj, f"pdp[{i}]") for i, obj in enumerate(data)]


def reference_record_from_obj(obj, where: str) -> CampaignRecord:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    required = {"location_id", "band_ghz", "env", "distance_m", "sweeps"}
    missing = required - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    band = band_from_ghz(_parse_float(str(obj["band_ghz"]), f"{where}.band_ghz"))
    sweeps = []
    for i, s in enumerate(obj["sweeps"]):
        sw_where = f"{where}.sweeps[{i}]"
        if not isinstance(s, dict) or not {"sweep_id", "pol", "entries"} <= s.keys():
            raise ParseError(f"{sw_where}: needs sweep_id, pol and entries")
        entries = []
        for j, e in enumerate(s["entries"]):
            e_where = f"{sw_where}.entries[{j}]"
            if not isinstance(e, dict):
                raise ParseError(f"{e_where}: expected an object")
            missing = {
                "theta_tx_deg", "phi_tx_deg", "theta_rx_deg", "phi_rx_deg", "pdp"
            } - e.keys()
            if missing:
                raise ParseError(f"{e_where}: missing key(s) {sorted(missing)}")
            entries.append(
                SweepEntry(
                    theta_tx_deg=float(e["theta_tx_deg"]),
                    phi_tx_deg=float(e["phi_tx_deg"]),
                    theta_rx_deg=float(e["theta_rx_deg"]),
                    phi_rx_deg=float(e["phi_rx_deg"]),
                    pdp=reference_pdp_from_obj(e["pdp"], f"{e_where}.pdp"),
                )
            )
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
            distance_m=float(obj["distance_m"]),
            env=_parse_enum(Environment, str(obj["env"]), f"{where}.env"),
            sweeps=tuple(sweeps),
            spec=sounder_lookup(band),
            tx_height_m=float(obj.get("tx_height_m", 2.5)),
            rx_height_m=float(obj.get("rx_height_m", 1.5)),
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def reference_parse_campaign_records(text: str) -> list[CampaignRecord]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ParseError("sweep-record file must be a JSON array or object")
    if not data:
        raise EmptyInputError("sweep-record file is empty")
    return [reference_record_from_obj(obj, f"record[{i}]") for i, obj in enumerate(data)]


_ANGLES = ("theta_tx_deg", "phi_tx_deg", "theta_rx_deg", "phi_rx_deg")

json_power = st.one_of(
    st.floats(min_value=0.0, max_value=1e3), st.integers(0, 5), st.sampled_from([0.0, -0.0, 1e-300])
)
json_pdp = st.fixed_dictionaries(
    {"bin_spacing_ns": st.sampled_from([2.5, 1, 0.1]),
     "powers_mw": st.lists(json_power, min_size=1, max_size=6)},
    optional={"noise_floor_mw": st.sampled_from([0.0, 1e-9, 0])},
)
json_entry = st.fixed_dictionaries(
    {**{k: st.sampled_from([0, 30.0, 90, -30.0, 360.0]) for k in _ANGLES}, "pdp": json_pdp}
)
json_sweep = st.fixed_dictionaries(
    {"sweep_id": st.sampled_from(["M1", "M8"]), "pol": st.sampled_from(["VV", "VH"]),
     "entries": st.lists(json_entry, max_size=3)}
)
json_record = st.fixed_dictionaries(
    {"location_id": st.sampled_from(["L1", "x,y"]), "band_ghz": st.sampled_from([28.0, 73.5, 28, 60.0]),
     "env": st.sampled_from(["LOS", "NLOS"]), "distance_m": st.sampled_from([10.0, 4, 50.0]),
     "sweeps": st.lists(json_sweep, max_size=2)},
    optional={"tx_height_m": st.sampled_from([2.5, 3]), "rx_height_m": st.just(1.5)},
)
#: Values a malformed file may hold anywhere.
junk = st.sampled_from([
    None, True, False, "abc", "1.5", "", [], [1.0], ["2"], {}, {"a": 1}, 5, -1.0, 0.0,
    10**400, math.inf, "M9", "XX", "VV", "LOS", 60.0,
])


def _slots(node, name):
    """Every place in a JSON document a value sits: (container, key, field name)."""
    if isinstance(node, dict):
        for key in list(node):
            yield node, key, key
            yield from _slots(node[key], key)
    elif isinstance(node, list):
        for i in range(len(node)):
            yield node, i, f"{name}[]"
            yield from _slots(node[i], name)


def _objects(node, path):
    """Every JSON object in a document, with its path as the loaders name it."""
    if isinstance(node, dict):
        yield node, path
        for key, value in node.items():
            yield from _objects(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, f"{path}[{i}]")


#: Scalar fields the loaders now require to be JSON numbers, and JSON strings.
_NUMBER_FIELDS = ("bin_spacing_ns", "noise_floor_mw", "distance_m", "tx_height_m",
                  "rx_height_m", "band_ghz")
_STRING_FIELDS = ("location_id", "env", "sweep_id", "pol")
#: Keys no object kind has, near misses of real ones among them.
_UNKNOWN_KEYS = ("noise_floor_mW", "d0", "sweep", "comment")


def _newly_rejected(field, value):
    """Whether the loaders reject this value here where the reference did not, or
    in words of their own. That covers their number, string and array type
    checks, their finite-angle check, and their one wording for an object's
    shape: the reference worded a bad sweep, a non-object entry and a non-object
    ``pdp`` its own way. ``KeyError`` stands for the key's removal."""
    if value is KeyError:
        return field in ("sweep_id", "pol", "entries")
    if field in _ANGLES:
        return type(value) not in (int, float) or (type(value) is float and not math.isfinite(value))
    if field in _NUMBER_FIELDS or field == "powers_mw[]":
        return type(value) not in (int, float)
    if field in _STRING_FIELDS:
        return type(value) is not str
    if field == "powers_mw":
        return type(value) is not list or any(type(v) not in (int, float) for v in value)
    if field in ("sweeps", "entries"):
        return type(value) is not list or any(type(v) is not dict for v in value)
    if field in ("pdp", "entries[]"):
        return type(value) is not dict
    return field == "sweeps[]"


def _outcome(load, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return repr(load(text)), None
        except Exception as exc:  # noqa: BLE001 - the reference may raise anything
            return None, exc


def _mutated(data, doc, root_path):
    """The document as JSON after one edit, and whether the loaders reject it where
    the reference did not: an edit replaces one value, removes one key, or inserts
    an unknown key, which the reference ignored, into one object. For an inserted
    key the second value is the path of its object, the document's being ``root_path``."""
    holder = {"root": copy.deepcopy(doc)}
    root = holder["root"]
    if data.draw(st.integers(0, 3)) == 0:
        obj, path = data.draw(st.sampled_from(list(_objects(root, root_path))))
        obj[data.draw(st.sampled_from(_UNKNOWN_KEYS))] = data.draw(junk)
        return json.dumps(root), path
    container, key, field = data.draw(st.sampled_from(list(_slots(holder, None))))
    removable = isinstance(container, dict) and container is not holder
    value = data.draw(st.one_of(st.just(KeyError), junk) if removable else junk)
    if value is KeyError:
        del container[key]
    else:
        container[key] = value
    return json.dumps(holder["root"]), _newly_rejected(field, value)


def _assert_same_outcome(reference, load, text, newly):
    want, old_exc = _outcome(reference, text)
    got, new_exc = _outcome(load, text)
    # Every failure is one the CLI maps to a documented exit code.
    assert new_exc is None or isinstance(new_exc, (ValueError, UnknownCombinationError)), new_exc
    if newly:
        assert isinstance(new_exc, ParseError)
        if isinstance(newly, str):  # the path of an object given an unknown key
            assert str(new_exc).startswith(f"{newly}: unknown key(s) ["), new_exc
    elif old_exc is None:
        assert new_exc is None and got == want
    elif isinstance(old_exc, UnknownCombinationError):
        assert type(new_exc) is UnknownCombinationError
        assert re.fullmatch(rf"record\[\d\]: {re.escape(str(old_exc))}", str(new_exc))
    elif type(old_exc) is ValueError:  # an out-of-domain band_ghz, which had no record path
        assert str(old_exc).startswith("band_ghz must be finite and > 0")
        assert type(new_exc) is ParseError and re.match(r"record\[\d\]: ", str(new_exc))
    elif isinstance(old_exc, ValueError):
        assert type(new_exc) is type(old_exc) and str(new_exc) == str(old_exc)
    else:  # TypeError or OverflowError escaped the old loader
        assert isinstance(new_exc, ParseError)


def _step(i, item):
    """An ``each`` that warns for every item and refuses some, judged by their repr."""
    warnings.warn(f"step {i}", UserWarning)
    if len(repr(item)) % 3 == 0:
        raise ValueError(f"step {i} refused")
    return i, repr(item)


def _stepped(call):
    """What ``call()`` returns, or the type and message of what it raises, and the
    messages of the warnings it shows, in order."""
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        try:
            outcome = call(), None
        except Exception as exc:  # noqa: BLE001 - any error is compared
            outcome = None, (type(exc), str(exc))
    return outcome, [str(w.message) for w in shown]


def _json_only(text):
    raise fileio._JsonOnly


def _assert_each_matches_the_list(parse, text):
    """``parse(text, each=_step)`` has the outcome of ``_step`` over ``parse(text)``'s
    items, warnings included: through orjson, with a cut after every element or with
    none, and through json."""
    want = _stepped(lambda: [_step(i, x) for i, x in enumerate(parse(text))])
    for chunk_chars in (16, fileio._CHUNK_CHARS):
        with mock.patch.object(fileio, "_CHUNK_CHARS", chunk_chars):
            assert _stepped(lambda: parse(text, each=_step)) == want
    with mock.patch.object(fileio, "_orjson_chunks", _json_only):
        assert _stepped(lambda: parse(text, each=_step)) == want


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(json_record, min_size=1, max_size=2), st.data())
def test_record_loader_matches_reference(records, data):
    doc = records[0] if len(records) == 1 and data.draw(st.booleans()) else records
    text, newly = (json.dumps(doc), False) if data.draw(st.booleans()) else _mutated(
        data, doc, "record" if isinstance(doc, list) else "record[0]")
    # The loaders stop at the first error in reading order, so an edit they reject
    # is the error reported only in a document that is valid apart from the edit.
    assume(not newly or _outcome(reference_parse_campaign_records, json.dumps(doc))[1] is None)
    _assert_same_outcome(reference_parse_campaign_records, parse_campaign_records, text, newly)
    _assert_each_matches_the_list(parse_campaign_records, text)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(json_pdp, min_size=1, max_size=3), st.data())
def test_pdp_loader_matches_reference(pdps, data):
    text, newly = (json.dumps(pdps), False) if data.draw(st.booleans()) else _mutated(data, pdps, "pdp")
    _assert_same_outcome(reference_parse_pdp_batch, parse_pdp_batch, text, newly)
    _assert_each_matches_the_list(parse_pdp_batch, text)


json_config = st.fixed_dictionaries(
    {"band_ghz": st.sampled_from([28.0, 73.5, 28, 60.0]),
     "env": st.sampled_from(["LOS", "NLOS", "NLOS_BEST"]), "pol": st.sampled_from(["VV", "VH"]),
     "dir": st.sampled_from(["omni", "directional"]), "n_locations": st.sampled_from([1, 5, 0])},
    optional={
        "distance_range_m": st.sampled_from([[3.9, 45.9], [4, 40], [10.0, 5.0]]),
        "seed": st.sampled_from([0, 7]),
        "params_override": st.none() | st.fixed_dictionaries(
            {"ple": st.sampled_from([2, 3.5, 0.0]), "sigma_db": st.sampled_from([0, 4.1])},
            optional={"d0_m": st.sampled_from([1.0, 2])}),
        "pdp_synthesis": st.none() | st.fixed_dictionaries({}, optional={
            "tap_count_range": st.sampled_from([[1, 10], [3, 2]]),
            "decay_ns": st.sampled_from([25.0, 10]), "span_ns": st.sampled_from([100.0, 0]),
            "tap_power_sigma_db": st.sampled_from([3.0, 0]),
            "noise_floor_mw": st.sampled_from([1e-9, 0]),
            "fixed_tap_delays_ns": st.none() | st.sampled_from([[0.0, 5], []])}),
    },
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(json_config, st.data())
def test_config_loader_fails_only_with_documented_errors(config, data):
    """A mutated config loads or fails with an error the CLI maps to an exit code,
    never with a TypeError, KeyError or AttributeError. Every object is read
    before any value is checked, so an unknown key is always the error reported."""
    text, newly = (json.dumps(config), False) if data.draw(st.booleans()) else _mutated(
        data, config, "campaign config")
    try:
        parse_campaign_config(text)
    except (ValueError, UnknownCombinationError) as exc:
        if isinstance(newly, str):
            assert type(exc) is ParseError and str(exc).startswith(f"{newly}: unknown key(s) [")
    else:
        assert not isinstance(newly, str)
