"""Every JSON object kind is read against one table of its keys.

A non-object, a missing or unknown key, or a value of the wrong JSON type is a
ParseError that names the object's path; an absent optional key takes the
default its dataclass declares; whatever the writers emit reads back equal.
"""

import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    DEFAULT_RX_HEIGHT_M,
    DEFAULT_TX_HEIGHT_M,
    MEASURED_DISTANCE_RANGE_M,
    VALID_SWEEP_IDS,
    CampaignRecord,
    CiModelParams,
    Directionality,
    DirectionalSweep,
    Environment,
    Pdp,
    Polarization,
    SweepEntry,
    band_from_ghz,
    sounder_lookup,
)
from mmwindoor import fileio
from mmwindoor.fileio import (
    ParseError,
    emit_campaign_config,
    emit_campaign_records,
    emit_pdp_batch,
    parse_campaign_config,
    parse_campaign_records,
    parse_pdp_batch,
)
from mmwindoor.simulate import CampaignConfig, PdpSynthesisConfig

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
CONFIG = {"band_ghz": 28.0, "env": "LOS", "pol": "VV", "dir": "omni", "n_locations": 5}


def _record(target=None, key=None, value=None, remove=False):
    """One valid sweep record as JSON text, with one key of one object edited."""
    pdp = {"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-9, "powers_mw": [1e-6, 2e-6]}
    entry = {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 30.0, "phi_rx_deg": 0.0,
             "pdp": pdp}
    sweep = {"sweep_id": "M1", "pol": "VV", "entries": [entry]}
    record = {"location_id": "R1", "band_ghz": 28.0, "env": "LOS", "distance_m": 10.0,
              "sweeps": [sweep]}
    if target is not None:
        obj = {"record": record, "sweep": sweep, "entry": entry, "pdp": pdp}[target]
        if remove:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps([record])


def _parse_error(parse, text) -> str:
    with pytest.raises(ParseError) as got:
        parse(text)
    return str(got.value)


@pytest.mark.parametrize(
    "target, where",
    [("record", "record[0]"), ("sweep", "record[0].sweeps[0]"),
     ("entry", "record[0].sweeps[0].entries[0]"), ("pdp", "record[0].sweeps[0].entries[0].pdp")],
)
def test_unknown_key_in_any_record_object_names_its_path(target, where):
    text = _record(target, "noise_floor_mW", 1e-9)
    assert _parse_error(parse_campaign_records, text) == f"{where}: unknown key(s) ['noise_floor_mW']"


def test_unknown_pdp_key_names_the_profile():
    text = '[{"bin_spacing_ns": 2.5, "powers_mw": [1.0]}, {"bin_spacing_ns": 2.5, "noise_floor_mW": 0,' \
           ' "powers_mw": [1.0]}]'
    assert _parse_error(parse_pdp_batch, text) == "pdp[1]: unknown key(s) ['noise_floor_mW']"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"params_override": {"ple": 2.0, "sigma_db": 3.0, "d0": 1.0}},
         "campaign config.params_override: unknown key(s) ['d0']"),
        ({"params_override": {"sigma_db": 3.0}},
         "campaign config.params_override: missing key(s) ['ple']"),
        ({"pdp_synthesis": {"noise_floor_mW": 1e-9}},
         "campaign config.pdp_synthesis: unknown key(s) ['noise_floor_mW']"),
        ({"n_locations": None}, "campaign config: n_locations must be an integer, got None"),
    ],
)
def test_config_shape_errors_name_the_object(edit, message):
    assert _parse_error(parse_campaign_config, json.dumps({**CONFIG, **edit})) == message


@pytest.mark.parametrize("key", sorted(CONFIG))
def test_missing_config_key_is_a_parse_error(key):
    config = {k: v for k, v in CONFIG.items() if k != key}
    message = _parse_error(parse_campaign_config, json.dumps(config))
    assert message == f"campaign config: missing key(s) ['{key}']"


def test_non_object_config_is_a_parse_error():
    assert _parse_error(parse_campaign_config, "[]") == "campaign config: expected an object, got list"


@pytest.mark.parametrize(
    "target, key, value, message",
    [
        ("record", "location_id", None, "record[0]: location_id must be a string, got None"),
        ("record", "location_id", 5, "record[0]: location_id must be a string, got 5"),
        ("record", "env", 1, "record[0]: env must be a string, got 1"),
        ("sweep", "sweep_id", 1, "record[0].sweeps[0]: sweep_id must be a string, got 1"),
        ("sweep", "pol", None, "record[0].sweeps[0]: pol must be a string, got None"),
        ("entry", "pdp", [1.0], "record[0].sweeps[0].entries[0]: pdp must be an object, got [1.0]"),
        ("sweep", "entries", [5], "record[0].sweeps[0].entries[0]: expected an object, got int"),
        ("record", "sweeps", ["M1"], "record[0].sweeps[0]: expected an object, got str"),
        ("record", "tx_height_m", None, "record[0]: tx_height_m must be a number, got None"),
    ],
)
def test_string_fields_and_nested_objects_are_typed(target, key, value, message):
    assert _parse_error(parse_campaign_records, _record(target, key, value)) == message


@pytest.mark.parametrize(
    "target, key, where",
    [("record", "location_id", "record[0]"), ("sweep", "pol", "record[0].sweeps[0]"),
     ("entry", "pdp", "record[0].sweeps[0].entries[0]"),
     ("pdp", "powers_mw", "record[0].sweeps[0].entries[0].pdp")],
)
def test_missing_key_in_any_record_object_names_its_path(target, key, where):
    text = _record(target, key, remove=True)
    assert _parse_error(parse_campaign_records, text) == f"{where}: missing key(s) ['{key}']"


def test_absent_optional_keys_take_the_declared_defaults():
    (record,) = parse_campaign_records(_record("pdp", "noise_floor_mw", remove=True))
    assert (record.tx_height_m, record.rx_height_m) == (DEFAULT_TX_HEIGHT_M, DEFAULT_RX_HEIGHT_M)
    assert record.sweeps[0].entries[0].pdp.noise_floor_mw == Pdp(1.0, (1.0,)).noise_floor_mw
    config = parse_campaign_config(json.dumps({**CONFIG, "params_override": {"ple": 2, "sigma_db": 3},
                                               "pdp_synthesis": {}}))
    defaults = CampaignConfig(BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI, 5)
    assert (config.distance_range_m, config.seed) == (defaults.distance_range_m, defaults.seed)
    assert config.pdp_synthesis == PdpSynthesisConfig()
    assert config.params_override.d0_m == 1.0


def test_null_stands_for_an_absent_nullable_key():
    config = parse_campaign_config(json.dumps({**CONFIG, "params_override": None,
                                               "pdp_synthesis": {"fixed_tap_delays_ns": None}}))
    assert config.params_override is None
    assert config.pdp_synthesis == PdpSynthesisConfig()


# Round trips: every key the writers emit is one the reader's tables declare.

finite = st.floats(allow_nan=False, allow_infinity=False)
pdps = st.builds(
    Pdp,
    bin_spacing_ns=st.floats(min_value=1e-3, max_value=1e3),
    powers_mw=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=5).map(tuple),
    noise_floor_mw=st.floats(min_value=0.0, max_value=1.0),
)
heights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
entries = st.builds(SweepEntry, finite, finite, finite, finite, pdp=pdps)
sweeps = st.builds(
    DirectionalSweep,
    sweep_id=st.sampled_from(sorted(VALID_SWEEP_IDS)),
    pol=st.sampled_from(Polarization),
    entries=st.lists(entries, max_size=3, unique_by=lambda e: e.angle).map(tuple),
)
records = st.builds(
    CampaignRecord,
    location_id=st.text(max_size=8),
    distance_m=st.floats(*MEASURED_DISTANCE_RANGE_M),
    env=st.sampled_from([Environment.LOS, Environment.NLOS]),
    sweeps=st.lists(sweeps, max_size=2).map(tuple),
    spec=st.sampled_from([sounder_lookup(BAND_28GHZ), sounder_lookup(BAND_73GHZ)]),
    tx_height_m=heights,
    rx_height_m=heights,
)


@SETTINGS
@given(st.lists(records, min_size=1, max_size=3))
def test_records_round_trip(rs):
    assert parse_campaign_records(emit_campaign_records(rs)) == rs


#: Ways to write a batch: by its writer, or as json.dumps writes its objects.
LAYOUTS = {
    "writer": lambda emit, items: emit(items),
    "compact": lambda emit, items: json.dumps(json.loads(emit(items))),
    "tight": lambda emit, items: json.dumps(json.loads(emit(items)), separators=(",", ":")),
    "spaced": lambda emit, items: json.dumps(json.loads(emit(items)), indent=" \r\n",
                                             separators=(" ,\t", " :  ")),
}
batches = st.one_of(
    st.tuples(st.just((emit_pdp_batch, parse_pdp_batch)), st.lists(pdps, min_size=1, max_size=6)),
    st.tuples(st.just((emit_campaign_records, parse_campaign_records)),
              st.lists(records, min_size=1, max_size=4)),
)


@SETTINGS
@given(batches, st.sampled_from(sorted(LAYOUTS)), st.booleans(),
       st.sampled_from(["", " ", "\r\n\t"]), st.integers(0, 200))
def test_chunked_decoding_reads_what_json_reads(batch, layout, crlf, pad, chunk_chars):
    (emit, parse), items = batch
    text = pad + LAYOUTS[layout](emit, items) + pad
    if crlf:  # the writers escape every newline inside a string
        text = text.replace("\n", "\r\n")
    json_chunks, json_passes = fileio._json_chunks, []
    with mock.patch.object(fileio, "_CHUNK_CHARS", chunk_chars), mock.patch.object(
            fileio, "_json_chunks", lambda *args: json_passes.append(args) or json_chunks(*args)):
        got = parse(text)
    assert (not json_passes) is (len(items) > 1)
    with mock.patch.object(fileio, "_orjson_chunks", _json_only):
        want = parse(text)
    assert got == want == items
    assert repr(got) == repr(want)  # float bits too: -0.0 == 0.0 but reprs differ


def _json_only(text):
    raise fileio._JsonOnly


positive = st.floats(min_value=1e-6, max_value=1e6)
non_negative = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def configs(draw):
    band = draw(st.sampled_from([BAND_28GHZ, BAND_73GHZ, band_from_ghz(60.0)]))
    env = draw(st.sampled_from(Environment))
    pol = draw(st.sampled_from(Polarization))
    dir_ = draw(st.sampled_from(Directionality))
    lo = draw(st.floats(min_value=1.0, max_value=1e3))
    override = None
    if draw(st.booleans()) and not (env is Environment.NLOS_BEST and dir_ is Directionality.OMNI):
        override = CiModelParams(band, env, pol, dir_, draw(positive), draw(non_negative),
                                 draw(st.floats(min_value=1e-3, max_value=lo)))
    synthesis = None
    if draw(st.booleans()):
        taps = draw(st.integers(1, 50))
        synthesis = PdpSynthesisConfig(
            tap_count_range=(taps, draw(st.integers(taps, 100))),
            decay_ns=draw(st.one_of(positive, st.just(math.inf))),
            span_ns=draw(non_negative),
            tap_power_sigma_db=draw(non_negative),
            noise_floor_mw=draw(non_negative),
            fixed_tap_delays_ns=draw(st.none() | st.lists(non_negative, min_size=1, max_size=4)),
        )
    return CampaignConfig(
        band=band, env=env, pol=pol, dir=dir_, n_locations=draw(st.integers(1, 10**6)),
        distance_range_m=(lo, draw(st.floats(min_value=lo, max_value=1e4))),
        seed=draw(st.integers(0, 2**64)), params_override=override, pdp_synthesis=synthesis,
    )


@SETTINGS
@given(configs())
def test_config_round_trip(config):
    assert parse_campaign_config(emit_campaign_config(config)) == config


# The float-typed entry screen against the key-by-key reader it stands in for.

#: What a JSON number key may hold: floats of every kind, integers past the float
#: range, and the non-numbers a file may put there.
number_like = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 360.0, 1e308]),
    st.integers(-10, 10),
    st.sampled_from([2**1024, -(2**1100)]),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
#: Mostly what the screen takes, so that both of its outcomes are drawn often.
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False), number_like)
ANGLE_KEYS = ("theta_tx_deg", "phi_tx_deg", "theta_rx_deg", "phi_rx_deg")


@st.composite
def entry_objects(draw):
    pdp = {"bin_spacing_ns": draw(numbers), "noise_floor_mw": draw(numbers),
           "powers_mw": draw(st.one_of(st.lists(numbers, max_size=4), number_like))}
    entry = {key: draw(numbers) for key in ANGLE_KEYS}
    entry["pdp"] = draw(st.one_of(st.just(pdp), number_like, st.just([pdp])))
    for obj in (entry, pdp):
        edit = draw(st.sampled_from(["keep", "keep", "keep", "drop", "add"]))
        if edit == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif edit == "add":
            obj["extra"] = 1.0
    return entry


def _entry(**edits):
    pdp = {"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-9, "powers_mw": [1e-6, 2e-6],
           **edits.pop("pdp", {})}
    return {"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 30.0, "phi_rx_deg": 0.0,
            "pdp": pdp, **edits}


def _built(read):
    """An entry's fields with every float as its bits, or the text of the error it raised."""
    try:
        e = read()
    except Exception as exc:  # the screen's error must be the reader's, whatever its type
        return "error", type(exc), str(exc)
    p = e.pdp
    floats = (e.theta_tx_deg, e.phi_tx_deg, e.theta_rx_deg, e.phi_rx_deg, *e.angle,
              p.bin_spacing_ns, p.noise_floor_mw, *p.powers_mw)
    return ("entry", type(p.powers_mw), len(p.powers_mw), tuple(map(type, floats)),
            tuple(float(v).hex() for v in floats))


@SETTINGS
@given(entry_objects())
@example(_entry(theta_tx_deg=30))
@example(_entry(pdp={"powers_mw": [1, 2e-6]}))
@example(_entry(pdp={"powers_mw": [True]}))
@example(_entry(phi_rx_deg=math.nan))  # an elevation: SweepEntry folds only azimuths
@example({**_entry(), "pdp": {"bin_spacing_ns": 2.5, "powers_mw": [1e-6]}})
@example(_entry(extra=1.0))
def test_entry_screen_builds_what_the_reader_builds(obj):
    got = _built(lambda: fileio._entry_from_obj(obj, "s", 0))
    want = _built(lambda: fileio._read_entry(obj, "s.entries[0]"))
    assert got == want
    assert got[0] == "entry" or got[1] is ParseError
