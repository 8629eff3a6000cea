"""The schema-specific writers against the generic emitters they replaced.

The reference emitters below are the ``json.dumps(indent=2)`` and
``csv.writer`` implementations the byte-stable formats were defined with;
every writer must reproduce their bytes exactly. The JSON references list
each object's keys by hand, so they check the writers' tables too.
"""

import csv
import io
import json
import random
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    CiModelParams,
    DelayStats,
    Directionality,
    Environment,
    PathLossSample,
    Pdp,
    Polarization,
)
from mmwindoor import fileio
from mmwindoor.estimation import SpreadSummary
from mmwindoor.fileio import (
    CDF_CSV_HEADER,
    DELAY_STATS_CSV_HEADER,
    FIT_CSV_HEADER,
    PATHLOSS_CSV_HEADER,
    OutageRow,
    emit_campaign_config,
    emit_campaign_records,
    emit_cdf_csv,
    emit_delay_stats_csv,
    emit_fit_csv,
    emit_pathloss_csv,
    emit_pdp_batch,
)
from test_json_reader import configs, records

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _fmt(x):
    return repr(float(x))


class _Writer:
    """``csv.writer`` with minimal quoting, rows ended by LF, that also quotes a field
    holding a carriage return. A writer quotes the characters of its line terminator,
    so each row is written with CRLF and that ending then replaced."""

    def __init__(self, buf):
        self.buf = buf

    def writerow(self, row):
        one = io.StringIO()
        csv.writer(one, lineterminator="\r\n").writerow(row)
        self.buf.write(one.getvalue().removesuffix("\r\n") + "\n")


def _pdp_to_obj(pdp):
    return {
        "bin_spacing_ns": pdp.bin_spacing_ns,
        "noise_floor_mw": pdp.noise_floor_mw,
        "powers_mw": list(pdp.powers_mw),
    }


def _record_to_obj(record):
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


def _config_to_obj(config):
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


def reference_emit_pdp_batch(pdps):
    return json.dumps([_pdp_to_obj(p) for p in pdps], indent=2) + "\n"


def reference_emit_campaign_records(records):
    return json.dumps([_record_to_obj(r) for r in records], indent=2) + "\n"


def reference_emit_campaign_config(config):
    return json.dumps(_config_to_obj(config), indent=2) + "\n"


def reference_emit_pathloss_csv(rows):
    buf = io.StringIO()
    writer = _Writer(buf)
    writer.writerow(PATHLOSS_CSV_HEADER.split(","))
    for r in rows:
        pl = "" if isinstance(r, OutageRow) else _fmt(r.path_loss_db)
        writer.writerow(
            [r.location_id, _fmt(r.band.ghz), r.env.value, r.pol.value, r.dir.value,
             _fmt(r.distance_m), pl]
        )
    return buf.getvalue()


def reference_emit_delay_stats_csv(per_pdp, summary):
    buf = io.StringIO()
    writer = _Writer(buf)
    writer.writerow(DELAY_STATS_CSV_HEADER.split(","))
    for index, status, stats in per_pdp:
        if stats is None:
            writer.writerow([index, status, "", "", "", "", "", "", ""])
        else:
            writer.writerow(
                [index, status, _fmt(stats.mean_excess_delay_ns),
                 _fmt(stats.rms_delay_spread_ns), _fmt(stats.total_power_mw),
                 "", "", "", ""]
            )
    if summary is not None:
        writer.writerow(
            ["summary", "", "", "", "", _fmt(summary.mean_ns), _fmt(summary.std_ns),
             _fmt(summary.max_ns), _fmt(summary.p90_ns)]
        )
    return buf.getvalue()


def reference_emit_fit_csv(rows):
    buf = io.StringIO()
    writer = _Writer(buf)
    writer.writerow(FIT_CSV_HEADER.split(","))
    for m in rows:
        writer.writerow(
            [_fmt(m.band.ghz), m.env.value, m.pol.value, m.dir.value,
             _fmt(m.ple), _fmt(m.shadow_sigma_db), _fmt(m.d0_m)]
        )
    return buf.getvalue()


def reference_emit_cdf_csv(pairs):
    buf = io.StringIO()
    writer = _Writer(buf)
    writer.writerow(CDF_CSV_HEADER.split(","))
    for value, prob in pairs:
        writer.writerow([_fmt(value), _fmt(prob)])
    return buf.getvalue()


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, sys.float_info.max]
nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
#: Text that often holds the characters csv quoting depends on.
texts = st.text(alphabet=st.sampled_from(',"\r\n a0é\x00\t') | st.characters(), max_size=12)

pdps = st.builds(
    Pdp,
    bin_spacing_ns=positive | st.integers(min_value=1, max_value=10**6) | st.just(2.5),
    powers_mw=st.lists(nonneg, min_size=1, max_size=40).map(tuple),
    noise_floor_mw=nonneg | st.integers(min_value=0, max_value=10**6),
)

bands = st.sampled_from([BAND_28GHZ, BAND_73GHZ])
envs, pols, dirs = (st.sampled_from(list(e)) for e in (Environment, Polarization, Directionality))
samples = st.builds(
    PathLossSample, location_id=texts, band=bands, env=envs, pol=pols, dir=dirs,
    distance_m=positive, path_loss_db=positive,
)
outages = st.builds(
    OutageRow, location_id=texts, band=bands, env=envs, pol=pols, dir=dirs, distance_m=positive,
)

delay_stats = st.builds(
    DelayStats, mean_excess_delay_ns=nonneg, second_moment_ns2=nonneg,
    rms_delay_spread_ns=nonneg, total_power_mw=nonneg,
)
per_pdp_rows = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=10**9),
              st.sampled_from(["ok", "no-multipath"]) | texts,
              st.none() | delay_stats),
    max_size=20,
)


any_float = st.floats() | st.sampled_from(EDGE_FLOATS) | st.integers(-10**6, 10**6)
#: A model's numbers: its rules admit any finite value > 0 (>= 0 for sigma).
positive_or_edge = positive | st.sampled_from(EDGE_FLOATS[2:]) | st.integers(1, 10**6)
models = st.builds(
    CiModelParams, band=bands, env=envs.filter(lambda e: e is not Environment.NLOS_BEST),
    pol=pols, dir=dirs, ple=positive_or_edge, shadow_sigma_db=nonneg | st.integers(0, 10**6),
    d0_m=positive_or_edge,
)
fit_rows = st.lists(models, max_size=20)


@st.composite
def summaries(draw):
    lo, mid, hi = sorted(draw(st.lists(nonneg, min_size=3, max_size=3)))
    return SpreadSummary(mean_ns=mid, std_ns=draw(nonneg), max_ns=hi, p90_ns=lo)


@SETTINGS
@given(st.lists(pdps, max_size=6))
def test_emit_pdp_batch_matches_json_dumps(batch):
    assert emit_pdp_batch(batch) == reference_emit_pdp_batch(batch)


@SETTINGS
@given(st.lists(pdps, max_size=6), st.integers(min_value=1, max_value=60))
def test_emit_pdp_batch_across_chunk_boundaries(batch, chunk_bins):
    with mock.patch.object(fileio, "_EMIT_CHUNK_BINS", chunk_bins):
        assert emit_pdp_batch(batch) == reference_emit_pdp_batch(batch)


@SETTINGS
@given(st.lists(records, max_size=4), configs())
def test_json_writers_match_the_hand_listed_objects(rs, config):
    assert emit_campaign_records(rs) == reference_emit_campaign_records(rs)
    assert emit_campaign_config(config) == reference_emit_campaign_config(config)


@SETTINGS
@given(st.lists(samples | outages, max_size=20))
def test_emit_pathloss_csv_matches_csv_writer(rows):
    assert emit_pathloss_csv(rows) == reference_emit_pathloss_csv(rows)


@SETTINGS
@given(per_pdp_rows, st.none() | summaries())
def test_emit_delay_stats_csv_matches_csv_writer(per_pdp, summary):
    assert emit_delay_stats_csv(per_pdp, summary) == reference_emit_delay_stats_csv(per_pdp, summary)


def test_named_edge_cases():
    batch = [Pdp(2, (5e-324, 1e308, -0.0, 0.0)), Pdp(2.5, (1.0,), 0)]
    assert emit_pdp_batch(batch) == reference_emit_pdp_batch(batch)
    assert emit_pdp_batch([]) == reference_emit_pdp_batch([]) == "[]\n"

    rows = [
        PathLossSample(loc, BAND_28GHZ, Environment.LOS, Polarization.VV,
                       Directionality.OMNI, 3.9, 61.4)
        for loc in ("a,b", 'say "hi"', "cr\rlf", "line\nfeed", " padded ", "")
    ]
    rows.append(OutageRow("x", BAND_73GHZ, Environment.NLOS, Polarization.VH,
                          Directionality.OMNI, 12.0))
    assert emit_pathloss_csv(rows) == reference_emit_pathloss_csv(rows)
    assert emit_pathloss_csv([]) == reference_emit_pathloss_csv([])

    stats = DelayStats(1.5, 4.0, 1.3228756555322954, 2.0)
    per_pdp = [(0, "ok", stats), (1, "no-multipath", None)]
    summary = SpreadSummary(mean_ns=1.0, std_ns=0.0, max_ns=1.0, p90_ns=1.0)
    for s in (summary, None):
        assert emit_delay_stats_csv(per_pdp, s) == reference_emit_delay_stats_csv(per_pdp, s)
    assert emit_delay_stats_csv([], None) == reference_emit_delay_stats_csv([], None)

    assert emit_fit_csv([]) == reference_emit_fit_csv([])
    assert emit_cdf_csv([]) == reference_emit_cdf_csv([])


@SETTINGS
@given(fit_rows)
def test_emit_fit_csv_matches_csv_writer(rows):
    assert emit_fit_csv(rows) == reference_emit_fit_csv(rows)


@SETTINGS
@given(st.lists(st.tuples(any_float, any_float), max_size=20))
def test_emit_cdf_csv_matches_csv_writer(pairs):
    assert emit_cdf_csv(pairs) == reference_emit_cdf_csv(pairs)


def _long_floats(rng, n):
    """Zeros, the decade [1e-5, 1e-4) and magnitudes from 1e-12 to 1e20: every layout
    the float writers rewrite."""
    return [rng.choice([0.0, rng.uniform(1e-5, 1e-4), 10.0 ** rng.uniform(-12.0, 20.0)])
            for _ in range(n)]


def test_long_inputs_match_the_references():
    """Inputs long enough that ``emit_pdp_batch`` formats several chunks, one profile
    longer than a chunk among them, and each CSV writer formats long columns."""
    rng = random.Random(73)
    lengths = [rng.randint(1, 400) for _ in range(120)]
    lengths[50] = 3 * fileio._EMIT_CHUNK_BINS + 7
    batch = [Pdp(rng.choice([2.5, 1.0, 7]), _long_floats(rng, n), rng.choice([0, 1e-9, 3e-5]))
             for n in lengths]
    assert sum(lengths) > 5 * fileio._EMIT_CHUNK_BINS
    assert emit_pdp_batch(batch) == reference_emit_pdp_batch(batch)

    n = 5000
    distances, losses = _long_floats(rng, n), _long_floats(rng, n)
    rows = [OutageRow(f"loc{i}", BAND_73GHZ, Environment.NLOS, Polarization.VH,
                      Directionality.OMNI, d + 1.0) if i % 7 == 3 else
            PathLossSample(f"loc,{i}", rng.choice([BAND_28GHZ, BAND_73GHZ]), Environment.LOS,
                           Polarization.VV, Directionality.OMNI, d + 1.0, pl + 1e-5)
            for i, (d, pl) in enumerate(zip(distances, losses))]
    assert emit_pathloss_csv(rows) == reference_emit_pathloss_csv(rows)
    assert emit_pathloss_csv(iter(rows)) == reference_emit_pathloss_csv(rows)

    per_pdp = [(i, "no-multipath", None) if i % 5 == 2 else
               (i, "ok", DelayStats(a, a * a, b, c))
               for i, (a, b, c) in enumerate(zip(_long_floats(rng, n), _long_floats(rng, n),
                                                 _long_floats(rng, n)))]
    summary = SpreadSummary(mean_ns=1.5e-5, std_ns=1e16, max_ns=2e-5, p90_ns=1e-7)
    assert emit_delay_stats_csv(per_pdp, summary) == reference_emit_delay_stats_csv(per_pdp,
                                                                                    summary)

    pairs = list(zip(_long_floats(rng, n) + [float("nan"), float("-inf")],
                     _long_floats(rng, n) + [float("inf"), 0.5]))
    assert emit_cdf_csv(pairs) == reference_emit_cdf_csv(pairs)
