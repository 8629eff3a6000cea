"""The path-loss CSV parser, the close-in fit and the ``fit`` grouping against
the versions they replaced.

``parse_pathloss_csv`` reads each row with table lookups and plain
``float()``, and hands a row to the shared row reader only when those reject
it; an outage row (blank loss) is checked like any other row, then skipped;
``fit_ci_model`` checks the stratum without hashing it; ``fit`` groups rows
by stratum. Each must behave exactly as the reference kept below: equal
samples, the same error type, text and line, the same groups in the same
order, and bit-identical fits.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwindoor.cli import _group_by_stratum
from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    Directionality,
    EmptyInputError,
    Environment,
    FrequencyBand,
    PathLossSample,
    Polarization,
    StratumMismatchError,
    band_from_ghz,
)
from mmwindoor.estimation import FitResult, fit_ci_model
from mmwindoor.fileio import (
    PATHLOSS_CSV_HEADER,
    ParseError,
    _parse_enum,
    _parse_float,
    parse_pathloss_csv,
)
from mmwindoor.pathloss import free_space_pl_db

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


# The parser, the fit and the grouping loop as they were, kept as reference.


def reference_parse_pathloss_csv(text: str) -> list[PathLossSample]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("empty path-loss CSV: no header row") from None
    if [h.strip() for h in header] != PATHLOSS_CSV_HEADER.split(","):
        raise ParseError(f"unexpected header {','.join(header)!r}", line=1)
    samples = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ParseError(f"expected 7 fields, found {len(row)}", line=line_no)
        loc, band_s, env_s, pol_s, dir_s, dist_s, pl_s = row
        try:
            fields = dict(
                location_id=loc,
                band=band_from_ghz(_parse_float(band_s, "band_ghz")),
                env=_parse_enum(Environment, env_s, "env"),
                pol=_parse_enum(Polarization, pol_s, "pol"),
                dir=_parse_enum(Directionality, dir_s, "dir"),
                distance_m=_parse_float(dist_s, "distance_m"),
            )
            if pl_s.strip() == "":  # outage row: checked like any other, then skipped
                reference_validate("distance_m", fields["distance_m"])
                continue
            sample = PathLossSample(
                **fields, path_loss_db=_parse_float(pl_s, "path_loss_db"))
        except ValueError as exc:  # a ParseError too: the field readers name no line
            raise ParseError(str(exc), line=line_no) from None
        samples.append(sample)
    return samples


def reference_fit_ci_model(samples, band=None, d0_m=1.0) -> FitResult:
    samples = list(samples)
    if not samples:
        raise EmptyInputError("cannot fit a model to zero samples")
    strata = {s.stratum for s in samples}
    if len(strata) > 1:
        raise StratumMismatchError(
            f"samples span {len(strata)} strata; fit one (band, env, pol, dir) at a time"
        )
    if band is not None and samples[0].band != band:
        raise StratumMismatchError(f"samples are {samples[0].band.label}, expected {band.label}")
    band = samples[0].band
    if d0_m <= 0.0:
        raise ValueError(f"d0_m must be > 0, got {d0_m!r}")
    d = np.array([s.distance_m for s in samples], dtype=float)
    pl = np.array([s.path_loss_db for s in samples], dtype=float)
    if np.any(d < d0_m):
        raise ValueError(f"all sample distances must be >= d0 = {d0_m} m")
    a = pl - free_space_pl_db(band, d0_m)
    b = 10.0 * np.log10(d / d0_m)
    denom = float(np.dot(b, b))
    if denom == 0.0:
        raise ValueError("all distances equal d0; the exponent is unidentifiable")
    ple_hat = float(np.dot(a, b)) / denom
    residuals = a - ple_hat * b
    sigma_hat = math.sqrt(float(np.mean(residuals**2)))
    return FitResult(
        ple_hat=ple_hat,
        sigma_hat_db=sigma_hat,
        n_samples=len(samples),
        residuals_db=tuple(float(r) for r in residuals),
        d0_m=d0_m,
        band=band,
    )


def reference_group(samples) -> dict:
    strata: dict = {}
    for s in samples:
        strata.setdefault(s.stratum, []).append(s)
    return strata


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - the reference may raise anything
        return None, exc


def _assert_same_error(new_exc, old_exc):
    assert type(new_exc) is type(old_exc), (new_exc, old_exc)
    assert str(new_exc) == str(old_exc)
    assert getattr(new_exc, "line", None) == getattr(old_exc, "line", None)


# --------------------------------------------------------------------------- CSV rows

location = st.one_of(
    st.sampled_from(["L1", "a,b", 'say "hi"', "two\nlines", " pad ", ""]),
    st.text(alphabet="xy,\" ", max_size=4),
)
good_band = st.sampled_from(["28", "28.0", "2.8e1", "28.000", "73.5", "7.35e1", "60", "60.0"])
bad_band = st.sampled_from([" 28.0", "28.0 ", "0", "-28", "nan", "inf", "1e400", "abc", "", "1_0"])
good_env = st.sampled_from(["LOS", "NLOS", "NLOS_BEST"])
bad_env = st.sampled_from([" LOS", "LOS ", "los", "SEMI", ""])
good_pol = st.sampled_from(["VV", "VH"])
bad_pol = st.sampled_from([" VV", "vh", "XX", ""])
good_dir = st.sampled_from(["omni", "directional"])
bad_dir = st.sampled_from(["OMNI", " omni", "dir", ""])
good_number = st.one_of(
    st.floats(min_value=0.5, max_value=200.0).map(repr),
    st.sampled_from(["10", " 10.5 ", "1e1", "3.9\t", "1_0"]),
)
bad_number = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-3.0", "1e400", "abc", "1,5", "", " "])

good_row = st.tuples(location, good_band, good_env, good_pol, good_dir, good_number, good_number)
outage_row = st.tuples(location, good_band, st.one_of(good_env, bad_env), good_pol, good_dir,
                       good_number, st.sampled_from(["", "  "]))
skipped_row = st.sampled_from([(), ("",), ("  ",)])
BAD_FIELDS = (bad_band, bad_env, bad_pol, bad_dir, bad_number, bad_number)


@st.composite
def bad_row(draw, seen_bands):
    """A good row with one or two fields spoiled, or a row of the wrong length.

    Most spoiled rows reuse a band token of an earlier good row, so that they
    meet the table lookups rather than the field-by-field parser first.
    """
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(1, 9).filter(lambda n: n != 7))
        return tuple(draw(st.lists(st.sampled_from(["L1", "28.0", "LOS", "10.0"]),
                                   min_size=n, max_size=n)))
    row = list(draw(good_row))
    if seen_bands and draw(st.integers(0, 3)):
        row[1] = draw(st.sampled_from(seen_bands))
    for k in draw(st.lists(st.sampled_from(range(1, 7)), min_size=1, max_size=2)):
        row[k] = draw(BAD_FIELDS[k - 1])
    return tuple(row)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PATHLOSS_CSV_HEADER.split(","))
    writer.writerows(rows)
    return buf.getvalue()


@SETTINGS
@given(st.lists(st.one_of(good_row, good_row, good_row, outage_row, skipped_row), max_size=12),
       st.data())
def test_pathloss_parser_matches_reference(rows, data):
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(rows)))
        seen = sorted({r[1] for r in rows[:k] if len(r) == 7 and r[6].strip()})
        rows.insert(k, data.draw(bad_row(seen)))
    text = _csv_text(rows)
    want, old_exc = _outcome(reference_parse_pathloss_csv, text)
    got, new_exc = _outcome(parse_pathloss_csv, text)
    if old_exc is None:
        assert new_exc is None and got == want
    else:
        _assert_same_error(new_exc, old_exc)


@pytest.mark.parametrize("spellings", [("28", "28.0", "2.8e1"), ("60", "60.0", "6e1")])
def test_band_spellings_give_equal_bands(spellings):
    text = _csv_text([(f"L{k}", b, "LOS", "VV", "omni", "10.0", "70.0")
                      for k, b in enumerate(spellings * 2)])
    got = parse_pathloss_csv(text)
    assert got == reference_parse_pathloss_csv(text)
    assert len({s.band for s in got}) == 1


@pytest.mark.parametrize(
    "field, token",
    [(1, "-28"), (1, "0"), (1, "nan"), (1, "abc"), (2, " LOS"), (2, "LOS "), (2, "los"), (3, "vv"), (4, "OMNI"), (5, ""), (5, " "), (5, "abc"),
     (5, "0"), (6, "nan"), (6, "-1")],
)
def test_bad_field_after_a_seen_band_matches_reference(field, token):
    good = ["a", "28.0", "LOS", "VV", "omni", "10.0", "70.0"]
    bad = ["b", *good[1:]]
    bad[field] = token
    text = _csv_text([good, bad])
    with pytest.raises(ParseError) as got:
        parse_pathloss_csv(text)
    _assert_same_error(got.value, _outcome(reference_parse_pathloss_csv, text)[1])


@pytest.mark.parametrize(
    "field, token, message",
    [(2, "los", "env: unknown value 'los' (valid: LOS, NLOS, NLOS_BEST)"),
     (1, "abc", "band_ghz: not a number: 'abc'"),
     (5, "-1", "distance_m must be finite and > 0, got -1.0")],
)
def test_bad_outage_row_names_its_line_and_field(field, token, message):
    outage = ["b", "28.0", "LOS", "VV", "omni", "10.0", ""]
    outage[field] = token
    text = _csv_text([("a", "28.0", "LOS", "VV", "omni", "10.0", "70.0"), outage])
    with pytest.raises(ParseError) as got:
        parse_pathloss_csv(text)
    assert str(got.value) == f"line 3: {message}" and got.value.line == 3
    _assert_same_error(got.value, _outcome(reference_parse_pathloss_csv, text)[1])


def test_error_on_a_row_after_a_seen_band_names_its_line():
    rows = [("a", "28.0", "LOS", "VV", "omni", "10.0", "70.0"),
            ("b", "28.0", "LOS", "VV", "omni", "10.0", "nan")]
    with pytest.raises(ParseError) as got:
        parse_pathloss_csv(_csv_text(rows))
    assert str(got.value) == "line 3: path_loss_db must be finite and > 0, got nan"
    assert got.value.line == 3


def reference_validate(field, x):
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{field} must be finite and > 0, got {x!r}")


@pytest.mark.parametrize("field", ["distance_m", "path_loss_db"])
@pytest.mark.parametrize("x", [1.0, 5e-324, 1.7e308, 0.0, -0.0, -5e-324, -1.0, math.inf, -math.inf,
                               math.nan])
def test_sample_validation_matches_reference(field, x):
    values = {"distance_m": 10.0, "path_loss_db": 80.0, field: x}
    want = _outcome(reference_validate, field, x)[1]
    got = _outcome(PathLossSample, "a", BAND_28GHZ, Environment.LOS, Polarization.VV,
                   Directionality.OMNI, values["distance_m"], values["path_loss_db"])[1]
    if want is None:
        assert got is None
    else:
        _assert_same_error(got, want)


# --------------------------------------------------------------------------- fit

BAND_60A = FrequencyBand(60.0)
BAND_60B = FrequencyBand(60.0)  # equal to BAND_60A, another object
STRATA = [
    (BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI),
    (BAND_28GHZ, Environment.NLOS, Polarization.VV, Directionality.OMNI),
    (BAND_73GHZ, Environment.LOS, Polarization.VH, Directionality.DIRECTIONAL),
    (BAND_60A, Environment.NLOS, Polarization.VH, Directionality.OMNI),
    (BAND_60B, Environment.NLOS, Polarization.VH, Directionality.OMNI),
]
point = st.tuples(
    st.one_of(st.floats(min_value=1.0, max_value=60.0), st.sampled_from([0.5, 1.0, 2.0])),
    st.floats(min_value=20.0, max_value=180.0),
)


def _samples(points, strata):
    return [PathLossSample(f"L{k}", *stratum, d, pl)
            for k, ((d, pl), stratum) in enumerate(zip(points, strata))]


def _bits(fit: FitResult):
    return (fit.ple_hat.hex(), fit.sigma_hat_db.hex(), tuple(r.hex() for r in fit.residuals_db),
            fit.n_samples, fit.d0_m, fit.band)


@SETTINGS
@given(
    st.lists(point, min_size=1, max_size=40),
    st.sampled_from(STRATA),
    st.lists(st.tuples(st.integers(0, 39), st.sampled_from(STRATA)), max_size=2),
    st.sampled_from([None, BAND_28GHZ, BAND_60B]),
    st.sampled_from([1.0, 0.5, 2.0]),
)
def test_fit_matches_reference_bit_for_bit(points, stratum, edits, band, d0_m):
    strata = [stratum] * len(points)
    for k, other in edits:  # move a sample into another, possibly equal, stratum
        strata[k % len(points)] = other
    samples = _samples(points, strata)
    want, old_exc = _outcome(reference_fit_ci_model, samples, band=band, d0_m=d0_m)
    got, new_exc = _outcome(fit_ci_model, samples, band=band, d0_m=d0_m)
    if old_exc is None:
        assert new_exc is None and _bits(got) == _bits(want)
        assert all(type(r) is float for r in got.residuals_db)
    else:
        _assert_same_error(new_exc, old_exc)


def test_mixed_strata_error_text_is_unchanged():
    samples = _samples([(10.0, 80.0)] * 4, [STRATA[0], STRATA[1], STRATA[2], STRATA[0]])
    with pytest.raises(StratumMismatchError) as got:
        fit_ci_model(samples)
    assert str(got.value) == "samples span 3 strata; fit one (band, env, pol, dir) at a time"


def test_equal_band_objects_are_one_stratum():
    samples = _samples([(10.0, 80.0), (20.0, 95.0)], [STRATA[3], STRATA[4]])
    assert _bits(fit_ci_model(samples)) == _bits(reference_fit_ci_model(samples))


# --------------------------------------------------------------------------- grouping


@SETTINGS
@given(st.lists(st.sampled_from(STRATA), max_size=40))
def test_grouping_matches_reference(strata):
    samples = _samples([(10.0, 80.0)] * len(strata), strata)
    want = reference_group(samples)
    got = _group_by_stratum(samples)
    assert list(got) == list(want)
    for key, group in want.items():
        assert len(got[key]) == len(group)
        assert all(a is b for a, b in zip(got[key], group))
