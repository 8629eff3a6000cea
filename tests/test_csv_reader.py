"""Every CSV input is read by one row reader against one table of its columns.

Whatever the writers emit reads back to the values written (and a path-loss
file to the same bytes). A fuzzed CSV file (fields dropped or added, bad
tokens, stray quotes, BOMs, blank lines, a cut-off end) raises only
ParseError or EmptyInputError, and the command that reads it exits 0, 2, 3
or 4, never with a traceback.
"""

import csv
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from mmwindoor.cli import EXIT_EMPTY, EXIT_PARSE, EXIT_VALIDATION, main
from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    CiModelParams,
    DelayStats,
    Directionality,
    EmptyInputError,
    Environment,
    PathLossSample,
    Polarization,
    band_from_ghz,
)
from mmwindoor import fileio
from mmwindoor.estimation import SpreadSummary
from mmwindoor.fileio import (
    DELAY_STATS_CSV_HEADER,
    FIT_CSV_HEADER,
    PATHLOSS_CSV_HEADER,
    OutageRow,
    ParseError,
    emit_delay_stats_csv,
    emit_fit_csv,
    emit_pathloss_csv,
    parse_fit_csv,
    parse_pathloss_csv,
    parse_spread_values,
)

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
#: The cataloged bands, and any carrier: each must read back as the number written.
bands = st.sampled_from([BAND_28GHZ, BAND_73GHZ]) | st.floats(1e-3, 1e4).map(band_from_ghz)
envs, pols, dirs = (st.sampled_from(list(e)) for e in (Environment, Polarization, Directionality))
#: Location ids, often holding the characters csv quoting depends on.
location_ids = st.text(alphabet=st.sampled_from(',"\r\n a0é\t') | st.characters(), max_size=12)

sample = st.builds(PathLossSample, location_id=location_ids, band=bands, env=envs, pol=pols,
                   dir=dirs, distance_m=positive, path_loss_db=positive)
samples = st.lists(sample, max_size=20)
outage = st.builds(OutageRow, location_id=location_ids, band=bands, env=envs, pol=pols, dir=dirs,
                   distance_m=positive)
#: Strata a model is defined for: NLOS_BEST is a directional category only.
strata = st.tuples(bands, envs, pols, dirs).filter(
    lambda s: s[1] is not Environment.NLOS_BEST or s[3] is Directionality.DIRECTIONAL)
models = st.builds(lambda stratum, ple, sigma, d0: CiModelParams(*stratum, ple, sigma, d0),
                   strata, positive, nonneg, positive)
fitted_tables = st.lists(models, min_size=1, max_size=12, unique_by=lambda m: m.stratum)
delay_stats = st.builds(DelayStats, mean_excess_delay_ns=nonneg, second_moment_ns2=nonneg,
                        rms_delay_spread_ns=nonneg, total_power_mw=nonneg)
delay_rows = st.lists(st.one_of(delay_stats.map(lambda s: ("ok", s)),
                                st.just(("no-multipath", None))), min_size=1, max_size=12)


@st.composite
def summaries(draw):
    lo, mid, hi = sorted(draw(st.lists(nonneg, min_size=3, max_size=3)))
    return SpreadSummary(mean_ns=mid, std_ns=draw(nonneg), max_ns=hi, p90_ns=lo)


def _table(rows):
    return [(i, status, stats) for i, (status, stats) in enumerate(rows)]


# --------------------------------------------------------------------------- round trips


@SETTINGS
@given(st.lists(sample | outage, max_size=20))
def test_pathloss_csv_round_trips(rows):
    """Outage rows, written with a blank loss among the samples, are read and skipped."""
    text = emit_pathloss_csv(rows)
    alone = [r for r in rows if type(r) is PathLossSample]
    parsed = parse_pathloss_csv(text)
    assert parsed == alone
    assert emit_pathloss_csv(parsed) == emit_pathloss_csv(alone)
    if len(alone) == len(rows):
        assert emit_pathloss_csv(parsed) == text


@SETTINGS
@given(fitted_tables)
def test_fitted_table_round_trips(models):
    assert parse_fit_csv(emit_fit_csv(models)) == models


@SETTINGS
@given(delay_rows, st.none() | summaries())
def test_delay_stats_csv_gives_the_ok_rows_spreads(rows, summary):
    text = emit_delay_stats_csv(_table(rows), summary)
    spreads = [stats.rms_delay_spread_ns for status, stats in rows if status == "ok"]
    if spreads:
        assert parse_spread_values(text) == spreads
    else:
        with pytest.raises(EmptyInputError):
            parse_spread_values(text)


@SETTINGS
@given(st.lists(nonneg, min_size=1, max_size=12))
def test_one_column_spreads_round_trip(values):
    assert parse_spread_values("".join(f"{v!r}\n" for v in values)) == values


def test_carriage_return_in_a_location_id(tmp_path):
    rows = [PathLossSample(loc, BAND_28GHZ, Environment.LOS, Polarization.VV,
                           Directionality.OMNI, d, 70.0 + d)
            for loc, d in (("a\rb", 10.0), ("\r", 20.0), ("c", 30.0))]
    text = emit_pathloss_csv(rows)
    assert '"a\rb"' in text and '"\r"' in text  # quoted, so no reader takes it for a line end
    assert parse_pathloss_csv(text) == rows
    assert parse_pathloss_csv(text.replace("\n", "\r\n")) == rows  # CRLF files still parse
    # The command reads the file as written: a quoted CR stays a CR.
    outputs = []
    for name, body in (("lf.csv", text), ("crlf.csv", text.replace("\n", "\r\n"))):
        (tmp_path / name).write_bytes(body.encode("utf-8"))
        res = CliRunner().invoke(main, ["fit", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("parse, header, spanning, bad, field", [
    (parse_pathloss_csv, PATHLOSS_CSV_HEADER, '"a{nl}b",28.0,LOS,VV,omni,10.0,70.0',
     "c,28.0,los,VV,omni,20.0,78.0", "env"),
    (parse_fit_csv, FIT_CSV_HEADER, '28.0,LOS,VV,omni,"2.0{nl}",3.0,1.0',
     "28.0,NLOS,VV,omni,x,3.0,1.0", "ple"),
    (parse_spread_values, DELAY_STATS_CSV_HEADER, '0,"o{nl}k",1.0,2.0,3.0,,,,',
     "1,ok,1.0,nan,3.0,,,,", "rms_delay_spread_ns"),
], ids=["pathloss", "fitted", "delay-stats"])
def test_errors_name_the_physical_line(parse, header, spanning, bad, field, newline):
    """A quoted field may hold a line break, so a record may span lines: an error
    names the line its record starts on, counted from the top of the file."""
    lines = [header, spanning.format(nl=newline), "", bad, ""]  # lines 1, 2-3, 4 and 5
    with pytest.raises(ParseError) as got:
        parse(newline.join(lines))
    assert got.value.line == 5 and str(got.value).startswith(f"line 5: {field}: ")


def test_a_rejected_record_names_its_first_line(tmp_path):
    path = tmp_path / "pathloss.csv"
    path.write_text(PATHLOSS_CSV_HEADER + '\n"a\nb",28.0,LOS,VV,omni,10.0,70.0\n'
                    '"\n' + "x" * 140_000 + '",28.0,LOS,VV,omni,20.0,78.0\n')
    res = CliRunner().invoke(main, ["fit", str(path)])
    assert res.exit_code == EXIT_PARSE  # the csv module rejects it on line 5
    assert res.stderr == "error: line 4: field larger than field limit (131072)\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("parse, header, spanning, bad, message", [
    (parse_pathloss_csv, PATHLOSS_CSV_HEADER, '"a{nl}b{nl}c",28.0,LOS,VV,omni,10.0,70.0',
     "d,28.0,LOS,VV", "expected 7 fields, found 4"),
    (parse_fit_csv, FIT_CSV_HEADER, '28.0,LOS,VV,omni,"2.0{nl}{nl}",3.0,1.0',
     "28.0,LOS,VV,omni,2.0,3.0,1.0", "repeated stratum (28 GHz, LOS, VV, omni)"),
    (parse_spread_values, DELAY_STATS_CSV_HEADER, '0,"o{nl}{nl}k",1.0,2.0,3.0,,,,',
     "1,ok,1.0,-2.0,3.0,,,,", "rms_delay_spread_ns: must be >= 0, got -2.0"),
], ids=["pathloss", "fitted", "delay-stats"])
def test_a_parse_reads_its_text_once_even_with_a_bad_row(monkeypatch, parse, header, spanning,
                                                          bad, message, newline):
    """Each record carries the line it starts on, so naming a bad row's line reads no
    line of the text a second time."""
    calls = []
    lines = fileio._lines
    monkeypatch.setattr(fileio, "_lines", lambda text: calls.append(text) or lines(text))
    text = newline.join([header, "", spanning.format(nl=newline), bad])  # lines 1, 2, 3-5, 6
    with pytest.raises(ParseError) as got:
        parse(text)
    assert str(got.value) == f"line 6: {message}"
    assert calls == [text]


# --------------------------------------------------------------------------- line source

#: What a line source may get wrong: each break csv or ``str.splitlines`` knows, NUL,
#: lone surrogates, 2-, 3- and 4-byte UTF-8 characters, a BOM, and csv's own characters.
LINE_CHARS = st.sampled_from(["\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x85", "\u2028", "\u2029", "\x00", "\ud800", "\udfff", "é", "€",
                              "\U0001d11e", "\ufeff", ",", '"', " ", "a"])


def _read_all(reader):
    """Each row with ``line_num`` after it, then the csv.Error and ``line_num`` if raised."""
    got = []
    try:
        for row in reader:
            got.append((row, reader.line_num))
    except csv.Error as exc:
        got.append((str(exc), reader.line_num))
    return got


def _stringio_reader(text):
    """The reference: csv over ``io.StringIO``, as csv asks of a file, past one BOM."""
    return csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))


def _reads_as_stringio(limit, text):
    old = csv.field_size_limit(limit)  # a small limit makes csv.Error common
    try:
        assert _read_all(csv.reader(fileio._lines(text))) == _read_all(_stringio_reader(text))
    finally:
        csv.field_size_limit(old)


LIMITS = pytest.mark.parametrize("limit", [131072, 5], ids=["default-limit", "field-limit-5"])
#: Slices this small put every character of a short text next to a slice edge.
SMALL_SLICES = pytest.mark.parametrize("slice_chars", [1, 2, 3], ids="slice-{}".format)


@LIMITS
@settings(SETTINGS, max_examples=300)
@given(st.lists(LINE_CHARS, max_size=80).map("".join))
def test_line_source_reads_as_stringio(limit, text):
    _reads_as_stringio(limit, text)


@SMALL_SLICES
@LIMITS
@settings(SETTINGS, max_examples=300)
@example("\ufeff\ufeffa\r\n")
@example("\ufeff")
@example("\r\n\r")
@example("\ud800\r\U0001d11e\n")
@given(st.lists(LINE_CHARS, max_size=80).map("".join))
def test_line_source_in_small_slices_reads_as_stringio(slice_chars, limit, text):
    with mock.patch.object(fileio, "_SLICE_CHARS", slice_chars):
        _reads_as_stringio(limit, text)


@pytest.mark.parametrize("piece", ["\r\n", "\U0001d11e", "é\r\n", "\ufeff", "\ud800"],
                         ids=["CRLF", "4-byte", "2-byte-CRLF", "BOM", "lone-surrogate"])
@pytest.mark.parametrize("offset", [*range(8188, 8193), *range(65534, 65537)])
def test_line_source_across_the_chunk_edge(piece, offset):
    # ``piece`` sits on either side of, or straddles, 8192 characters (an io text
    # layer's chunk) or the 2^16-th character, past which a slice ends at a line break.
    text = "a" * offset + piece + 'b,"c\r\nd"\r\ne'
    got = _read_all(csv.reader(fileio._lines(text)))
    assert got == _read_all(_stringio_reader(text))
    assert got[-2][0][-1] == "c\r\nd" and got[-1][0] == ["e"]


def test_a_lone_surrogate_in_a_location_id_is_kept():
    text = (f"{PATHLOSS_CSV_HEADER}\nL\ud800,28.0,LOS,VV,omni,10.0,70.0\n"
            "\udfff,28.0,LOS,VV,omni,20.0,80.0\n")
    assert parse_pathloss_csv(text) == [
        PathLossSample(loc, BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI,
                       d, pl) for loc, d, pl in (("L\ud800", 10.0, 70.0), ("\udfff", 20.0, 80.0))]


def _spread_values_by_split(text):
    """The reference for ``parse_spread_values``: the whole text split into lines at
    LF, CRLF and CR, and its form told from the first non-blank one."""
    lines = re.split(r"\r\n?|\n", text.removeprefix("\ufeff"))
    if "," in next((line for line in lines if line.strip()), ","):
        values = [value for line, fields in fileio._rows(text, fileio._DELAY_STATS)
                  if (value := fileio._row(fileio._DELAY_STATS, fields, line)) is not None]
    else:
        values = [fileio._row(fileio._SPREAD_LINES, [token.strip()], line)
                  for line, token in enumerate(lines, start=1) if token.strip()]
    if not values:
        raise EmptyInputError("no delay-spread values found")
    return values


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, EmptyInputError) as exc:
        return type(exc), str(exc)


SPREAD_TEXTS = st.lists(LINE_CHARS | st.sampled_from(["1.5", "2", "x", "\t",
                                                      DELAY_STATS_CSV_HEADER,
                                                      "0,ok,1.0,2.0,3.0,,,,"]),
                        max_size=20).map("".join)


@SETTINGS
@example("\ufeff\n" + DELAY_STATS_CSV_HEADER + "\n0,ok,1.0,2.0,3.0,,,,\n")  # past a BOM's line
@given(SPREAD_TEXTS)
def test_spread_values_form_is_told_as_from_the_split_text(text):
    assert _outcome(parse_spread_values, text) == _outcome(_spread_values_by_split, text)


@SMALL_SLICES
@SETTINGS
@example("\ufeff1.5\r\n2\r\r\n")
@given(SPREAD_TEXTS)
def test_spread_values_in_small_slices_as_from_the_split_text(slice_chars, text):
    with mock.patch.object(fileio, "_SLICE_CHARS", slice_chars):
        assert _outcome(parse_spread_values, text) == _outcome(_spread_values_by_split, text)


# --------------------------------------------------------------------------- fuzzing

BAD_TOKENS = ["", " ", "nan", "-inf", "1e999", "-3", "0", "abc", "los", "OMNI", "1_0", "summary",
              '"', '""', 'a"b', '"x,y"', "\ufeff", "\r", "x\ry", "\t"]


@st.composite
def fuzzed(draw, texts):
    """A valid text from ``texts`` with a few of its lines spoiled."""
    lines = draw(texts).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        op = draw(st.sampled_from(["drop", "extra", "token", "quote", "bom", "blank", "cut"]))
        if op == "drop":
            del fields[j]
        elif op == "extra":
            fields.insert(j, draw(st.sampled_from(BAD_TOKENS)))
        elif op == "token":
            fields[j] = draw(st.sampled_from(BAD_TOKENS))
        elif op == "quote":
            fields[j] = draw(st.sampled_from(['"', '""'])) + fields[j]
        elif op == "bom":
            fields[0] = "\ufeff" + fields[0]
        lines[k] = ",".join(fields)
        if op == "blank":
            lines.insert(k, draw(st.sampled_from(["", " ", "\t", ","])))
        elif op == "cut":
            lines = lines[:k] or [""]
    return "\n".join(lines)


#: Per CSV input: its valid texts, its parser and the command that reads it.
INPUTS = {
    "pathloss": (samples.filter(bool).map(emit_pathloss_csv), parse_pathloss_csv, ["fit"]),
    "fitted": (fitted_tables.map(emit_fit_csv), parse_fit_csv, ["report", "--fit-csv"]),
    "delay-stats": (st.builds(lambda rows, s: emit_delay_stats_csv(_table(rows), s),
                              delay_rows, st.none() | summaries()),
                    parse_spread_values, ["report", "--spreads"]),
    "one-column": (st.lists(nonneg, min_size=1, max_size=8).map(
                       lambda vs: "".join(f"{v!r}\n" for v in vs)),
                   parse_spread_values, ["report", "--spreads"]),
}


@pytest.mark.parametrize("kind", INPUTS)
@SETTINGS
@given(data=st.data())
def test_fuzzed_csv_raises_only_parse_or_empty_errors(kind, data):
    texts, parse, _ = INPUTS[kind]
    try:
        parse(data.draw(fuzzed(texts)))
    except (ParseError, EmptyInputError):
        pass


@pytest.mark.parametrize("kind", INPUTS)
@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_fuzzed_csv_exits_0_2_3_or_4(kind, data):
    texts, _, command = INPUTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data.draw(fuzzed(texts)).encode("utf-8"))
        out = ["-o", tmp] if "report" in command else []
        res = CliRunner().invoke(main, [*command, str(path), *out])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, EXIT_PARSE, EXIT_VALIDATION, EXIT_EMPTY)
