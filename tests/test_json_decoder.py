"""PDP batches and sweep records are decoded by orjson in chunks, and every
number, result and message stays the one json gives.

The float corpus checks orjson's decimal-to-binary conversion against
``float()`` on hard cases; the CLI cases run each command twice, once as it
is and once with json alone, and compare exit code, stdout, stderr and the
file written.
"""

import decimal
import json
import math
import random
import struct

import pytest
from click.testing import CliRunner

from mmwindoor import fileio
from mmwindoor.cli import EXIT_EMPTY, EXIT_PARSE, main


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _near_midpoints(x: float) -> list[str]:
    """The exact midpoint between ``x`` and the next double up, and that midpoint
    moved by 1e-30 of itself either way."""
    mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    shift = mid * decimal.Decimal("1e-30")
    return [f"{m:e}" for m in (mid, mid - shift, mid + shift)]


def _float_corpus() -> list[str]:
    """Over 10**5 decimal strings that are hard to round correctly, all finite as doubles."""
    rng = random.Random(20150612)
    corpus = [
        "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
        "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623158079e308",
        "9007199254740993", "9007199254740993.0", "0.1", "1e-400", "-0.0",
    ]
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every double and every midpoint is exact at this precision
        for _ in range(8000):  # normal doubles over every exponent
            x = _double(rng.getrandbits(62) | (rng.getrandbits(1) << 62))
            if x < 1.7976931348623157e308:
                corpus += [repr(x), *_near_midpoints(x)]
        for _ in range(2000):  # subnormals
            x = _double(rng.getrandbits(52))
            corpus += [repr(x), *_near_midpoints(x)]
    for _ in range(40000):  # 15-25 digit mantissas over every exponent
        digits = str(rng.randrange(10 ** 24, 10 ** 25))[:rng.randint(15, 25)]
        corpus.append(f"{digits[0]}.{digits[1:]}e{rng.randint(-345, 307)}")
    for _ in range(16000):  # 16 and 17 digit reprs of PDP-like powers
        x = 10.0 ** rng.uniform(-13.0, -3.0)
        corpus += [f"{x:.15e}", f"{x:.16e}"]
    return [s if rng.random() < 0.5 else "-" + s.removeprefix("-") for s in corpus]


def _decoded(text: str) -> list:
    """The elements of ``text`` as orjson's chunks give them; ``_JsonOnly`` where json
    must decode it."""
    return [element for chunk in fileio._orjson_chunks(text) for element in chunk]


def test_decoded_floats_are_bit_identical_to_float(monkeypatch):
    corpus = _float_corpus()
    assert len(corpus) >= 10 ** 5
    monkeypatch.setattr(fileio, "_CHUNK_CHARS", 1 << 16)
    decoded = _decoded("[" + ",\n".join(corpus) + "]")
    assert len(decoded) == len(corpus)
    wrong = [(s, v) for s, v in zip(corpus, decoded) if _bits(float(v)) != _bits(float(s))]
    assert not wrong, wrong[:5]


def test_numbers_past_the_largest_double_go_to_json():
    halfway = f"{decimal.Decimal(2 ** 1024 - 2 ** 970):e}"  # ties to even: to 2**1024, so inf
    for text in (halfway, "1.7976931348623159e308", "1e400", "-1e400"):
        with pytest.raises(fileio._JsonOnly):
            _decoded(f"[1.0, {text}]")
        assert json.loads(text) in (math.inf, -math.inf)


def _pdp(power="1e-06"):
    return '{"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-09, "powers_mw": [%s, 2e-06]}' % power


def _batch(*powers) -> str:
    return "[" + ",\n".join(_pdp(p) for p in powers) + "]\n"


def _record(location_id='"R"', distance="10.0", first_key="location_id") -> str:
    pdp = '{"bin_spacing_ns": 2.5, "noise_floor_mw": 1e-09, "powers_mw": [1e-06, 2e-06]}'
    entry = ('{"theta_tx_deg": 0.0, "phi_tx_deg": 0.0, "theta_rx_deg": 0.0, '
             '"phi_rx_deg": 0.0, "pdp": %s}' % pdp)
    return ('{"%s": %s, "band_ghz": 28.0, "env": "LOS", "distance_m": %s, '
            '"sweeps": [{"sweep_id": "M1", "pol": "VV", "entries": [%s]}]}'
            % (first_key, location_id, distance, entry))


def _records(*records) -> str:
    return "[" + ", ".join(records) + "]"


def _outcome(args, out):
    res = CliRunner().invoke(main, [*args, "--csv-out", str(out)])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return res.exit_code, res.stdout, res.stderr, written


def _parity(command, text, tmp_path, monkeypatch, *, by_orjson, decodes=None):
    """The outcome of ``command`` on ``text``, checked equal to json's. ``decodes``
    (``by_orjson`` if not given) says whether orjson's chunks decode the text, and
    ``by_orjson`` whether that decoding is the one kept: every element builds, so json
    never reads the text."""
    src, out = tmp_path / "input.json", tmp_path / "out.csv"
    src.write_text(text, encoding="utf-8")
    monkeypatch.setattr(fileio, "_CHUNK_CHARS", 16)  # a cut after every element
    try:
        _decoded(text)
    except fileio._JsonOnly:
        assert not (by_orjson if decodes is None else decodes), "orjson rejected the text"
    else:
        assert by_orjson if decodes is None else decodes, "orjson decoded the text"
    json_chunks = fileio._json_chunks
    json_passes = []
    monkeypatch.setattr(fileio, "_json_chunks",
                        lambda *args: json_passes.append(args) or json_chunks(*args))
    got = _outcome([command, str(src)], out)
    assert (not json_passes) is by_orjson
    monkeypatch.setattr(fileio, "_orjson_chunks", _json_only)
    assert got == _outcome([command, str(src)], out)
    return got


def _json_only(text):
    raise fileio._JsonOnly


@pytest.mark.parametrize("power", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_json_only_numbers_fall_back_to_json(power, tmp_path, monkeypatch):
    code, _, stderr, _ = _parity("pdp-stats", _batch("1e-06", "1e-06", power), tmp_path,
                                 monkeypatch, by_orjson=False)
    assert code == EXIT_PARSE and "pdp[2]" in stderr


def test_lone_surrogate_escape_falls_back_to_json(tmp_path, monkeypatch):
    text = _records(_record(), _record('"\\ud800"'))
    code, _, stderr, _ = _parity("synthesize-omni", text, tmp_path, monkeypatch, by_orjson=False)
    assert code != 0 and "surrogates not allowed" in stderr


def test_integer_beyond_uint64_in_a_power_keeps_its_value(tmp_path, monkeypatch):
    code, _, _, written = _parity("pdp-stats", _batch("1e-06", 2 ** 64, "1e-06"), tmp_path,
                                  monkeypatch, by_orjson=True)
    assert code == 0 and written is not None


def test_integer_beyond_uint64_in_a_message_is_echoed_as_json_reads_it(tmp_path, monkeypatch):
    text = _records(_record(), _record(str(2 ** 64)))
    # orjson decodes it; the build error sends it to json
    code, _, stderr, _ = _parity("synthesize-omni", text, tmp_path, monkeypatch,
                                 by_orjson=False, decodes=True)
    assert code == EXIT_PARSE
    assert f"record[1]: location_id must be a string, got {2 ** 64}" in stderr


def test_invalid_last_record_errors_before_any_warning(tmp_path, monkeypatch):
    far = [_record(f'"R{i}"', distance="1000.0") for i in range(3)]  # outside the span: warns
    text = _records(*far, _record('"bad"', distance="10.0,"))
    code, _, stderr, _ = _parity("synthesize-omni", text, tmp_path, monkeypatch, by_orjson=False)
    assert code == EXIT_PARSE and "invalid JSON" in stderr and "warning" not in stderr


def test_warnings_of_an_orjson_decoding_are_printed_once_in_order(tmp_path, monkeypatch):
    text = _records(*(_record(f'"R{i}"', distance=f"{1000.0 + i}") for i in range(3)))
    code, _, stderr, _ = _parity("synthesize-omni", text, tmp_path, monkeypatch, by_orjson=True)
    assert code == 0
    assert [line.split()[2] for line in stderr.splitlines()] == ["1000.0", "1001.0", "1002.0"]


def test_a_deep_value_json_rejects_is_json_s_error_before_any_warning(tmp_path, monkeypatch):
    deep = "[" * 5000 + "]" * 5000  # orjson takes it; json's recursion limit does not
    text = _records(_record('"R0"', distance="1000.0"), _record(deep))
    # orjson decodes it; the build error sends it to json
    code, _, stderr, _ = _parity("synthesize-omni", text, tmp_path, monkeypatch,
                                 by_orjson=False, decodes=True)
    assert code == EXIT_PARSE and "recursion" in stderr and "warning" not in stderr


def test_nesting_past_the_stack_bound_never_reaches_orjson():
    deep = "[" * (fileio._MAX_OPENERS + 1) + "]" * (fileio._MAX_OPENERS + 1)
    with pytest.raises(fileio._JsonOnly):
        _decoded(f"[1, {deep}]")


@pytest.mark.parametrize("text, code, by_orjson", [
    ("[]", EXIT_EMPTY, False),
    (" [ ] ", EXIT_EMPTY, False),
    (_pdp(), 0, False),
    ("[" + _pdp() + "]", 0, False),
    ("[" + _pdp() + ",]", EXIT_PARSE, False),
    ("[" + _pdp() + ", " + _pdp() + "] ]", EXIT_PARSE, False),
    ("[" + _pdp() + ", " + _pdp(), EXIT_PARSE, False),
    ("\r\n[" + _pdp() + ",\r\n" + _pdp() + "]\r\n", 0, True),
], ids=["empty", "empty-spaced", "one-object", "one-element", "trailing-comma", "extra-bracket",
        "unclosed", "crlf"])
def test_edge_shapes_match_json(text, code, by_orjson, tmp_path, monkeypatch):
    assert _parity("pdp-stats", text, tmp_path, monkeypatch, by_orjson=by_orjson)[0] == code


def test_separator_text_inside_a_string_is_no_cut(tmp_path, monkeypatch):
    # An escaped first key leaves "]}]}]}, {" as the separator, which a location id holds.
    key = "location\\u005fid"
    text = _records(_record(first_key=key), _record('"a]}}]}]}, {b"', first_key=key),
                    _record('"c"', first_key=key))
    code, _, _, written = _parity("synthesize-omni", text, tmp_path, monkeypatch,
                                  by_orjson=False)
    assert code == 0 and b"a]}}]}]}, {b" in written


def test_separator_text_inside_a_nested_value_is_no_cut(tmp_path, monkeypatch):
    # "]}, {"bin_spacing_ns"" is the separator, and element 1 holds it in a nested array.
    nested = ('{"bin_spacing_ns": 2.5, "noise_floor_mw": 0, "powers_mw": [1], '
              '"x": [{"a": [1]}, {"bin_spacing_ns": 1}]}')
    text = "[" + ", ".join([_pdp(), nested, _pdp()]) + "]"
    code, _, stderr, _ = _parity("pdp-stats", text, tmp_path, monkeypatch, by_orjson=False)
    assert code == EXIT_PARSE and "pdp[1]: unknown key(s) ['x']" in stderr
