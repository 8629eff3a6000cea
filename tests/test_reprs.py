"""``fileio._reprs`` writes each value exactly as ``repr(float(x))`` does.

It formats a whole column with one ``orjson.dumps`` and rewrites orjson's layout
into repr's, so an orjson build whose digits or layout differ fails here, not in
the output bytes.
"""

import math
import random
import struct
import sys

from hypothesis import given, settings, strategies as st

from mmwindoor.core import BAND_28GHZ, BAND_73GHZ, FrequencyBand
from mmwindoor.fileio import _reprs


def _reference(values):
    return [repr(float(x)) for x in values]


def _edges():
    """Every power of two and of ten with both neighbours, the signed zeros, the
    smallest subnormal, the largest double and the non-finite values, each negated too."""
    edges = [0.0, 5e-324, sys.float_info.max, math.inf, math.nan]
    for x in [math.ldexp(1.0, e) for e in range(-1074, 1024)] + [
            float(f"1e{e}") for e in range(-323, 309)]:
        edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return edges + [-x for x in edges]


def test_edge_values():
    edges = _edges()
    assert len(edges) > 10_000
    assert _reprs(edges) == _reference(edges)


def test_seeded_sweep():
    """Random bit patterns (every exponent, subnormals, nan and inf included), random
    magnitudes from 1e-12 to 1e20, and integers."""
    rng = random.Random(20151)
    bits = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            for _ in range(100_000)]
    magnitudes = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12.0, 20.0)
                  for _ in range(50_000)]
    integers = [rng.randrange(-10**18, 10**18) for _ in range(10_000)]
    for values in (bits, magnitudes, integers):
        assert _reprs(values) == _reference(values)


def test_layout_rewrites():
    # The two places orjson's layout differs from repr's, and numbers that only look alike.
    values = [1e16, 1e-7, 1.5e-5, -1e-5, 9.999e-5, 1e-4, 10.000015, 100.00001,
              1.2345678901234568e-05, 1e22, 1.2345678901234568e17, 1e-320, 2.5e-310, 1e100]
    assert _reprs(values) == _reference(values) == [
        "1e+16", "1e-07", "1.5e-05", "-1e-05", "9.999e-05", "0.0001", "10.000015",
        "100.00001", "1.2345678901234568e-05", "1e+22", "1.2345678901234568e+17", "1e-320",
        "2.5e-310", "1e+100"]


def test_inputs_that_are_not_floats():
    values = [True, False, 0, -3, 2**70, BAND_28GHZ, BAND_73GHZ, FrequencyBand(1e-5)]
    assert _reprs(values) == _reference(values)
    assert _reprs(iter([1.0, 2])) == ["1.0", "2.0"]
    assert _reprs([]) == _reprs(()) == []


numbers = (st.floats() | st.integers(-(2**80), 2**80) | st.booleans()
           | st.floats(min_value=1e-9, max_value=1e299).map(FrequencyBand))  # a band's domain


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(numbers, max_size=50))
def test_equals_repr_of_float(values):
    assert _reprs(values) == _reference(values)
