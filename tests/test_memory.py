"""Transient memory at the I/O boundary, by tracemalloc: reading a CSV and writing a
file each hold one bounded slice of the text's bytes at a time, never a whole copy."""

import tracemalloc

from mmwindoor.core import BAND_28GHZ, Directionality, Environment, PathLossSample, Polarization
from mmwindoor.fileio import (PATHLOSS_CSV_HEADER, atomic_write, emit_pathloss_csv,
                              parse_pathloss_csv)


def _transient(call):
    """``call()``'s peak traced memory less what it still holds after, in bytes,
    and its result."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current, result


def test_parsing_a_csv_takes_about_one_copy_of_its_text():
    rows = [PathLossSample(f"L{k}", BAND_28GHZ, Environment.NLOS, Polarization.VV,
                           Directionality.OMNI, 1.0 + k % 450 / 10, 60.0 + k % 397 / 7)
            for k in range(20_000)]
    text = emit_pathloss_csv(rows)
    assert len(text) > 900_000
    transient, parsed = _transient(lambda: parse_pathloss_csv(text))
    assert parsed == rows
    assert transient <= 1.5 * len(text), transient / len(text)


def test_writing_a_file_holds_one_slice_of_its_text(tmp_path):
    text = "x" * (8 << 20)
    target = tmp_path / "big.txt"
    transient, _ = _transient(lambda: atomic_write(target, text))
    assert target.stat().st_size == len(text)
    assert transient < 4 << 20, transient / len(text)


def test_parsing_a_csv_holds_one_bounded_slice_of_its_text():
    rows = "".join(f"L{k},28.0,NLOS,VV,omni,{1.0 + k % 450 / 10!r},{60.0 + k % 397 / 7!r}\n"
                   for k in range(100_000))
    text = f"{PATHLOSS_CSV_HEADER}\n{rows}"
    del rows
    assert len(text) >= 4_000_000
    transient, parsed = _transient(lambda: parse_pathloss_csv(text))
    assert len(parsed) == 100_000
    assert transient <= 0.1 * len(text), transient / len(text)


def test_writing_a_file_holds_one_bounded_slice(tmp_path):
    text = "x" * (8 << 20)
    target = tmp_path / "big.txt"
    transient, _ = _transient(lambda: atomic_write(target, text))
    assert target.stat().st_size == len(text)
    assert transient < 512 << 10, transient
