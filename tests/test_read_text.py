"""Reading an input a block at a time gives the text a whole-file read gives, and a
decode error names its byte counted from the start of the file. The io text layer
decodes the file 8192 bytes at a time under each block read."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwindoor import fileio
from mmwindoor.fileio import _SLICE_CHARS, ParseError, read_text

#: Any code point but a lone surrogate, which UTF-8 cannot hold.
CHARS = st.characters(blacklist_categories=("Cs",))


@st.composite
def _across_blocks(draw):
    """A text whose drawn character starts 0-3 bytes before the end of a block, so a
    multi-byte one is cut by the block boundary."""
    head = draw(st.text(CHARS, max_size=8))
    end = draw(st.integers(1, 2)) * _SLICE_CHARS - draw(st.integers(0, 3))
    pad = "a" * (end - len(head.encode("utf-8")))
    return head + pad + draw(CHARS) + draw(st.text(CHARS, max_size=8))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(CHARS), _across_blocks()))
@example("")
@example("\ufeffa,b\r\nc\rd\n")  # a BOM is kept, and every line break
@example("é" * _SLICE_CHARS)  # 2 bytes each: the first block ends on a whole character
@example("a" + "€" * _SLICE_CHARS)  # 3 bytes each: every block cuts one
@example("a" * 8191 + "€")  # a 3-byte character across the io layer's 8192-byte decode chunk
@example("a" * (_SLICE_CHARS - 1) + "\r\nb")  # a CR ends one read, its LF starts the next
def test_reads_what_a_whole_file_read_reads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("read") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8", newline="") as fh:
        whole = fh.read()
    assert whole == text
    with mock.patch.object(fileio, "open", wraps=open, create=True) as opened:
        assert read_text(str(path)) == whole
    # Once, in text mode: a valid file never falls back to a whole read.
    assert opened.call_args_list == [mock.call(str(path), encoding="utf-8", newline="")]


@pytest.mark.parametrize("data, reason", [
    (b"a" * 100_000 + b"\xe9" + b"a" * 10,
     "byte 0xe9 in position 100000: invalid continuation byte"),
    (b"a" * 70_000 + "é".encode("utf-8")[:1],
     "byte 0xc3 in position 70000: unexpected end of data"),
], ids=["bad-byte-in-a-later-block", "cut-last-character"])
def test_a_decode_error_names_its_byte_from_the_start_of_the_file(tmp_path, data, reason):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as got:
        read_text(str(path))
    assert str(got.value) == f"cannot read {path}: 'utf-8' codec can't decode {reason}"
