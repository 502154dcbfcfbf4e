"""Malformed WAV input: ``read_wav`` raises ``WavFormatError`` and nothing else,
and reads every file as the whole-file reference decoder does."""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from clickdetect.audio_io import WavFormatError, read_wav

from conftest import chunk, fmt_body, riff
from wav_reference import outcome, read_wav_whole


@st.composite
def wav_files(draw) -> bytes:
    """A readable WAV, then odd header fields, byte mutations and a cut.

    Each of the three damages is drawn apart, so about one file in four is
    left undamaged and reaches the sample decoding, float payloads with NaN
    included.
    """
    fmt = draw(st.sampled_from([1, 3, 0xFFFE]))
    subformat = draw(st.sampled_from([1, 3, 6])) if fmt == 0xFFFE else None
    is_float = 3 in (fmt, subformat)
    bits = 32 if is_float else draw(st.sampled_from([16, 24]))
    channels = draw(st.sampled_from([1, 2]))
    block_align, rate = channels * bits // 8, 48000
    if draw(st.booleans()):
        bits = draw(st.sampled_from([bits, 0, 8, 12, 16, 20, 24, 32, 64]))
        channels = draw(st.sampled_from([channels, 0, 1, 2, 3]))
        block_align = draw(st.one_of(st.just(block_align), st.integers(0, 9)))
        rate = draw(st.sampled_from([rate, 0, 4000, 8000, 2**32 - 1]))
    if is_float:
        special = st.sampled_from([math.nan, math.inf, -math.inf])
        values = draw(st.lists(st.floats(width=32) | special, max_size=12))
        payload = struct.pack(f"<{len(values)}f", *values)
    else:
        payload = draw(st.binary(max_size=48))
    extra = [chunk(b"LIST", draw(st.binary(max_size=5)))] if draw(st.booleans()) else []
    fmt_chunk = chunk(b"fmt ", fmt_body(fmt, channels, rate, block_align, bits, subformat))
    raw = bytearray(riff(*extra, fmt_chunk, chunk(b"data", payload)))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        raw = raw[: draw(st.integers(0, len(raw)))]
    return bytes(raw)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(raw=wav_files())
def test_read_wav_raises_only_wav_format_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.wav"
    path.write_bytes(raw)
    try:
        read_wav(path)
    except WavFormatError:
        pass


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(raw=wav_files())
def test_read_wav_matches_whole_file_reference(tmp_path_factory, raw):
    """The same rate and bitwise-equal samples, or the same error text."""
    path = tmp_path_factory.getbasetemp() / "differential.wav"
    path.write_bytes(raw)
    assert outcome(read_wav, path) == outcome(read_wav_whole, path)
