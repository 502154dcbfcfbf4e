"""WAV file I/O and the canonical mono sample buffer.

Every other module operates on :class:`SampleBuffer`: mono samples in
[-1, 1] plus an integer sample rate. ``read_wav`` keeps a 16-bit mono file as
its int16 PCM codes and decodes any other to float32 whenever float32 holds
every mono sample exactly; synthesis makes float64.
Stereo input is averaged to mono at read time; there is no resampling, so
mixing buffers of different rates is an error at the point of mixing.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

__all__ = ["SampleBuffer", "WavFormatError", "read_wav", "write_wav", "slice_buffer"]

#: Lowest rate the detection chain makes sense at (content up to >= 4 kHz).
MIN_SAMPLE_RATE_HZ = 8000

_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE

#: Bytes of the data chunk read and decoded at a time (whole frames are
#: taken, so a little less for 3- and 6-byte frames).
_PIECE_BYTES = 1 << 18


class WavFormatError(ValueError):
    """A file is not a RIFF/WAVE variant this library accepts."""


#: The value of one 16-bit PCM code step: code c is the sample c / 2^15.
_PCM16_SCALE = 2.0**-15


def _scale(array: np.ndarray) -> float:
    """The power of two that turns a stored array into its values, exactly."""
    return _PCM16_SCALE if array.dtype == np.int16 else 1.0


@dataclass(frozen=True, init=False)
class SampleBuffer:
    """Mono audio: values in [-1, 1] at an integer sample rate.

    Attributes
    ----------
    samples : np.ndarray
        1-D float32 or float64 array of the values, every one finite and
        within [-1, 1], and frozen. A float32 array is kept as float32;
        anything else becomes float64.
    sample_rate_hz : int
        Positive rate, at least ``MIN_SAMPLE_RATE_HZ``.

    A buffer ``read_wav`` made of a 16-bit mono file keeps the file's int16
    PCM codes, 2 bytes a sample. Its ``samples`` are the codes over 2^15,
    decoded to float32 at each access into a new frozen array. The library
    reads no buffer's ``samples``: it reads ``_array``, the kept array, whose
    values are it times ``_scale(_array)``, exactly.
    """

    def _values(self) -> np.ndarray:
        array = self._array
        if array.dtype != np.int16:
            return array
        # Every int16 and its product by a power of two are exact in float32.
        values = np.multiply(array, np.float32(_PCM16_SCALE), dtype=np.float32)
        values.flags.writeable = False
        return values

    # A field, so that repr, fields and dataclasses.replace see the values; the
    # property computes them from the kept array.
    samples: np.ndarray = property(_values)  # type: ignore[assignment]
    sample_rate_hz: int

    def __init__(self, samples: np.ndarray, sample_rate_hz: int) -> None:
        samples = np.asarray(samples)
        if samples.dtype != np.float32:
            samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        # min and max propagate NaN, so two reductions check both bounds
        # without a full-size temporary.
        lo, hi = (float(samples.min()), float(samples.max())) if samples.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("samples contain non-finite values")
        if max(hi, -lo) > 1.0 + 1e-12:
            raise ValueError("samples exceed full scale [-1, 1]")
        self._keep(samples, sample_rate_hz)

    def _keep(self, array: np.ndarray, sample_rate_hz: int) -> None:
        """Check the rate and store ``array``, frozen."""
        rate = sample_rate_hz
        if not MIN_SAMPLE_RATE_HZ <= rate < math.inf or rate != int(rate):  # NaN and inf stop before int()
            raise ValueError(
                f"sample_rate_hz must be an integer >= {MIN_SAMPLE_RATE_HZ}, got {sample_rate_hz}"
            )
        # Frozen so it can be shared freely across threads. A writeable array
        # or a view is copied first, so the caller's later writes cannot reach
        # the buffer; a frozen array that owns its data is kept as it is.
        if array.flags.writeable or array.base is not None:
            array = array.copy()
            array.flags.writeable = False
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "sample_rate_hz", int(rate))

    def __len__(self) -> int:
        return self._array.size

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


def _owned_buffer(x: np.ndarray, sample_rate_hz: int) -> SampleBuffer:
    """Wrap an array that nothing else holds: frozen first, SampleBuffer need not copy it.

    An int16 array holds 16-bit PCM codes and is kept as they are. No code is
    checked: each gives a value c / 2^15 in [-1, 1).
    """
    x.flags.writeable = False
    if x.dtype != np.dtype("<i2"):
        return SampleBuffer(x, sample_rate_hz)
    buffer = object.__new__(SampleBuffer)
    buffer._keep(x, sample_rate_hz)
    return buffer


def _as_float64(buffer: SampleBuffer, copy: bool = False) -> np.ndarray:
    """``buffer``'s values as float64, bit for bit: the kept array itself
    when it is float64 (frozen) and ``copy`` is false, else a new array."""
    array = buffer._array
    if array.dtype == np.float64 and not copy:
        return array
    return np.multiply(array, _scale(array), dtype=np.float64)


def read_wav(path: str | Path) -> SampleBuffer:
    """Read a PCM WAV file into a mono SampleBuffer.

    Accepts 16- or 24-bit integer PCM and 32-bit float, 1 or 2 channels.
    Integer samples are scaled by the type's full-scale value (2^15 or 2^23);
    float samples are clamped to [-1, 1], infinities included. Stereo is
    averaged to mono. The file is never held whole: the data chunk is read
    about 256 KiB at a time straight into the returned buffer.

    A 16-bit mono file is kept as its int16 PCM codes, 2 bytes a sample, with
    no decoding pass: its ``samples`` are float32, decoded at each access.
    Every other format is decoded to float32, which holds each mono sample
    exactly: k / 2^23, a clamped float32 value, or the mean of two PCM
    samples (a 17- or 25-bit sum over a power of two). The one exception is
    stereo float data, whose mean of two float32 values needs float64.

    Raises
    ------
    FileNotFoundError
        If the path does not exist.
    WavFormatError
        Naming the offending header field for any unsupported container,
        codec, bit depth, channel count, or truncated data chunk, and for a
        float data chunk that holds NaN.
    """
    path = Path(path)
    with path.open("rb") as f:
        wav = _read_header(f, path)
        frame_bytes = wav.n_channels * wav.bits // 8
        per_piece = _PIECE_BYTES // frame_bytes
        n_samples = wav.data_bytes // frame_bytes
        compact = wav.format_tag == _FMT_PCM and wav.bits == 16 and wav.n_channels == 1
        if compact:
            samples = np.empty(n_samples, "<i2")
            piece = memoryview(samples.view(np.uint8))  # the codes are read into their places
        else:
            stereo_float = wav.format_tag == _FMT_IEEE_FLOAT and wav.n_channels == 2
            samples = np.empty(n_samples, np.float64 if stereo_float else np.float32)
            piece = memoryview(bytearray(per_piece * frame_bytes))
        f.seek(wav.data_start)
        for start in range(0, n_samples, per_piece):
            stop = min(start + per_piece, n_samples)
            raw = piece[start * frame_bytes : stop * frame_bytes] if compact else piece[: (stop - start) * frame_bytes]
            got = f.readinto(raw) or 0
            if got != len(raw):  # the file shrank after the header scan
                raise WavFormatError(
                    f"{path}: data chunk ended after {start * frame_bytes + got} "
                    f"of {wav.data_bytes} bytes"
                )
            if not compact:
                _decode(raw, wav, samples[start:stop], path)
    return _owned_buffer(samples, wav.sample_rate_hz)


@dataclass(frozen=True)
class _WavLayout:
    """What ``_read_header`` found: a checked format and the data chunk's place."""

    format_tag: int
    n_channels: int
    sample_rate_hz: int
    bits: int
    data_start: int  # file offset of the data chunk's first byte
    data_bytes: int  # a whole number of frames


def _read_header(f: BinaryIO, path: Path) -> _WavLayout:
    """Scan a WAV file's chunks by seeking from header to header, and check them.

    Only chunk headers and the fmt chunk's first 26 bytes are read. The last
    fmt and last data chunk win. A data chunk that runs past the end of the
    file is an error; any other chunk that does ends the scan. The RIFF size
    field is not read.
    """
    file_bytes = f.seek(0, os.SEEK_END)
    f.seek(0)
    head = f.read(12)
    if len(head) < 12 or head[:4] != b"RIFF":
        raise WavFormatError(f"{path}: missing RIFF chunk id (got {head[:4]!r})")
    if head[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: RIFF form type is {head[8:12]!r}, expected b'WAVE'")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= file_bytes:
        f.seek(pos)
        cid, size = struct.unpack("<4sI", f.read(8))
        present = min(size, file_bytes - pos - 8)
        if cid == b"fmt ":
            if present < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated ({present} bytes)")
            body = f.read(min(present, 26))
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _FMT_EXTENSIBLE and len(body) >= 26:
                # wFormatTag lives in the first two bytes of the SubFormat GUID
                (subformat,) = struct.unpack_from("<H", body, 24)
                fmt = (subformat,) + fmt[1:]
        elif cid == b"data":
            if present < size:
                raise WavFormatError(f"{path}: data chunk declares {size} bytes but only {present} present")
            data = (pos + 8, size)
        pos += 8 + size + (size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: no fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: no data chunk")

    format_tag, n_channels, sample_rate, _byte_rate, block_align, bits = fmt
    if format_tag not in (_FMT_PCM, _FMT_IEEE_FLOAT):
        raise WavFormatError(f"{path}: unsupported wFormatTag 0x{format_tag:04X} (need PCM or IEEE float)")
    if n_channels not in (1, 2):
        raise WavFormatError(f"{path}: nChannels = {n_channels}, only mono or stereo supported")
    if sample_rate < MIN_SAMPLE_RATE_HZ:
        raise WavFormatError(f"{path}: nSamplesPerSec = {sample_rate}, below {MIN_SAMPLE_RATE_HZ} Hz")

    if format_tag == _FMT_IEEE_FLOAT and bits != 32:
        raise WavFormatError(f"{path}: wBitsPerSample = {bits} for float data, only 32 supported")
    if format_tag == _FMT_PCM and bits not in (16, 24):
        raise WavFormatError(f"{path}: wBitsPerSample = {bits}, only 16/24-bit PCM or 32-bit float")
    data_start, data_bytes = data
    if block_align:
        data_bytes -= data_bytes % block_align
    if data_bytes % (n_channels * bits // 8):
        raise WavFormatError(
            f"{path}: nBlockAlign = {block_align} and the {data_bytes}-byte data chunk is not a whole "
            f"number of {n_channels}-channel {bits}-bit frames"
        )
    return _WavLayout(format_tag, n_channels, sample_rate, bits, data_start, data_bytes)


def _decode(raw: memoryview, wav: _WavLayout, out: np.ndarray, path: Path) -> None:
    """Decode whole frames of data-chunk bytes into ``out``, one mono sample per frame.

    Every step is exact or elementwise, so a sample's bits do not depend on
    where the pieces are cut. Each step is also exact in ``out``'s type, the
    one ``read_wav`` chose for the format.
    """
    dest = out if wav.n_channels == 1 else np.empty(2 * out.size, out.dtype)
    if wav.format_tag == _FMT_IEEE_FLOAT:
        floats = np.frombuffer(raw, dtype="<f4")
        if floats.size and math.isnan(floats.max()):  # max propagates NaN
            raise WavFormatError(f"{path}: data chunk holds NaN samples")
        # Widening float32 to float64 is exact, so clipping before it gives the same bits.
        np.clip(floats, -1.0, 1.0, out=dest)
    elif wav.bits == 16:
        # 1/32768 is a power of two: the product is the quotient, bit for bit.
        # Every int16 is exact in float32, so the product is computed in dest's type.
        np.multiply(np.frombuffer(raw, dtype="<i2"), 1.0 / 32768.0, out=dest, dtype=dest.dtype)
    else:  # 24-bit PCM
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
        u = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        signed = u.astype(np.int32)
        signed[signed >= 1 << 23] -= 1 << 24
        np.divide(signed, float(1 << 23), out=dest, dtype=dest.dtype)  # |signed| <= 2^23: exact in float32
    if wav.n_channels == 2:
        dest.reshape(-1, 2).mean(axis=1, out=out)


def write_wav(buffer: SampleBuffer, path: str | Path) -> None:
    """Write a buffer as 16-bit PCM mono WAV, encoding 256 KiB of it at a time.

    Round trip error is at most one 16-bit LSB (1/32768) per sample; a buffer
    ``read_wav`` kept as 16-bit PCM codes is written as those codes. A rate
    whose byte rate does not fit the header raises before the file opens.
    """
    if 2 * buffer.sample_rate_hz > 0xFFFFFFFF:
        raise ValueError(f"sample_rate_hz {buffer.sample_rate_hz} too high: a WAV byte rate 2 * rate exceeds 32 bits")
    array = buffer._array
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + 2 * array.size),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _FMT_PCM, 1, buffer.sample_rate_hz,
                        buffer.sample_rate_hz * 2, 2, 16),
            b"data",
            struct.pack("<I", 2 * array.size),
        ]
    )
    per_piece = _PIECE_BYTES // 2
    with Path(path).open("wb") as f:
        f.write(header)
        for start in range(0, array.size, per_piece):
            x = array[start : start + per_piece]
            if array.dtype != np.int16:  # values, not 16-bit PCM codes
                x = x * 32768.0  # exact in float32 and float64
                x = np.clip(np.rint(x, out=x), -32768, 32767, out=x)
            f.write(x.astype("<i2", copy=False))


def slice_buffer(buffer: SampleBuffer, start_s: float, end_s: float) -> SampleBuffer:
    """Return samples covering [start_s, end_s) as a new buffer, stored as
    ``buffer``'s are.

    Sample indices are floor(start_s * rate) .. floor(end_s * rate), so slicing
    composes: slicing (1, 5) then (1, 2) equals slicing (2, 3) directly.
    """
    if not (0.0 <= start_s < end_s <= buffer.duration_s + 1e-12):
        raise ValueError(
            f"slice bounds ({start_s}, {end_s}) outside 0 <= start < end <= {buffer.duration_s}"
        )
    i0 = int(np.floor(start_s * buffer.sample_rate_hz))
    i1 = int(np.floor(end_s * buffer.sample_rate_hz))
    return _owned_buffer(buffer._array[i0:i1].copy(), buffer.sample_rate_hz)
