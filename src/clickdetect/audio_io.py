"""WAV file I/O and the canonical mono sample buffer.

Every other module operates on :class:`SampleBuffer`: mono float64 samples in
[-1, 1] plus an integer sample rate. Stereo input is averaged to mono at read
time; there is no resampling, so mixing buffers of different rates is an error
at the point of mixing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["SampleBuffer", "WavFormatError", "read_wav", "write_wav", "slice_buffer"]

#: Lowest rate the detection chain makes sense at (content up to >= 4 kHz).
MIN_SAMPLE_RATE_HZ = 8000

#: Assumed rate/depth for synthesized material; recordings keep their own rate.
DEFAULT_SAMPLE_RATE_HZ = 48000

_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE


class WavFormatError(ValueError):
    """A file is not a RIFF/WAVE variant this library accepts."""


@dataclass(frozen=True)
class SampleBuffer:
    """Mono PCM audio as normalized floats.

    Attributes
    ----------
    samples : np.ndarray
        1-D float64 array, every value finite and within [-1, 1].
    sample_rate_hz : int
        Positive rate, at least ``MIN_SAMPLE_RATE_HZ``.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        # min and max propagate NaN, so two reductions check both bounds
        # without a full-size temporary.
        lo, hi = (float(samples.min()), float(samples.max())) if samples.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("samples contain non-finite values")
        if max(hi, -lo) > 1.0 + 1e-12:
            raise ValueError("samples exceed full scale [-1, 1]")
        rate = int(self.sample_rate_hz)
        if rate != self.sample_rate_hz or rate < MIN_SAMPLE_RATE_HZ:
            raise ValueError(
                f"sample_rate_hz must be an integer >= {MIN_SAMPLE_RATE_HZ}, got {self.sample_rate_hz}"
            )
        # Frozen so it can be shared freely across threads. A writeable array
        # or a view is copied first, so the caller's later writes cannot reach
        # the buffer; a frozen array that owns its data is kept as it is.
        if samples.flags.writeable or samples.base is not None:
            samples = samples.copy()
            samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


def _mono(frames: np.ndarray) -> np.ndarray:
    """Average channels; linear, so mono(a + b) = mono(a) + mono(b)."""
    if frames.ndim == 1:
        return frames
    return frames.mean(axis=1)


def read_wav(path: str | Path) -> SampleBuffer:
    """Read a PCM WAV file into a mono SampleBuffer.

    Accepts 16- or 24-bit integer PCM and 32-bit float, 1 or 2 channels.
    Integer samples are scaled by the type's full-scale value (2^15 or 2^23);
    float samples are clamped to [-1, 1], infinities included. Stereo is
    averaged to mono.

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
    raw = path.read_bytes()
    view = memoryview(raw)  # slices of a view share the bytes instead of copying them
    if len(raw) < 12 or raw[:4] != b"RIFF":
        raise WavFormatError(f"{path}: missing RIFF chunk id (got {raw[:4]!r})")
    if raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: RIFF form type is {raw[8:12]!r}, expected b'WAVE'")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: fmt chunk truncated ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _FMT_EXTENSIBLE and len(body) >= 26:
                # wFormatTag lives in the first two bytes of the SubFormat GUID
                (subformat,) = struct.unpack_from("<H", body, 24)
                fmt = (subformat,) + fmt[1:]
        elif cid == b"data":
            if len(body) < size:
                raise WavFormatError(
                    f"{path}: data chunk declares {size} bytes but only {len(body)} present"
                )
            data = body
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
    if block_align:
        data = data[: len(data) - len(data) % block_align]
    if len(data) % (n_channels * bits // 8):
        raise WavFormatError(
            f"{path}: nBlockAlign = {block_align} and the {len(data)}-byte data chunk is not a whole "
            f"number of {n_channels}-channel {bits}-bit frames"
        )

    if format_tag == _FMT_IEEE_FLOAT:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if samples.size and math.isnan(samples.max()):  # max propagates NaN
            raise WavFormatError(f"{path}: data chunk holds NaN samples")
        samples = np.clip(samples, -1.0, 1.0)
    elif bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
        samples /= 32768.0
    else:  # 24-bit PCM
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
        u = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        signed = u.astype(np.int32)
        signed[signed >= 1 << 23] -= 1 << 24
        samples = signed.astype(np.float64) / float(1 << 23)

    if n_channels == 2:
        samples = _mono(samples.reshape(-1, 2))
    samples.flags.writeable = False  # nothing else holds it: SampleBuffer need not copy
    return SampleBuffer(samples, int(sample_rate))


def write_wav(buffer: SampleBuffer, path: str | Path) -> None:
    """Write a buffer as 16-bit PCM mono WAV.

    Round trip error is at most one 16-bit LSB (1/32768) per sample.
    """
    q = np.clip(np.rint(buffer.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = q.tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _FMT_PCM, 1, buffer.sample_rate_hz,
                        buffer.sample_rate_hz * 2, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    Path(path).write_bytes(header + payload)


def slice_buffer(buffer: SampleBuffer, start_s: float, end_s: float) -> SampleBuffer:
    """Return samples covering [start_s, end_s) as a new buffer.

    Sample indices are floor(start_s * rate) .. floor(end_s * rate), so slicing
    composes: slicing (1, 5) then (1, 2) equals slicing (2, 3) directly.
    """
    if not (0.0 <= start_s < end_s <= buffer.duration_s + 1e-12):
        raise ValueError(
            f"slice bounds ({start_s}, {end_s}) outside 0 <= start < end <= {buffer.duration_s}"
        )
    i0 = int(np.floor(start_s * buffer.sample_rate_hz))
    i1 = int(np.floor(end_s * buffer.sample_rate_hz))
    i1 = min(i1, buffer.samples.size)
    return SampleBuffer(buffer.samples[i0:i1], buffer.sample_rate_hz)
