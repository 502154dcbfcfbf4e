"""A whole-file WAV decoder: the oracle for ``read_wav``, which reads in pieces.

It reads the file into memory at once, walks the chunks over those bytes and
decodes the data chunk in one go. It shares only ``SampleBuffer`` and
``WavFormatError`` with the package, so a fault in the package's chunk scan,
checks or piece arithmetic shows as a difference between the two readers.
"""

import math
import struct
from pathlib import Path

import numpy as np

from clickdetect.audio_io import SampleBuffer, WavFormatError

MIN_SAMPLE_RATE_HZ = 8000
FMT_PCM = 0x0001
FMT_IEEE_FLOAT = 0x0003
FMT_EXTENSIBLE = 0xFFFE


def read_wav_whole(path: str | Path) -> SampleBuffer:
    path = Path(path)
    raw = path.read_bytes()
    view = memoryview(raw)
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
            if fmt[0] == FMT_EXTENSIBLE and len(body) >= 26:
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
    if format_tag not in (FMT_PCM, FMT_IEEE_FLOAT):
        raise WavFormatError(f"{path}: unsupported wFormatTag 0x{format_tag:04X} (need PCM or IEEE float)")
    if n_channels not in (1, 2):
        raise WavFormatError(f"{path}: nChannels = {n_channels}, only mono or stereo supported")
    if sample_rate < MIN_SAMPLE_RATE_HZ:
        raise WavFormatError(f"{path}: nSamplesPerSec = {sample_rate}, below {MIN_SAMPLE_RATE_HZ} Hz")

    if format_tag == FMT_IEEE_FLOAT and bits != 32:
        raise WavFormatError(f"{path}: wBitsPerSample = {bits} for float data, only 32 supported")
    if format_tag == FMT_PCM and bits not in (16, 24):
        raise WavFormatError(f"{path}: wBitsPerSample = {bits}, only 16/24-bit PCM or 32-bit float")
    if block_align:
        data = data[: len(data) - len(data) % block_align]
    if len(data) % (n_channels * bits // 8):
        raise WavFormatError(
            f"{path}: nBlockAlign = {block_align} and the {len(data)}-byte data chunk is not a whole "
            f"number of {n_channels}-channel {bits}-bit frames"
        )

    if format_tag == FMT_IEEE_FLOAT:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if samples.size and math.isnan(samples.max()):
            raise WavFormatError(f"{path}: data chunk holds NaN samples")
        samples = np.clip(samples, -1.0, 1.0)
    elif bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
        samples /= 32768.0
    else:
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
        u = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        signed = u.astype(np.int32)
        signed[signed >= 1 << 23] -= 1 << 24
        samples = signed.astype(np.float64) / float(1 << 23)

    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return SampleBuffer(samples, int(sample_rate))


def outcome(read, path) -> tuple:
    """What a reader makes of a file: its rate and its samples' values as
    float64 bytes, or its error text. Widening is exact, so float32 samples
    compare bit for bit with the reference's float64 ones."""
    try:
        buffer = read(path)
    except WavFormatError as exc:
        return ("error", str(exc))
    return (buffer.sample_rate_hz, buffer.samples.astype(np.float64).tobytes())
