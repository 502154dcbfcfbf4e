import struct

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer
from clickdetect.spectral import _hann, _map_power, _power_pool

RATE = 48000


def tone(freq_hz: float, duration_s: float, amplitude: float = 1.0, rate: int = RATE) -> SampleBuffer:
    t = np.arange(round(duration_s * rate)) / rate
    return SampleBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t), rate)


def power_matrix(spec) -> np.ndarray:
    """The [n_frames x n_bins] power of a spectrogram, as one whole-matrix formula.

    The oracle for the spectrogram's blocks: it shares none of their code.
    """
    frames = np.lib.stride_tricks.sliding_window_view(spec.buffer.samples, spec.window_len)[:: spec.hop]
    power = np.abs(np.fft.rfft(frames * _hann(spec.window_len), axis=-1)) ** 2
    power[:, 1:-1] *= 2.0  # DC and Nyquist appear once
    return power


def blocked_power(spec) -> np.ndarray:
    """The [n_frames x n_bins] power of a spectrogram, assembled from its blocks.

    Each block is copied: a worker reuses one buffer for all its blocks. The
    blocks hold half the power, so doubling them is exact.
    """
    with _power_pool() as pool:
        return 2.0 * np.concatenate(_map_power(spec, lambda start, block: block.copy(), pool))


def chunk(cid: bytes, body: bytes) -> bytes:
    """One RIFF chunk: id, little-endian size, body and a pad byte if odd."""
    return cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def riff(*chunks: bytes, form: bytes = b"WAVE") -> bytes:
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_body(fmt: int, channels: int, rate: int, block_align: int, bits: int, subformat: int | None = None) -> bytes:
    """A ``fmt `` chunk body; with ``subformat``, the 40-byte EXTENSIBLE layout."""
    body = struct.pack("<HHIIHH", fmt, channels, rate, (rate * block_align) & 0xFFFFFFFF, block_align, bits)
    if subformat is not None:
        # cbSize, wValidBitsPerSample, dwChannelMask, then the SubFormat GUID
        body += struct.pack("<HHIH", 22, bits, 0, subformat) + bytes(14)
    return body


def raw_wav_bytes(payload: bytes, *, fmt=1, channels=1, rate=RATE, bits=16, block_align=None) -> bytes:
    """Independent WAV writer used as the reader's oracle."""
    block = channels * bits // 8 if block_align is None else block_align
    return riff(chunk(b"fmt ", fmt_body(fmt, channels, rate, block, bits)), chunk(b"data", payload))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
