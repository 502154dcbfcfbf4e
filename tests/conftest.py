import struct

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer

RATE = 48000


def tone(freq_hz: float, duration_s: float, amplitude: float = 1.0, rate: int = RATE) -> SampleBuffer:
    t = np.arange(round(duration_s * rate)) / rate
    return SampleBuffer(amplitude * np.sin(2 * np.pi * freq_hz * t), rate)


def power_matrix(spec) -> np.ndarray:
    """The [n_frames x n_bins] power of a spectrogram, assembled from its blocks.

    Each block is copied: the spectrogram reuses one buffer for every block.
    """
    n_frames = spec.n_frames
    return np.concatenate([block[: n_frames - start].copy() for start, block in spec._power_blocks()])


def raw_wav_bytes(payload: bytes, *, fmt=1, channels=1, rate=RATE, bits=16, block_align=None) -> bytes:
    """Independent WAV writer used as the reader's oracle."""
    block = channels * bits // 8 if block_align is None else block_align
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, fmt, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    return header + payload


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
