"""Spectrograms and 1/3-octave band power profiles.

Two representations drive everything downstream: a Hann-windowed power
spectrogram for event detection, and base-2 1/3-octave band powers (centers at
1000 * 2^(n/3) Hz) for noise characterization. Power is referenced to digital
full scale (a full-scale white signal has total power ~1.0, i.e. ~0 dB); no
calibrated SPL is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .audio_io import SampleBuffer

__all__ = [
    "Band",
    "BandPowerProfile",
    "Spectrogram",
    "stft",
    "third_octave_bands",
    "band_powers",
    "frame_band_powers",
    "spectrogram_image",
]

_DB_FLOOR_POWER = 1e-30  # -300 dB, stands in for log(0)
#: Windowed samples per FFT block (2 MiB of float64): 256 frames at window_len 1024.
_STFT_BLOCK_SAMPLES = 262144


class Band(NamedTuple):
    """One 1/3-octave band: center and half-open [lower, upper) edge pair."""

    center_hz: float
    lower_hz: float
    upper_hz: float


@dataclass(frozen=True)
class Spectrogram:
    """Hann-windowed power spectrogram of a buffer, computed block by block.

    The power of frame k is one-sided |DFT|^2 of the Hann-windowed samples
    [k*hop, k*hop + window_len), interior bins doubled so each frame satisfies
    Parseval. No power is stored: ``frame_band_powers`` and
    ``spectrogram_image`` each consume it one block of frames at a time.
    """

    buffer: SampleBuffer
    hop: int
    window_len: int

    def __post_init__(self) -> None:
        window_len, hop = self.window_len, self.hop
        if window_len < 64 or window_len & (window_len - 1):
            raise ValueError(f"window_len must be a power of two >= 64, got {window_len}")
        if not 0 < hop <= window_len:
            raise ValueError(f"hop must be in (0, window_len], got {hop}")
        if len(self.buffer) < window_len:
            raise ValueError(f"buffer has {len(self.buffer)} samples, shorter than one {window_len}-sample window")

    @property
    def sample_rate_hz(self) -> int:
        return self.buffer.sample_rate_hz

    @property
    def n_frames(self) -> int:
        return (len(self.buffer) - self.window_len) // self.hop + 1

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

    @property
    def frame_hop_s(self) -> float:
        return self.hop / self.sample_rate_hz

    @property
    def bin_frequencies_hz(self) -> np.ndarray:
        return np.arange(self.n_bins) * (self.sample_rate_hz / self.window_len)

    def _power_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, block)``: the power of frames start, start + 1, ...

        ``block`` is one reused buffer of ``min(_STFT_BLOCK_SAMPLES //
        window_len, n_frames)`` rows, overwritten by the next block; of the
        last block only the first ``n_frames - start`` rows are valid. Every
        block has the full height, so a matmul over it runs over the same
        number of rows each time, and the windowed frames and their spectra
        never exist for the whole recording.
        """
        n_frames = self.n_frames
        frames = np.lib.stride_tricks.sliding_window_view(self.buffer.samples, self.window_len)[:: self.hop]
        window = _hann(self.window_len)
        height = min(max(1, _STFT_BLOCK_SAMPLES // self.window_len), n_frames)
        windowed = np.empty((height, self.window_len))
        power = np.empty((height, self.n_bins))
        for start in range(0, n_frames, height):
            valid = min(height, n_frames - start)
            np.multiply(frames[start : start + valid], window, out=windowed[:valid])
            _onesided_power(windowed[:valid], out=power[:valid])
            yield start, power


@dataclass(frozen=True)
class BandPowerProfile:
    """1/3-octave band centers with summed power in dB re full-scale 1.0."""

    bands: tuple[Band, ...]
    power_db: np.ndarray

    def as_csv(self) -> str:
        lines = ["center_hz,power_db"]
        for band, db in zip(self.bands, self.power_db):
            lines.append(f"{band.center_hz:.6g},{db:.4f}")
        return "\n".join(lines) + "\n"


def _hann(window_len: int) -> np.ndarray:
    # Periodic Hann: sum(w^2) = 3N/8 exactly, which keeps the overlap
    # correction in the Parseval check closed-form.
    n = np.arange(window_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_len)


def _onesided_power(frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    spectrum = np.fft.rfft(frames, axis=-1)
    power = np.abs(spectrum, out=out)
    np.square(power, out=power)
    if frames.shape[-1] % 2 == 0:
        power[..., 1:-1] *= 2.0  # DC and Nyquist appear once
    else:
        power[..., 1:] *= 2.0
    return power


def stft(buffer: SampleBuffer, window_len: int = 1024, hop: int = 256) -> Spectrogram:
    """Hann-windowed power spectrogram of ``buffer``, sharing its samples.

    ``n_frames = floor((len - window_len) / hop) + 1``; trailing samples that
    do not fill a window are dropped. Defaults give ~21.3 ms windows with
    ~5.3 ms hops at 48 kHz, enough temporal resolution to gate a 50 ms burst.
    No transform runs here: ``Spectrogram`` checks the arguments, and the
    power is computed block by block when it is used.
    """
    return Spectrogram(buffer, hop, window_len)


def third_octave_bands(min_hz: float, max_hz: float) -> list[Band]:
    """All base-2 1/3-octave bands whose centers lie in [min_hz, max_hz].

    Centers are 1000 * 2^(n/3) Hz for integer n; edges are center * 2^(-+1/6),
    so adjacent bands tile the axis exactly.
    """
    if not 0 < min_hz < max_hz:
        raise ValueError(f"need 0 < min_hz < max_hz, got ({min_hz}, {max_hz})")
    # 1e-9 relative slack so exact centers (e.g. 1000.0) land inside the range.
    n_lo = math.ceil(3.0 * math.log2(min_hz / 1000.0) - 1e-9)
    n_hi = math.floor(3.0 * math.log2(max_hz / 1000.0) + 1e-9)
    bands = [
        Band(center, center * 2.0 ** (-1.0 / 6.0), center * 2.0 ** (1.0 / 6.0))
        for n in range(n_lo, n_hi + 1)
        for center in (1000.0 * 2.0 ** (n / 3.0),)
    ]
    if not bands:
        raise ValueError(f"no 1/3-octave center falls in [{min_hz}, {max_hz}] Hz")
    return bands


def _bands_within_nyquist(bands: Sequence[Band], sample_rate_hz: int) -> list[Band]:
    nyquist = sample_rate_hz / 2.0
    return [b for b in bands if b.upper_hz <= nyquist * (1.0 + 1e-12)]


def band_powers(buffer: SampleBuffer, bands: Sequence[Band]) -> BandPowerProfile:
    """Sum full-buffer periodogram power into 1/3-octave bands, in dB.

    Each periodogram bin belongs to exactly one band (bin center frequency in
    the half-open [lower, upper) interval). Bands reaching above Nyquist are
    absent from the result rather than reported as zero.
    """
    if buffer.duration_s < 1.0:
        raise ValueError(f"need at least 1 s of audio for a stable estimate, got {buffer.duration_s:.3f} s")
    kept = _bands_within_nyquist(bands, buffer.sample_rate_hz)
    if not kept:
        raise ValueError("every band lies above Nyquist")
    x = buffer.samples
    n = x.size
    periodogram = _onesided_power(x[np.newaxis, :])[0] / (n * n)  # sums to mean(x^2)
    freqs = np.arange(periodogram.size) * (buffer.sample_rate_hz / n)
    power_db = np.empty(len(kept))
    for i, band in enumerate(kept):
        j0, j1 = np.searchsorted(freqs, (band.lower_hz, band.upper_hz), side="left")
        total = float(periodogram[j0:j1].sum())
        power_db[i] = 10.0 * math.log10(max(total, _DB_FLOOR_POWER))
    return BandPowerProfile(tuple(kept), power_db)


def frame_band_powers(spec: Spectrogram, bands: Sequence[Band]) -> np.ndarray:
    """Per-frame band powers [n_frames x n_bands] in mean-square units.

    Normalized by N * sum(hann^2) so stationary noise of variance s^2 yields
    band powers summing to ~s^2, directly comparable with ``band_powers``.
    """
    freqs = spec.bin_frequencies_hz
    window = _hann(spec.window_len)
    norm = spec.window_len * float(np.sum(window**2))
    columns = np.zeros((spec.n_bins, len(bands)))
    for i, band in enumerate(bands):
        j0, j1 = np.searchsorted(freqs, (band.lower_hz, band.upper_hz), side="left")
        columns[j0:j1, i] = 1.0
    # Multiply each full-height block and keep its valid rows: the power
    # matrix never exists, and every matmul has the same number of rows.
    out = np.empty((spec.n_frames, len(bands)))
    for start, block in spec._power_blocks():
        rows = out[start : start + len(block)]
        rows[:] = (block @ columns)[: len(rows)]
    out /= norm
    return out


def spectrogram_image(spec: Spectrogram, path: str | Path, db_floor: float = -80.0) -> None:
    """Write the spectrogram as a grayscale PGM (P5) image.

    One column per frame, one row per bin with low frequencies at the bottom.
    Power is mapped log-scale relative to the spectrogram's peak: db_floor and
    below -> 0, 0 dB (the peak) -> 255. An all-zero spectrogram is all black.
    Two passes over the power blocks, one for the peak and one for the
    pixels, keep the memory to about the image's own size.
    """
    if not -math.inf < db_floor < 0:
        raise ValueError(f"db_floor must be finite and negative, got {db_floor}")
    n_frames = spec.n_frames
    # Of the reused last block only the first n_frames - start rows are valid.
    peak = max(float(block[: n_frames - start].max()) for start, block in spec._power_blocks())
    image = np.zeros((spec.n_bins, n_frames), dtype=np.uint8)
    if peak > 0.0:
        for start, block in spec._power_blocks():
            power = block[: n_frames - start]
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(power / peak)
            scaled = np.clip(1.0 - db / db_floor, 0.0, 1.0)
            # rows top->bottom = bins high->low; columns left->right = frames
            image[::-1, start : start + len(power)] = np.rint(scaled * 255.0).T
    with Path(path).open("wb") as out:
        out.write(f"P5\n{n_frames} {spec.n_bins}\n255\n".encode("ascii"))
        image.tofile(out)
