"""Spectrograms and 1/3-octave band power profiles.

Two representations drive everything downstream: a Hann-windowed power
spectrogram for event detection, and base-2 1/3-octave band powers (centers at
1000 * 2^(n/3) Hz) for noise characterization. Power is referenced to digital
full scale (a full-scale white signal has total power ~1.0, i.e. ~0 dB); no
calibrated SPL is involved anywhere.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .audio_io import SampleBuffer, _as_float64, _scale

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
#: Windowed samples per FFT block (1 MiB of float64): 128 frames at window_len 1024.
_STFT_BLOCK_SAMPLES = 131072

_T = TypeVar("_T")


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _check_framing(window_len: int, hop: int) -> None:
    """Raise unless ``window_len`` is a power of two >= 64 and ``0 < hop <= window_len``."""
    if window_len < 64 or window_len & (window_len - 1):
        raise ValueError(f"window_len must be a power of two >= 64, got {window_len}")
    if not 0 < hop <= window_len:
        raise ValueError(f"hop must be in (0, window_len], got {hop}")


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
    Parseval. No power is stored: a ``_PowerJob`` computes it one block of
    frames at a time, on the calling thread and the helper threads of a
    ``_power_pool``. ``spectrogram_image`` consumes it block by block;
    ``frame_band_powers`` sums half of it into bands and doubles the sums,
    which keeps their bits. Each worker holds two buffers, the windowed
    samples and their spectrum, about 2.1 MB at window_len 1024; a block's
    power overwrites its windowed samples. The power does not depend on how
    many CPUs compute it.
    """

    buffer: SampleBuffer
    hop: int
    window_len: int

    def __post_init__(self) -> None:
        window_len = self.window_len
        _check_framing(window_len, self.hop)
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
    def bin_frequencies_hz(self) -> np.ndarray:
        return np.arange(self.n_bins) * (self.sample_rate_hz / self.window_len)

    def _frame_range(self, start: int, stop: int | None) -> tuple[int, int]:
        """Frames [start, stop), ``stop`` defaulting to ``n_frames``; raises
        ValueError for a range that is empty or reaches outside [0, n_frames)."""
        stop = self.n_frames if stop is None else stop
        if not 0 <= start < stop <= self.n_frames:
            raise ValueError(f"frame range [{start}, {stop}) is empty or outside [0, {self.n_frames})")
        return start, stop

    def _map_power_blocks(self, fn: Callable[[int, np.ndarray], _T]) -> list[_T]:
        """``fn(first, power)`` for every block of frames, in block order
        (``_PowerJob``), on a pool made for the call."""
        return _run(_PowerJob(self, fn))


class _PowerJob:
    """``fn(first, power)`` for every block of frames [start, stop) of ``spec``.

    ``power`` holds the power of frames first, first + 1, ...: up to
    ``_STFT_BLOCK_SAMPLES // window_len`` rows, fewer in the last block. With
    ``halved`` it holds half the power (``_onesided_power``). The blocks
    start at ``start`` (frame 0 by default) and the last ends at ``stop``
    (``n_frames`` by default). The windowed frames and their spectra never
    exist for the whole range.

    Each worker computes a block in two buffers of its own: the windowed
    samples, and their spectrum. ``rfft`` has consumed the windowed samples
    once the spectrum is made, so the power overwrites them. ``fn`` may
    overwrite the power, which the worker's next block refills. So ``fn``
    runs concurrently with itself and must write only outputs of its own
    block. The power is computed row by row, so it depends neither on the
    number of workers nor on the frame range.
    """

    def __init__(
        self,
        spec: Spectrogram,
        fn: Callable[[int, np.ndarray], object],
        start: int = 0,
        stop: int | None = None,
        halved: bool = False,
    ) -> None:
        start, stop = spec._frame_range(start, stop)
        window_len, hop = spec.window_len, spec.hop
        self.fn, self.start, self.halved, self.window = fn, start, halved, _scaled_hann(spec)
        self.frames = np.lib.stride_tricks.sliding_window_view(spec.buffer._array, window_len)[start * hop : stop * hop : hop]
        self.full_height = min(max(1, _STFT_BLOCK_SAMPLES // window_len), spec.n_frames)
        self.height = min(self.full_height, stop - start)
        self.n_blocks = -(-(stop - start) // self.height)
        self.results: list = [None] * self.n_blocks

    def compute(self, block: int, buffers: threading.local) -> None:
        """Compute ``block`` in the calling thread's ``buffers`` and hand it to ``fn``."""
        window_len = len(self.window)
        n_bins = window_len // 2 + 1
        shape = (self.full_height, window_len)
        mine = vars(buffers)
        if shape not in mine:
            mine[shape] = np.empty(shape), np.empty((self.full_height, n_bins), complex)
        windowed, spectrum = mine[shape]
        offset = block * self.height
        rows = self.frames[offset : offset + self.height]
        n = len(rows)
        block_windowed = windowed[:n]
        np.copyto(block_windowed, rows)  # widens float32 samples and int16 codes exactly
        block_windowed *= self.window
        # The power's n rows of n_bins fill the front of the windowed buffer.
        power = windowed.reshape(-1)[: n * n_bins].reshape(n, n_bins)
        power = _onesided_power(block_windowed, out=power, halved=self.halved, spectrum=spectrum[:n])
        self.results[block] = self.fn(self.start + offset, power)


@contextmanager
def _power_pool() -> Iterator[ThreadPoolExecutor]:
    """A pool of ``_usable_cpus() - 1`` helper threads, at least one, for
    ``_run``; with the thread that runs a job, one thread per CPU. Each
    thread keeps its buffers (``_PowerJob.compute``) in ``pool.buffers``, so
    they are freed with the pool. Leaving the block cancels what no helper
    has begun and waits for the rest."""
    pool = ThreadPoolExecutor(max(1, _usable_cpus() - 1), thread_name_prefix="band-power helper")
    pool.buffers = threading.local()
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _run(job: _PowerJob, pool: ThreadPoolExecutor | None = None) -> list:
    """Compute ``job``'s blocks on the calling thread and ``pool``'s helpers
    (a pool made for the call if None), and return their results in block
    order. The calling thread takes every block no helper has begun, so it
    never waits while a block is left; an error raised on a helper is
    raised here."""
    if pool is None:
        with _power_pool() as pool:
            return _run(job, pool)
    futures = [pool.submit(job.compute, block, pool.buffers) for block in range(job.n_blocks)]
    for block, future in enumerate(futures):
        if future.cancel():
            job.compute(block, pool.buffers)
    for future in futures:
        if not future.cancelled():
            future.result()
    return job.results


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


def _scaled_hann(spec: Spectrogram) -> np.ndarray:
    """``spec``'s window times the scale of its buffer's array. The scale is
    a power of two, so folding it into the window keeps the windowed values'
    bits: (c * scale) * w == c * (w * scale)."""
    return _hann(spec.window_len) * _scale(spec.buffer._array)


def _onesided_power(
    frames: np.ndarray, out: np.ndarray | None = None, halved: bool = False, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """One-sided |DFT|^2 of each row of ``frames``, interior bins doubled so
    the row satisfies Parseval; with ``halved``, half of that, which spares
    doubling the interior bins. Halving DC and Nyquist is exact, bar a
    subnormal power, so a sum of halved bins, doubled, has the bits of the
    sum of the doubled ones. ``spectrum``, when given, receives the complex
    DFT, which is otherwise a new array."""
    spectrum = np.fft.rfft(frames, axis=-1, out=spectrum)
    power = np.abs(spectrum, out=out)
    np.square(power, out=power)
    even = frames.shape[-1] % 2 == 0
    if halved:
        power[..., 0] *= 0.5
        if even:
            power[..., -1] *= 0.5
    elif even:
        power[..., 1:-1] *= 2.0  # DC and Nyquist appear once
    else:
        power[..., 1:] *= 2.0
    return power


def stft(buffer: SampleBuffer, window_len: int, hop: int) -> Spectrogram:
    """Hann-windowed power spectrogram of ``buffer``, sharing its samples.

    ``n_frames = floor((len - window_len) / hop) + 1``; trailing samples that
    do not fill a window are dropped. ``ClickDetector``'s 1024 and 256 give
    ~21.3 ms windows with ~5.3 ms hops at 48 kHz, enough temporal resolution
    to gate a 50 ms burst.
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


def _band_summer(freqs: np.ndarray, bands: Sequence[Band]) -> Callable[[np.ndarray, np.ndarray], None]:
    """``sum_into(power, out)``: band k's bins of ``power`` summed into column
    k of ``out``, both along the last axis. The bin indices are found once.

    A bin belongs to a band when its center frequency (``freqs``, ascending)
    lies in the band's half-open [lower, upper) interval. Each band is summed
    over its own bins alone; a band without bins keeps its value in ``out``.
    """
    edges = np.array([(band.lower_hz, band.upper_hz) for band in bands]).reshape(-1, 2)
    bins = np.searchsorted(freqs, edges, side="left")
    # reduceat sums bins [index[i], index[i + 1]) into column i, so with
    # (start, stop) pairs the even columns are the bands. The bin count is not
    # a valid index: a band reaching the top bin is summed from its start
    # alone, as the last index.
    inner = [k for k, (j0, j1) in enumerate(bins) if j0 < j1 < len(freqs)]
    top = [k for k, (j0, j1) in enumerate(bins) if j0 < j1 == len(freqs)]
    index = bins[inner].ravel()

    def sum_into(power: np.ndarray, out: np.ndarray) -> None:
        if inner:
            out[..., inner] = np.add.reduceat(power, index, axis=-1)[..., ::2]
        for k in top:
            out[..., k] = np.add.reduceat(power, bins[k, :1], axis=-1)[..., 0]

    return sum_into


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
    # numpy transforms float32 in float32; widened, the periodogram keeps float64 bits.
    x = _as_float64(buffer)
    n = x.size
    periodogram = _onesided_power(x[np.newaxis, :])[0] / (n * n)  # sums to mean(x^2)
    freqs = np.arange(periodogram.size) * (buffer.sample_rate_hz / n)
    totals = np.zeros(len(kept))
    _band_summer(freqs, kept)(periodogram, totals)
    return BandPowerProfile(tuple(kept), 10.0 * np.log10(np.maximum(totals, _DB_FLOOR_POWER)))


def frame_band_powers(
    spec: Spectrogram,
    bands: Sequence[Band],
    start: int = 0,
    stop: int | None = None,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> np.ndarray:
    """Per-frame band powers [stop - start x n_bands] in mean-square units.

    The frames are [start, stop), by default all of them; a range outside
    [0, n_frames) or an empty one raises ValueError. Normalized by
    N * sum(hann^2) so stationary noise of variance s^2 yields band powers
    summing to ~s^2, directly comparable with ``band_powers``. Each band is
    summed over its own bins alone, so its column does not depend on which
    other bands are asked for, nor on the block layout or the frame range.
    The blocks are computed on the calling thread and the helpers of
    ``pool`` (``_power_pool``), else of a pool made for the call.
    """
    start, stop = spec._frame_range(start, stop)
    sum_into = _band_summer(spec.bin_frequencies_hz, bands)
    half_norm = 0.5 * (spec.window_len * float(np.sum(_hann(spec.window_len) ** 2)))
    out = np.zeros((stop - start, len(bands)))

    def sum_block(first: int, half_power: np.ndarray) -> None:
        rows = out[first - start : first - start + len(half_power)]
        sum_into(half_power, rows)
        rows /= half_norm  # the band sums of the full power, over norm

    _run(_PowerJob(spec, sum_block, start, stop, halved=True), pool)
    return out


def spectrogram_image(spec: Spectrogram, path: str | Path, db_floor: float = -80.0) -> None:
    """Write the spectrogram as a grayscale PGM (P5) image.

    One column per frame, one row per bin with low frequencies at the bottom.
    Power is mapped log-scale relative to the spectrogram's peak: db_floor and
    below -> 0, 0 dB (the peak) -> 255. An all-zero spectrogram is all black.
    Two passes over the power blocks, one for the peak and one for the
    pixels, keep the memory to about the image's own size plus one block
    per worker.
    """
    if not -math.inf < db_floor < 0:
        raise ValueError(f"db_floor must be finite and negative, got {db_floor}")
    n_frames = spec.n_frames
    peak = max(spec._map_power_blocks(lambda start, block: float(block.max())))
    image = np.zeros((spec.n_bins, n_frames), dtype=np.uint8)

    def paint(start: int, power: np.ndarray) -> None:
        # Scaled in place, in the order of 1 - 10 log10(power / peak) / db_floor:
        # the block is this worker's own buffer, and a temporary per step
        # would cost each worker several blocks of memory.
        np.divide(power, peak, out=power)
        with np.errstate(divide="ignore"):
            np.log10(power, out=power)
        power *= 10.0
        power /= db_floor
        np.subtract(1.0, power, out=power)
        np.clip(power, 0.0, 1.0, out=power)
        power *= 255.0
        # rows top->bottom = bins high->low; columns left->right = frames
        image[::-1, start : start + len(power)] = np.rint(power, out=power).T

    if peak > 0.0:
        spec._map_power_blocks(paint)
    with Path(path).open("wb") as out:
        out.write(f"P5\n{n_frames} {spec.n_bins}\n255\n".encode("ascii"))
        image.tofile(out)
