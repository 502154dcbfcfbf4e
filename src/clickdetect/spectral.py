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
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, NamedTuple, Sequence, TypeVar

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
#: Ranges of band powers that a pool's helpers compute ahead of the caller
#: (``frame_band_powers``). One keeps a helper busy while the caller uses
#: the range it was given, whenever that takes less time than computing it.
_RUN_AHEAD = 1

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
    frames at a time, on the calling thread and on a helper thread for each
    further CPU the process may use (``_PowerWorkers``). ``spectrogram_image``
    consumes it block by block; ``frame_band_powers`` sums half of it into
    bands and doubles the sums, which keeps their bits. Each worker holds
    two buffers, the windowed samples and their spectrum, about 2.1 MB at
    window_len 1024; a block's power overwrites its windowed samples. The
    power does not depend on how many CPUs compute it.
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

    def _map_power_blocks(self, fn: Callable[[int, np.ndarray], _T], start: int = 0, stop: int | None = None) -> list[_T]:
        """``fn(first, power)`` for every block of frames [start, stop), in
        block order (``_PowerJob``), on a ``_PowerWorkers`` pool that ends
        with the call."""
        job = _PowerJob(self, _scaled_hann(self), fn, start, stop)
        with _PowerWorkers() as workers:
            return workers.run(job)


class _PowerJob:
    """``fn(first, power)`` for every block of frames [start, stop) of ``spec``.

    ``power`` holds the power of frames first, first + 1, ...: up to
    ``_STFT_BLOCK_SAMPLES // window_len`` rows, fewer in the last block. With
    ``halved`` it holds half the power (``_onesided_power``). The blocks
    start at ``start`` (frame 0 by default) and the last ends at ``stop``
    (``n_frames`` by default). The windowed frames and their spectra never
    exist for the whole range. ``window`` is ``_scaled_hann(spec)``, which
    the jobs of one spectrogram may share.

    Workers take the blocks one at a time, in order (``claim``). Each
    computes a block in two buffers of its own: the windowed samples, and
    their spectrum. ``rfft`` has consumed the windowed samples once the
    spectrum is made, so the power overwrites them. ``fn`` may overwrite the
    power, which the worker's next block refills. So ``fn`` runs
    concurrently with itself and must write only outputs of its own block.
    The power is computed row by row, so it depends neither on the number
    of workers nor on the frame range. ``key``, when not None, names the job
    for ``_PowerWorkers.queued``.
    """

    halved = False
    key: Hashable = None

    def __init__(
        self, spec: Spectrogram, window: np.ndarray, fn: Callable[[int, np.ndarray], object], start: int = 0, stop: int | None = None
    ) -> None:
        start, stop = spec._frame_range(start, stop)
        window_len, hop = spec.window_len, spec.hop
        self.fn, self.start, self.window = fn, start, window
        self.frames = np.lib.stride_tricks.sliding_window_view(spec.buffer._array, window_len)[start * hop : stop * hop : hop]
        self.full_height = min(max(1, _STFT_BLOCK_SAMPLES // window_len), spec.n_frames)
        self.height = min(self.full_height, stop - start)
        self.n_blocks = -(-(stop - start) // self.height)
        self.results: list = [None] * self.n_blocks
        self.claimed = 0  # blocks handed out: the first ``claimed``
        self.running = 0  # blocks handed out and not yet computed
        self.error: BaseException | None = None

    def claim(self) -> int | None:
        """The next block for a worker, or None once all are taken or one
        failed. The caller holds the pool's lock."""
        if self.claimed == self.n_blocks or self.error is not None:
            return None
        self.claimed += 1
        self.running += 1
        return self.claimed - 1

    def compute(self, block: int, buffers: dict) -> None:
        """Compute ``block`` in ``buffers``, the calling worker's, and hand it to ``fn``."""
        window_len = len(self.window)
        n_bins = window_len // 2 + 1
        shape = (self.full_height, window_len)
        if shape not in buffers:
            buffers[shape] = np.empty(shape), np.empty((self.full_height, n_bins), complex)
        windowed, spectrum = buffers[shape]
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


class _PowerWorkers:
    """The calling thread and up to ``_usable_cpus() - 1`` helper threads,
    computing the blocks of ``_PowerJob``s; a context manager.

    Only the thread that made the pool may use it. ``run`` computes a job on
    that thread and on the helpers. ``queue`` lets the helpers start a job
    before ``run`` asks for it, so they keep busy while the caller does other
    work. A worker takes the first block no worker has taken, of the oldest
    job queued, so a worker that starts late or stalls holds up no other. A
    helper with no block to take sleeps until a job is queued. The helper
    threads start as jobs need them, none for a job of one block, and end
    with the ``with`` block. Each worker keeps its buffers for every job,
    and ``band_sums`` keeps what the band-power jobs of one spectrogram and
    bands share (``_BandSums``), so each is made once per pool.
    """

    def __init__(self) -> None:
        self.max_helpers = _usable_cpus() - 1
        self._helpers: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._work_queued = threading.Condition(self._lock)
        self._block_done = threading.Condition(self._lock)
        self._jobs: deque[_PowerJob] = deque()  # oldest first
        self._buffers: dict = {}  # the calling thread's
        self.band_sums: dict[Hashable, _BandSums] = {}  # by ``_BandSums.key``
        self._closed = False

    def __enter__(self) -> _PowerWorkers:
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._closed = True
            self._work_queued.notify_all()
        for helper in self._helpers:
            helper.join()

    def queued(self, key: Hashable) -> _PowerJob | None:
        """The queued job named ``key``, if any."""
        with self._lock:
            return next((job for job in self._jobs if job.key == key), None)

    def queue(self, job: _PowerJob) -> None:
        """Let the helpers compute ``job`` once they have taken every block
        of the jobs queued before it."""
        with self._lock:
            self._jobs.append(job)
            self._start_helpers(job.n_blocks)

    def run(self, job: _PowerJob) -> list:
        """Compute ``job`` on this thread and the helpers, and return its
        blocks' results in block order. An error raised on any worker is
        raised here, once no worker computes a block of ``job``.

        The jobs queued before ``job`` are dropped, and those after it stay.
        """
        with self._lock:
            while self._jobs and self._jobs[0] is not job:
                self._jobs.popleft()
            if not self._jobs:
                self._jobs.append(job)
            self._start_helpers(job.n_blocks - 1)
        while True:
            with self._lock:
                block = job.claim()
                if block is None:
                    self._block_done.wait_for(lambda: not job.running)
                    self._jobs.popleft()
                    break
            self._compute(job, block, self._buffers)
        if job.error is not None:
            raise job.error
        return job.results

    def _start_helpers(self, count: int) -> None:
        """Wake the helpers, starting more up to ``count``. The caller holds the lock."""
        while len(self._helpers) < min(self.max_helpers, count):
            helper = threading.Thread(target=self._help, name="band-power helper", daemon=True)
            helper.start()
            self._helpers.append(helper)
        self._work_queued.notify_all()

    def _help(self) -> None:
        buffers: dict = {}
        while True:
            with self._lock:
                while True:
                    if self._closed:
                        return
                    job, block = self._claim_queued()
                    if job is not None:
                        break
                    self._work_queued.wait()
            self._compute(job, block, buffers)

    def _claim_queued(self) -> tuple[_PowerJob, int] | tuple[None, None]:
        """A block claimed from the oldest queued job that has one left, and
        its job, or two Nones. The caller holds the lock."""
        for job in self._jobs:
            block = job.claim()
            if block is not None:
                return job, block
        return None, None

    def _compute(self, job: _PowerJob, block: int, buffers: dict) -> None:
        """Compute ``block`` of ``job`` and mark it done, keeping the first
        error any block of ``job`` raised for ``run`` to raise."""
        try:
            job.compute(block, buffers)
            error = None
        except BaseException as exc:  # raised again by ``run``, on the calling thread
            error = exc
        with self._lock:
            job.running -= 1
            if job.error is None:
                job.error = error
            self._block_done.notify()


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


class _BandSums:
    """What every ``_BandPowerJob`` of a spectrogram and bands shares: the
    scaled window (``_scaled_hann``), the band summer (``_band_summer``) and
    half the norm, N * sum(hann^2) / 2. They depend only on ``key``'s values."""

    def __init__(self, spec: Spectrogram, bands: tuple[Band, ...]) -> None:
        self.window = _scaled_hann(spec)
        self.sum_into = _band_summer(spec.bin_frequencies_hz, bands)
        self.half_norm = 0.5 * (spec.window_len * float(np.sum(_hann(spec.window_len) ** 2)))

    @staticmethod
    def key(spec: Spectrogram, bands: tuple[Band, ...]) -> tuple:
        return spec.window_len, spec.sample_rate_hz, _scale(spec.buffer._array), bands


class _BandPowerJob(_PowerJob):
    """``frame_band_powers``' job: the band powers of frames [start, stop) of
    ``spec``, each block's rows summed into ``out`` by the worker that
    computed it. Named by ``_band_power_key``."""

    halved = True

    def __init__(self, spec: Spectrogram, bands: tuple[Band, ...], sums: _BandSums, start: int, stop: int) -> None:
        self.out = out = np.zeros((stop - start, len(bands)))

        def sum_block(first: int, half_power: np.ndarray) -> None:
            rows = out[first - start : first - start + len(half_power)]
            sums.sum_into(half_power, rows)
            rows /= sums.half_norm  # the band sums of the full power, over norm

        super().__init__(spec, sums.window, sum_block, start, stop)
        self.key = _band_power_key(spec, bands, start, stop)


def _band_power_key(spec: Spectrogram, bands: tuple[Band, ...], start: int, stop: int) -> tuple:
    # A queued job holds its spectrogram, so no other can have its id.
    return id(spec), bands, start, stop


def frame_band_powers(
    spec: Spectrogram,
    bands: Sequence[Band],
    start: int = 0,
    stop: int | None = None,
    *,
    workers: _PowerWorkers | None = None,
) -> np.ndarray:
    """Per-frame band powers [stop - start x n_bands] in mean-square units.

    The frames are [start, stop), by default all of them; a range outside
    [0, n_frames) or an empty one raises ValueError. Normalized by
    N * sum(hann^2) so stationary noise of variance s^2 yields band powers
    summing to ~s^2, directly comparable with ``band_powers``. Each band is
    summed over its own bins alone, so its column does not depend on which
    other bands are asked for, nor on the block layout or the frame range.

    The blocks are computed on ``workers``, else on a pool made for the
    call. A pool that is passed in lends its helpers for longer: after the
    call they compute the ``_RUN_AHEAD`` ranges of the same length that
    follow, [stop, 2 * stop - start) and so on, cut at ``n_frames``. So a
    caller that asks for consecutive ranges finds each one begun, or done;
    one that asks for another range drops that work.
    """
    start, stop = spec._frame_range(start, stop)
    bands = tuple(bands)
    if workers is None:
        job = _BandPowerJob(spec, bands, _BandSums(spec, bands), start, stop)
        with _PowerWorkers() as own:
            own.run(job)
        return job.out
    key = _BandSums.key(spec, bands)
    if key not in workers.band_sums:
        workers.band_sums[key] = _BandSums(spec, bands)
    sums = workers.band_sums[key]
    job = workers.queued(_band_power_key(spec, bands, start, stop)) or _BandPowerJob(spec, bands, sums, start, stop)
    workers.run(job)
    first = stop
    for _ in range(_RUN_AHEAD if workers.max_helpers else 0):
        last = min(first + stop - start, spec.n_frames)
        if first == last:
            break
        if workers.queued(_band_power_key(spec, bands, first, last)) is None:
            workers.queue(_BandPowerJob(spec, bands, sums, first, last))
        first = last
    return job.out


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
