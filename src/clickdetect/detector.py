"""Connector-click detection over a buffer's spectrogram.

The signature has two phases: a short broadband burst whose energy above
``burst_low_hz`` clears the rolling background by ``onset_threshold_db``, then
a band-limited tail inside ``tail_band_hz`` that stays elevated for a few
hundred milliseconds. Broadband factory transients can pass the burst gate but
have no tail, so the tail check is what separates the two classes.

All gating is relative to a causal per-band background estimate (trailing
median that excludes frames already flagged as event candidates), which makes
detection invariant to overall gain. A small absolute floor
(``silence_floor_db``, re full-scale power) keeps the relative thresholds
meaningful on digital silence.

All 13 settings, the signature's and the analysis front end's, are the
fields of one frozen ``ClickDetector``, checked when it is built; every
detection function takes that value, and it alone sets the STFT framing.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterator, Literal, Sequence

import numpy as np

from .audio_io import SampleBuffer
from .spectral import (
    _bands_within_nyquist,
    _check_framing,
    _power_pool,
    frame_band_powers,
    stft,
    third_octave_bands,
)

__all__ = [
    "DetectionEvent",
    "ClickDetector",
]

Label = Literal["connection_click", "other_transient"]


def _is_finite(value: numbers.Real) -> bool:
    """Whether ``value`` is finite; an int beyond float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_finite(settings) -> None:
    """Raise naming the first field of the dataclass ``settings`` that holds a
    non-finite number, alone or in a tuple."""
    for field in fields(settings):
        value = getattr(settings, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, numbers.Real) and not _is_finite(v):
                raise ValueError(f"{field.name} must be finite, got {value}")


def _require_power(settings, names: Sequence[str]) -> None:
    """Raise naming the first of the dB fields ``names`` of ``settings`` whose
    power ``10 ** (x / 10)`` is not a positive finite float, which holds from
    about -3,236 to +3,082 dB."""
    for name in names:
        value = getattr(settings, name)
        try:
            power = 10.0 ** (value / 10.0)
        except OverflowError:
            power = math.inf
        if not 0.0 < power < math.inf:
            raise ValueError(f"{name} of {value} dB has no positive finite power")


@dataclass(frozen=True)
class ClickDetector:
    """The detector's 13 settings, checked once at construction, and `predict`.

    Durations are in seconds, thresholds in dB over the rolling background.
    ``silence_floor_db`` (re full-scale power, per band) is the absolute floor
    substituted when the background estimate is quieter than it. The rest
    set the analysis: the background and merge windows and the STFT's window
    and hop. The value is frozen; make a variant with ``dataclasses.replace``,
    which checks it again.
    """

    burst_min_s: float = 0.02
    burst_max_s: float = 0.10
    burst_low_hz: float = 8000.0
    tail_band_hz: tuple[float, float] = (1000.0, 8000.0)
    tail_min_s: float = 0.10
    tail_max_s: float = 0.50
    onset_threshold_db: float = 12.0
    tail_threshold_db: float = 6.0
    silence_floor_db: float = -120.0
    background_window_s: float = 2.0
    merge_window_s: float = 0.5
    window_len: int = 1024
    hop: int = 256

    def __post_init__(self) -> None:
        try:
            lo, hi = self.tail_band_hz
        except (TypeError, ValueError):
            lo = hi = None
        if not all(isinstance(v, numbers.Real) for v in (lo, hi)):
            raise ValueError(f"tail_band_hz must be a pair of numbers, got {self.tail_band_hz!r}")
        object.__setattr__(self, "tail_band_hz", (lo, hi))
        _require_finite(self)
        _require_power(self, ("onset_threshold_db", "tail_threshold_db", "silence_floor_db"))
        if not 0.0 < self.burst_min_s < self.burst_max_s:
            raise ValueError(f"need 0 < burst_min_s < burst_max_s, got ({self.burst_min_s}, {self.burst_max_s})")
        if not 0.0 < self.tail_min_s < self.tail_max_s:
            raise ValueError(f"need 0 < tail_min_s < tail_max_s, got ({self.tail_min_s}, {self.tail_max_s})")
        for name in ("onset_threshold_db", "tail_threshold_db", "burst_low_hz", "merge_window_s"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < lo < hi:
            raise ValueError(f"tail_band_hz must be an increasing positive pair, got {self.tail_band_hz}")
        if not self.silence_floor_db < 0.0:
            raise ValueError(f"silence_floor_db must be negative, got {self.silence_floor_db}")
        if not self.background_window_s >= 1.0:
            raise ValueError(f"background_window_s must be at least 1.0 s, got {self.background_window_s}")
        for name in ("window_len", "hop"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        _check_framing(self.window_len, self.hop)

    def predict(self, buffer: SampleBuffer) -> list[DetectionEvent]:
        return detect_events(buffer, self)


@dataclass(frozen=True)
class DetectionEvent:
    onset_s: float
    burst_duration_s: float
    tail_duration_s: float
    peak_snr_db: float
    score: float
    label: Label

    def __post_init__(self) -> None:
        for name in ("onset_s", "burst_duration_s", "tail_duration_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")

    def to_json_dict(self) -> dict:
        return {
            "onset_s": round(self.onset_s, 6),
            "burst_s": round(self.burst_duration_s, 6),
            "tail_s": round(self.tail_duration_s, 6),
            "snr_db": round(self.peak_snr_db, 4),
            "score": round(self.score, 6),
            "label": self.label,
        }


#: Frames whose gates one sorted window settles at once (``_BackgroundPass``).
_BLOCK = 64
#: Frames whose gated band powers are computed and fed to the background pass
#: at once: 21.8 s at 48 kHz, and 32 of ``_map_power``'s blocks at window_len
#: 1024, a whole number of them at every window_len.
_CHUNK_FRAMES = 4096


def _burst_total(power: np.ndarray, n_burst: int) -> np.ndarray:
    """The first ``n_burst`` columns of ``power`` (its last axis) summed left
    to right, uncompensated, or zeros for none. The burst gate may not depend
    on how a numpy or Python version orders a sum: numpy pairs the terms of a
    1-D sum or of a strided view's rows from eight on, and 3.12's ``sum``
    compensates floats."""
    total = np.zeros(power.shape[:-1])
    for i in range(n_burst):
        total = total + power[..., i]
    return total


def _burst_reference(med: np.ndarray, n_burst: int, detector: ClickDetector) -> np.ndarray:
    """The burst gate's reference: the summed burst-band medians in ``med``'s
    first ``n_burst`` columns, raised to the silence floor of that many bands
    (of one band when there is none)."""
    floor = 10.0 ** (detector.silence_floor_db / 10.0) * max(n_burst, 1)
    return np.maximum(_burst_total(med, n_burst), floor)


def _clean_window(band_power: np.ndarray, clean: np.ndarray, t: int, win: int) -> tuple[np.ndarray, np.ndarray]:
    """The clean frames of [t - win, t) in order, and their rows of
    ``band_power`` sorted per band. ``clean`` must be final before t."""
    lo = max(0, t - win)
    rows = lo + np.flatnonzero(clean[lo:t])
    return rows, np.sort(band_power[rows], axis=0)


def _median(ranked: np.ndarray) -> np.ndarray:
    """The per-band median of a sorted window of at least one frame,
    averaging the middle pair (``0.5*(a+b)``) of an even count."""
    n = len(ranked)
    k = n // 2
    return ranked[k] if n & 1 else 0.5 * (ranked[k - 1] + ranked[k])


class _BackgroundPass:
    """Per-frame gate flags against a causal trailing-median background, fed
    the gated band powers one chunk of frames at a time (``feed``).

    Frame t's background is the per-band median of the clean (unflagged)
    frames in [t - win, t), so the events being detected cannot inflate their
    own reference. An empty window keeps the previous frame's background: the
    row of the latest clean frame, or frame 0's own row when no frame is clean
    yet. Each row of powers holds the burst bands' ``n_burst`` columns, then
    the tail bands'. The burst gate compares the frame's summed burst-band
    power with ``_burst_reference``; the tail gate compares each tail band
    with its median.

    Between chunks the pass holds only the last ``win`` rows and their clean
    flags, and the row an empty window falls back on when none of them is
    clean: that of an older clean frame, or frame 0's. Each frame's summed
    burst-band power is kept only while its chunk is settled. For the whole
    recording the pass fills ``burst`` and ``tail``, the two gates' masks: 2
    bytes a frame. ``references`` maps the first frame of each burst run that
    may pass the duration gate to the burst gate's reference there, taken
    while the pass still holds the run's window, and ``peaks`` maps it to the
    run's largest summed burst-band power, carried across chunks while the
    run is open. The flags, references and peaks do not depend on how the
    frames are cut into chunks.
    """

    def __init__(self, n_frames: int, n_burst: int, detector: ClickDetector, win: int, rate: int) -> None:
        self.n_burst, self.detector, self.win, self.rate = n_burst, detector, win, rate
        self.onset_ratio = 10.0 ** (detector.onset_threshold_db / 10.0)
        self.tail_ratio = 10.0 ** (detector.tail_threshold_db / 10.0)
        self.floor = 10.0 ** (detector.silence_floor_db / 10.0)
        self.burst = np.zeros(n_frames, dtype=bool)
        self.tail = np.zeros(n_frames, dtype=bool)
        self.references: dict[int, float] = {}
        self.peaks: dict[int, float] = {}
        self.fed = 0
        # The held rows and their clean flags: frames [fed - len(rows), fed).
        self._rows: np.ndarray | None = None
        self._clean = np.zeros(0, dtype=bool)
        self._carry: np.ndarray | None = None
        # The summed burst-band powers of the chunk being settled, and the
        # first frame of the burst run open at the last frame fed, if any.
        self._totals: np.ndarray | None = None
        self._open_run: int | None = None

    def feed(self, power: np.ndarray) -> None:
        """Settle the next ``len(power)`` frames, whose gated band powers are ``power``."""
        t = self.fed
        if self._rows is None:
            self._rows, self._carry = power[:0], power[0].copy()
        self._rows = np.concatenate((self._rows, power))
        self._clean = np.concatenate((self._clean, np.zeros(len(power), dtype=bool)))
        self.fed = t + len(power)
        self._totals = _burst_total(power, self.n_burst)
        t0 = t
        while t0 < self.fed:
            t0 += self._settle_block(t0)
        self._take_references(t)
        self._totals = None
        latest = np.flatnonzero(self._clean)
        if latest.size:
            self._carry = self._rows[latest[-1]].copy()
        self._rows, self._clean = self._rows[-self.win :].copy(), self._clean[-self.win :].copy()

    def _background(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frame t's clean window (``_clean_window``, indexed in the held
        rows), and t's background. The flags before t must be final."""
        first = self.fed - len(self._rows)
        frames, ranked = _clean_window(self._rows, self._clean, t - first, self.win)
        if len(frames):
            return frames, ranked, _median(ranked)
        prior = np.flatnonzero(self._clean[: t - first])
        return frames, ranked, self._rows[prior[-1]] if prior.size else self._carry

    def _gate(self, t0: int, med: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The burst and tail verdicts of frames t0, t0 + 1, ... against one
        row of gated-band medians each."""
        chunk_first = self.fed - len(self._totals)
        totals = self._totals[t0 - chunk_first : t0 - chunk_first + len(med)]
        burst = totals >= self.onset_ratio * _burst_reference(med, self.n_burst, self.detector)
        first = self.fed - len(self._rows)
        power = self._rows[t0 - first : t0 - first + len(med), self.n_burst :]
        tail = (power >= self.tail_ratio * np.maximum(med[:, self.n_burst :], self.floor)).any(axis=1)
        return burst, tail

    def _settle_block(self, t0: int) -> int:
        """Settle a block of frames from t0, whose earlier flags are all final,
        and return its length: at least 1, at most ``min(_BLOCK, win)``, and
        never past the frames fed.

        The block sorts t0's clean window once (``_clean_window``), which
        gives t0's median exactly. Frame t0 + j has lost the ``evicted``
        clean frames before t0 - win + j, all of them known, and gained at
        most j of the block's own, so each band's median lies between two
        ranks of that sorted window. Every gate is monotone in each median (a
        floor, a positive ratio and a sum, all rounded to nearest), so a
        verdict that holds at both bounds is exact. The block ends at the
        first frame whose verdicts differ at its bounds, or that has none
        (too few frames kept, or a window that may be empty); the next block
        starts there.
        """
        frames, ranked, med = self._background(t0)
        j = np.arange(min(_BLOCK, self.win, self.fed - t0))
        first = self.fed - len(self._rows)
        evicted = np.searchsorted(frames, t0 - first + j - self.win)
        kept = len(frames) - evicted
        low_rank = (kept + j - 1) // 2 - j  # falls with j: the bounded frames are a prefix
        high_rank = (kept + j) // 2 + evicted  # inside the window wherever low_rank >= 0
        bounded = slice(1, np.count_nonzero(low_rank >= 0))
        burst_low, tail_low = self._gate(t0, np.concatenate((med[None], ranked[low_rank[bounded]])))
        burst_high, tail_high = self._gate(t0, np.concatenate((med[None], ranked[high_rank[bounded]])))
        same = (burst_low == burst_high) & (tail_low == tail_high)
        n = int(np.logical_and.accumulate(same).sum())
        self.burst[t0 : t0 + n], self.tail[t0 : t0 + n] = burst_low[:n], tail_low[:n]
        self._clean[t0 - first : t0 - first + n] = ~(burst_low[:n] | tail_low[:n])
        return n

    def _take_references(self, t: int) -> None:
        """Take the reference and peak of each burst run that starts in frames
        [t, fed) and may pass the duration gate, and raise the peak of a run
        that started in an earlier chunk to its frames here. A run that
        reaches the last frame fed may yet grow, so only its upper bound
        rules it out."""
        detector, n_frames = self.detector, len(self.burst)
        run = None
        for start, stop in _mask_runs(self.burst[t : self.fed]):
            peak = float(self._totals[start:stop].max())
            if start == 0 and t and self.burst[t - 1]:  # it started in an earlier chunk
                run = self._open_run
                if run in self.peaks:
                    self.peaks[run] = max(self.peaks[run], peak)
                continue
            run = t + start
            duration = _run_duration_s(stop - start, detector, self.rate)
            growing = t + stop == self.fed < n_frames
            if duration <= detector.burst_max_s and (growing or duration >= detector.burst_min_s):
                med = self._background(run)[2]
                self.references[run] = float(_burst_reference(med, self.n_burst, detector))
                self.peaks[run] = peak
        self._open_run = run if self.burst[self.fed - 1] else None


def _gated_band_power(
    buffer: SampleBuffer, detector: ClickDetector, pool: ThreadPoolExecutor
) -> tuple[int, int, Iterator[np.ndarray]]:
    """Per-frame power of the gated bands only, ``_CHUNK_FRAMES`` frames at a
    time: the burst bands, then the tail's.

    The frames are ``detector``'s ``window_len`` and ``hop``; the bands are
    the 1/3-octave grid from 100 Hz up to Nyquist. The tail bands are picked
    by center, so where the grid starts matters only to a ``tail_band_hz``
    reaching below it. Returns the frame count, the number of burst columns,
    and an iterator over the chunks of rows in frame order. Each chunk is
    asked of ``frame_band_powers`` on the thread that takes it from the
    iterator, on ``pool`` (a ``_power_pool``), which must outlive the
    iterator. Raises, in this order, for a buffer shorter than a window, a
    hop coarser than ``burst_min_s``, a tail band above Nyquist, or no burst
    or tail band.
    """
    spec = stft(buffer, detector.window_len, detector.hop)
    rate = buffer.sample_rate_hz
    hop_s = detector.hop / rate
    if hop_s > detector.burst_min_s:
        raise ValueError(f"frame hop {hop_s:.4f} s too coarse to gate a {detector.burst_min_s:.3f} s burst")
    nyquist = rate / 2.0
    if detector.tail_band_hz[1] > nyquist * (1.0 + 1e-12):
        raise ValueError(f"tail band {detector.tail_band_hz} extends above Nyquist ({nyquist} Hz)")
    bands = _bands_within_nyquist(third_octave_bands(100.0, nyquist), rate)
    # Burst bands must lie entirely above burst_low_hz so a band-limited tail
    # cannot keep the burst gate alive. Tail bands are selected by center
    # (closed interval): the grid's "8 kHz band" is centered at 8000 Hz, and
    # it is where the tail clears a low-frequency-heavy floor most readily.
    burst_cols = [i for i, b in enumerate(bands) if b.lower_hz >= detector.burst_low_hz]
    lo, hi = detector.tail_band_hz
    tail_cols = [i for i, b in enumerate(bands) if lo <= b.center_hz <= hi and i not in burst_cols]
    if not burst_cols:
        raise ValueError(f"no band lies fully between burst_low_hz={detector.burst_low_hz} Hz and Nyquist")
    if not tail_cols:
        raise ValueError(f"no band centered inside tail_band_hz={detector.tail_band_hz}")
    gated = [bands[i] for i in burst_cols + tail_cols]
    n_frames = spec.n_frames
    return n_frames, len(burst_cols), (
        frame_band_powers(spec, gated, start, min(start + _CHUNK_FRAMES, n_frames), pool=pool)
        for start in range(0, n_frames, _CHUNK_FRAMES)
    )


def _mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    # Kept as bools, 2 bytes a frame of the recording: np.diff of a padded
    # integer mask would allocate int64 arrays, 16 bytes a frame.
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _run_duration_s(n_frames: int, detector: ClickDetector, rate: int) -> float:
    # n_frames qualifying windows span the event plus ~one window of smear;
    # subtracting (window - hop) undoes the smear in expectation.
    samples = n_frames * detector.hop + detector.hop - detector.window_len
    return max(detector.hop, samples) / rate


def detect_events(buffer: SampleBuffer, detector: ClickDetector) -> list[DetectionEvent]:
    """Detect and classify click events; returns events sorted by onset.

    Pipeline per the signature: (1) frames whose summed power in bands at or
    above ``burst_low_hz`` clears the background by ``onset_threshold_db`` are
    onset candidates; (2) a maximal run of such frames is kept if its duration
    lies in [burst_min_s, burst_max_s]; (3) after the burst, per-band power
    inside ``tail_band_hz`` must clear the background by ``tail_threshold_db``
    (any band, so the tail registers wherever it clears the colored floor) for
    a duration in [tail_min_s, tail_max_s] -- frames that re-trigger the burst
    gate belong to a new event and terminate the tail; (4) score mixes burst
    SNR (20 dB => 1.0) and tail duration (0.3 s => 1.0) equally; it ranks
    events for the merge but does not label them; (5) the event is a
    connection_click iff the tail check passed, so with a low
    ``onset_threshold_db`` a short tail needs no more than the gate's SNR;
    (6) events with onsets closer than ``merge_window_s`` are merged keeping
    the higher score (ties keep the earlier onset).
    """
    hop, rate = detector.hop, buffer.sample_rate_hz
    with _power_pool() as pool:
        n_frames, n_burst, chunks = _gated_band_power(buffer, detector, pool)
        # A window as long as the recording already holds every earlier frame,
        # so capping there changes nothing and keeps a huge window's count finite.
        win = max(2, round(min(detector.background_window_s / (hop / rate), n_frames)))
        # The pass runs only over the gated bands, and the band powers of one
        # chunk at a time: it is the costliest stage after them. A helper
        # feeds it chunk k while this thread computes chunk k + 1, and takes
        # blocks of it once the pass is done; chunk k + 2 waits for that
        # pass, so the band powers run at most one chunk ahead.
        background = _BackgroundPass(n_frames, n_burst, detector, win, rate)
        fed = None
        for power in chunks:
            if fed is not None:
                fed.result()
            fed = pool.submit(background.feed, power)
        fed.result()
    burst_mask, tail_mask = background.burst, background.tail

    events: list[DetectionEvent] = []
    for start, stop in _mask_runs(burst_mask):
        burst_dur = _run_duration_s(stop - start, detector, rate)
        if not detector.burst_min_s <= burst_dur <= detector.burst_max_s:
            continue
        u = stop
        while u < n_frames and tail_mask[u] and not burst_mask[u]:
            u += 1
        tail_frames = u - stop
        tail_dur = _run_duration_s(tail_frames, detector, rate) if tail_frames else 0.0
        tail_ok = detector.tail_min_s <= tail_dur <= detector.tail_max_s

        reference = background.references[start]
        excess = background.peaks[start] - reference
        peak_snr = 10.0 * math.log10(excess / reference) if excess > 0.0 else -math.inf
        score = 0.5 * min(1.0, max(0.0, peak_snr / 20.0)) + 0.5 * min(1.0, tail_dur / 0.3)
        label: Label = "connection_click" if tail_ok else "other_transient"
        onset_s = (start * hop + detector.window_len - hop) / rate
        events.append(
            DetectionEvent(onset_s, burst_dur, tail_dur, peak_snr, score, label)
        )

    return _merge_events(events, detector.merge_window_s)


def _merge_events(events: list[DetectionEvent], merge_window_s: float) -> list[DetectionEvent]:
    """Collapse chains of events with onset gaps < merge_window_s to the best one.

    ``events`` must ascend by onset, as ``detect_events`` builds them: one per
    burst run, in run order, at an onset that grows with the run's start frame.
    """
    clusters: list[list[DetectionEvent]] = []
    for event in events:
        if clusters and event.onset_s - clusters[-1][-1].onset_s < merge_window_s:
            clusters[-1].append(event)
        else:
            clusters.append([event])
    return [max(cluster, key=lambda e: (e.score, -e.onset_s)) for cluster in clusters]
