"""Connector-click detection over a spectrogram.

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
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from typing import Literal, Sequence

import numpy as np

from .audio_io import SampleBuffer
from .spectral import (
    Band,
    Spectrogram,
    _bands_within_nyquist,
    frame_band_powers,
    stft,
    third_octave_bands,
)

__all__ = [
    "ClickSignature",
    "DetectionEvent",
    "detect_events",
    "snr_db",
    "ClickDetector",
]

Label = Literal["connection_click", "other_transient"]


def _require_finite(settings, unbounded: Sequence[str] = ()) -> None:
    """Raise naming the first field of the dataclass ``settings`` that holds a
    non-finite number, alone or in a tuple. ``+inf`` passes in the
    ``unbounded`` fields, where it means no limit."""
    for field in fields(settings):
        value = getattr(settings, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, numbers.Real) and not math.isfinite(v):
                if not (v == math.inf and field.name in unbounded):
                    raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class ClickSignature:
    """Gating template for the two-phase click shape.

    Durations are in seconds, thresholds in dB over the rolling background.
    ``silence_floor_db`` (re full-scale power, per band) is the absolute floor
    substituted when the background estimate is quieter than it.
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

    def __post_init__(self) -> None:
        try:
            lo, hi = self.tail_band_hz
        except (TypeError, ValueError):
            lo = hi = None
        if not all(isinstance(v, numbers.Real) for v in (lo, hi)):
            raise ValueError(f"tail_band_hz must be a pair of numbers, got {self.tail_band_hz!r}")
        object.__setattr__(self, "tail_band_hz", (lo, hi))
        _require_finite(self)
        if not 0.0 < self.burst_min_s < self.burst_max_s:
            raise ValueError(f"need 0 < burst_min_s < burst_max_s, got ({self.burst_min_s}, {self.burst_max_s})")
        if not 0.0 < self.tail_min_s < self.tail_max_s:
            raise ValueError(f"need 0 < tail_min_s < tail_max_s, got ({self.tail_min_s}, {self.tail_max_s})")
        for name in ("onset_threshold_db", "tail_threshold_db", "burst_low_hz"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < lo < hi:
            raise ValueError(f"tail_band_hz must be an increasing positive pair, got {self.tail_band_hz}")
        if not self.silence_floor_db < 0.0:
            raise ValueError(f"silence_floor_db must be negative, got {self.silence_floor_db}")


@dataclass(frozen=True)
class _FrontEnd:
    """The detector's parameters outside the signature: analysis and windows."""

    background_window_s: float = 2.0
    merge_window_s: float = 0.5
    window_len: int = 1024
    hop: int = 256
    band_min_hz: float = 100.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.background_window_s >= 1.0:
            raise ValueError(f"background_window_s must be at least 1.0 s, got {self.background_window_s}")
        for name in ("merge_window_s", "band_min_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("window_len", "hop"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DetectionEvent:
    onset_s: float
    burst_duration_s: float
    tail_duration_s: float
    peak_snr_db: float
    score: float
    label: Label

    def __post_init__(self) -> None:
        if self.onset_s < 0 or self.burst_duration_s < 0 or self.tail_duration_s < 0:
            raise ValueError("event times and durations must be non-negative")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")

    def to_json_dict(self) -> dict:
        return {
            "onset_s": round(self.onset_s, 6),
            "burst_s": round(self.burst_duration_s, 6),
            "tail_s": round(self.tail_duration_s, 6),
            "snr_db": round(self.peak_snr_db, 4) if math.isfinite(self.peak_snr_db) else self.peak_snr_db,
            "score": round(self.score, 6),
            "label": self.label,
        }


def snr_db(event_power: float, background_power: float) -> float:
    """10*log10(event power / background power), both in linear power units.

    A zero background with positive event power returns +inf as a documented
    sentinel; zero event power returns -inf.
    """
    if event_power < 0 or background_power < 0:
        raise ValueError("powers must be non-negative")
    if background_power == 0.0:
        return math.inf if event_power > 0 else -math.inf
    if event_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(event_power / background_power)


def _background_and_flags(
    band_power: np.ndarray,
    burst_cols: Sequence[int],
    tail_cols: Sequence[int],
    sig: ClickSignature,
    win: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Causal trailing-median background plus per-frame gate flags.

    Frame t's background is the per-band median of the clean (unflagged) frames
    in [t - win, t), so the events being detected cannot inflate their own
    reference. One forward pass keeps each band's clean window values sorted (a
    running median after Haerdle & Steiger, AS 296): per frame it reads the
    median, gates the frame, inserts it if clean and evicts frame t - win if
    that was clean. An even count averages the two middle values, an empty
    window keeps the previous background, and frame 0 is its own background.
    The burst reference sums the burst bands' medians left to right. Returns
    the background, both masks and each frame's summed burst-band power.
    """
    T, nb = band_power.shape
    onset_ratio = 10.0 ** (sig.onset_threshold_db / 10.0)
    tail_ratio = 10.0 ** (sig.tail_threshold_db / 10.0)
    floor = 10.0 ** (sig.silence_floor_db / 10.0)
    burst_floor = floor * max(len(burst_cols), 1)
    burst_total = band_power[:, list(burst_cols)].sum(axis=1)

    bg = np.empty_like(band_power)
    burst_mask = np.zeros(T, dtype=bool)
    tail_mask = np.zeros(T, dtype=bool)
    clean = bytearray(T)
    window: list[list[float]] = [[] for _ in range(nb)]
    n = 0  # clean frames in the window, the same for every band
    med = band_power[0].tolist()
    for t in range(T):
        if n:
            k = n // 2
            med = [col[k] for col in window] if n & 1 else [0.5 * (col[k - 1] + col[k]) for col in window]
        bg[t] = med
        row = band_power[t].tolist()
        ref = 0.0
        for c in burst_cols:
            ref += med[c]
        bhit = bool(burst_cols) and burst_total[t] >= onset_ratio * max(ref, burst_floor)
        thit = any(row[c] >= tail_ratio * max(med[c], floor) for c in tail_cols)
        burst_mask[t], tail_mask[t] = bhit, thit
        if not (bhit or thit):
            clean[t] = 1
            n += 1
            for col, v in zip(window, row):
                insort(col, v)
        if t >= win and clean[t - win]:
            n -= 1
            for col, v in zip(window, band_power[t - win].tolist()):
                del col[bisect_left(col, v)]
    return bg, burst_mask, tail_mask, burst_total


def _gated_band_power(
    spec: Spectrogram, bands: Sequence[Band], sig: ClickSignature
) -> tuple[np.ndarray, list[int], list[int]]:
    """Per-frame power of the gated bands only, tail bands first.

    Returns that matrix plus the burst and tail column lists indexing it.
    Raises if ``bands`` has no burst band or no tail band for ``sig``.
    """
    # Burst bands must lie entirely above burst_low_hz so a band-limited tail
    # cannot keep the burst gate alive. Tail bands are selected by center
    # (closed interval): the grid's "8 kHz band" is centered at 8000 Hz, and
    # it is where the tail clears a low-frequency-heavy floor most readily.
    nyquist = spec.sample_rate_hz / 2.0 * (1.0 + 1e-12)
    burst_cols = [
        i for i, b in enumerate(bands) if b.lower_hz >= sig.burst_low_hz and b.upper_hz <= nyquist
    ]
    lo, hi = sig.tail_band_hz
    tail_cols = [
        i
        for i, b in enumerate(bands)
        if lo <= b.center_hz <= hi and b.upper_hz <= nyquist and i not in burst_cols
    ]
    if not burst_cols:
        raise ValueError(f"no band lies fully between burst_low_hz={sig.burst_low_hz} Hz and Nyquist")
    if not tail_cols:
        raise ValueError(f"no band centered inside tail_band_hz={sig.tail_band_hz}")
    # Every band, then slice: a matmul over fewer columns is not promised to
    # give bitwise the same powers, and the events depend on them exactly.
    band_power = frame_band_powers(spec, bands)[:, tail_cols + burst_cols]
    n_tail = len(tail_cols)
    return band_power, list(range(n_tail, band_power.shape[1])), list(range(n_tail))


def _mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _run_duration_s(n_frames: int, spec: Spectrogram) -> float:
    # n_frames qualifying windows span the event plus ~one window of smear;
    # subtracting (window - hop) undoes the smear in expectation.
    samples = n_frames * spec.hop + spec.hop - spec.window_len
    return max(spec.hop, samples) / spec.sample_rate_hz


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def detect_events(
    spec: Spectrogram,
    sig: ClickSignature,
    bands: Sequence[Band],
    background_window_s: float = _FrontEnd.background_window_s,
    merge_window_s: float = _FrontEnd.merge_window_s,
) -> list[DetectionEvent]:
    """Detect and classify click events; returns events sorted by onset.

    Pipeline per the signature: (1) frames whose summed power in bands at or
    above ``burst_low_hz`` clears the background by ``onset_threshold_db`` are
    onset candidates; (2) a maximal run of such frames is kept if its duration
    lies in [burst_min_s, burst_max_s]; (3) after the burst, per-band power
    inside ``tail_band_hz`` must clear the background by ``tail_threshold_db``
    (any band, so the tail registers wherever it clears the colored floor) for
    a duration in [tail_min_s, tail_max_s] -- frames that re-trigger the burst
    gate belong to a new event and terminate the tail; (4) score mixes burst
    SNR (20 dB => 1.0) and tail duration (0.3 s => 1.0) equally; (5) the event
    is a connection_click iff the tail check passed and score >= 0.5;
    (6) events with onsets closer than ``merge_window_s`` are merged keeping
    the higher score (ties keep the earlier onset).
    """
    _FrontEnd(background_window_s=background_window_s, merge_window_s=merge_window_s)
    hop_s = spec.frame_hop_s
    if hop_s > sig.burst_min_s:
        raise ValueError(
            f"frame hop {hop_s:.4f} s too coarse to gate a {sig.burst_min_s:.3f} s burst"
        )
    nyquist = spec.sample_rate_hz / 2.0
    if sig.tail_band_hz[1] > nyquist * (1.0 + 1e-12):
        raise ValueError(f"tail band {sig.tail_band_hz} extends above Nyquist ({nyquist} Hz)")
    # Median estimation is the hot path; run it only over the gated bands.
    win = max(2, round(background_window_s / hop_s))
    band_power, burst_cols, tail_cols = _gated_band_power(spec, bands, sig)
    bg, burst_mask, tail_mask, burst_total = _background_and_flags(band_power, burst_cols, tail_cols, sig, win)
    floor = 10.0 ** (sig.silence_floor_db / 10.0)
    bg_burst = np.maximum(bg[:, burst_cols].sum(axis=1), floor * len(burst_cols))

    T = spec.n_frames
    events: list[DetectionEvent] = []
    for start, stop in _mask_runs(burst_mask):
        burst_dur = _run_duration_s(stop - start, spec)
        if not sig.burst_min_s <= burst_dur <= sig.burst_max_s:
            continue
        u = stop
        while u < T and tail_mask[u] and not burst_mask[u]:
            u += 1
        tail_frames = u - stop
        tail_dur = _run_duration_s(tail_frames, spec) if tail_frames else 0.0
        tail_ok = sig.tail_min_s <= tail_dur <= sig.tail_max_s

        reference = float(bg_burst[start])
        excess = float(burst_total[start:stop].max()) - reference
        peak_snr = snr_db(max(excess, 0.0), reference)
        score = 0.5 * _clamp01(peak_snr / 20.0) + 0.5 * _clamp01(tail_dur / 0.3)
        label: Label = "connection_click" if tail_ok and score >= 0.5 else "other_transient"
        onset_s = max(0, start * spec.hop + spec.window_len - spec.hop) / spec.sample_rate_hz
        events.append(
            DetectionEvent(onset_s, burst_dur, tail_dur, peak_snr, score, label)
        )

    return _merge_events(events, merge_window_s)


def _merge_events(events: list[DetectionEvent], merge_window_s: float) -> list[DetectionEvent]:
    """Collapse chains of events with onset gaps < merge_window_s to the best one."""
    if not events:
        return []
    events = sorted(events, key=lambda e: e.onset_s)
    merged: list[DetectionEvent] = []
    cluster = [events[0]]
    for event in events[1:]:
        if event.onset_s - cluster[-1].onset_s < merge_window_s:
            cluster.append(event)
        else:
            merged.append(max(cluster, key=lambda e: (e.score, -e.onset_s)))
            cluster = [event]
    merged.append(max(cluster, key=lambda e: (e.score, -e.onset_s)))
    return merged


class ClickDetector:
    """Estimator-style detector: parameters at construction, `predict` on audio.

    Follows the scikit-learn parameter protocol (`get_params` / `set_params`,
    parameters stored verbatim under their constructor names, stateless
    `fit`), so instances compose with that ecosystem's tooling. `detect` is
    the domain-named alias for `predict`. The parameters and their defaults
    are the fields of `ClickSignature` and of the front-end settings.
    """

    _PARAMS = fields(ClickSignature) + fields(_FrontEnd)

    def __init__(self, **params) -> None:
        for field in self._PARAMS:
            setattr(self, field.name, field.default)
        self.set_params(**params)

    def get_params(self, deep: bool = True) -> dict:
        return {field.name: getattr(self, field.name) for field in self._PARAMS}

    def set_params(self, **params) -> "ClickDetector":
        known = self.get_params()
        for name, value in params.items():
            if name not in known:
                raise ValueError(f"unknown parameter {name!r} for ClickDetector")
            setattr(self, name, value)
        return self

    def _values(self, cls) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(cls)}

    def signature(self) -> ClickSignature:
        return ClickSignature(**self._values(ClickSignature))

    def fit(self, X=None, y=None) -> "ClickDetector":
        """Stateless; validates parameters and returns self."""
        self.signature()
        _FrontEnd(**self._values(_FrontEnd))
        return self

    def bands_for(self, sample_rate_hz: int) -> list[Band]:
        bands = third_octave_bands(self.band_min_hz, sample_rate_hz / 2.0)
        return _bands_within_nyquist(bands, sample_rate_hz)

    def predict(self, buffer: SampleBuffer) -> list[DetectionEvent]:
        sig = self.signature()
        front = _FrontEnd(**self._values(_FrontEnd))
        spec = stft(buffer, front.window_len, front.hop)
        return detect_events(
            spec,
            sig,
            self.bands_for(buffer.sample_rate_hz),
            background_window_s=front.background_window_s,
            merge_window_s=front.merge_window_s,
        )

    def detect(self, buffer: SampleBuffer) -> list[DetectionEvent]:
        return self.predict(buffer)
