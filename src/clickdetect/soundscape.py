"""Seeded synthesis of test audio: pink noise, factory soundscape, clicks,
SNR-controlled mixes, and a parametric dish/shroud transfer model.

Everything here is a pure function of (config, seed) so corpora are exactly
reproducible. Absolute levels are digital full-scale, never calibrated SPL.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import DEFAULT_SAMPLE_RATE_HZ, SampleBuffer, write_wav
from .detector import ClickDetector, _gated_band_power, _require_finite
from .spectral import stft

__all__ = [
    "SimConfig",
    "GroundTruth",
    "ShroudModel",
    "pink_noise",
    "factory_noise",
    "synth_click",
    "mix_at_snr",
    "apply_shroud",
    "spaced_click_times",
    "write_truth_csv",
    "read_truth_csv",
    "generate_corpus",
]

#: RMS of the continuous factory floor, full scale. Leaves headroom for
#: transients up to 15 dB above the floor plus injected clicks.
FACTORY_FLOOR_RMS = 0.03

#: Click buffer layout (seconds): broadband burst, then band-limited tail.
CLICK_TOTAL_S = 0.40
BURST_S = 0.05
TAIL_S = 0.30
TAIL_BELOW_BURST_DB = 10.0

#: Spacing of generated click times (seconds): the least gap between two
#: onsets, and the clear stretch kept at each end of a clip, which keeps every
#: click out of the detector's first background window.
_CLICK_GAP_S = 2.0
_CLICK_MARGIN_S = 2.0


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthesized soundscape."""

    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
    seed: int = 0
    duration_s: float = 10.0
    transient_rate_hz: float = 0.5
    click_times_s: tuple[float, ...] = ()
    target_snr_db: float = 12.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "click_times_s", tuple(float(t) for t in self.click_times_s))
        _require_finite(self)
        if not self.duration_s > 0.0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not self.transient_rate_hz >= 0.0:
            raise ValueError(f"transient_rate_hz must be >= 0, got {self.transient_rate_hz}")
        if any(not 0.0 <= t <= self.duration_s for t in self.click_times_s):
            raise ValueError(f"click times {self.click_times_s} outside [0, {self.duration_s}]")


@dataclass(frozen=True)
class GroundTruth:
    """Labeled event times; ``clipped_times`` flags injections that saturated."""

    events: tuple[tuple[float, str], ...]
    clipped_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        times = [t for t, _ in self.events]
        if any(b - a < 0.5 for a, b in zip(times, times[1:])):
            raise ValueError("ground-truth times must be ascending and >= 0.5 s apart")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.events)


@dataclass(frozen=True)
class ShroudModel:
    """Parametric transfer of the parabolic dish plus cylindrical shroud.

    The dish gives on-axis aperture gain rising with frequency and capped;
    the shroud shadows off-axis sound progressively with inset depth and
    frequency above a corner. Constants are free parameters of the model, not
    measured values; the model's job is to reproduce the depth ordering.
    """

    dish_diameter_m: float = 0.6096
    inset_depth_m: float = 0.6096
    attenuation_db: float = 8.0  # per octave above corner_hz at reference depth
    reference_depth_m: float = 0.6096
    corner_hz: float = 500.0
    attenuation_cap_db: float = 40.0
    gain_cap_db: float = 20.0
    speed_of_sound_m_s: float = 343.0

    def __post_init__(self) -> None:
        _require_finite(self, unbounded=("attenuation_cap_db", "gain_cap_db"))  # an infinite cap is no cap
        if not 0.0 <= self.inset_depth_m <= self.reference_depth_m + 1e-9:
            raise ValueError(
                f"inset_depth_m must lie in [0, {self.reference_depth_m}], got {self.inset_depth_m}"
            )
        for name in ("dish_diameter_m", "corner_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def on_axis_gain_db(self, f_hz) -> np.ndarray:
        f = np.asarray(f_hz, dtype=np.float64)
        ka = np.pi * self.dish_diameter_m * f / self.speed_of_sound_m_s
        return np.minimum(self.gain_cap_db, 20.0 * np.log10(np.maximum(1.0, ka)))

    def off_axis_attenuation_db(self, f_hz) -> np.ndarray:
        f = np.asarray(f_hz, dtype=np.float64)
        octaves = np.log2(np.maximum(1.0, f / self.corner_hz))
        raw = self.attenuation_db * (self.inset_depth_m / self.reference_depth_m) * octaves
        return np.minimum(self.attenuation_cap_db, raw)


def _shaped_noise(rng: np.random.Generator, n: int, amplitude_of_f) -> np.ndarray:
    """Real noise whose spectral amplitude follows ``amplitude_of_f`` (rfft grid)."""
    n_bins = n // 2 + 1
    spectrum = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    spectrum *= amplitude_of_f
    spectrum[0] = 0.0
    if n % 2 == 0:
        spectrum[-1] = spectrum[-1].real
    return np.fft.irfft(spectrum, n)


def pink_noise(cfg: SimConfig) -> SampleBuffer:
    """Seeded 1/f noise, RMS 0.1 full scale.

    Power spectral density falls 10 dB/decade from 20 Hz to Nyquist (flat
    below 20 Hz to avoid a DC blowup), so 1/3-octave band powers are flat.
    """
    n = round(cfg.duration_s * cfg.sample_rate_hz)
    rng = np.random.default_rng(cfg.seed)
    f = np.fft.rfftfreq(n, 1.0 / cfg.sample_rate_hz)
    x = _shaped_noise(rng, n, 1.0 / np.sqrt(np.maximum(f, 20.0)))
    x *= 0.1 / math.sqrt(float(np.mean(x**2)))
    return SampleBuffer(x, cfg.sample_rate_hz)


def _lowpass_amplitude(f: np.ndarray, cutoff_hz: float = 5000.0, order: int = 6) -> np.ndarray:
    # Butterworth magnitude: -3 dB at the cutoff, 6*order dB/octave above.
    return 1.0 / np.sqrt(1.0 + (f / cutoff_hz) ** (2 * order))


def _factory_parts(cfg: SimConfig):
    """Floor samples plus transient event list [(start_s, duration_s, level_db)]."""
    n = round(cfg.duration_s * cfg.sample_rate_hz)
    rate = cfg.sample_rate_hz
    rng = np.random.default_rng(cfg.seed)
    f = np.fft.rfftfreq(n, 1.0 / rate)
    floor = _shaped_noise(rng, n, _lowpass_amplitude(f))
    floor *= FACTORY_FLOOR_RMS / math.sqrt(float(np.mean(floor**2)))

    events: list[tuple[float, float, float]] = []
    count = int(rng.poisson(cfg.transient_rate_hz * cfg.duration_s))
    durations = rng.uniform(0.03, 0.15, count)
    levels_db = rng.uniform(6.0, 15.0, count)
    starts = rng.uniform(0.0, np.maximum(cfg.duration_s - durations, 0.0))
    x = floor.copy()
    for start, dur, level in zip(starts, durations, levels_db):
        i0 = int(round(start * rate))
        seg_len = int(round(dur * rate))
        seg_len = min(seg_len, n - i0)
        if seg_len <= 0:
            continue
        seg = rng.standard_normal(seg_len)
        seg *= FACTORY_FLOOR_RMS * 10.0 ** (level / 20.0) / math.sqrt(float(np.mean(seg**2)))
        ramp = min(int(0.005 * rate), seg_len // 4)
        if ramp:
            fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
            seg[:ramp] *= fade
            seg[-ramp:] *= fade[::-1]
        x[i0 : i0 + seg_len] += seg
        events.append((float(start), float(dur), float(level)))
    if x.size and float(np.max(np.abs(x))) > 1.0:
        x = np.clip(x, -1.0, 1.0)  # headroom is generous; guard only
    return x, events


def factory_noise(cfg: SimConfig) -> SampleBuffer:
    """Factory soundscape: a steady floor confined below ~5 kHz plus sparse
    broadband transients.

    The floor is lowpass-shaped noise (-3 dB at 5 kHz, 36 dB/octave above);
    transients arrive as a Poisson process at ``transient_rate_hz``, each a
    full-spectrum burst of 30-150 ms at 6-15 dB above the floor with short
    ramps and, deliberately, no tail.
    """
    x, _ = _factory_parts(cfg)
    return SampleBuffer(x, cfg.sample_rate_hz)


def synth_click(sample_rate_hz: int, seed: int = 0) -> SampleBuffer:
    """One synthetic connector click in a 0.40 s buffer, peak amplitude 0.5.

    A 50 ms broadband burst (flat to Nyquist; 3 ms attack, exponential release
    over the final 10 ms) followed by a 300 ms tail band-limited to 1-8 kHz,
    decaying from 10 dB below the burst peak.
    """
    if sample_rate_hz < 16000:
        raise ValueError(f"sample_rate_hz must be >= 16000 to carry the 1-8 kHz tail, got {sample_rate_hz}")
    rate = sample_rate_hz
    rng = np.random.default_rng(seed)
    n_total = round(CLICK_TOTAL_S * rate)
    n_burst = round(BURST_S * rate)
    n_tail = round(TAIL_S * rate)

    burst = rng.standard_normal(n_burst)
    t = np.arange(n_burst) / rate
    env = np.ones(n_burst)
    attack = t < 0.003
    env[attack] = 0.5 - 0.5 * np.cos(np.pi * t[attack] / 0.003)
    release = t >= BURST_S - 0.010
    env[release] = np.exp(-(t[release] - (BURST_S - 0.010)) / 0.003)
    burst *= env
    burst /= float(np.max(np.abs(burst)))

    tail = rng.standard_normal(n_tail)
    spectrum = np.fft.rfft(tail)
    f = np.fft.rfftfreq(n_tail, 1.0 / rate)
    spectrum[(f < 1000.0) | (f > 8000.0)] = 0.0
    tail = np.fft.irfft(spectrum, n_tail)
    t = np.arange(n_tail) / rate
    tail *= np.exp(-t / 0.30)  # gentle decay; content persists across the tail
    fade = t > TAIL_S - 0.020
    tail[fade] *= 0.5 + 0.5 * np.cos(np.pi * (t[fade] - (TAIL_S - 0.020)) / 0.020)
    tail *= 10.0 ** (-TAIL_BELOW_BURST_DB / 20.0) / float(np.max(np.abs(tail)))

    x = np.zeros(n_total)
    x[:n_burst] = burst
    x[n_burst : n_burst + n_tail] = tail
    x *= 0.5 / float(np.max(np.abs(x)))
    return SampleBuffer(x, rate)


def mix_at_snr(click: SampleBuffer, noise: SampleBuffer, cfg: SimConfig) -> tuple[SampleBuffer, GroundTruth]:
    """Inject the click at each configured time, scaled to the target SNR.

    The click is scaled so its peak burst-band (above ``burst_low_hz``) frame
    power exceeds the noise's time-averaged power in the same bands by
    ``cfg.target_snr_db``; both are measured with the front end of a default
    ``ClickDetector``. The noise component is preserved exactly outside the
    injection windows; samples that leave full scale are clamped and the
    affected injection is flagged in the ground truth.
    """
    if click.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError(
            f"sample rates differ: click {click.sample_rate_hz} Hz vs noise {noise.sample_rate_hz} Hz"
        )
    rate = noise.sample_rate_hz
    times = tuple(sorted(float(t) for t in cfg.click_times_s))
    n_click = len(click)
    starts = [int(round(t * rate)) for t in times]
    for t, i0 in zip(times, starts):
        if i0 < 0 or i0 + n_click > len(noise):
            raise ValueError(f"click at {t} s overruns the {noise.duration_s:.3f} s noise buffer")

    out = noise.samples.copy()
    clipped: list[float] = []
    if times:
        detector = ClickDetector()
        bands, sig = detector.bands_for(rate), detector.signature()

        def burst_track(buffer: SampleBuffer) -> np.ndarray:
            spec = stft(buffer, detector.window_len, detector.hop)
            band_power, burst_cols, _ = _gated_band_power(spec, bands, sig)
            return band_power[:, burst_cols].sum(axis=1)

        noise_ref = float(burst_track(noise).mean())
        if noise_ref <= 0.0:
            raise ValueError("noise has no measurable burst-band power to reference the SNR to")
        click_peak = float(burst_track(click).max())
        gain = math.sqrt(10.0 ** (cfg.target_snr_db / 10.0) * noise_ref / click_peak)
        scaled = gain * click.samples
        for t, i0 in zip(times, starts):
            out[i0 : i0 + n_click] += scaled
        over = np.abs(out) > 1.0
        if over.any():
            for t, i0 in zip(times, starts):
                if over[i0 : i0 + n_click].any():
                    clipped.append(t)
            np.clip(out, -1.0, 1.0, out=out)
    truth = GroundTruth(tuple((t, "connection_click") for t in times), tuple(clipped))
    return SampleBuffer(out, rate), truth


def apply_shroud(buffer: SampleBuffer, model: ShroudModel, on_axis: bool = False) -> SampleBuffer:
    """Filter the buffer through the dish/shroud transfer model.

    On-axis signals receive the dish gain; off-axis signals receive the
    depth-dependent shroud attenuation. Linear (frequency-domain) except that
    output exceeding full scale is clamped.
    """
    x = buffer.samples
    spectrum = np.fft.rfft(x)
    f = np.fft.rfftfreq(x.size, 1.0 / buffer.sample_rate_hz)
    if on_axis:
        gain_db = model.on_axis_gain_db(f)
    else:
        gain_db = -model.off_axis_attenuation_db(f)
    y = np.fft.irfft(spectrum * 10.0 ** (gain_db / 20.0), x.size)
    peak = float(np.max(np.abs(y))) if y.size else 0.0
    if peak > 1.0:
        y = np.clip(y, -1.0, 1.0)
    return SampleBuffer(y, buffer.sample_rate_hz)


def spaced_click_times(count: int, duration_s: float, rng: np.random.Generator) -> tuple[float, ...]:
    """Random injection times, uniformly placed: onsets at least ``_CLICK_GAP_S``
    apart, every click at least ``_CLICK_MARGIN_S`` from both ends of the clip."""
    if count == 0:
        return ()
    usable = duration_s - 2.0 * _CLICK_MARGIN_S - CLICK_TOTAL_S
    slack = usable - (count - 1) * _CLICK_GAP_S
    if slack < 0:
        raise ValueError(f"cannot place {count} clicks {_CLICK_GAP_S} s apart in {duration_s} s")
    offsets = np.sort(rng.uniform(0.0, slack, count))
    times = _CLICK_MARGIN_S + offsets + _CLICK_GAP_S * np.arange(count)
    return tuple(round(float(t), 6) for t in times)


def write_truth_csv(truth: GroundTruth, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "label"])
        for t, label in truth.events:
            writer.writerow([f"{t:.6f}", label])


def read_truth_csv(path: str | Path) -> GroundTruth:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["time_s", "label"]:
        raise ValueError(f"{path}: expected header 'time_s,label'")
    return GroundTruth(tuple((float(t), label) for t, label in rows[1:]))


def _write_clip(out_dir: Path, wav_name: str, truth_name: str, cfg: SimConfig, clicks: int) -> dict:
    """Mix ``clicks`` spaced clicks into ``cfg``'s soundscape and write the clip.

    The click times and the click are seeded by ``cfg.seed``. Writes the WAV
    and the truth CSV into ``out_dir``, made if missing once the mix succeeds,
    and returns the clip's manifest entry.
    """
    if clicks < 0:
        raise ValueError(f"clicks must be >= 0, got {clicks}")
    times = spaced_click_times(clicks, cfg.duration_s, np.random.default_rng(cfg.seed))
    cfg = replace(cfg, click_times_s=times)
    mix, truth = mix_at_snr(synth_click(cfg.sample_rate_hz, cfg.seed), factory_noise(cfg), cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(mix, out_dir / wav_name)
    write_truth_csv(truth, out_dir / truth_name)
    return {"wav_path": wav_name, "truth_path": truth_name, "snr_db": float(cfg.target_snr_db), "seed": int(cfg.seed)}


def generate_corpus(
    out_dir: str | Path,
    snr_values_db: Sequence[float] = (6.0, 9.0, 12.0, 15.0, 18.0),
    clips_per_snr: int = 20,
    duration_s: float = 60.0,
    clicks_per_clip: int = 4,
    transient_rate_hz: float = SimConfig.transient_rate_hz,
    sample_rate_hz: int = SimConfig.sample_rate_hz,
    base_seed: int = 173,
) -> Path:
    """Write the benchmark corpus (wav + truth csv per clip) and its manifest.

    Deterministic for a fixed ``base_seed``: clip i uses seed base_seed + i.
    Returns the manifest path; entries hold paths relative to the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    snrs = [snr for snr in snr_values_db for _ in range(clips_per_snr)]
    for index, snr in enumerate(snrs):
        cfg = SimConfig(
            sample_rate_hz=sample_rate_hz,
            seed=base_seed + index,
            duration_s=duration_s,
            transient_rate_hz=transient_rate_hz,
            target_snr_db=snr,
        )
        manifest.append(
            _write_clip(out_dir, f"clip_{index:03d}.wav", f"clip_{index:03d}.csv", cfg, clicks_per_clip)
        )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path
