"""Seeded synthesis of test audio: pink noise, factory soundscape, clicks,
SNR-controlled mixes, and a parametric model of the shroud's off-axis
attenuation.

Everything here is a pure function of (config, seed) so corpora are exactly
reproducible. Absolute levels are digital full-scale, never calibrated SPL.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .audio_io import SampleBuffer, _as_float64, _owned_buffer, write_wav
from .detector import ClickDetector, _burst_total, _gated_band_power, _require_finite, _require_power

__all__ = [
    "SimConfig",
    "GroundTruth",
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

    sample_rate_hz: int = 48000
    seed: int = 0
    duration_s: float = 10.0
    transient_rate_hz: float = 0.5
    click_times_s: tuple[float, ...] = ()
    target_snr_db: float = 12.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "click_times_s", tuple(float(t) for t in self.click_times_s))
        _require_finite(self)
        _require_power(self, ("target_snr_db",))
        samples = self.duration_s * self.sample_rate_hz  # the generators draw round(samples)
        if not (math.isfinite(samples) and round(samples) >= 2):
            raise ValueError(
                f"duration_s must give a finite count of at least 2 samples at {self.sample_rate_hz} Hz, "
                f"got {self.duration_s} s"
            )
        if not self.transient_rate_hz >= 0.0:
            raise ValueError(f"transient_rate_hz must be >= 0, got {self.transient_rate_hz}")
        if any(not 0.0 <= t <= self.duration_s for t in self.click_times_s):
            raise ValueError(f"click times {self.click_times_s} outside [0, {self.duration_s}]")


@dataclass(frozen=True)
class GroundTruth:
    """Connection-click times in seconds, stored as floats: each finite, and
    ascending at least 0.5 s apart."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"ground-truth times must be finite, got {times}")
        if any(not b - a >= 0.5 for a, b in zip(times, times[1:])):
            raise ValueError("ground-truth times must be ascending and >= 0.5 s apart")


#: The shroud model: off-axis sound is shadowed progressively with inset
#: depth (up to the full 0.6096 m) and with frequency above the corner, by
#: the given dB per octave at full depth, up to the cap. The constants are
#: free parameters of the model, not measured values; the model's job is to
#: reproduce the depth ordering.
_SHROUD_DEPTH_M = 0.6096
_SHROUD_DB_PER_OCTAVE = 8.0
_SHROUD_CORNER_HZ = 500.0
_SHROUD_CAP_DB = 40.0


def _off_axis_attenuation_db(f_hz, depth_m: float) -> np.ndarray:
    """The shroud's off-axis attenuation in dB at frequencies ``f_hz`` for an
    inset depth in [0, 0.6096] m."""
    if not 0.0 <= depth_m <= _SHROUD_DEPTH_M + 1e-9:  # NaN fails too
        raise ValueError(f"inset depth must lie in [0, {_SHROUD_DEPTH_M}] m, got {depth_m}")
    f = np.asarray(f_hz, dtype=np.float64)
    octaves = np.log2(np.maximum(1.0, f / _SHROUD_CORNER_HZ))
    raw = _SHROUD_DB_PER_OCTAVE * (depth_m / _SHROUD_DEPTH_M) * octaves
    return np.minimum(_SHROUD_CAP_DB, raw)


def _shaped_noise(rng: np.random.Generator, n: int, amplitude_of_f) -> np.ndarray:
    """Real noise whose spectral amplitude follows ``amplitude_of_f`` (rfft grid)."""
    n_bins = n // 2 + 1
    spectrum = np.empty(n_bins, dtype=np.complex128)
    spectrum.real = rng.standard_normal(n_bins)  # each draw is freed once copied in
    spectrum.imag = rng.standard_normal(n_bins)
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
    return _owned_buffer(x, cfg.sample_rate_hz)


def _lowpass_amplitude(f: np.ndarray, cutoff_hz: float = 5000.0, order: int = 6) -> np.ndarray:
    # Butterworth magnitude: -3 dB at the cutoff, 6*order dB/octave above.
    # 1 / sqrt(1 + (f / cutoff) ** (2 * order)), one step at a time in one array.
    amplitude = f / cutoff_hz
    amplitude **= 2 * order
    amplitude += 1.0
    np.sqrt(amplitude, out=amplitude)
    return np.divide(1.0, amplitude, out=amplitude)


def factory_noise(cfg: SimConfig) -> SampleBuffer:
    """Factory soundscape: a steady floor confined below ~5 kHz plus sparse
    broadband transients.

    The floor is lowpass-shaped noise (-3 dB at 5 kHz, 36 dB/octave above);
    transients arrive as a Poisson process at ``transient_rate_hz``, each a
    full-spectrum burst of 30-150 ms at 6-15 dB above the floor with short
    ramps and, deliberately, no tail.
    """
    n = round(cfg.duration_s * cfg.sample_rate_hz)
    rate = cfg.sample_rate_hz
    rng = np.random.default_rng(cfg.seed)
    # The floor; transients add in place. The frequency grid is freed before the noise is drawn.
    x = _shaped_noise(rng, n, _lowpass_amplitude(np.fft.rfftfreq(n, 1.0 / rate)))
    x *= FACTORY_FLOOR_RMS / math.sqrt(float(np.mean(x**2)))

    count = int(rng.poisson(cfg.transient_rate_hz * cfg.duration_s))
    durations = rng.uniform(0.03, 0.15, count)
    levels_db = rng.uniform(6.0, 15.0, count)
    starts = rng.uniform(0.0, np.maximum(cfg.duration_s - durations, 0.0))
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
    np.clip(x, -1.0, 1.0, out=x)  # headroom is generous; guard only
    return _owned_buffer(x, cfg.sample_rate_hz)


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
    return _owned_buffer(x, rate)


def _burst_track(buffer: SampleBuffer) -> np.ndarray:
    """Each frame's summed burst-band power under a default ``ClickDetector``'s
    front end, for the whole recording."""
    with _gated_band_power(buffer, ClickDetector()) as (_, n_burst, chunks):
        return np.concatenate([_burst_total(power, n_burst) for power in chunks])


def mix_at_snr(click: SampleBuffer, noise: SampleBuffer, cfg: SimConfig) -> tuple[SampleBuffer, GroundTruth]:
    """Inject the click at each configured time, scaled to the target SNR.

    The click is scaled so its peak burst-band (above ``burst_low_hz``) frame
    power exceeds the noise's time-averaged power in the same bands by
    ``cfg.target_snr_db``; both are measured with the front end of a default
    ``ClickDetector``. The noise component is preserved exactly outside the
    injection windows; samples that leave full scale are clamped.
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

    out = _as_float64(noise, copy=True)  # the mix is made in float64
    if times:
        noise_ref = float(_burst_track(noise).mean())
        if noise_ref <= 0.0:
            raise ValueError("noise has no measurable burst-band power to reference the SNR to")
        click_peak = float(_burst_track(click).max())
        gain = math.sqrt(10.0 ** (cfg.target_snr_db / 10.0) * noise_ref / click_peak)
        scaled = _as_float64(click, copy=True)
        scaled *= gain
        for i0 in starts:
            out[i0 : i0 + n_click] += scaled
        np.clip(out, -1.0, 1.0, out=out)  # leaves in-range samples as they are
    return _owned_buffer(out, rate), GroundTruth(times)


def apply_shroud(buffer: SampleBuffer, depth_m: float) -> SampleBuffer:
    """Filter off-axis sound through the shroud's attenuation at inset depth
    ``depth_m``, in [0, 0.6096] m.

    Linear (frequency-domain) except that output exceeding full scale is
    clamped.
    """
    # numpy transforms float32 in float32; widened, the output keeps float64 bits.
    x = _as_float64(buffer)
    f = np.fft.rfftfreq(x.size, 1.0 / buffer.sample_rate_hz)
    gain = 10.0 ** (-_off_axis_attenuation_db(f, depth_m) / 20.0)
    y = np.fft.irfft(np.fft.rfft(x) * gain, x.size)
    np.clip(y, -1.0, 1.0, out=y)  # leaves in-range samples as they are
    return _owned_buffer(y, buffer.sample_rate_hz)


def spaced_click_times(count: int, duration_s: float, rng: np.random.Generator) -> tuple[float, ...]:
    """Random injection times, uniformly placed: onsets at least ``_CLICK_GAP_S``
    apart, every click at least ``_CLICK_MARGIN_S`` from both ends of the clip."""
    if count == 0:
        return ()
    usable = duration_s - 2.0 * _CLICK_MARGIN_S - CLICK_TOTAL_S
    # An int compares exactly with a float, so a count beyond float range fails here.
    if count - 1 > usable / _CLICK_GAP_S:
        raise ValueError(f"cannot place {count} clicks {_CLICK_GAP_S} s apart in {duration_s} s")
    slack = usable - (count - 1) * _CLICK_GAP_S
    offsets = np.sort(rng.uniform(0.0, slack, count))
    times = _CLICK_MARGIN_S + offsets + _CLICK_GAP_S * np.arange(count)
    return tuple(round(float(t), 6) for t in times)


def write_truth_csv(truth: GroundTruth, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "label"])
        for t in truth.times:
            writer.writerow([f"{t:.6f}", "connection_click"])


def read_truth_csv(path: str | Path) -> GroundTruth:
    """Read a ``time_s,label`` CSV of connection clicks; errors name the file,
    and a bad row its line."""
    try:
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8-sig"), newline=""))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if next(reader, None) != ["time_s", "label"]:
        raise ValueError(f"{path}: expected header 'time_s,label'")
    times = []
    for row in reader:
        try:
            text, label = row
            t = float(text)
            if not math.isfinite(t):
                raise ValueError(f"time_s must be finite, got {text!r}")
            if label != "connection_click":
                raise ValueError(f"label must be 'connection_click', got {label!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
        times.append(t)
    try:
        return GroundTruth(tuple(times))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    mix, truth = factory_noise(cfg), GroundTruth(())
    if times:  # only a click needs 22,628 Hz: mix_at_snr measures it through the detector's burst bands
        mix, truth = mix_at_snr(synth_click(cfg.sample_rate_hz, cfg.seed), mix, cfg)
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
        cfg = SimConfig(seed=base_seed + index, duration_s=duration_s, target_snr_db=snr)
        manifest.append(
            _write_clip(out_dir, f"clip_{index:03d}.wav", f"clip_{index:03d}.csv", cfg, clicks_per_clip)
        )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path
