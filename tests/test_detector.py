import dataclasses
import functools
import math
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from clickdetect import detector as detector_module
from clickdetect import spectral
from clickdetect.audio_io import SampleBuffer
from clickdetect.detector import (
    ClickDetector,
    DetectionEvent,
    _BackgroundPass,
    _burst_reference,
    _burst_total,
    _clean_window,
    _gated_band_power,
    _median,
)
from clickdetect.evaluation import match_detections
from clickdetect.soundscape import CLICK_TOTAL_S, SimConfig, factory_noise, mix_at_snr, pink_noise, synth_click
from clickdetect.spectral import frame_band_powers, stft, third_octave_bands

from conftest import RATE


def click_in_silence(seed: int, at_s: float = 1.0, total_s: float = 2.0) -> SampleBuffer:
    click = synth_click(RATE, seed)
    x = np.zeros(round(total_s * RATE))
    i0 = round(at_s * RATE)
    x[i0 : i0 + len(click)] = click.samples
    return SampleBuffer(x, RATE)


class TestClickSignature:
    """The settings' checks, run at construction and again by ``replace``."""

    def test_defaults_valid(self):
        detector = ClickDetector()
        assert detector.burst_low_hz == 8000.0
        assert detector.tail_band_hz == (1000.0, 8000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burst_min_s": 0.2, "burst_max_s": 0.1},
            {"tail_min_s": 0.5, "tail_max_s": 0.2},
            {"onset_threshold_db": 0.0},
            {"tail_threshold_db": -3.0},
            {"tail_band_hz": (8000.0, 1000.0)},
            {"silence_floor_db": 10.0},
            {"burst_min_s": math.nan},
            {"tail_max_s": math.nan},
            {"onset_threshold_db": math.nan},
            {"tail_threshold_db": math.nan},
            {"tail_band_hz": (math.nan, 8000.0)},
            {"burst_low_hz": math.nan},
            {"silence_floor_db": math.nan},
            {"burst_min_s": 0.5, "burst_max_s": 0.1},
            {"window_len": 512.0},
            {"hop": 128.5},
            {"hop": True},
            {"tail_band_hz": 8000.0},
            {"tail_band_hz": (1000.0, 4000.0, 8000.0)},
            {"background_window_s": math.nan},
            {"background_window_s": math.inf},
            {"onset_threshold_db": 4000.0},  # the power overflows
            {"tail_threshold_db": 3100.0},
            {"silence_floor_db": -5000.0},  # the power underflows to 0
            # the STFT's framing, checked before any input is read
            {"window_len": 1000},
            {"window_len": 32},
            {"hop": 0},
            {"hop": 4096},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ClickDetector(**kwargs)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            dataclasses.replace(ClickDetector(), **kwargs)


def pass_backgrounds(band_power, burst_cols, tail_cols, detector, win, edges=None):
    """The pass's flags, and every frame's background: the median of its clean
    window under them, over all of ``band_power``'s columns. The pass is fed
    the frames between successive ``edges``, or all of them at once."""
    gated = band_power[:, list(burst_cols) + list(tail_cols)]
    T = len(gated)
    background_pass = _BackgroundPass(T, len(burst_cols), detector, win, RATE)
    edges = [0, T] if edges is None else edges
    for start, stop in zip(edges, edges[1:]):
        background_pass.feed(gated[start:stop])
    burst, tail = background_pass.burst, background_pass.tail
    clean = ~(burst | tail)
    latest = np.maximum.accumulate(np.where(clean, np.arange(len(clean)), -1))
    before = np.concatenate(([-1], latest[:-1]))
    bg = []
    for t, last in enumerate(before):
        ranked = _clean_window(band_power, clean, t, win)[1]
        bg.append(_median(ranked) if len(ranked) else band_power[max(last, 0)])
    return np.array(bg).reshape(band_power.shape), burst, tail


def background(spec, bands):
    """The detector's background over every band, not only the gated ones; its
    burst and tail bands still flag the frames it leaves out."""
    detector = ClickDetector()
    nyquist = spec.sample_rate_hz / 2.0
    burst = [i for i, b in enumerate(bands) if b.lower_hz >= detector.burst_low_hz and b.upper_hz <= nyquist]
    lo, hi = detector.tail_band_hz
    tail = [i for i, b in enumerate(bands) if lo <= b.center_hz <= hi and b.upper_hz <= nyquist and i not in burst]
    win = max(2, round(detector.background_window_s / (spec.hop / spec.sample_rate_hz)))
    return pass_backgrounds(frame_band_powers(spec, bands), burst, tail, detector, win)[0]


class TestEstimateBackground:
    def test_silence_background_zero(self):
        spec = stft(SampleBuffer(np.zeros(3 * RATE), RATE), 1024, 256)
        bands = third_octave_bands(100, RATE / 2)
        assert not background(spec, bands).any()

    def test_stationary_white_tracks_band_mean(self, rng):
        x = SampleBuffer(0.0125 * rng.standard_normal(6 * RATE), RATE)
        spec = stft(x, 1024, 256)
        bands = [b for b in third_octave_bands(100, RATE / 2) if b.upper_hz <= RATE / 2]
        powers = frame_band_powers(spec, bands)
        start = round(1.0 / (spec.hop / spec.sample_rate_hz))
        long_run_mean = powers[start:].mean(axis=0)
        averaged_estimate = background(spec, bands)[start:].mean(axis=0)
        # narrow low bands hold 2-3 FFT bins whose median skews low; the
        # +-1 dB agreement is a claim about bands wide enough to average
        picked = [i for i, b in enumerate(bands) if b.center_hz >= 630]
        err_db = 10 * np.log10(averaged_estimate[picked] / long_run_mean[picked])
        assert np.abs(err_db).max() <= 1.0

    def test_short_burst_barely_shifts_estimate(self):
        base = 0.0125 * np.random.default_rng(8).standard_normal(6 * RATE)
        burst = np.zeros_like(base)
        seg = 0.15 * np.random.default_rng(9).standard_normal(round(0.05 * RATE))
        burst[3 * RATE : 3 * RATE + seg.size] = seg
        bands = [b for b in third_octave_bands(100, RATE / 2) if b.upper_hz <= RATE / 2]
        picked = [i for i, b in enumerate(bands) if b.center_hz >= 630]
        bg_clean = background(stft(SampleBuffer(base, RATE), 1024, 256), bands)
        bg_hit = background(stft(SampleBuffer(base + burst, RATE), 1024, 256), bands)
        hop_s = 256 / RATE
        t0, t1 = round(3.2 / hop_s), round(4.8 / hop_s)
        shift = 10 * np.log10(bg_hit[t0:t1][:, picked] / bg_clean[t0:t1][:, picked])
        assert np.abs(shift).max() < 0.5


def reference_background_and_flags(band_power, burst_cols, tail_cols, detector, win):
    """Brute force: np.median over each frame's clean trailing rows.

    Also returns how many frames saw an empty, an even and an odd clean window,
    and how many sat exactly on a gate's threshold.
    """
    T = len(band_power)
    onset_ratio = 10.0 ** (detector.onset_threshold_db / 10.0)
    tail_ratio = 10.0 ** (detector.tail_threshold_db / 10.0)
    floor = 10.0 ** (detector.silence_floor_db / 10.0)
    bg = np.empty_like(band_power)
    burst = np.zeros(T, dtype=bool)
    tail = np.zeros(T, dtype=bool)
    seen = {"empty": 0, "even": 0, "odd": 0, "tie": 0}
    for t in range(T):
        lo = max(0, t - win)
        clean_rows = band_power[lo:t][~(burst[lo:t] | tail[lo:t])]
        if t == 0:
            bg[t] = band_power[0]
        elif len(clean_rows):
            bg[t] = np.median(clean_rows, axis=0)
            seen["odd" if len(clean_rows) % 2 else "even"] += 1
        else:
            bg[t] = bg[t - 1]
            seen["empty"] += 1
        if burst_cols:
            ref = max(float(bg[t, burst_cols].sum()), floor * len(burst_cols))
            burst[t] = band_power[t, burst_cols].sum() >= onset_ratio * ref
            seen["tie"] += band_power[t, burst_cols].sum() == onset_ratio * ref
        if tail_cols:
            tail_ref = tail_ratio * np.maximum(bg[t, tail_cols], floor)
            tail[t] = (band_power[t, tail_cols] >= tail_ref).any()
            seen["tie"] += (band_power[t, tail_cols] == tail_ref).any()
    return (bg, burst, tail), seen


# Power ratios of exactly 16 and 4 let integer levels land on a threshold.
EXACT_RATIOS = ClickDetector(onset_threshold_db=12.041199826559248, tail_threshold_db=6.020599913279624)
# few distinct power-of-two levels, zeros included: ties everywhere
LEVELS = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])


class TestBackgroundPass:
    """The pass against brute force, frame by frame. Each frame is tallied by
    how the pass settled it: as a block start, from its exact median, or by
    bounds as a hit or a miss. A block that starts before its stride is up (a
    restart at a frame the previous block's bounds left open) is tallied too,
    with the frames its own bounds settle after it. Each case is run again
    with the pass fed in chunks of random sizes, and must give the same flags."""

    @pytest.fixture
    def block_starts(self, monkeypatch):
        starts = []
        settle = _BackgroundPass._settle_block

        def recording(self, t0):
            starts.append(t0)
            return settle(self, t0)

        monkeypatch.setattr(_BackgroundPass, "_settle_block", recording)
        return starts

    def compare(self, rng, block_starts, detector, win, T, n_bands):
        """One random case; returns the reference's window tallies and the pass's."""
        band_power = LEVELS[rng.integers(0, LEVELS.size, size=(T, n_bands))] * rng.choice([1e-6, 1.0])
        for _ in range(int(rng.integers(0, 4))):
            # loud stretches, some longer than the window, flag every frame
            start = int(rng.integers(0, T))
            band_power[start : start + int(rng.integers(1, 2 * win))] *= 1e4
        cols = rng.permutation(n_bands).tolist()
        split = int(rng.integers(0, min(n_bands, 4) + 1))
        burst_cols, tail_cols = sorted(cols[:split]), sorted(cols[split:])
        # Chunk sizes from their own stream, so the cases stay those drawn
        # before chunked feeding was tested.
        sizes = np.random.default_rng([T, win, n_bands]).integers(1, 2 * win + 2, size=T)
        edges = [0, *(int(e) for e in np.cumsum(sizes) if e < T), T]

        want, seen = reference_background_and_flags(band_power, burst_cols, tail_cols, detector, win)
        block_starts.clear()
        chunked = pass_backgrounds(band_power, burst_cols, tail_cols, detector, win, edges)
        for name, a, b in zip(("bg", "burst", "tail"), chunked, want):
            assert np.array_equal(a, b), f"{name} differs fed in chunks (T={T}, win={win}, edges={edges})"
        # no block crosses a chunk's edge
        assert block_starts == sorted(set(block_starts)) and set(edges[:-1]) <= set(block_starts)

        block_starts.clear()
        got = pass_backgrounds(band_power, burst_cols, tail_cols, detector, win)
        starts = list(block_starts)
        assert starts == sorted(set(starts)) and starts[:1] == [0], starts
        is_start = np.zeros(T, dtype=bool)
        is_start[starts] = True
        for name, a, b in zip(("bg", "burst", "tail"), got, want):
            assert np.array_equal(a, b), f"{name} differs (T={T}, win={win})"
        flagged = got[1] | got[2]
        stride = min(detector_module._BLOCK, win)
        restarts = [(t, end) for s, t, end in zip(starts, starts[1:], starts[2:] + [T]) if t - s < stride]
        return seen, {
            "bound hit": int((flagged & ~is_start).sum()),
            "bound miss": int((~flagged & ~is_start).sum()),
            "block start": len(starts),
            "mid-stride start": len(restarts),
            "settled after a restart": sum(end - t - 1 for t, end in restarts),
        }

    def test_matches_brute_force_median(self, block_starts):
        rng = np.random.default_rng(2024)
        seen, tally = Counter(), Counter()
        short = 0
        for case in range(240):
            win = int(rng.integers(2, 41))
            T = int(rng.integers(1, 3 * win + 2))
            short += T < win
            detector = EXACT_RATIOS if case % 2 else ClickDetector()
            case_seen, case_tally = self.compare(rng, block_starts, detector, win, T, int(rng.integers(1, 7)))
            seen.update(case_seen)
            tally.update(case_tally)
        assert short and all(seen.values()), (short, seen)
        assert all(tally.values()), tally

    @pytest.mark.parametrize("win", [375, 1500])  # 2 s of 256-sample hops at 48 and 192 kHz
    def test_matches_brute_force_at_full_rate_windows(self, block_starts, win):
        rng = np.random.default_rng(win)
        seen, tally = Counter(), Counter()
        for case in range(4):
            detector = EXACT_RATIOS if case % 2 else ClickDetector()
            T = 3 * win + int(rng.integers(0, 2 * win))  # several blocks, and stretches that empty the window
            case_seen, case_tally = self.compare(rng, block_starts, detector, win, T, int(rng.integers(2, 7)))
            seen.update(case_seen)
            tally.update(case_tally)
        assert all(seen.values()), seen
        assert all(tally.values()), tally


class TestBurstSums:
    """The burst total and reference add their columns left to right, never in
    the pairs numpy uses for a 1-D sum or a strided view from eight terms on;
    192 kHz has 10 burst bands."""

    N_BURST = 10

    @staticmethod
    def left_to_right(power, n):
        total = np.zeros(power.shape[:-1])
        for i in range(n):
            total = total + power[..., i]
        return total

    @staticmethod
    def pairwise(row):
        if len(row) == 1:
            return row[0]
        half = len(row) // 2
        return TestBurstSums.pairwise(row[:half]) + TestBurstSums.pairwise(row[half:])

    @pytest.mark.parametrize("T", [1, 2, 64])
    def test_left_to_right_bitwise(self, T):
        rng = np.random.default_rng(T)
        # burst columns, then two tail columns that must not enter the sums
        power = 10.0 ** rng.uniform(-12, 0, size=(T, self.N_BURST + 2))
        want = self.left_to_right(power, self.N_BURST)
        assert np.array_equal(_burst_total(power, self.N_BURST), want)
        detector = ClickDetector()
        floor = 10.0 ** (detector.silence_floor_db / 10.0) * self.N_BURST
        assert np.array_equal(_burst_reference(power, self.N_BURST, detector), np.maximum(want, floor))
        for row, expected in zip(power, want):  # one frame's medians, as event assembly passes them
            assert _burst_reference(row, self.N_BURST, detector) == max(expected, floor)
        if T > 1:  # the data tell the orders apart
            assert any(self.pairwise(row[: self.N_BURST]) != total for row, total in zip(power, want))

    def test_no_burst_column(self):
        power = np.ones((5, 3))
        assert np.array_equal(_burst_total(power, 0), np.zeros(5))
        floor = 10.0 ** (ClickDetector().silence_floor_db / 10.0)
        assert np.array_equal(_burst_reference(power, 0, ClickDetector()), np.full(5, floor))


class TestDetectEvents:
    def test_silence_is_empty(self):
        events = ClickDetector().predict(SampleBuffer(np.zeros(2 * RATE), RATE))
        assert events == []

    def test_click_in_pink_noise_single_detection(self):
        # +21 dB burst-band SNR: robustly classified at default thresholds
        # (verified over seeds 100..109 during bring-up)
        for seed in (100, 101, 102):
            cfg = SimConfig(sample_rate_hz=RATE, seed=seed, duration_s=12.0,
                            click_times_s=(5.0,), target_snr_db=21.0)
            mix, _ = mix_at_snr(synth_click(RATE, seed), pink_noise(cfg), cfg)
            events = ClickDetector().predict(mix)
            clicks = [e for e in events if e.label == "connection_click"]
            assert len(clicks) == 1
            assert abs(clicks[0].onset_s - 5.0) <= 0.025

    def test_moderate_snr_burst_detected_with_relaxed_gate(self):
        # a +10 dB injection cannot clear the default 12 dB onset gate
        # (peak elevation is 10*log10(1 + 10) ~= 10.4 dB); with the gate at
        # 8 dB the burst is found even though the tail stays uncertain
        cfg = SimConfig(sample_rate_hz=RATE, seed=103, duration_s=12.0,
                        click_times_s=(5.0,), target_snr_db=10.0)
        mix, _ = mix_at_snr(synth_click(RATE, 103), pink_noise(cfg), cfg)
        assert ClickDetector().predict(mix) == []
        relaxed = ClickDetector(onset_threshold_db=8.0)
        events = relaxed.predict(mix)
        assert any(abs(e.onset_s - 5.0) <= 0.025 for e in events)

    def test_burst_without_tail_is_other_transient(self, rng):
        # impulse-only transient: broadband 50 ms, no tail, ~18 dB over the bed
        noise = pink_noise(SimConfig(sample_rate_hz=RATE, seed=50, duration_s=10.0))
        x = 0.3 * noise.samples
        seg = rng.standard_normal(round(0.05 * RATE))
        seg *= 0.45 / np.abs(seg).max()
        i0 = 5 * RATE
        x[i0 : i0 + seg.size] += seg
        events = ClickDetector().predict(SampleBuffer(np.clip(x, -1, 1), RATE))
        near = [e for e in events if abs(e.onset_s - 5.0) <= 0.05]
        assert len(near) == 1
        assert near[0].label == "other_transient"
        assert near[0].tail_duration_s < 0.1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_label_is_the_tail_gate(self, seed):
        # A burst 5 dB over white noise, found with a 3 dB onset gate, then a
        # 0.15 s 1-6 kHz tail: the tail passes its gate, so the event is a
        # click although its score (peak SNR ~5.5 dB, ~0.14 s of tail) is under 0.5.
        rng = np.random.default_rng(seed)
        x = 0.01 * rng.standard_normal(6 * RATE)
        i0, n_burst, n_tail = 3 * RATE, round(0.05 * RATE), round(0.15 * RATE)
        x[i0 : i0 + n_burst] += 0.01 * 10 ** (5 / 20) * rng.standard_normal(n_burst)
        spectrum = np.fft.rfft(rng.standard_normal(n_tail))
        f = np.fft.rfftfreq(n_tail, 1 / RATE)
        spectrum[(f < 1000) | (f > 6000)] = 0
        tail = np.fft.irfft(spectrum, n_tail)
        x[i0 + n_burst : i0 + n_burst + n_tail] += 0.05 / np.sqrt(np.mean(tail**2)) * tail
        detector = ClickDetector(onset_threshold_db=3.0)
        [event] = detector.predict(SampleBuffer(x, RATE))
        assert detector.tail_min_s <= event.tail_duration_s <= detector.tail_max_s
        assert 0.3 < event.score < 0.5
        assert event.label == "connection_click"

    def test_injected_snr_measured_back(self):
        # detector's peak_snr_db vs the mixer's target, stationary noise
        for seed, target in ((104, 15.0), (105, 18.0)):
            cfg = SimConfig(sample_rate_hz=RATE, seed=seed, duration_s=12.0,
                            click_times_s=(5.0,), target_snr_db=target)
            mix, _ = mix_at_snr(synth_click(RATE, seed), pink_noise(cfg), cfg)
            events = ClickDetector().predict(mix)
            assert len(events) == 1
            assert events[0].peak_snr_db == pytest.approx(target, abs=2.0)

    def test_gain_invariance(self):
        cfg = SimConfig(sample_rate_hz=RATE, seed=401, duration_s=20.0, transient_rate_hz=0.5,
                        click_times_s=(5.0, 12.0), target_snr_db=9.0)
        mix, _ = mix_at_snr(synth_click(RATE, 401), factory_noise(cfg), cfg)
        # prescale so x10 stays within full scale
        prescale = 0.95 / (10.0 * float(np.abs(mix.samples).max()))
        base = SampleBuffer(prescale * mix.samples, RATE)
        detector = ClickDetector()
        reference = [(e.onset_s, e.label) for e in detector.predict(base)]
        assert reference
        for gain in (0.1, 10.0):
            scaled = SampleBuffer(gain * base.samples, RATE)
            assert [(e.onset_s, e.label) for e in detector.predict(scaled)] == reference

    def test_determinism(self):
        mix = click_in_silence(3)
        a = ClickDetector().predict(mix)
        b = ClickDetector().predict(mix)
        assert a == b

    def test_close_events_merged(self):
        # two clicks 0.3 s apart collapse to the higher-scoring one
        click = synth_click(RATE, 6)
        x = np.zeros(3 * RATE)
        for at in (1.0, 1.3):
            i0 = round(at * RATE)
            x[i0 : i0 + len(click)] += 0.5 * click.samples
        events = ClickDetector().predict(SampleBuffer(np.clip(x, -1, 1), RATE))
        assert len(events) == 1
        gaps_ok = all(
            b.onset_s - a.onset_s >= 0.5 for a, b in zip(events, events[1:])
        )
        assert gaps_ok

    def test_events_do_not_depend_on_the_band_power_workers(self, monkeypatch):
        cfg = SimConfig(sample_rate_hz=RATE, seed=29, duration_s=20.0, transient_rate_hz=8.0,
                        click_times_s=(3.0, 9.5, 16.0), target_snr_db=12.0)
        mix, _ = mix_at_snr(synth_click(RATE, 29), factory_noise(cfg), cfg)
        events = []
        for workers in (1, 2):
            monkeypatch.setattr(spectral, "_usable_cpus", lambda: workers)
            before = threading.active_count()
            events.append(ClickDetector().predict(mix))
            assert threading.active_count() == before  # no helper thread outlives the call
        assert events[0] and events[0] == events[1]

    def test_merged_onsets_never_closer_than_half_second(self):
        cfg = SimConfig(sample_rate_hz=RATE, seed=77, duration_s=30.0, transient_rate_hz=2.0)
        events = ClickDetector().predict(factory_noise(cfg))
        for a, b in zip(events, events[1:]):
            assert b.onset_s - a.onset_s >= 0.5

    def test_causality_under_truncation(self):
        cfg = SimConfig(sample_rate_hz=RATE, seed=411, duration_s=24.0, transient_rate_hz=0.5,
                        click_times_s=(5.0, 12.0, 20.0), target_snr_db=12.0)
        mix, _ = mix_at_snr(synth_click(RATE, 411), factory_noise(cfg), cfg)
        detector = ClickDetector()
        full = detector.predict(mix)
        cut_s = 18.0
        truncated = detector.predict(SampleBuffer(mix.samples[: round(cut_s * RATE)], RATE))
        horizon = cut_s - detector.tail_max_s
        early_full = [(e.onset_s, e.label) for e in full if e.onset_s < horizon]
        early_cut = [(e.onset_s, e.label) for e in truncated if e.onset_s < horizon]
        assert early_full == early_cut

    def test_rate_too_low_for_burst_band(self):
        with pytest.raises(ValueError, match="burst_low_hz"):
            ClickDetector().predict(SampleBuffer(np.zeros(2 * 16000), 16000))

    def test_tail_band_above_nyquist_rejected(self):
        detector = ClickDetector(tail_band_hz=(1000.0, 30000.0))
        with pytest.raises(ValueError):
            detector.predict(SampleBuffer(np.zeros(2 * RATE), RATE))

    def test_hop_coarser_than_burst_rejected(self):
        detector = ClickDetector(hop=1024, window_len=1024)
        with pytest.raises(ValueError, match="coarse"):
            detector.predict(SampleBuffer(np.zeros(2 * RATE), RATE))

    @pytest.mark.parametrize(
        "rate, n_samples, message",
        [
            # the spectrogram is built before any rate check
            (11025, 441, "buffer has 441 samples, shorter than one 1024-sample window"),
            (11025, 2 * 11025, "frame hop 0.0232 s too coarse to gate a 0.020 s burst"),
            (14000, 2 * 14000, "tail band (1000.0, 8000.0) extends above Nyquist (7000.0 Hz)"),
            (16000, 2 * 16000, "no band lies fully between burst_low_hz=8000.0 Hz and Nyquist"),
            (22050, 2 * 22050, "no band lies fully between burst_low_hz=8000.0 Hz and Nyquist"),
        ],
    )
    def test_front_end_errors_in_order(self, rate, n_samples, message):
        noise = 0.01 * np.random.default_rng(1).standard_normal(n_samples)
        with pytest.raises(ValueError) as info:
            ClickDetector().predict(SampleBuffer(noise, rate))
        assert str(info.value) == message

    def test_short_background_window_rejected(self):
        with pytest.raises(ValueError, match="at least 1.0 s"):
            ClickDetector(background_window_s=0.5)

    @pytest.mark.parametrize("window_s", [1e20, 1e300, 1e308])
    def test_background_window_beyond_the_recording(self, window_s):
        # Every window of the recording's frame count or more holds the same
        # frames. From about 5e16 s the count overflowed int64, and at 1e308
        # it was infinite: both raised an OverflowError.
        cfg = SimConfig(seed=5, duration_s=8.0, click_times_s=(3.0, 6.0), target_snr_db=18.0)
        mix, _ = mix_at_snr(synth_click(RATE, 5), factory_noise(cfg), cfg)
        whole = ClickDetector(background_window_s=8.0).predict(mix)
        assert [e.label for e in whole].count("connection_click") == 2
        assert ClickDetector(background_window_s=window_s).predict(mix) == whole

    @pytest.mark.parametrize("window_s", [0.0, -1.0, math.nan])
    def test_merge_window_checked(self, window_s):
        # A non-positive or NaN merge window used to return the events unmerged.
        with pytest.raises(ValueError, match="merge_window_s"):
            ClickDetector(merge_window_s=window_s)


EDGE_SEEDS = (1, 2, 3, 4)


@functools.lru_cache(maxsize=None)
def edge_noise(seed: int, duration_s: float):
    return factory_noise(SimConfig(seed=seed, duration_s=duration_s, transient_rate_hz=0.5))


def edge_mix(seed: int, at_s: float, clip_s: float = 10.0):
    """An 18 dB click at ``at_s`` in ``clip_s`` of factory noise with 0.5 Hz
    transients, plus its truth. A click that runs past the end is mixed into
    one more second of noise and cut back to ``clip_s``."""
    mixed_s = clip_s if at_s + CLICK_TOTAL_S <= clip_s else clip_s + 1.0
    cfg = SimConfig(seed=seed, duration_s=mixed_s, transient_rate_hz=0.5,
                    click_times_s=(at_s,), target_snr_db=18.0)
    mix, truth = mix_at_snr(synth_click(RATE, seed), edge_noise(seed, mixed_s), cfg)
    return SampleBuffer(mix.samples[: round(clip_s * RATE)], RATE), truth


class TestEdgePositions:
    """Clicks at the ends of a recording, where the corpus never puts them."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_click_inside_first_background_window(self, seed):
        mix, truth = edge_mix(seed, 0.3)
        assert match_detections(ClickDetector().predict(mix), truth).true_positives == 1

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_click_found_from_20_ms(self, seed):
        mix, truth = edge_mix(seed, 0.02)
        assert match_detections(ClickDetector().predict(mix), truth).true_positives == 1

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="the click falls inside frame 0, which is its own background, so the click seeds its background",
    )
    @pytest.mark.parametrize("at_s", [0.0, 0.005, 0.01])
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_click_at_the_first_frame(self, seed, at_s):
        mix, truth = edge_mix(seed, at_s)
        assert match_detections(ClickDetector().predict(mix), truth).true_positives == 1

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_tail_cut_short_by_the_end_still_a_click(self, seed):
        mix, truth = edge_mix(seed, 9.75)
        events = ClickDetector().predict(mix)
        assert match_detections(events, truth).true_positives == 1
        (click,) = [e for e in events if e.label == "connection_click" and e.onset_s > 9.5]
        assert click.tail_duration_s == pytest.approx(0.17, abs=0.01)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_tail_cut_below_tail_min_is_a_transient(self, seed):
        mix, truth = edge_mix(seed, 9.85)
        events = ClickDetector().predict(mix)
        assert match_detections(events, truth).true_positives == 0
        (near,) = [e for e in events if abs(e.onset_s - 9.85) <= 0.05]
        assert near.label == "other_transient"
        assert 0.06 <= near.tail_duration_s < ClickDetector.tail_min_s


def level_step_mix(seed: int, hiss_from_s: float):
    """An 18 dB click at 10 s in 16 s of factory noise, plus white hiss of
    0.01 RMS from ``hiss_from_s`` on, and the click's truth."""
    cfg = SimConfig(seed=seed, duration_s=16.0, click_times_s=(10.0,), target_snr_db=18.0)
    mix, truth = mix_at_snr(synth_click(RATE, seed), factory_noise(cfg), cfg)
    x = mix.samples.copy()
    i0 = round(hiss_from_s * RATE)
    x[i0:] += 0.01 * np.random.default_rng(seed).standard_normal(len(x) - i0)
    return SampleBuffer(np.clip(x, -1.0, 1.0), RATE), truth


class TestLevelStep:
    """A sustained step up in the noise floor, which the corpus never has."""

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="frames after the step clear the gates against the pre-step background, so none is "
        "clean and the background never catches up: the rest of the recording is one burst run",
    )
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_click_after_the_floor_steps_up(self, seed):
        mix, truth = level_step_mix(seed, 4.0)
        assert match_detections(ClickDetector().predict(mix), truth).true_positives == 1

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_click_in_a_floor_that_was_always_high(self, seed):
        mix, truth = level_step_mix(seed, 0.0)
        assert match_detections(ClickDetector().predict(mix), truth).true_positives == 1


#: Chunk sizes, in frames, given the background window in frames.
CHUNKED = (lambda win: 1, lambda win: win - 1, lambda win: win, lambda win: win + 1, lambda win: 3 * win + 7)


def chunk_mix(rate: int):
    """14 s of factory noise at ``rate`` with 18 dB clicks and a 5.5 s loud
    stretch of 1.5-6 kHz hiss, which flags tail frames from 7 s on. Returns
    the mix, the background window in frames, the frames at which clicks
    start, and the stretch's first and last frame.

    A click starts at a chunk boundary of each chunk size of ``CHUNKED`` but
    the first, about 2, 4, 6 and 12 s in, so its burst run and tail cross
    it. The last sits in the stretch, where its window holds no clean frame
    and its reference is the row of a frame older than any the pass holds."""
    hop = ClickDetector().hop
    win = round(ClickDetector().background_window_s / (hop / rate))
    starts = [k * size(win) for k, size in zip((1, 2, 3, 2), CHUNKED[1:])]
    cfg = SimConfig(sample_rate_hz=rate, seed=rate % 97, duration_s=14.0, transient_rate_hz=2.0,
                    click_times_s=tuple(b * hop / rate for b in starts), target_snr_db=18.0)
    mix, _ = mix_at_snr(synth_click(rate, 3), factory_noise(cfg), cfg)
    x = mix.samples.copy()
    i0, i1 = round(7.0 * rate), round(12.5 * rate)
    spectrum = np.fft.rfft(np.random.default_rng(rate).standard_normal(i1 - i0))
    f = np.fft.rfftfreq(i1 - i0, 1.0 / rate)
    spectrum[(f < 1500.0) | (f > 6000.0)] = 0.0
    hiss = np.fft.irfft(spectrum, i1 - i0)
    x[i0:i1] += 0.1 * hiss / np.sqrt(np.mean(hiss**2))
    return SampleBuffer(np.clip(x, -1.0, 1.0), rate), win, starts, (i0 // hop, i1 // hop)


class TestChunkedDetection:
    """The band powers reach the background pass one chunk of frames at a time."""

    @pytest.mark.parametrize("rate", [44100, RATE, 96000])
    def test_events_do_not_depend_on_the_chunk_size(self, monkeypatch, rate):
        mix, win, starts, (s0, s1) = chunk_mix(rate)
        detector = ClickDetector()
        hop, window_len = detector.hop, detector.window_len
        want = detector.predict(mix)
        assert want
        for size in CHUNKED:
            chunk = size(win)
            monkeypatch.setattr(detector_module, "_CHUNK_FRAMES", chunk)
            assert detector.predict(mix) == want, f"chunks of {chunk} frames"
            # Some kept burst run and its tail cross a boundary, and so does the stretch.
            crossing = False
            for e in want:
                first = round((e.onset_s * rate - window_len + hop) / hop)
                burst, tail = (round((d * rate - hop + window_len) / hop) if d else 0
                               for d in (e.burst_duration_s, e.tail_duration_s))
                crossing |= tail > 0 and first // chunk != (first + burst + tail - 1) // chunk
            assert crossing and s0 // chunk != s1 // chunk, f"chunks of {chunk} frames"
        # The click in the stretch is found, against the carried background.
        assert any(abs(e.onset_s - starts[-1] * hop / rate) < 0.05 for e in want)

    def test_a_runs_peak_is_carried_across_chunks(self, monkeypatch):
        # A kept burst run whose loudest frame lies in a middle chunk: neither
        # the chunk where the run starts nor the one where it ends holds it.
        cfg = SimConfig(sample_rate_hz=RATE, seed=0, duration_s=6.0, transient_rate_hz=0.0,
                        click_times_s=(3.0,), target_snr_db=18.0)
        mix, _ = mix_at_snr(synth_click(RATE, 0), factory_noise(cfg), cfg)
        detector = ClickDetector()
        hop, window_len = detector.hop, detector.window_len
        want = detector.predict(mix)
        [event] = want
        with _gated_band_power(mix, detector) as (_, n_burst, chunks):
            totals = np.concatenate([_burst_total(power, n_burst) for power in chunks])
        first = round((event.onset_s * RATE - window_len + hop) / hop)
        stop = first + round((event.burst_duration_s * RATE - hop + window_len) / hop)
        peak = totals[first:stop].max()
        loudest = first + int(np.argmax(totals[first:stop]))
        sizes = []
        for chunk in range(1, stop - first):
            lo, hi = loudest // chunk * chunk, (loudest // chunk + 1) * chunk  # the loudest frame's chunk
            if first < lo and hi < stop:
                assert totals[first:lo].max() < peak > totals[hi:stop].max()
                monkeypatch.setattr(detector_module, "_CHUNK_FRAMES", chunk)
                assert detector.predict(mix) == want, f"chunks of {chunk} frames"
                sizes.append(chunk)
        assert len(sizes) >= 2, sizes

    def predict_on_two_cpus(self, monkeypatch, buffer):
        """``predict(buffer)`` with a band-power helper and 1,024-frame chunks,
        on a thread joined with a timeout: what it raised, or None."""
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(detector_module, "_CHUNK_FRAMES", 1024)
        raised = []

        def run():
            try:
                ClickDetector().predict(buffer)
            except Exception as exc:
                raised.append(exc)

        before = threading.active_count()
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "predict hung"
        assert threading.active_count() == before  # no helper thread outlives it
        return raised[0] if raised else None

    def test_no_thread_outlives_a_failed_pass(self, monkeypatch):
        feed = _BackgroundPass.feed
        chunks = []

        def fail_on_the_second_chunk(self, power):
            chunks.append(len(power))
            if len(chunks) == 2:
                raise ArithmeticError("second chunk")
            feed(self, power)

        monkeypatch.setattr(_BackgroundPass, "feed", fail_on_the_second_chunk)
        noise = SampleBuffer(0.05 * np.random.default_rng(3).standard_normal(20 * RATE), RATE)
        error = self.predict_on_two_cpus(monkeypatch, noise)
        assert isinstance(error, ArithmeticError) and str(error) == "second chunk"

    def test_no_thread_outlives_a_helpers_error(self, monkeypatch):
        # A pool thread fails on a block it computes once the pass has
        # begun; the error reaches predict. The thread that called predict
        # asks for each chunk and computes its blocks slowly, so the helper
        # takes blocks once its pass is done.
        onesided_power, feed = spectral._onesided_power, _BackgroundPass.feed
        chunk_powers = detector_module.frame_band_powers
        callers, fed, failed = set(), [], []

        def note_the_caller(*args, **kwargs):
            callers.add(threading.get_ident())
            return chunk_powers(*args, **kwargs)

        def note_the_pass(self, power):
            fed.append(len(power))
            feed(self, power)

        def fail_off_the_caller_once_fed(frames, *args, **kwargs):
            if threading.get_ident() in callers:
                time.sleep(0.005)
            elif fed:
                failed.append(len(fed))
                raise ArithmeticError("helper block")
            return onesided_power(frames, *args, **kwargs)

        monkeypatch.setattr(detector_module, "frame_band_powers", note_the_caller)
        monkeypatch.setattr(_BackgroundPass, "feed", note_the_pass)
        monkeypatch.setattr(spectral, "_onesided_power", fail_off_the_caller_once_fed)
        noise = SampleBuffer(0.05 * np.random.default_rng(4).standard_normal(20 * RATE), RATE)
        error = self.predict_on_two_cpus(monkeypatch, noise)
        assert isinstance(error, ArithmeticError) and str(error) == "helper block"
        assert failed  # raised on a pool thread, after the pass began

    def test_run_ahead_stays_bounded(self, monkeypatch):
        # A slow pass: the band powers run at most one chunk beyond the one
        # being fed, and they do run ahead.
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        chunk = 1024
        monkeypatch.setattr(detector_module, "_CHUNK_FRAMES", chunk)
        onesided_power, feed = spectral._onesided_power, _BackgroundPass.feed
        lock = threading.Lock()
        computed, ahead = [0], []

        def count_rows(frames, *args, **kwargs):
            with lock:
                computed[0] += len(frames)
            return onesided_power(frames, *args, **kwargs)

        def slow_feed(self, power):
            time.sleep(0.02)
            with lock:
                ahead.append(computed[0] - (self.fed + len(power)))
            feed(self, power)

        monkeypatch.setattr(spectral, "_onesided_power", count_rows)
        monkeypatch.setattr(_BackgroundPass, "feed", slow_feed)
        noise = SampleBuffer(0.05 * np.random.default_rng(5).standard_normal(20 * RATE), RATE)
        ClickDetector().predict(noise)
        assert len(ahead) == 4
        assert max(ahead) <= chunk, ahead
        assert max(ahead) > 0, ahead

    def test_no_band_power_buffer_outlives_its_pool(self):
        # Every band-power worker keeps two buffers, about 2.1 MB at
        # window_len 1024. They go with the pool, also on the thread that
        # called predict, which stays alive here.
        noise = SampleBuffer(0.05 * np.random.default_rng(13).standard_normal(30 * RATE), RATE)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ClickDetector().predict(noise)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1e6, grown

    def test_memory_does_not_grow_with_the_recording(self):
        # The pass keeps 2 bytes a frame, 0.05 MB per 120 s at 48 kHz; the
        # whole matrix of gated band powers took 112 bytes a frame more.
        noise = 0.05 * np.random.default_rng(12).standard_normal(240 * RATE, dtype=np.float32)
        peaks = []
        for seconds in (120, 240):
            buf = SampleBuffer(noise[: seconds * RATE], RATE)
            tracemalloc.start()
            try:
                ClickDetector().predict(buf)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1e6, peaks

    def test_memory_grows_by_at_most_a_few_bytes_a_frame(self):
        # The pass keeps the burst and tail masks, 2 bytes a frame, and a
        # reference and peak per burst run; each frame's summed burst-band
        # power, 8 bytes more, lives only while its chunk is settled.
        noise = np.random.default_rng(13).standard_normal(480 * RATE, dtype=np.float32)
        noise *= 0.05
        # Warmed up first: numpy's one-time set-up would count in the first
        # peak only, about 0.13 MB, and hide 2 bytes a frame.
        ClickDetector().predict(SampleBuffer(noise[: 2 * RATE], RATE))
        peaks, frames = [], []
        for seconds in (120, 480):
            buf = SampleBuffer(noise[: seconds * RATE], RATE)
            frames.append(stft(buf, ClickDetector().window_len, ClickDetector().hop).n_frames)
            tracemalloc.start()
            try:
                ClickDetector().predict(buf)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (frames[1] - frames[0]) < 4.0, (peaks, frames)


class TestDetectionEvent:
    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            DetectionEvent(1.0, 0.05, 0.3, 10.0, 1.5, "connection_click")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
    @pytest.mark.parametrize("index, name", [(0, "onset_s"), (1, "burst_duration_s"), (2, "tail_duration_s")])
    def test_times_must_be_finite_and_non_negative(self, index, name, value):
        # A NaN onset used to match any truth time.
        fields = [50.0, 0.05, 0.3, 15.0, 0.9, "connection_click"]
        fields[index] = value
        with pytest.raises(ValueError, match=name):
            DetectionEvent(*fields)

    @pytest.mark.parametrize("peak_snr_db", [math.inf, -math.inf])
    def test_infinite_snr_is_a_sentinel(self, peak_snr_db):
        event = DetectionEvent(1.0, 0.05, 0.3, peak_snr_db, 0.9, "connection_click")
        assert event.to_json_dict()["snr_db"] == peak_snr_db

    def test_json_dict_wire_names(self):
        event = DetectionEvent(1.25, 0.05, 0.3, 14.5, 0.9, "connection_click")
        d = event.to_json_dict()
        assert set(d) == {"onset_s", "burst_s", "tail_s", "snr_db", "score", "label"}


class TestClickDetectorEstimator:
    def test_frozen_value_replace_round_trips_and_unknown_keyword_raises(self):
        detector = ClickDetector(onset_threshold_db=10.0, hop=128)
        with pytest.raises(dataclasses.FrozenInstanceError):
            detector.hop = 64
        variant = dataclasses.replace(detector, tail_threshold_db=4.0)
        assert variant.tail_threshold_db == 4.0 and detector.tail_threshold_db == 6.0
        assert dataclasses.replace(variant, tail_threshold_db=6.0) == detector
        with pytest.raises(TypeError, match="nonsense"):
            ClickDetector(nonsense=1)

    def test_numpy_integer_window_predicts(self):
        buf = click_in_silence(5)
        detector = ClickDetector(window_len=np.int64(512), hop=np.int64(128))
        assert detector.predict(buf) == ClickDetector(window_len=512, hop=128).predict(buf)

    def test_predict_never_builds_the_power_matrix(self, rng):
        buf = SampleBuffer(0.05 * rng.standard_normal(120 * RATE), RATE)
        spec = stft(buf, 1024, 256)
        power_bytes = spec.n_frames * spec.n_bins * 8  # 92 MB
        tracemalloc.start()
        try:
            ClickDetector().predict(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < power_bytes / 4
