import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer
from clickdetect.detector import (
    ClickDetector,
    ClickSignature,
    DetectionEvent,
    _background_and_flags,
    _FrontEnd,
    detect_events,
    snr_db,
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


class TestSnrDb:
    def test_equal_powers_is_zero(self):
        assert snr_db(1e-4, 1e-4) == 0.0

    def test_hundredfold_is_twenty(self):
        assert snr_db(100 * 3e-6, 3e-6) == pytest.approx(20.0, abs=1e-12)

    def test_zero_background_sentinel(self):
        assert snr_db(1.0, 0.0) == math.inf
        assert snr_db(0.0, 0.0) == -math.inf

    def test_zero_event(self):
        assert snr_db(0.0, 1.0) == -math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            snr_db(-1.0, 1.0)


class TestClickSignature:
    def test_defaults_valid(self):
        sig = ClickSignature()
        assert sig.burst_low_hz == 8000.0
        assert sig.tail_band_hz == (1000.0, 8000.0)

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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ClickSignature(**kwargs)


def background(spec, bands):
    """The detector's background pass run over every band, not only the gated
    ones; its burst and tail bands still flag the frames it leaves out."""
    sig = ClickSignature()
    nyquist = spec.sample_rate_hz / 2.0
    burst = [i for i, b in enumerate(bands) if b.lower_hz >= sig.burst_low_hz and b.upper_hz <= nyquist]
    lo, hi = sig.tail_band_hz
    tail = [i for i, b in enumerate(bands) if lo <= b.center_hz <= hi and b.upper_hz <= nyquist and i not in burst]
    win = max(2, round(_FrontEnd.background_window_s / spec.frame_hop_s))
    return _background_and_flags(frame_band_powers(spec, bands), burst, tail, sig, win)[0]


class TestEstimateBackground:
    def test_silence_background_zero(self):
        spec = stft(SampleBuffer(np.zeros(3 * RATE), RATE))
        bands = third_octave_bands(100, RATE / 2)
        assert not background(spec, bands).any()

    def test_stationary_white_tracks_band_mean(self, rng):
        x = SampleBuffer(0.0125 * rng.standard_normal(6 * RATE), RATE)
        spec = stft(x)
        bands = [b for b in third_octave_bands(100, RATE / 2) if b.upper_hz <= RATE / 2]
        powers = frame_band_powers(spec, bands)
        start = round(1.0 / spec.frame_hop_s)
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
        bg_clean = background(stft(SampleBuffer(base, RATE)), bands)
        bg_hit = background(stft(SampleBuffer(base + burst, RATE)), bands)
        hop_s = 256 / RATE
        t0, t1 = round(3.2 / hop_s), round(4.8 / hop_s)
        shift = 10 * np.log10(bg_hit[t0:t1][:, picked] / bg_clean[t0:t1][:, picked])
        assert np.abs(shift).max() < 0.5


def reference_background_and_flags(band_power, burst_cols, tail_cols, sig, win):
    """Brute force: np.median over each frame's clean trailing rows.

    Also returns how many frames saw an empty, an even and an odd clean window,
    and how many sat exactly on a gate's threshold.
    """
    T = len(band_power)
    onset_ratio = 10.0 ** (sig.onset_threshold_db / 10.0)
    tail_ratio = 10.0 ** (sig.tail_threshold_db / 10.0)
    floor = 10.0 ** (sig.silence_floor_db / 10.0)
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


class TestBackgroundPass:
    def test_matches_brute_force_median(self):
        rng = np.random.default_rng(2024)
        # Power ratios of exactly 16 and 4 let integer levels land on a threshold.
        exact = ClickSignature(onset_threshold_db=12.041199826559248, tail_threshold_db=6.020599913279624)
        seen = {"empty": 0, "even": 0, "odd": 0, "tie": 0}
        short = 0
        for case in range(240):
            sig = exact if case % 2 else ClickSignature()
            win = int(rng.integers(2, 41))
            T = int(rng.integers(1, 3 * win + 2))
            short += T < win
            n_bands = int(rng.integers(1, 7))
            # few distinct power-of-two levels, zeros included: ties everywhere
            levels = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
            band_power = levels[rng.integers(0, levels.size, size=(T, n_bands))] * rng.choice([1e-6, 1.0])
            for _ in range(int(rng.integers(0, 4))):
                # loud stretches, some longer than the window, flag every frame
                start = int(rng.integers(0, T))
                band_power[start : start + int(rng.integers(1, 2 * win))] *= 1e4
            cols = rng.permutation(n_bands).tolist()
            split = int(rng.integers(0, min(n_bands, 4) + 1))
            burst_cols, tail_cols = sorted(cols[:split]), sorted(cols[split:])

            got = _background_and_flags(band_power, burst_cols, tail_cols, sig, win)
            want, case_seen = reference_background_and_flags(band_power, burst_cols, tail_cols, sig, win)
            for name, a, b in zip(("bg", "burst", "tail"), got, want):
                assert np.array_equal(a, b), f"case {case}: {name} differs (T={T}, win={win})"
            for key in seen:
                seen[key] += case_seen[key]
        assert short and all(seen.values()), (short, seen)


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

    def test_short_background_window_rejected(self):
        spec = stft(SampleBuffer(np.zeros(3 * RATE), RATE))
        bands = ClickDetector().bands_for(RATE)
        with pytest.raises(ValueError, match="at least 1.0 s"):
            detect_events(spec, ClickSignature(), bands, background_window_s=0.5)

    @pytest.mark.parametrize("window_s", [0.0, -1.0, math.nan])
    def test_merge_window_checked(self, window_s):
        # A non-positive or NaN merge window used to return the events unmerged.
        spec = stft(SampleBuffer(np.zeros(3 * RATE), RATE))
        bands = ClickDetector().bands_for(RATE)
        with pytest.raises(ValueError, match="merge_window_s"):
            detect_events(spec, ClickSignature(), bands, merge_window_s=window_s)


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
        assert 0.06 <= near.tail_duration_s < ClickSignature.tail_min_s


class TestDetectionEvent:
    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            DetectionEvent(1.0, 0.05, 0.3, 10.0, 1.5, "connection_click")

    def test_json_dict_wire_names(self):
        event = DetectionEvent(1.25, 0.05, 0.3, 14.5, 0.9, "connection_click")
        d = event.to_json_dict()
        assert set(d) == {"onset_s", "burst_s", "tail_s", "snr_db", "score", "label"}


class TestClickDetectorEstimator:
    def test_get_params_round_trips_through_init(self):
        detector = ClickDetector(onset_threshold_db=10.0, hop=128)
        clone = ClickDetector(**detector.get_params())
        assert clone.get_params() == detector.get_params()

    def test_set_params_chains_and_rejects_unknown(self):
        detector = ClickDetector()
        assert detector.set_params(tail_threshold_db=4.0) is detector
        assert detector.tail_threshold_db == 4.0
        with pytest.raises(ValueError, match="unknown parameter"):
            detector.set_params(nonsense=1)
        with pytest.raises(ValueError, match="unknown parameter"):
            ClickDetector(nonsense=1)

    def test_params_are_the_dataclass_fields(self):
        params = ClickDetector().get_params()
        fields = dataclasses.fields(ClickSignature) + dataclasses.fields(_FrontEnd)
        assert list(params) == [f.name for f in fields]
        assert all(params[f.name] == f.default for f in fields)

    def test_fit_is_stateless_and_validates(self):
        detector = ClickDetector()
        assert detector.fit() is detector
        bad_params = (
            {"burst_min_s": 0.5, "burst_max_s": 0.1},
            {"background_window_s": 0.5},
            {"merge_window_s": 0.0},
            {"window_len": 512.0},
            {"hop": 128.5},
            {"hop": True},
            {"tail_band_hz": 8000.0},
            {"tail_band_hz": (1000.0, 4000.0, 8000.0)},
            {"background_window_s": math.nan},
            {"background_window_s": math.inf},
            {"merge_window_s": math.nan},
            {"band_min_hz": math.nan},
        )
        for bad in bad_params:
            with pytest.raises(ValueError, match=next(iter(bad)) if len(bad) == 1 else None):
                ClickDetector(**bad).fit()

    def test_numpy_integer_window_predicts(self):
        buf = click_in_silence(5)
        detector = ClickDetector(window_len=np.int64(512), hop=np.int64(128))
        assert detector.predict(buf) == ClickDetector(window_len=512, hop=128).predict(buf)

    def test_predict_never_builds_the_power_matrix(self, rng):
        buf = SampleBuffer(0.05 * rng.standard_normal(120 * RATE), RATE)
        spec = stft(buf)
        power_bytes = spec.n_frames * spec.n_bins * 8  # 92 MB
        tracemalloc.start()
        try:
            ClickDetector().predict(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < power_bytes / 4

    def test_detect_aliases_predict(self):
        buf = click_in_silence(4)
        detector = ClickDetector()
        assert detector.detect(buf) == detector.predict(buf)
