import json
import math

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer, read_wav
from clickdetect.soundscape import (
    GroundTruth,
    SimConfig,
    _off_axis_attenuation_db,
    apply_shroud,
    factory_noise,
    generate_corpus,
    mix_at_snr,
    pink_noise,
    read_truth_csv,
    spaced_click_times,
    synth_click,
    write_truth_csv,
)
from clickdetect.spectral import band_powers, frame_band_powers, stft, third_octave_bands

from conftest import RATE


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            SimConfig(transient_rate_hz=-1.0)
        with pytest.raises(ValueError):
            SimConfig(duration_s=10.0, click_times_s=(11.0,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": math.nan},
            {"duration_s": math.inf},
            {"transient_rate_hz": math.nan},
            {"target_snr_db": math.nan},
            {"target_snr_db": 4000.0},  # power overflows
            {"target_snr_db": -5000.0},  # power underflows to 0
        ],
    )
    def test_non_finite_rejected_by_name(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("duration_s", [1e308, 1e-9, 3e-5])
    def test_duration_must_give_two_samples(self, duration_s):
        # 1e308 s of samples overflowed round(), and fewer than two samples
        # divided by zero in the generators.
        with pytest.raises(ValueError, match="duration_s"):
            SimConfig(duration_s=duration_s)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_samples_are_enough(self, n):
        cfg = SimConfig(duration_s=n / RATE)
        for generate in (pink_noise, factory_noise):
            samples = generate(cfg).samples
            assert len(samples) == n and np.isfinite(samples).all()


class TestGroundTruth:
    def test_rejects_unsorted_or_crowded(self):
        with pytest.raises(ValueError):
            GroundTruth((5.0, 2.0))
        with pytest.raises(ValueError):
            GroundTruth((2.0, 2.3))

    @pytest.mark.parametrize(
        "times", [(math.nan,), (math.inf,), (1.0, math.nan), (math.nan, 1.0), (1.0, -math.inf)]
    )
    def test_rejects_non_finite_times(self, times):
        # A NaN time used to pass, and then matched any detection.
        with pytest.raises(ValueError, match="finite"):
            GroundTruth(times)

    def test_csv_round_trip(self, tmp_path):
        truth = GroundTruth((1.5, 4.25))
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, path)
        assert path.read_text() == "time_s,label\n1.500000,connection_click\n4.250000,connection_click\n"
        back = read_truth_csv(path)
        assert back.times == (1.5, 4.25)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,what\n1.0,x\n")
        with pytest.raises(ValueError, match="header"):
            read_truth_csv(path)

    def test_csv_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_bytes(b"time_s,label\n1.0,connection_click\xff\n")
        with pytest.raises(ValueError, match="truth.csv: 'utf-8' codec can't decode"):
            read_truth_csv(path)

    def test_csv_crowded_times_name_the_file(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("time_s,label\n1.0,connection_click\n1.2,connection_click\n")
        with pytest.raises(ValueError, match="truth.csv: ground-truth times must be ascending"):
            read_truth_csv(path)

    @pytest.mark.parametrize(
        "row, why",
        [
            ("nan,connection_click", "finite"),
            ("-inf,connection_click", "finite"),
            ("abc,connection_click", "could not convert"),
            ("7.0", "not enough values"),
            ("7.0,connection_click,extra", "too many values"),
            # every truth row is a click to find, so no other label may pass as one
            ("5.0,frobnicate", "label must be 'connection_click', got 'frobnicate'"),
            ("5.0,other_transient", "label must be 'connection_click'"),
        ],
    )
    def test_csv_bad_row_names_file_and_line(self, tmp_path, row, why):
        path = tmp_path / "truth.csv"
        path.write_text(f"time_s,label\n1.0,connection_click\n{row}\n")
        with pytest.raises(ValueError, match=f"truth.csv:3: .*{why}"):
            read_truth_csv(path)


class TestPinkNoise:
    def test_deterministic_per_seed(self):
        cfg = SimConfig(seed=9, duration_s=2.0)
        a = pink_noise(cfg)
        b = pink_noise(cfg)
        assert (a.samples == b.samples).all()

    def test_distinct_seeds_decorrelated(self):
        a = pink_noise(SimConfig(seed=1, duration_s=2.0)).samples
        b = pink_noise(SimConfig(seed=2, duration_s=2.0)).samples
        xcorr = np.correlate(a, b, mode="full")
        peak = np.abs(xcorr).max() / (np.linalg.norm(a) * np.linalg.norm(b))
        assert peak < 0.1

    def test_rms_is_tenth_full_scale(self):
        buf = pink_noise(SimConfig(seed=3, duration_s=4.0))
        assert math.sqrt(float(np.mean(buf.samples**2))) == pytest.approx(0.1, abs=1e-12)

    def test_psd_slope_near_minus_ten_db_per_decade(self):
        buf = pink_noise(SimConfig(seed=4, duration_s=16.0))
        x = buf.samples
        n = x.size
        psd = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.arange(psd.size) * (RATE / n)
        # average the periodogram in log-spaced bins, fit dB vs log10(f)
        edges = np.logspace(math.log10(40), math.log10(10000), 25)
        levels, centers = [], []
        for lo, hi in zip(edges, edges[1:]):
            mask = (freqs >= lo) & (freqs < hi)
            levels.append(10 * math.log10(psd[mask].mean()))
            centers.append(math.log10(math.sqrt(lo * hi)))
        slope = np.polyfit(centers, levels, 1)[0]
        assert slope == pytest.approx(-10.0, abs=1.5)

    def test_band_profile_flat(self):
        buf = pink_noise(SimConfig(seed=5, duration_s=16.0))
        profile = band_powers(buf, third_octave_bands(20, 20000))
        ys = [db for b, db in zip(profile.bands, profile.power_db) if 100 <= b.center_hz <= 10000]
        mid = (max(ys) + min(ys)) / 2
        assert all(abs(y - mid) <= 1.5 for y in ys)


class TestFactoryNoise:
    def test_deterministic(self):
        cfg = SimConfig(seed=6, duration_s=3.0)
        assert (factory_noise(cfg).samples == factory_noise(cfg).samples).all()

    def test_floor_rolls_off_above_8k(self):
        cfg = SimConfig(seed=7, duration_s=8.0, transient_rate_hz=0.0)
        profile = band_powers(factory_noise(cfg), third_octave_bands(100, 20000))
        by_center = {b.center_hz: db for b, db in zip(profile.bands, profile.power_db)}
        ref = by_center[1000.0]
        above = [db for b, db in zip(profile.bands, profile.power_db) if b.lower_hz >= 8000]
        assert above and all(ref - db >= 20.0 for db in above)

    def test_poisson_transient_count(self):
        # Counted in the audio: the floor lies 36 dB/octave down above 5 kHz, so
        # 10-20 kHz holds only the broadband transients. Each is a run of frames
        # above 100x the median; overlapping transients count once.
        counts = []
        for seed in range(10):
            cfg = SimConfig(seed=seed, duration_s=60.0, transient_rate_hz=0.5)
            spec = stft(factory_noise(cfg), 1024, 256)
            power = frame_band_powers(spec, third_octave_bands(10000, 20000)).sum(axis=1)
            above = np.concatenate(([0], power > 100.0 * np.median(power), [0])).astype(np.int8)
            counts.append(np.count_nonzero(np.diff(above) == 1))
        assert abs(np.mean(counts) - 30.0) <= 10.0

    def test_samples_within_full_scale(self):
        cfg = SimConfig(seed=8, duration_s=20.0, transient_rate_hz=2.0)
        buf = factory_noise(cfg)
        assert float(np.abs(buf.samples).max()) <= 1.0


class TestSynthClick:
    def test_deterministic_and_peak(self):
        a = synth_click(RATE, 11)
        b = synth_click(RATE, 11)
        assert (a.samples == b.samples).all()
        assert float(np.abs(a.samples).max()) == pytest.approx(0.5, abs=1e-12)
        assert a.duration_s == pytest.approx(0.40, abs=1e-6)

    def test_burst_duration_via_detector_gating(self):
        from clickdetect.detector import ClickDetector

        for seed in (0, 1, 2):
            click = synth_click(RATE, seed)
            x = np.zeros(2 * RATE)
            x[RATE : RATE + len(click)] = click.samples
            events = ClickDetector().predict(SampleBuffer(x, RATE))
            assert len(events) == 1
            assert events[0].burst_duration_s == pytest.approx(0.050, abs=0.010)

    def test_tail_band_dominates_out_of_band(self):
        click = synth_click(RATE, 3)
        tail = SampleBuffer(click.samples[round(0.1 * RATE) : round(0.3 * RATE)].copy(), RATE)
        # pad to satisfy the 1 s periodogram precondition without adding energy
        padded = SampleBuffer(np.concatenate([tail.samples, np.zeros(RATE)]), RATE)
        profile = band_powers(padded, third_octave_bands(100, 20000))
        in_band = [
            10 ** (db / 10)
            for b, db in zip(profile.bands, profile.power_db)
            if 1000 <= b.lower_hz and b.upper_hz <= 8000
        ]
        out_band = [
            10 ** (db / 10)
            for b, db in zip(profile.bands, profile.power_db)
            if b.upper_hz <= 1000 or b.lower_hz >= 8000
        ]
        ratio_db = 10 * math.log10(sum(in_band) / sum(out_band))
        assert ratio_db >= 15.0

    def test_rate_floor(self):
        with pytest.raises(ValueError):
            synth_click(8000, 0)


class TestMixAtSnr:
    def test_no_injections_returns_noise_exactly(self):
        cfg = SimConfig(seed=12, duration_s=4.0, click_times_s=())
        noise = pink_noise(cfg)
        mixed, truth = mix_at_snr(synth_click(RATE, 12), noise, cfg)
        assert (mixed.samples == noise.samples).all()
        assert truth.times == ()

    def test_noise_conserved_outside_injection_windows(self):
        cfg = SimConfig(seed=13, duration_s=12.0, click_times_s=(3.0, 8.0), target_snr_db=12.0)
        noise = pink_noise(cfg)
        mixed, truth = mix_at_snr(synth_click(RATE, 13), noise, cfg)
        assert truth.times == (3.0, 8.0)
        protected = np.ones(len(noise), dtype=bool)
        for t in truth.times:
            i0 = round(t * RATE)
            protected[i0 : i0 + round(0.4 * RATE)] = False
        assert (mixed.samples[protected] == noise.samples[protected]).all()

    # Each rate has its own burst bands; the 48 kHz ids leave the rate out so they stay stable.
    @pytest.mark.parametrize(
        "rate,target,tol",
        [
            pytest.param(rate, target, tol, id=f"{target}-{tol}" if rate == RATE else f"{rate}-{target}-{tol}")
            for rate in (RATE, 44100, 96000)
            for target, tol in ((0.0, 1.0), (10.0, 2.0))
        ],
    )
    def test_measured_snr_matches_target(self, rate, target, tol):
        # oracle: the detector's burst-band power of the mix vs the noise's average
        from clickdetect.detector import ClickDetector, _gated_band_power

        detector = ClickDetector()

        def burst_track(buffer):
            with _gated_band_power(buffer, detector) as (_, n_burst, chunks):
                return np.concatenate([power[:, :n_burst].sum(axis=1) for power in chunks])

        cfg = SimConfig(sample_rate_hz=rate, seed=14, duration_s=8.0, click_times_s=(4.0,), target_snr_db=target)
        noise = pink_noise(cfg)
        mixed, _ = mix_at_snr(synth_click(rate, 14), noise, cfg)
        track = burst_track(mixed)
        ref = burst_track(noise).mean()
        hop_s = detector.hop / rate
        peak = track[round(3.95 / hop_s) : round(4.15 / hop_s)].max()
        measured = 10.0 * math.log10((peak - ref) / ref)
        assert measured == pytest.approx(target, abs=tol)

    def test_mismatched_rates_rejected(self):
        cfg = SimConfig(seed=15, duration_s=2.0, click_times_s=(0.5,))
        noise = pink_noise(cfg)
        with pytest.raises(ValueError, match="rates differ"):
            mix_at_snr(synth_click(24000, 15), noise, cfg)

    def test_overrun_rejected(self):
        cfg = SimConfig(seed=16, duration_s=2.0, click_times_s=(1.9,))
        noise = pink_noise(cfg)
        with pytest.raises(ValueError, match="overruns"):
            mix_at_snr(synth_click(RATE, 16), noise, cfg)

    def test_clipping_clamps_the_mix(self):
        cfg = SimConfig(seed=17, duration_s=4.0, click_times_s=(2.0,), target_snr_db=60.0)
        noise = pink_noise(cfg)
        mixed, truth = mix_at_snr(synth_click(RATE, 17), noise, cfg)
        assert truth.times == (2.0,)
        assert float(np.abs(mixed.samples).max()) == 1.0  # clamped at full scale


class TestShroud:
    def test_depth_zero_off_axis_is_identity(self):
        cfg = SimConfig(seed=18, duration_s=2.0)
        noise = pink_noise(cfg)
        out = apply_shroud(noise, 0.0)
        bands = third_octave_bands(100, 20000)
        a = band_powers(noise, bands).power_db
        b = band_powers(out, bands).power_db
        assert np.abs(a - b).max() <= 0.1

    def test_linearity(self, rng):
        a = SampleBuffer(0.01 * rng.standard_normal(RATE), RATE)
        b = SampleBuffer(0.01 * rng.standard_normal(RATE), RATE)
        both = apply_shroud(SampleBuffer(a.samples + b.samples, RATE), 0.6096)
        separate = apply_shroud(a, 0.6096).samples + apply_shroud(b, 0.6096).samples
        scale = float(np.abs(both.samples).max())
        np.testing.assert_allclose(both.samples, separate, atol=scale * 1e-9)

    def test_off_axis_attenuation_monotone(self):
        freqs = np.array([250.0, 500.0, 1000.0, 4000.0, 16000.0])
        depths = [0.0, 0.1524, 0.3048, 0.4572, 0.6096]
        prev = None
        for depth in depths:
            att = _off_axis_attenuation_db(freqs, depth)
            assert (att >= 0).all()
            if prev is not None:
                assert (att >= prev).all()
            prev = att
        assert all(b >= a for a, b in zip(att, att[1:]))  # monotone in frequency
        assert float(_off_axis_attenuation_db(1e9, 0.6096)) == 40.0  # capped

    def test_full_depth_reference_value(self):
        # 8 dB per octave above 500 Hz at the 0.6096 m reference depth
        assert float(_off_axis_attenuation_db(1000.0, 0.6096)) == pytest.approx(8.0, abs=1e-9)
        assert float(_off_axis_attenuation_db(4000.0, 0.3048)) == pytest.approx(12.0, abs=1e-9)

    def test_invalid_depth_rejected(self):
        noise = SampleBuffer(np.zeros(64), RATE)
        for depth in (0.7, -0.1, math.nan):
            with pytest.raises(ValueError, match="inset depth"):
                apply_shroud(noise, depth)
            with pytest.raises(ValueError, match="inset depth"):
                _off_axis_attenuation_db(1000.0, depth)


class TestSpacedClickTimes:
    def test_spacing_and_margins(self):
        rng = np.random.default_rng(0)
        times = spaced_click_times(5, 60.0, rng)
        assert len(times) == 5
        assert times[0] >= 2.0
        assert times[-1] <= 60.0 - 2.0 - 0.4 + 1e-6
        assert all(b - a >= 2.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_deterministic(self):
        a = spaced_click_times(4, 30.0, np.random.default_rng(5))
        b = spaced_click_times(4, 30.0, np.random.default_rng(5))
        assert a == b

    def test_impossible_placement_rejected(self):
        with pytest.raises(ValueError):
            spaced_click_times(10, 12.0, np.random.default_rng(0))

    def test_zero_clicks(self):
        assert spaced_click_times(0, 10.0, np.random.default_rng(0)) == ()


class TestGenerateCorpus:
    def test_small_corpus_structure(self, tmp_path):
        manifest_path = generate_corpus(
            tmp_path,
            snr_values_db=(9.0, 15.0),
            clips_per_snr=1,
            duration_s=12.0,
            clicks_per_clip=2,
            base_seed=999,
        )
        entries = json.loads(manifest_path.read_text())
        assert len(entries) == 2
        assert [e["snr_db"] for e in entries] == [9.0, 15.0]
        for entry in entries:
            wav = tmp_path / entry["wav_path"]
            truth = read_truth_csv(tmp_path / entry["truth_path"])
            assert len(truth.times) == 2
            buf = read_wav(wav)
            assert buf.duration_s == pytest.approx(12.0, abs=1e-6)

    def test_corpus_deterministic(self, tmp_path):
        p1 = generate_corpus(tmp_path / "a", snr_values_db=(12.0,), clips_per_snr=1,
                             duration_s=10.0, clicks_per_clip=1, base_seed=7)
        p2 = generate_corpus(tmp_path / "b", snr_values_db=(12.0,), clips_per_snr=1,
                             duration_s=10.0, clicks_per_clip=1, base_seed=7)
        wav1 = (tmp_path / "a" / "clip_000.wav").read_bytes()
        wav2 = (tmp_path / "b" / "clip_000.wav").read_bytes()
        assert wav1 == wav2
