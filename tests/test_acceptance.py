"""Acceptance suite: one test per acceptance criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. The benchmark corpus (criterion 1) is generated once per
session and reused by criteria 5 and the per-SNR checks.
"""

import json

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer, read_wav, write_wav
from clickdetect.cli import main as cli_main
from clickdetect.detector import ClickDetector
from clickdetect.evaluation import depth_sweep, match_detections, run_benchmark
from clickdetect.soundscape import (
    GroundTruth,
    SimConfig,
    factory_noise,
    generate_corpus,
    pink_noise,
    synth_click,
)
from clickdetect.spectral import (
    _hann,
    band_powers,
    spectrogram_image,
    stft,
    third_octave_bands,
)

from conftest import RATE, blocked_power, tone


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def corpus_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("benchmark_corpus")
    return generate_corpus(root)  # 100 clips x 60 s, SNRs {6,9,12,15,18} x 20


@pytest.fixture(scope="session")
def benchmark_result(corpus_manifest):
    return run_benchmark(corpus_manifest)


class TestCriterion1Effectiveness:
    def test_aggregate_accuracy_at_least_75_percent(self, benchmark_result):
        result = benchmark_result
        passed = result.aggregate.accuracy >= 0.75
        report(
            1,
            passed and result.runtime_s < 300.0,
            f"accuracy {result.aggregate.accuracy:.3f} over {result.clip_count} clips "
            f"(TP {result.aggregate.true_positives}, FP {result.aggregate.false_positives}, "
            f"FN {result.aggregate.false_negatives}), benchmark runtime {result.runtime_s:.0f} s",
        )
        assert result.clip_count == 100
        assert passed

    def test_runtime_under_five_minutes(self, benchmark_result):
        assert benchmark_result.runtime_s < 300.0

    def test_recall_non_decreasing_with_snr(self, benchmark_result):
        # statistical property: allow 0.05 slack between adjacent buckets
        buckets = sorted(benchmark_result.by_snr.items())
        recalls = [rep.recall for _, rep in buckets]
        assert all(b >= a - 0.05 for a, b in zip(recalls, recalls[1:])), recalls


class TestCriterion2ClickRoundTrip:
    def test_twenty_seeds_report_nominal_durations(self):
        failures = []
        for seed in range(20):
            click = synth_click(RATE, seed)
            x = np.zeros(2 * RATE)
            x[RATE : RATE + len(click)] = click.samples
            events = ClickDetector().predict(SampleBuffer(x, RATE))
            ok = (
                len(events) == 1
                and abs(events[0].burst_duration_s - 0.050) <= 0.010
                and 0.100 <= events[0].tail_duration_s <= 0.500
                and events[0].label == "connection_click"
            )
            if not ok:
                failures.append(seed)
        report(2, not failures, f"20/20 seeds in range" if not failures else f"failed seeds {failures}")
        assert not failures


class TestCriterion3DepthSweepOrdering:
    def test_nine_depths_strictly_ordered_above_500_hz(self):
        import time

        depths = [0.0762 * k for k in range(9)]  # 0 .. 24 in by 3 in
        started = time.time()
        table = depth_sweep(depths, SimConfig(seed=42, duration_s=16.0))
        elapsed = time.time() - started
        rows = [i for i, band in enumerate(table.bands) if band.center_hz > 500.0]
        ordered = all(
            table.power_db[i, j] > table.power_db[i, j + 1]
            for i in rows
            for j in range(len(depths) - 1)
        )
        report(3, ordered and elapsed < 30.0,
               f"{len(rows)} bands strictly ordered over 9 depths in {elapsed:.1f} s")
        assert ordered
        assert elapsed < 30.0


class TestCriterion4SpectralCorrectness:
    results: dict = {}

    def test_parseval_on_fifty_random_buffers(self):
        w = _hann(1024)
        correction = 256 / (1024 * float(w @ w))
        worst = 0.0
        for seed in range(50):
            r = np.random.default_rng(seed)
            duration = float(r.uniform(4.0, 8.0))
            x = 0.05 * r.standard_normal(round(duration * RATE))
            spec = stft(SampleBuffer(x, RATE), 1024, 256)
            err = abs(blocked_power(spec).sum() * correction / (x @ x) - 1)
            worst = max(worst, err)
        self.results["parseval_pct"] = worst * 100
        assert worst < 0.01

    def test_sinusoid_peak_bin_exact(self):
        spec = stft(tone(1000.0, 0.5), 1024, 256)
        assert (blocked_power(spec).argmax(axis=1) == 21).all()
        self.results["peak_bin"] = 21

    def test_white_noise_band_slope(self):
        r = np.random.default_rng(7)
        buf = SampleBuffer(0.02 * r.standard_normal(16 * RATE), RATE)
        profile = band_powers(buf, third_octave_bands(20, 20000))
        ys = [db for b, db in zip(profile.bands, profile.power_db) if 100 <= b.center_hz <= 10000]
        slope = np.polyfit(np.arange(len(ys)), ys, 1)[0]
        self.results["slope"] = float(slope)
        assert slope == pytest.approx(1.003, abs=0.5)

    def test_pink_noise_band_flatness(self):
        profile = band_powers(
            pink_noise(SimConfig(seed=11, duration_s=16.0)), third_octave_bands(20, 20000)
        )
        ys = [db for b, db in zip(profile.bands, profile.power_db) if 100 <= b.center_hz <= 10000]
        mid = (max(ys) + min(ys)) / 2
        flat = max(abs(y - mid) for y in ys)
        r = self.results
        report(
            4,
            flat <= 1.5,
            f"Parseval worst {r.get('parseval_pct', float('nan')):.3f}%, peak bin {r.get('peak_bin')}, "
            f"white slope {r.get('slope', float('nan')):.3f} dB/band, pink flatness +-{flat:.2f} dB",
        )
        assert flat <= 1.5


class TestCriterion5DetectorInvariants:
    def test_gain_invariance_on_ten_corpus_clips(self, corpus_manifest):
        entries = json.loads(corpus_manifest.read_text())
        picked = entries[::10][:10]  # every 10th clip: spans all SNR buckets
        detector = ClickDetector()
        mismatches = []
        for entry in picked:
            buf = read_wav(corpus_manifest.parent / entry["wav_path"])
            prescale = 0.95 / (10.0 * float(np.abs(buf.samples).max()))
            base = SampleBuffer(prescale * buf.samples, RATE)
            reference = [(e.onset_s, e.label) for e in detector.predict(base)]
            for gain in (0.1, 10.0):
                scaled = SampleBuffer(gain * base.samples, RATE)
                got = [(e.onset_s, e.label) for e in detector.predict(scaled)]
                if got != reference:
                    mismatches.append((entry["wav_path"], gain))
        assert not mismatches, mismatches

    def test_causality_under_truncation(self, corpus_manifest):
        entries = json.loads(corpus_manifest.read_text())
        detector = ClickDetector()
        for entry in entries[:2]:
            buf = read_wav(corpus_manifest.parent / entry["wav_path"])
            cut_s = buf.duration_s - 2.0
            truncated = SampleBuffer(buf.samples[: round(cut_s * RATE)], RATE)
            horizon = cut_s - detector.tail_max_s
            full_events = [
                (e.onset_s, e.label) for e in detector.predict(buf) if e.onset_s < horizon
            ]
            cut_events = [
                (e.onset_s, e.label) for e in detector.predict(truncated) if e.onset_s < horizon
            ]
            assert full_events == cut_events

    def test_determinism_bit_identical_jsonl(self, corpus_manifest, tmp_path):
        entries = json.loads(corpus_manifest.read_text())
        wav = str(corpus_manifest.parent / entries[0]["wav_path"])
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli_main(["detect", wav, "--out", str(out_a)]) == 0
        assert cli_main(["detect", wav, "--out", str(out_b)]) == 0
        identical = out_a.read_bytes() == out_b.read_bytes()
        report(
            5,
            identical,
            "gain x0.1/x10 identical on 10 clips; truncation causality holds; "
            "repeat detection runs byte-identical",
        )
        assert identical


class TestCriterion6TransientRejection:
    def test_false_positive_rate_on_factory_noise(self):
        detector = ClickDetector()
        total_clicks = 0
        total_seconds = 0.0
        for seed in range(500, 510):  # 10 x 60 s = 10 minutes, transients only
            cfg = SimConfig(sample_rate_hz=RATE, seed=seed, duration_s=60.0, transient_rate_hz=0.5)
            events = detector.predict(factory_noise(cfg))
            total_clicks += sum(1 for e in events if e.label == "connection_click")
            total_seconds += cfg.duration_s
        rate_per_10min = total_clicks / (total_seconds / 600.0)
        report(6, rate_per_10min <= 1.0,
               f"{total_clicks} false connection_clicks in {total_seconds / 60:.0f} minutes")
        assert rate_per_10min <= 1.0


class TestCriterion7EvaluationArithmetic:
    def test_hand_derived_example_exact(self):
        from clickdetect.detector import DetectionEvent

        detections = [
            DetectionEvent(t, 0.05, 0.3, 15.0, 0.9, "connection_click") for t in (2.1, 5.0, 8.05)
        ]
        truth = GroundTruth((2.0, 8.0))
        rep = match_detections(detections, truth)
        exact = (
            rep.true_positives == 2
            and rep.false_positives == 1
            and rep.false_negatives == 0
            and rep.precision == pytest.approx(2 / 3)
            and rep.recall == 1.0
            and rep.accuracy == pytest.approx(2 / 3)
        )
        report(7, exact, f"TP=2 FP=1 FN=0, precision 2/3, recall 1, accuracy 2/3")
        assert exact


class TestCriterion8IoFidelity:
    def test_wav_round_trip_within_one_lsb(self, tmp_path):
        r = np.random.default_rng(80)
        buf = SampleBuffer(np.clip(0.6 * r.standard_normal(2 * RATE), -1, 1), RATE)
        path = tmp_path / "fidelity.wav"
        write_wav(buf, path)
        back = read_wav(path)
        worst = float(np.max(np.abs(back.samples - buf.samples)))
        assert worst <= 1 / 32768

    def test_pgm_dimensions_exact(self, tmp_path):
        r = np.random.default_rng(81)
        spec = stft(SampleBuffer(0.1 * r.standard_normal(RATE), RATE), 1024, 256)
        path = tmp_path / "image.pgm"
        spectrogram_image(spec, path)
        magic, dims, _, pixels = path.read_bytes().split(b"\n", 3)
        w, h = (int(v) for v in dims.split())
        exact = (w, h) == (spec.n_frames, spec.n_bins) and len(pixels) == w * h
        report(8, exact, f"WAV within 1 LSB; PGM {w}x{h} == frames x bins")
        assert exact
