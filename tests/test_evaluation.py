import json
import math
import os
import time

import numpy as np
import pytest

from clickdetect.detector import ClickDetector, DetectionEvent
from clickdetect import evaluation, spectral
from clickdetect.evaluation import EvalReport, depth_sweep, match_detections, run_benchmark
from clickdetect.soundscape import GroundTruth, SimConfig, generate_corpus, pink_noise
from clickdetect.spectral import band_powers, third_octave_bands

from conftest import RATE, raw_wav_bytes


#: A pool runs only on two or more CPUs, one process each.
needs_two_cpus = pytest.mark.skipif(spectral._usable_cpus() < 2, reason="one CPU runs no pool")


def on_cpus(monkeypatch, count, *args):
    """``run_benchmark(*args)`` as if this process could use ``count`` CPUs."""
    monkeypatch.setattr(spectral, "_usable_cpus", lambda: count)
    return run_benchmark(*args)


def affinity_after_a_pause(_) -> frozenset:
    """The CPUs a pool worker may run on; the pause lets every worker take a task."""
    time.sleep(0.05)
    return frozenset(os.sched_getaffinity(0))


def click_at(onset_s: float, label: str = "connection_click") -> DetectionEvent:
    return DetectionEvent(onset_s, 0.05, 0.3, 15.0, 0.9, label)


def truth_at(*times: float) -> GroundTruth:
    return GroundTruth(times)


class TestMatchDetections:
    def test_hand_derived_example(self):
        # truths {2.0, 8.0}, detections {2.1, 5.0, 8.05}, tolerance 0.25 s
        report = match_detections([click_at(2.1), click_at(5.0), click_at(8.05)], truth_at(2.0, 8.0))
        assert (report.true_positives, report.false_positives, report.false_negatives) == (2, 1, 0)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == 1.0
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.per_event == ((2.0, 2.1), (8.0, 8.05))

    def test_exact_matches_are_perfect(self):
        report = match_detections([click_at(1.0), click_at(3.0)], truth_at(1.0, 3.0))
        assert report.precision == report.recall == 1.0

    def test_empty_detections_convention(self):
        report = match_detections([], truth_at(1.0, 2.0, 4.0, 6.0))
        assert (report.true_positives, report.false_negatives) == (0, 4)
        assert report.recall == 0.0
        assert report.precision == 1.0
        assert report.f1 == 0.0

    def test_other_transients_never_count(self):
        detections = [click_at(1.0, "other_transient"), click_at(5.0, "other_transient")]
        report = match_detections(detections, truth_at(1.0))
        assert (report.true_positives, report.false_positives, report.false_negatives) == (0, 0, 1)

    def test_order_independence(self, rng):
        detections = [click_at(t) for t in (9.0, 1.2, 4.5, 2.2, 7.7)]
        truth = truth_at(1.0, 4.4, 8.9)
        base = match_detections(detections, truth)
        for _ in range(5):
            perm = list(rng.permutation(len(detections)))
            report = match_detections([detections[i] for i in perm], truth)
            assert (report.true_positives, report.false_positives) == (
                base.true_positives,
                base.false_positives,
            )

    def test_tp_plus_fn_equals_truth_count(self, rng):
        for trial in range(20):
            r = np.random.default_rng(trial)
            truths = np.sort(r.uniform(0, 100, r.integers(0, 8)))
            truths = [t for i, t in enumerate(truths) if i == 0 or t - truths[i - 1] >= 0.6]
            detections = [click_at(float(t)) for t in r.uniform(0, 100, r.integers(0, 10))]
            report = match_detections(detections, truth_at(*truths))
            assert report.true_positives + report.false_negatives == len(truths)

    def test_nearest_wins(self):
        report = match_detections([click_at(2.2), click_at(2.05)], truth_at(2.0))
        assert report.per_event == ((2.0, 2.05),)
        assert report.false_positives == 1

    # Dyadic times below are exact in binary, so the distances tie exactly.
    def test_a_tie_goes_to_the_earlier_click(self):
        report = match_detections([click_at(2.125), click_at(1.875)], truth_at(2.0))
        assert report.per_event == ((2.0, 1.875),)
        assert report.false_positives == 1

    @pytest.mark.parametrize(
        "offset, matches", [(0.25, True), (-0.25, True), (0.25 + 2**-10, False), (-0.25 - 2**-10, False)]
    )
    def test_the_tolerance_is_inclusive(self, offset, matches):
        report = match_detections([click_at(2.0 + offset)], truth_at(2.0))
        assert report.per_event == ((2.0, 2.0 + offset if matches else None),)
        assert (report.true_positives, report.false_positives) == ((1, 0) if matches else (0, 1))

    def test_a_click_two_truths_reach_goes_to_the_earlier_truth(self):
        report = match_detections([click_at(2.25)], truth_at(2.0, 2.5))
        assert report.per_event == ((2.0, 2.25), (2.5, None))
        assert (report.true_positives, report.false_positives, report.false_negatives) == (1, 0, 1)


class TestEvalReport:
    def test_degenerate_conventions(self):
        empty = EvalReport.from_counts(0, 0, 0)
        assert empty.precision == empty.recall == empty.accuracy == 1.0
        assert empty.f1 == 1.0
        misses = EvalReport.from_counts(0, 0, 3)
        assert misses.precision == 1.0 and misses.recall == 0.0 and misses.f1 == 0.0

    def test_json_fields(self):
        d = EvalReport.from_counts(3, 1, 2).to_json_dict()
        assert d["true_positives"] == 3
        assert d["accuracy"] == pytest.approx(0.5)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return generate_corpus(
        root,
        snr_values_db=(9.0, 15.0),
        clips_per_snr=2,
        duration_s=12.0,
        clicks_per_clip=2,
        base_seed=31,
    )


class TestRunBenchmark:
    def test_aggregates_counts(self, small_corpus):
        result = run_benchmark(small_corpus)
        total_truths = 8
        assert result.aggregate.true_positives + result.aggregate.false_negatives == total_truths
        assert set(result.by_snr) == {9.0, 15.0}
        assert result.clip_count == 4
        assert result.audio_seconds == pytest.approx(48.0, abs=0.1)
        assert "Synthetic" in result.note

    @needs_two_cpus
    def test_parallel_matches_serial(self, small_corpus, monkeypatch):
        serial = on_cpus(monkeypatch, 1, small_corpus)
        parallel = on_cpus(monkeypatch, 2, small_corpus)
        assert serial.aggregate.to_json_dict() == parallel.aggregate.to_json_dict()

    @needs_two_cpus
    def test_detector_crosses_the_pool(self, small_corpus, monkeypatch):
        # The onset gate alone changes no count here, even at 30 dB; the tail gate does.
        strict = ClickDetector(onset_threshold_db=20.0, tail_threshold_db=12.0)
        serial = on_cpus(monkeypatch, 1, small_corpus, strict)
        parallel = on_cpus(monkeypatch, 2, small_corpus, strict)
        assert serial.to_json_dict() | {"runtime_s": 0} == parallel.to_json_dict() | {"runtime_s": 0}
        assert serial.aggregate != on_cpus(monkeypatch, 1, small_corpus).aggregate

    def test_pool_never_larger_than_the_manifest(self, small_corpus, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, **options):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InProcessPool)
        many = on_cpus(monkeypatch, 16, small_corpus)
        two = on_cpus(monkeypatch, 2, small_corpus)
        assert sizes == [4, 2]  # 4 clips in the manifest
        assert many.aggregate.to_json_dict() == two.aggregate.to_json_dict()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask on this platform")
    @needs_two_cpus
    @pytest.mark.parametrize("workers", [2])
    def test_each_worker_runs_on_its_own_share_of_the_cpus(self, workers):
        cpus = sorted(os.sched_getaffinity(0))
        with evaluation._pool(workers) as pool:
            seen = set(pool.map(affinity_after_a_pause, range(6 * workers), chunksize=1))
        shares = {frozenset(cpus[k::workers]) for k in range(workers)}
        assert seen == shares
        assert sorted(os.sched_getaffinity(0)) == cpus  # the caller keeps every CPU

    def test_noise_only_corpus_scores_perfect(self, tmp_path):
        manifest = generate_corpus(
            tmp_path, snr_values_db=(12.0,), clips_per_snr=2, duration_s=8.0,
            clicks_per_clip=0, base_seed=63,
        )
        result = run_benchmark(manifest)
        assert result.aggregate.accuracy == 1.0
        assert result.aggregate.true_positives == 0

    def test_audio_seconds_from_decoded_samples(self, tmp_path):
        # 2.5 s of 24-bit stereo: 6 bytes per sample frame, so a reader that
        # assumed 16-bit mono would count 7.5 s.
        frames = round(2.5 * RATE)
        (tmp_path / "deep.wav").write_bytes(raw_wav_bytes(bytes(6 * frames), channels=2, bits=24))
        (tmp_path / "deep.csv").write_text("time_s,label\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps([{"wav_path": "deep.wav", "truth_path": "deep.csv", "snr_db": 12.0, "seed": 0}])
        )
        result = run_benchmark(manifest)
        assert result.audio_seconds == 2.5
        assert result.clip_count == 1

    def test_unreadable_clip_aborts_named(self, small_corpus, tmp_path):
        entries = json.loads(small_corpus.read_text())
        entries[0]["wav_path"] = "missing.wav"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(entries))
        # paths resolve relative to the manifest, so copy the rest over
        for entry in entries[1:]:
            for key in ("wav_path", "truth_path"):
                src = small_corpus.parent / entry[key]
                (tmp_path / entry[key]).write_bytes(src.read_bytes())
        with pytest.raises(FileNotFoundError, match="missing.wav"):
            run_benchmark(broken)

    @pytest.mark.parametrize(
        "entries, named",
        [
            ([{"wav_path": "x.wav"}], "entry 0: 'truth_path'"),
            (["a"], "entry 0 is not a JSON object"),
            # the first clip is unreadable, so the check must come before any clip runs
            ([{"wav_path": "missing.wav", "truth_path": "t.csv", "snr_db": 6.0},
              {"wav_path": "x.wav", "truth_path": "t.csv"}], "entry 1: 'snr_db'"),
            ([{"wav_path": "x.wav", "truth_path": "t.csv", "snr_db": "loud"}], "entry 0: 'snr_db'"),
            # json writes and reads these as the literals NaN, Infinity and -Infinity
            ([{"wav_path": "x.wav", "truth_path": "t.csv", "snr_db": math.nan}], "entry 0: 'snr_db' .* finite"),
            ([{"wav_path": "missing.wav", "truth_path": "t.csv", "snr_db": 6.0},
              {"wav_path": "x.wav", "truth_path": "t.csv", "snr_db": math.inf}], "entry 1: 'snr_db' .* finite"),
            ([{"wav_path": "x.wav", "truth_path": "t.csv", "snr_db": -math.inf}], "entry 0: 'snr_db' .* finite"),
            ([{"wav_path": "missing.wav", "truth_path": "t.csv", "snr_db": 6.0},
              {"wav_path": "x.wav", "truth_path": "t.csv", "snr_db": 10**400}], "entry 1: 'snr_db' .* finite"),
            ({"a": 1}, "JSON list"),
            (5, "JSON list"),
        ],
        ids=["no_truth_path", "not_an_object", "no_snr_db_after_a_bad_clip", "text_snr_db",
             "nan_snr_db", "infinite_snr_db_after_a_bad_clip", "negative_infinite_snr_db",
             "int_beyond_float_range_snr_db_after_a_bad_clip", "object", "number"],
    )
    def test_malformed_manifest_rejected_before_any_clip(self, tmp_path, entries, named):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        with pytest.raises(ValueError, match=named) as info:
            run_benchmark(manifest)
        assert "m.json" in str(info.value)

    def test_report_formats(self, small_corpus):
        result = run_benchmark(small_corpus)
        text = result.format_text()
        assert "overall" in text and "+9 dB" in text
        blob = result.to_json_dict()
        assert "aggregate" in blob and "by_snr_db" in blob


class TestDepthSweep:
    def test_zero_depth_matches_plain_pink(self):
        cfg = SimConfig(seed=21, duration_s=4.0)
        table = depth_sweep([0.0], cfg)
        plain = band_powers(pink_noise(cfg), third_octave_bands(100, RATE / 2))
        np.testing.assert_allclose(table.power_db[:, 0], plain.power_db, atol=0.1)

    def test_columns_ordered_by_depth(self):
        cfg = SimConfig(seed=22, duration_s=4.0)
        depths = [0.0, 0.3048, 0.6096]
        table = depth_sweep(depths, cfg)
        assert table.power_db.shape == (len(table.bands), 3)
        rows_above = [i for i, b in enumerate(table.bands) if b.center_hz > 500]
        for i in rows_above:
            col = table.power_db[i]
            assert col[0] > col[1] > col[2]

    def test_csv_shape(self):
        cfg = SimConfig(seed=23, duration_s=4.0)
        table = depth_sweep([0.0, 0.1524], cfg)
        lines = table.as_csv().strip().splitlines()
        assert lines[0] == "center_hz,depth_0.0000m,depth_0.1524m"
        assert len(lines) == len(table.bands) + 1

    def test_empty_depths_rejected(self):
        with pytest.raises(ValueError):
            depth_sweep([], SimConfig(seed=1, duration_s=2.0))
