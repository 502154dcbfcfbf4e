"""Score detections against ground truth; run the benchmark and depth sweep.

"Effectiveness" is reported four ways (accuracy TP/(TP+FP+FN), precision,
recall, F1) since no single definition is canonical for this task. The
benchmark runs on the synthetic corpus; its report says so explicitly because
no real facility recordings ship with this package.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .audio_io import read_wav
from .detector import ClickDetector, DetectionEvent
from .soundscape import GroundTruth, ShroudModel, SimConfig, apply_shroud, pink_noise, read_truth_csv
from .spectral import Band, band_powers, third_octave_bands

__all__ = ["EvalReport", "BenchmarkResult", "DepthSweep", "match_detections", "run_benchmark", "depth_sweep"]

#: How far a detection's onset may lie from a truth's time and still match it.
_TOLERANCE_S = 0.25

BENCHMARK_NOTE = (
    "Synthetic benchmark corpus (seeded generators); no factory recordings are "
    "distributed with this package."
)


@dataclass(frozen=True)
class EvalReport:
    """Match counts and the derived metrics.

    Conventions for empty denominators: precision is 1.0 with no positives
    claimed, recall 1.0 with no truths, accuracy 1.0 with nothing to count,
    and F1 is 0.0 when precision + recall is 0.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    per_event: tuple[tuple[float, float | None], ...] = ()

    @classmethod
    def from_counts(
        cls,
        tp: int,
        fp: int,
        fn: int,
        per_event: tuple[tuple[float, float | None], ...] = (),
    ) -> "EvalReport":
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        accuracy = 1.0 if tp + fp + fn == 0 else tp / (tp + fp + fn)
        return cls(tp, fp, fn, precision, recall, f1, accuracy, per_event)

    def to_json_dict(self) -> dict:
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "accuracy": round(self.accuracy, 6),
        }


def match_detections(
    detections: Sequence[DetectionEvent],
    truth: GroundTruth,
    tolerance_s: float = _TOLERANCE_S,
) -> EvalReport:
    """Greedy chronological matching of truths to connection_click detections.

    Each truth event takes the nearest unmatched connection_click within
    +-tolerance_s (ties go to the earlier detection); unmatched clicks are
    false positives, unmatched truths false negatives. other_transient
    detections are the rejected class: never true positives, never false
    positives.
    """
    if tolerance_s <= 0:
        raise ValueError(f"tolerance_s must be positive, got {tolerance_s}")
    times = truth.times
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("ground truth must be sorted by time")
    clicks = sorted(
        (e.onset_s for e in detections if e.label == "connection_click")
    )
    matched = [False] * len(clicks)
    per_event: list[tuple[float, float | None]] = []
    tp = 0
    for t in times:
        best = None
        for i, onset in enumerate(clicks):
            if matched[i] or abs(onset - t) > tolerance_s:
                continue
            if best is None or abs(onset - t) < abs(clicks[best] - t):
                best = i
        if best is None:
            per_event.append((t, None))
        else:
            matched[best] = True
            per_event.append((t, clicks[best]))
            tp += 1
    fp = matched.count(False)
    fn = len(times) - tp
    return EvalReport.from_counts(tp, fp, fn, tuple(per_event))


@dataclass(frozen=True)
class BenchmarkResult:
    aggregate: EvalReport
    by_snr: dict[float, EvalReport]
    clip_count: int
    audio_seconds: float
    runtime_s: float
    note: ClassVar[str] = BENCHMARK_NOTE

    def to_json_dict(self) -> dict:
        return {
            "note": self.note,
            "clip_count": self.clip_count,
            "audio_seconds": round(self.audio_seconds, 3),
            "runtime_s": round(self.runtime_s, 3),
            "aggregate": self.aggregate.to_json_dict(),
            "by_snr_db": {f"{snr:+g}": rep.to_json_dict() for snr, rep in sorted(self.by_snr.items())},
        }

    def format_text(self) -> str:
        lines = [self.note, ""]
        lines.append(f"{'bucket':>10}  {'TP':>5} {'FP':>5} {'FN':>5}  {'prec':>6} {'recall':>6} {'f1':>6} {'acc':>6}")

        def row(name: str, rep: EvalReport) -> str:
            return (
                f"{name:>10}  {rep.true_positives:>5} {rep.false_positives:>5} {rep.false_negatives:>5}  "
                f"{rep.precision:>6.3f} {rep.recall:>6.3f} {rep.f1:>6.3f} {rep.accuracy:>6.3f}"
            )

        for snr, rep in sorted(self.by_snr.items()):
            lines.append(row(f"{snr:+g} dB", rep))
        lines.append(row("overall", self.aggregate))
        lines.append("")
        lines.append(
            f"{self.clip_count} clips, {self.audio_seconds:.0f} s of audio, {self.runtime_s:.1f} s wall time"
        )
        return "\n".join(lines)


def _evaluate_clip(args: tuple[str, str, dict]) -> tuple[int, int, int, float]:
    """Match one clip's detections; returns (TP, FP, FN, audio seconds)."""
    wav_path, truth_path, params = args
    detector = ClickDetector(**params)
    try:
        buffer = read_wav(wav_path)
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"cannot evaluate clip {wav_path}: {exc}") from exc
    report = match_detections(detector.predict(buffer), read_truth_csv(truth_path))
    return report.true_positives, report.false_positives, report.false_negatives, buffer.duration_s


def run_benchmark(
    manifest_path: str | Path,
    detector: ClickDetector | None = None,
    jobs: int = 1,
) -> BenchmarkResult:
    """Detect over every clip in the manifest and aggregate the counts.

    The manifest is a JSON list of {wav_path, truth_path, snr_db, seed} with
    paths relative to the manifest file. Clips are independent; ``jobs`` > 1
    evaluates them in parallel processes, aggregation stays in manifest order.
    """
    manifest_path = Path(manifest_path)
    entries = json.loads(manifest_path.read_text())
    if not isinstance(entries, list):
        raise ValueError(f"{manifest_path}: manifest must be a JSON list")
    # Check every entry before any clip runs, so a bad one cannot waste a run.
    required = {
        "wav_path": (str, "a string"),
        "truth_path": (str, "a string"),
        "snr_db": ((int, float), "a number"),
    }
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{manifest_path}: entry {i} is not a JSON object")
        for key, (kind, what) in required.items():
            value = entry.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{manifest_path}: entry {i}: {key!r} is missing or not {what}")
    detector = detector if detector is not None else ClickDetector()
    params = detector.get_params()
    base = manifest_path.parent

    tasks = [(str(base / entry["wav_path"]), str(base / entry["truth_path"]), params) for entry in entries]

    started = time.perf_counter()
    if jobs > 1 and len(tasks) > 1:
        # A fork pool starts all its workers at the first submit; no more than there are clips.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            counts = list(pool.map(_evaluate_clip, tasks, chunksize=1))
    else:
        counts = [_evaluate_clip(task) for task in tasks]
    runtime = time.perf_counter() - started

    total = [0, 0, 0]
    by_snr_counts: dict[float, list[int]] = {}
    audio_seconds = 0.0
    for entry, (tp, fp, fn, seconds) in zip(entries, counts):
        snr = float(entry["snr_db"])
        bucket = by_snr_counts.setdefault(snr, [0, 0, 0])
        for acc in (total, bucket):
            acc[0] += tp
            acc[1] += fp
            acc[2] += fn
        audio_seconds += seconds

    by_snr = {snr: EvalReport.from_counts(*c) for snr, c in by_snr_counts.items()}
    return BenchmarkResult(
        aggregate=EvalReport.from_counts(*total),
        by_snr=by_snr,
        clip_count=len(entries),
        audio_seconds=audio_seconds,
        runtime_s=runtime,
    )


@dataclass(frozen=True)
class DepthSweep:
    """Band-power profiles of shroud-filtered pink noise, one column per depth."""

    depths_m: tuple[float, ...]
    bands: tuple[Band, ...]
    power_db: np.ndarray  # [n_bands x n_depths]

    def as_csv(self) -> str:
        header = "center_hz," + ",".join(f"depth_{d:.4f}m" for d in self.depths_m)
        lines = [header]
        for i, band in enumerate(self.bands):
            cells = ",".join(f"{v:.4f}" for v in self.power_db[i])
            lines.append(f"{band.center_hz:.6g},{cells}")
        return "\n".join(lines) + "\n"


def depth_sweep(
    model: ShroudModel,
    depths_m: Sequence[float],
    cfg: SimConfig,
) -> DepthSweep:
    """Band-power table of off-axis pink noise at each shroud inset depth.

    The same seeded pink noise feeds every depth, so column differences are
    exactly the transfer model's doing.
    """
    if not depths_m:
        raise ValueError("depths_m must be non-empty")
    noise = pink_noise(cfg)
    bands = third_octave_bands(100.0, cfg.sample_rate_hz / 2.0)
    columns: list[np.ndarray] = []
    kept_bands: tuple[Band, ...] | None = None
    for depth in depths_m:
        filtered = apply_shroud(noise, replace(model, inset_depth_m=float(depth)), on_axis=False)
        profile = band_powers(filtered, bands)
        kept_bands = profile.bands
        columns.append(profile.power_db)
    return DepthSweep(tuple(float(d) for d in depths_m), kept_bands, np.column_stack(columns))
