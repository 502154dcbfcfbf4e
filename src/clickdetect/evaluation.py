"""Score detections against ground truth; run the benchmark and depth sweep.

"Effectiveness" is reported four ways (accuracy TP/(TP+FP+FN), precision,
recall, F1) since no single definition is canonical for this task. The
benchmark runs on the synthetic corpus; its report says so explicitly because
no real facility recordings ship with this package.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from . import spectral
from .audio_io import read_wav
from .detector import ClickDetector, DetectionEvent, _is_finite
from .soundscape import GroundTruth, SimConfig, apply_shroud, pink_noise, read_truth_csv
from .spectral import Band, band_powers, third_octave_bands

__all__ = ["EvalReport", "BenchmarkResult", "DepthSweep", "match_detections", "run_benchmark", "depth_sweep"]

#: How far a detection's onset may lie from a truth's time and still match it.
_TOLERANCE_S = 0.25


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


def match_detections(detections: Sequence[DetectionEvent], truth: GroundTruth) -> EvalReport:
    """Greedy chronological matching of truth times to connection_click detections.

    Each truth time, earliest first, takes the nearest unmatched
    connection_click whose onset lies within +-``_TOLERANCE_S`` of it (ties go
    to the earlier detection); unmatched clicks are false positives, unmatched
    truths false negatives. other_transient detections are the rejected
    class: never true positives, never false positives.
    """
    clicks = sorted(e.onset_s for e in detections if e.label == "connection_click")
    matched = [False] * len(clicks)
    per_event: list[tuple[float, float | None]] = []
    for t in truth.times:
        near = (i for i, onset in enumerate(clicks) if not matched[i] and abs(onset - t) <= _TOLERANCE_S)
        best = min(near, key=lambda i: abs(clicks[i] - t), default=None)  # a tie keeps the earlier click
        if best is not None:
            matched[best] = True
        per_event.append((t, None if best is None else clicks[best]))
    tp = matched.count(True)
    return EvalReport.from_counts(tp, len(clicks) - tp, len(truth.times) - tp, tuple(per_event))


@dataclass(frozen=True)
class BenchmarkResult:
    aggregate: EvalReport
    by_snr: dict[float, EvalReport]
    clip_count: int
    audio_seconds: float
    runtime_s: float
    note: ClassVar[str] = (
        "Synthetic benchmark corpus (seeded generators); no factory recordings are "
        "distributed with this package."
    )

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


def _evaluate_clip(args: tuple[str, str, ClickDetector]) -> tuple[int, int, int, float]:
    """Match one clip's detections; returns (TP, FP, FN, audio seconds)."""
    wav_path, truth_path, detector = args
    buffer = read_wav(wav_path)
    report = match_detections(detector.predict(buffer), read_truth_csv(truth_path))
    return report.true_positives, report.false_positives, report.false_negatives, buffer.duration_s


def _pin_to_share(shares) -> None:
    """Pool initializer: run this worker on the next share of the CPUs in ``shares``."""
    os.sched_setaffinity(0, shares.get())


def _pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes, no more than this process's CPUs, each
    kept on its own share of them.

    A clip's band powers use every CPU their process may run on, so workers
    that all kept every CPU would contend for them.
    """
    if not hasattr(os, "sched_setaffinity"):  # no affinity mask on this platform
        return ProcessPoolExecutor(workers)
    cpus = sorted(os.sched_getaffinity(0))
    shares = multiprocessing.SimpleQueue()
    for k in range(workers):
        shares.put(cpus[k::workers])
    return ProcessPoolExecutor(workers, initializer=_pin_to_share, initargs=(shares,))


def _read_manifest(path: Path) -> list[dict]:
    """The entries of the manifest at ``path``, each checked; errors name the file."""
    try:
        entries = json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"{path}: manifest must be a JSON list")
    required = {
        "wav_path": (str, "a string"),
        "truth_path": (str, "a string"),
        "snr_db": ((int, float), "a finite number"),  # json reads NaN and Infinity as numbers
    }
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {i} is not a JSON object")
        for key, (kind, what) in required.items():
            value = entry.get(key)
            finite = not isinstance(value, (int, float)) or _is_finite(value)
            if not isinstance(value, kind) or isinstance(value, bool) or not finite:
                raise ValueError(f"{path}: entry {i}: {key!r} is missing or not {what}")
    return entries


def run_benchmark(manifest_path: str | Path, detector: ClickDetector = ClickDetector()) -> BenchmarkResult:
    """Detect over every clip in the manifest and aggregate the counts.

    The manifest is a JSON list of {wav_path, truth_path, snr_db, seed} with
    paths relative to the manifest file; every entry is checked before any
    clip runs. Clips are independent: they are evaluated in one process per
    CPU this process may use, at most one per clip, and aggregated in
    manifest order. A clip that cannot be read raises ``read_wav``'s error.
    """
    manifest_path = Path(manifest_path)
    entries = _read_manifest(manifest_path)
    base = manifest_path.parent
    tasks = [(str(base / entry["wav_path"]), str(base / entry["truth_path"]), detector) for entry in entries]

    started = time.perf_counter()
    # A fork pool starts all its workers at the first submit; no more than there are clips.
    workers = min(spectral._usable_cpus(), len(tasks))
    if workers > 1:
        with _pool(workers) as pool:
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


def depth_sweep(depths_m: Sequence[float], cfg: SimConfig) -> DepthSweep:
    """Band-power table of off-axis pink noise at each shroud inset depth.

    The same seeded pink noise feeds every depth, so column differences are
    exactly the transfer model's doing.
    """
    if not depths_m:
        raise ValueError("depths_m must be non-empty")
    noise = pink_noise(cfg)
    bands = third_octave_bands(100.0, cfg.sample_rate_hz / 2.0)
    profiles = [band_powers(apply_shroud(noise, float(depth)), bands) for depth in depths_m]
    columns = np.column_stack([profile.power_db for profile in profiles])
    return DepthSweep(tuple(float(d) for d in depths_m), profiles[0].bands, columns)
