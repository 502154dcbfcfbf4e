"""Detector benchmark: seeded recordings, a closed timed loop, checked output.

    python3 perfbench/run.py --workload busy_60s --seed 1 --seconds 50 --trace 0

One caller in one process reads each recording with ``read_wav`` and runs
``ClickDetector.predict`` on it, cycling through the workload's recordings
until every one ran once and ``--seconds`` are used up. Set-up (synthesis,
WAV writing, a warm-up ``predict``) runs in fresh child processes, several
times, so its time can be reported and its memory stays out of the peak.

Every output is checked: events sorted, onsets at least ``merge_window_s``
apart, labels known, scores in [0, 1], and each repeat of a recording equal
to its first run. ``--trace 1`` gives the untraced loop half of
``--seconds``, repeats it with spans recorded around each layer and checks
that it produced the same events.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` or its per-layer metrics with ``--trace 1``. The exit code is
0 only when every check passed. Spans, events and a full report are written
to ``.perfbench_work/<workload>/``. ``--workload all`` runs each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from common import BLAS_ENV, ROOT, WARMUP_S, WORK, WORKLOADS, fix_blas_threads, load_package

HERE = Path(__file__).resolve().parent
#: Printed with the end-to-end metrics but not gated by BENCHMARK.json: they
#: are 0 on a good run, or spread across seeds by more than any allowed bound.
OUTCOME_UNITS = {"accuracy": "ratio", "false_positives": "count", "failed_frac": "ratio"}
LABELS = ("connection_click", "other_transient")
SETUP_TIMEOUT_S = 60

#: Module attributes of clickdetect.detector that ``predict`` and
#: ``detect_events`` look up at call time, and the layer each belongs to.
TRACED_ATTRS = {
    "stft": "spectral.stft",
    "frame_band_powers": "spectral.frame_band_powers",
    "detect_events": "detector.detect_events",
}


def check_events(events, merge_window_s: float) -> list[str]:
    """Problems with one recording's events; an empty list means valid."""
    problems = []
    for i, event in enumerate(events):
        if event.label not in LABELS:
            problems.append(f"event {i}: unknown label {event.label!r}")
        if not 0.0 <= event.score <= 1.0:
            problems.append(f"event {i}: score {event.score} outside [0, 1]")
    for i, (a, b) in enumerate(zip(events, events[1:])):
        if b.onset_s < a.onset_s:
            problems.append(f"events {i}, {i + 1}: not sorted by onset")
        elif b.onset_s - a.onset_s < merge_window_s:
            problems.append(f"events {i}, {i + 1}: onsets {b.onset_s - a.onset_s:.6f} s apart")
    return problems


def self_test(cd) -> None:
    """Fail unless ``check_events`` accepts valid events and rejects corrupted ones."""
    valid = [cd.DetectionEvent(t, 0.05, 0.3, 20.0, 0.9, "connection_click") for t in (1.0, 2.0, 3.0)]

    def corrupted(index, **changes):
        events = [replace(e) for e in valid]
        for name, value in changes.items():
            # DetectionEvent rejects a bad score at construction; bypass that.
            object.__setattr__(events[index], name, value)
        return events

    cases = {
        "valid": valid,
        "unsorted": [valid[1], valid[0], valid[2]],
        "too close": corrupted(1, onset_s=1.1),
        "bad label": corrupted(2, label="click"),
        "score above 1": corrupted(0, score=1.5),
        "score NaN": corrupted(0, score=float("nan")),
    }
    for name, events in cases.items():
        if bool(check_events(events, 0.5)) != (name != "valid"):
            raise SystemExit(f"perfbench: output check self-test failed on the {name!r} case")


def events_jsonl(index: int, events) -> bytes:
    """Events in the ``clickdetect detect`` JSON form, tagged with the recording."""
    return "".join(
        json.dumps({"recording": index, **e.to_json_dict()}) + "\n" for e in events
    ).encode()


class Tracer:
    """Spans kept in memory, one per call into a layer, nested by call order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.recording: int | None = None
        self._open: list[dict] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "recording": self.recording,
            }
            self.spans.append(span)
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if name == "spectral.stft":
                span["frames"], span["bins"] = result.n_frames, result.n_bins
            return result

        return traced


@contextmanager
def traced_layers(tracer: Tracer):
    """Swap the detector module's layer functions for traced ones, then restore."""
    import clickdetect.detector as module

    saved = {attr: getattr(module, attr) for attr in TRACED_ATTRS}
    try:
        for attr, layer in TRACED_ATTRS.items():
            setattr(module, attr, tracer.wrap(layer, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


@dataclass
class Recording:
    wav: Path
    truth: object
    bytes: int


@dataclass
class Pass:
    """One closed loop over the recordings."""

    latencies_s: list[float] = field(default_factory=list)
    audio_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_jsonl: dict[int, bytes] = field(default_factory=dict)
    first_events: dict[int, list] = field(default_factory=dict)
    reports: dict[int, object] = field(default_factory=dict)

    def jsonl(self) -> bytes:
        return b"".join(self.first_jsonl[i] for i in sorted(self.first_jsonl))


def detect_pass(cd, recordings, seconds=None, count=None, tracer=None) -> Pass:
    """Run ``count`` recordings, or cycle until all ran once and ``seconds`` are spent.

    No recording starts that would likely end after the deadline, so one
    600 s recording runs once.
    """
    detector = cd.ClickDetector()
    read_wav, predict, match = cd.read_wav, detector.predict, cd.match_detections
    if tracer is not None:
        read_wav = tracer.wrap("audio_io.read_wav", read_wav)
        predict = tracer.wrap("detector.predict", predict)
        match = tracer.wrap("evaluation.match_detections", match)
    result = Pass()
    loop_started = time.perf_counter()
    while True:
        index = result.attempted % len(recordings)
        rec = recordings[index]
        if tracer is not None:
            tracer.recording = result.attempted
        result.attempted += 1
        started = time.perf_counter()
        try:
            buffer = read_wav(rec.wav)
            events = predict(buffer)
        except Exception:
            traceback.print_exc()
            result.failed += 1
        else:
            result.latencies_s.append(time.perf_counter() - started)
            result.audio_s.append(len(buffer) / buffer.sample_rate_hz)
            del buffer
            problems = check_events(events, detector.merge_window_s)
            jsonl = events_jsonl(index, events)
            report = match(events, rec.truth)
            if index not in result.first_jsonl:
                result.first_jsonl[index], result.first_events[index] = jsonl, events
                result.reports[index] = report
            elif jsonl != result.first_jsonl[index]:
                problems.append("events differ from the first run of this recording")
            if problems:
                print(f"perfbench: {rec.wav.name}: " + "; ".join(problems), file=sys.stderr)
                result.failed += 1
        if count is not None:
            if result.attempted >= count:
                return result
        elif result.attempted >= len(recordings):
            elapsed = time.perf_counter() - loop_started
            if elapsed * (result.attempted + 1) / result.attempted >= seconds:
                return result


def set_up(workload, seed: int, audio_dir: Path):
    """Run the set-up child ``setup_reps`` times; returns seconds, layer ms, recordings."""
    seconds, layer_ms, recordings, problems = [], defaultdict(list), None, []
    command = [sys.executable, str(HERE / "synth.py"), "--workload", workload.name,
               "--seed", str(seed), "--out", str(audio_dir)]
    for _ in range(workload.setup_reps):
        started = time.perf_counter()
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - started)
        report = json.loads(proc.stdout.splitlines()[-1])
        if recordings is not None and report["recordings"] != recordings:
            problems.append("set-up wrote different recordings for the same seed")
        recordings = report["recordings"]
        for name, ms in report["ms"].items():
            layer_ms[name].append(ms)
    return seconds, {k: statistics.median(v) for k, v in layer_ms.items()}, recordings, problems


def count_metrics(cd, run: Pass) -> dict:
    """Event and match counts over each distinct recording once."""
    events = [e for evs in run.first_events.values() for e in evs]
    clicks = sum(e.label == "connection_click" for e in events)
    pooled = cd.EvalReport.from_counts(
        sum(r.true_positives for r in run.reports.values()),
        sum(r.false_positives for r in run.reports.values()),
        sum(r.false_negatives for r in run.reports.values()),
    )
    return {
        "detector.events": len(events),
        "detector.clicks": clicks,
        "detector.click_share": clicks / len(events) if events else 0.0,
        "evaluation.tp": pooled.true_positives,
        "evaluation.fp": pooled.false_positives,
        "evaluation.fn": pooled.false_negatives,
        "evaluation.accuracy": pooled.accuracy,
    }


def span_metrics(spans, recordings) -> dict:
    """Per-layer medians over the traced recordings, and the frame count.

    Frames cover each distinct recording once: the loop's first ``len(recordings)``.
    """
    child_s = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    per_rec = defaultdict(dict)
    frames = 0
    for span in spans:
        duration = span["end"] - span["start"]
        rec = per_rec[span["recording"]]
        rec[span["name"]] = duration
        if span["name"] == "detector.detect_events":
            rec["detect_events.self"] = duration - child_s[span["id"]]
        if span["name"] == "spectral.stft":
            rec["stft.mb_out"] = span["frames"] * span["bins"] * 8 / 1e6
            if span["recording"] < len(recordings):
                frames += span["frames"]
        if span["name"] == "audio_io.read_wav":
            wav_bytes = recordings[span["recording"] % len(recordings)].bytes
            rec["read_wav.mb_per_s"] = wav_bytes / duration / 1e6

    def median_of(key, scale=1e3):
        return statistics.median(r[key] * scale for r in per_rec.values() if key in r)

    return {
        "detector.predict.ms": median_of("detector.predict"),
        "detector.detect_events.self_ms": median_of("detect_events.self"),
        "spectral.stft.ms": median_of("spectral.stft"),
        "spectral.stft.mb_out": median_of("stft.mb_out", 1.0),
        "spectral.frame_band_powers.ms": median_of("spectral.frame_band_powers"),
        "audio_io.read_wav.ms": median_of("audio_io.read_wav"),
        "audio_io.read_wav.mb_per_s": median_of("read_wav.mb_per_s", 1.0),
        "evaluation.match_detections.ms": median_of("evaluation.match_detections"),
        "detector.frames": frames,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
    }


def run_workload(cd, workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    out_dir = WORK / workload.name
    audio_dir = out_dir / "audio"
    shutil.rmtree(out_dir, ignore_errors=True)
    audio_dir.mkdir(parents=True)
    try:
        setup_s, setup_ms, listing, problems = set_up(workload, seed, audio_dir)
        recordings = [
            Recording(audio_dir / r["wav"], cd.read_truth_csv(audio_dir / r["truth"]),
                      (audio_dir / r["wav"]).stat().st_size)
            for r in listing
        ]
        # Flush the WAVs set-up wrote, so that writeback does not run during the timed loop.
        os.sync()
        warm = cd.read_wav(recordings[0].wav)
        cd.ClickDetector().predict(cd.slice_buffer(warm, 0.0, min(WARMUP_S, warm.duration_s)))
        del warm

        # A traced run spends half its time untraced and half traced, so it
        # takes no longer than an untraced one.
        plain = detect_pass(cd, recordings, seconds=seconds / 2 if trace else seconds)
        if not plain.latencies_s:
            raise SystemExit(f"perfbench: {workload.name}: no recording was read and detected")
        passes = [plain]
        counts = count_metrics(cd, plain)
        report = {
            "workload": workload.name,
            "seed": seed,
            "env": env,
            "recordings": len(recordings),
            "timed_recordings": len(plain.latencies_s),
            "setup_runs_s": setup_s,
            "latencies_ms": [t * 1e3 for t in plain.latencies_s],
            "events_sha256": hashlib.sha256(plain.jsonl()).hexdigest(),
            "end_to_end": {
                "setup_s": statistics.median(setup_s),
                "xrt": sum(plain.audio_s) / sum(plain.latencies_s),
                "latency_ms_p50": statistics.median(plain.latencies_s) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            },
            "outcome": {
                "accuracy": counts["evaluation.accuracy"],
                "false_positives": counts["evaluation.fp"],
                "failed_frac": plain.failed / plain.attempted,
            },
        }
        (out_dir / "events.jsonl").write_bytes(plain.jsonl())
        if trace:
            tracer = Tracer()
            with traced_layers(tracer):
                traced = detect_pass(cd, recordings, count=plain.attempted, tracer=tracer)
            passes.append(traced)
            if traced.jsonl() != plain.jsonl():
                problems.append("traced run produced different events from the untraced run")
            report["per_layer"] = {
                **span_metrics(tracer.spans, recordings),
                **counts,
                **setup_ms,
                "trace.overhead_pct": 100.0 * (sum(traced.latencies_s) / sum(plain.latencies_s) - 1.0),
            }
            with open(out_dir / "trace.jsonl", "w") as handle:
                handle.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    finally:
        shutil.rmtree(audio_dir, ignore_errors=True)
    report["attempted"] = sum(p.attempted for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["problems"] = problems
    report["correct"] = not problems and report["failed"] == 0
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict, units: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['timed_recordings']} timed recordings of {report['recordings']}  "
          f"set-up runs {', '.join(f'{s:.2f}' for s in report['setup_runs_s'])} s")
    rows = {**report["end_to_end"], **report["outcome"], **report.get("per_layer", {})}
    for name, value in rows.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  events_sha256 {report['events_sha256']}")
    print(f"  correct {report['correct']}  attempted {report['attempted']}  failed {report['failed']}"
          + "".join(f"\n  problem: {p}" for p in report["problems"]))
    print("  env " + json.dumps(report["env"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    fix_blas_threads()
    cd = load_package()
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(OUTCOME_UNITS)
    self_test(cd)
    env = environment(np)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(cd, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        print_report(report, units)
        reports.append(report)

    def value(report, name):
        return {**report["end_to_end"], **report.get("per_layer", {})}[name]

    prefix = len(reports) > 1
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{m['name']}" if prefix else m["name"]): {"value": value(r, m["name"]), "unit": m["unit"]}
            for r in reports
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
