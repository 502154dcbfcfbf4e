"""Shared pieces of the detector benchmark: paths, workloads, package import.

This module imports no numpy at load time: ``run.py`` must fix the BLAS
thread count in the environment before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: BLAS threads for every benchmark process; at most ``nproc``. One thread
#: keeps the single matmul in ``frame_band_powers`` from competing with the
#: caller, and makes run-to-run timings steadier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SAMPLE_RATE_HZ = 48000

#: Seconds of the first recording that the warm-up ``predict`` runs on. It
#: touches every code path and the FFT plan for the window length without
#: paying for a whole 600 s recording.
WARMUP_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One recording per entry of ``snrs_db``, all of the same length."""

    name: str
    duration_s: float
    transient_rate_hz: float
    clicks_per_recording: int
    snrs_db: tuple[float, ...]
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        # Dense factory transients: most frames take the per-frame median path.
        Workload("busy_60s", 60.0, 8.0, 12, (6.0, 9.0, 12.0, 15.0, 18.0), 3),
        # One long recording: read and STFT memory grow with its length. With
        # 0.05 Hz transients, mix_at_snr's burst-band reference is ~10 dB lower
        # than with the acceptance corpus's 0.5 Hz, so 22 dB gives the click
        # level of a 12 dB click in that corpus.
        Workload("long_600s", 600.0, 0.05, 20, (22.0,), 2),
    )
}


def fix_blas_threads() -> None:
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def load_package():
    """Import ``clickdetect`` from this checkout's ``src``, never from elsewhere."""
    init = SRC / "clickdetect" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import clickdetect

    if Path(clickdetect.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported clickdetect from {clickdetect.__file__}, not {init}")
    return clickdetect
