"""One benchmark set-up: synthesise and write a workload's recordings.

Run by ``run.py`` in a fresh process, so its wall time covers importing the
package, synthesis, writing the WAVs and one warm-up ``predict``, and so
synthesis never counts toward the measuring process's peak memory.

    python3 perfbench/synth.py --workload busy_60s --seed 1 --out DIR

Prints one JSON line: milliseconds spent in each synthesis layer and, per
recording, its file names, SNR and the sha256 of the WAV bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from collections import defaultdict
from pathlib import Path

from common import SAMPLE_RATE_HZ, WARMUP_S, WORKLOADS, fix_blas_threads, load_package


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    fix_blas_threads()
    cd = load_package()
    import numpy as np

    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    ms: dict[str, float] = defaultdict(float)

    def timed(layer, fn, *fn_args):
        started = time.perf_counter()
        result = fn(*fn_args)
        ms[layer] += (time.perf_counter() - started) * 1e3
        return result

    recordings = []
    warmup = None
    for index, snr in enumerate(workload.snrs_db):
        # The steps of soundscape.generate_corpus, one timed call at a time.
        seed = 1000 * args.seed + index
        times = cd.spaced_click_times(
            workload.clicks_per_recording, workload.duration_s, np.random.default_rng(seed)
        )
        cfg = cd.SimConfig(
            sample_rate_hz=SAMPLE_RATE_HZ,
            seed=seed,
            duration_s=workload.duration_s,
            transient_rate_hz=workload.transient_rate_hz,
            click_times_s=times,
            target_snr_db=snr,
        )
        click = timed("soundscape.synth_click.ms", cd.synth_click, SAMPLE_RATE_HZ, seed)
        noise = timed("soundscape.factory_noise.ms", cd.factory_noise, cfg)
        mix, truth = timed("soundscape.mix_at_snr.ms", cd.mix_at_snr, click, noise, cfg)
        del noise
        wav = args.out / f"rec_{index}.wav"
        timed("audio_io.write_wav.ms", cd.write_wav, mix, wav)
        cd.write_truth_csv(truth, args.out / f"rec_{index}.csv")
        if warmup is None:
            warmup = cd.slice_buffer(mix, 0.0, min(WARMUP_S, mix.duration_s))
        del mix
        recordings.append(
            {
                "wav": wav.name,
                "truth": f"rec_{index}.csv",
                "snr_db": snr,
                "sha256": hashlib.sha256(wav.read_bytes()).hexdigest(),
            }
        )
    cd.ClickDetector().predict(warmup)
    print(json.dumps({"ms": ms, "recordings": recordings}))


if __name__ == "__main__":
    main()
